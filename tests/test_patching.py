"""Conjugation homomorphisms, orbit translation operators, glueing."""

import random

import pytest

from steinberg_lab.rings import ZZ, identity_hom
from steinberg_lab.roots import build_root_system
from steinberg_lab import checks, reps, words
from steinberg_lab.patching import (ConjugationHom, GlueingError,
                                    InsufficientLevelError, PatchDatum,
                                    PatchPair, conj_bound, glueing_demo,
                                    left_translation, mu_image, star_reduce,
                                    translate_by_word, verify_conjugation,
                                    verify_translation_relations,
                                    zariski_datum)
from steinberg_lab.words import gen, identity_word, substitute

Z = ZZ()
A3 = build_root_system("A", 3)
ADJ = reps.build_representation(A3, "adjoint")


def make_datum():
    return zariski_datum(Z, 2, 3)


def random_g(datum, rng, max_len=2, s_max=2):
    g = identity_word(A3, datum.B_h)
    for _ in range(rng.randint(1, max_len)):
        root = A3.roots[rng.randrange(len(A3.roots))]
        num = Z.from_int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        g = g * gen(A3, datum.B_h, root, datum.B_h.fraction(num, rng.randint(0, s_max)))
    return g


# -- datum -------------------------------------------------------------------

def test_datum_construction():
    datum = make_datum()
    assert datum.B_h.multiplier == Z.from_int(3)
    with pytest.raises(ValueError):
        zariski_datum(Z, 2, 0)


def test_decompose_shifted_reconstructs():
    assert checks.bezout_reconstruction(random.Random(2), 50) == []


# -- conjugation case formulas (letter level) ---------------------------------

def test_conj_case_formulas():
    datum = make_datum()
    beta = A3.simple_roots[0]             # e1 - e2
    g = gen(A3, datum.B_h, beta, datum.B_h.fraction(Z.from_int(5), 1))
    ch = ConjugationHom(A3, datum.B, datum.h, g)
    # orthogonal root: untouched
    gamma = A3.simple_roots[2]            # e3 - e4
    assert ch._apply_letter(beta, Z.from_int(5), 1, (gamma, Z.from_int(2), 3)) == \
        [(gamma, Z.from_int(2), 3)]
    # beta + gamma a root: collected letter first, level drops by s
    gamma2 = A3.simple_roots[1]           # e2 - e3
    total = A3.addition_table[(beta, gamma2)]
    n = A3.structure_constant(beta, gamma2)
    out = ch._apply_letter(beta, Z.from_int(5), 1, (gamma2, Z.from_int(2), 3))
    assert out == [(total, Z.from_int(n * 10), 2), (gamma2, Z.from_int(2), 3)]
    # same root: unchanged (2 beta is not a root)
    assert ch._apply_letter(beta, Z.from_int(5), 1, (beta, Z.from_int(2), 3)) == \
        [(beta, Z.from_int(2), 3)]


def test_conj_single_letter_conjugator():
    """x_gamma(b h^k) conjugated by x_beta(a/h^s), with k >= 2s so that the
    opposite-root case has its headroom."""
    datum = make_datum()
    rng = random.Random(77)
    for _ in range(20):
        beta = A3.roots[rng.randrange(len(A3.roots))]
        gamma = A3.roots[rng.randrange(len(A3.roots))]
        s = rng.randint(0, 1)
        k = rng.randint(2 * s, 2 * s + 2)
        a = Z.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
        b = Z.from_int(rng.randint(-3, 3))
        g = gen(A3, datum.B_h, beta, datum.B_h.fraction(a, s))
        x = gen(A3, Z, gamma, b * datum.h ** k)
        out = ConjugationHom(A3, Z, datum.h, g).apply_word(x, k)
        left = reps.evaluate(out, ADJ, hom=datum.lam_B)
        right = reps.evaluate(g, ADJ) * reps.evaluate(x, ADJ, hom=datum.lam_B) * \
            reps.evaluate(g.inverse(), ADJ)
        assert left == right


def test_conj_opposite_case_needs_headroom():
    datum = make_datum()
    beta = A3.simple_roots[0]
    g = gen(A3, datum.B_h, beta, datum.B_h.fraction(Z.from_int(5), 2))
    ch = ConjugationHom(A3, datum.B, datum.h, g)
    nbeta = A3.negate(beta)
    with pytest.raises(InsufficientLevelError):
        ch._apply_letter(beta, Z.from_int(5), 2, (nbeta, Z.from_int(1), 3))
    out = ch._apply_letter(beta, Z.from_int(5), 2, (nbeta, Z.from_int(1), 4))
    assert len(out) >= 4
    assert all(e >= 0 for _, _, e in out)


def test_conj_bound_fold():
    datum = make_datum()
    g = gen(A3, datum.B_h, A3.simple_roots[0], datum.B_h.fraction(Z.from_int(1), 1)) * \
        gen(A3, datum.B_h, A3.simple_roots[1], datum.B_h.fraction(Z.from_int(1), 2))
    assert conj_bound(g) == 2 * (2 * (0 + 1) + 2)
    assert conj_bound(identity_word(A3, datum.B_h)) == 0


def test_conj_empty_word_is_inclusion():
    datum = make_datum()
    ch = ConjugationHom(A3, datum.B, datum.h, identity_word(A3, datum.B_h))
    assert ch.bound == 0
    x = gen(A3, datum.B, A3.simple_roots[0], 6)
    assert ch.apply_word(x, 1) == x


def test_conj_defining_identity_exact():
    """image(c_g(x)) = g image(x) g^-1 over the localization, exactly."""
    datum = make_datum()
    rng = random.Random(3)
    for trial in range(15):
        g = random_g(datum, rng)
        args = [(A3.roots[rng.randrange(len(A3.roots))], rng.randint(-3, 3))
                for _ in range(5)]
        assert verify_conjugation(datum, A3, ADJ, g, args) == [], (trial,)


def test_conj_identity_above_the_bound_too():
    datum = make_datum()
    rng = random.Random(4)
    g = random_g(datum, rng)
    cb = ConjugationHom(A3, datum.B, datum.h, g).bound
    args = [(A3.roots[rng.randrange(len(A3.roots))], rng.randint(-2, 2))
            for _ in range(4)]
    assert verify_conjugation(datum, A3, ADJ, g, args, k=cb + 2) == []


def test_conj_identity_names_the_failing_arguments(monkeypatch):
    """Negative control: with a fault planted in apply_word on one root,
    verify_conjugation returns exactly the arguments on that root."""
    datum = make_datum()
    rng = random.Random(12)
    g = random_g(datum, rng)
    bad_root = A3.simple_roots[1]
    args = [(A3.roots[rng.randrange(len(A3.roots))], rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(30)] + [(bad_root, 2)]
    original = ConjugationHom.apply_word

    def faulty(cg, x, k):
        out = original(cg, x, k)
        if x.letters[0][0] == bad_root:
            out = out * gen(A3, cg.ring, A3.roots[0], 1)
        return out

    monkeypatch.setattr(ConjugationHom, "apply_word", faulty)
    expected = [arg for arg in args if arg[0] == bad_root]
    assert 0 < len(expected) < len(args)
    assert verify_conjugation(datum, A3, ADJ, g, args) == expected


def test_conj_rejects_levels_below_bound():
    datum = make_datum()
    g = gen(A3, datum.B_h, A3.simple_roots[0], datum.B_h.fraction(Z.from_int(1), 1))
    ch = ConjugationHom(A3, datum.B, datum.h, g)
    x = gen(A3, datum.B, A3.simple_roots[1], 3)
    with pytest.raises(InsufficientLevelError):
        ch.apply_word(x, ch.bound - 1)


def test_conj_coherence_along_iota():
    datum = make_datum()
    rng = random.Random(5)
    for _ in range(10):
        g = random_g(datum, rng)
        cg_b = ConjugationHom(A3, datum.B, datum.h, g)
        cg_a = ConjugationHom(A3, datum.A, datum.h_in_A,
                              substitute(g, datum.iota_loc))
        k = cg_b.bound
        x = gen(A3, datum.B, A3.roots[rng.randrange(len(A3.roots))],
                Z.from_int(rng.randint(-3, 3)) * datum.h ** k)
        left = substitute(cg_b.apply_word(x, k), datum.iota)
        right = cg_a.apply_word(substitute(x, datum.iota), k)
        assert left == right


# -- star action and orbit map ------------------------------------------------

def test_star_action_preserves_mu():
    datum = make_datum()
    rng = random.Random(6)
    for _ in range(20):
        u = random_g(datum, rng)
        v = identity_word(A3, datum.A)
        for _ in range(rng.randint(0, 2)):
            v = v * gen(A3, datum.A, A3.roots[rng.randrange(len(A3.roots))],
                        datum.A.sample(rng, 3))
        p = PatchPair(u, v)
        w = identity_word(A3, datum.B)
        for _ in range(rng.randint(0, 3)):
            w = w * gen(A3, datum.B, A3.roots[rng.randrange(len(A3.roots))],
                        datum.B.sample(rng, 3))
        q = star_reduce(datum, p, w)
        assert mu_image(datum, ADJ, q) == mu_image(datum, ADJ, p)
        # acting with w then w^-1 restores the pair up to normalization
        r = star_reduce(datum, q, w.inverse())
        assert r.u == p.u and r.v == p.v


def test_star_identity_element():
    datum = make_datum()
    p = PatchPair(identity_word(A3, datum.B_h), identity_word(A3, datum.A))
    q = star_reduce(datum, p, identity_word(A3, datum.B))
    assert q.u.is_empty and q.v.is_empty


# -- translation operators -----------------------------------------------------

def test_translation_b_only_argument():
    datum = make_datum()
    p = PatchPair(identity_word(A3, datum.B_h), identity_word(A3, datum.A))
    alpha = A3.simple_roots[0]
    c = datum.iota(Z.from_int(7))
    q = left_translation(datum, A3, alpha, c, 1, p)
    assert q.u == gen(A3, datum.B_h, alpha, datum.B_h.fraction(Z.from_int(7), 1))
    assert q.v.is_empty


def test_translation_pure_deep_argument():
    datum = make_datum()
    u = identity_word(A3, datum.B_h)
    p = PatchPair(u, identity_word(A3, datum.A))
    alpha = A3.simple_roots[0]
    # c = a h^k with a = 5/4, k = 2: with u = 1 the conjugation is the
    # inclusion, so v picks up exactly x_alpha(a h^(k-s))
    a = datum.A.fraction(Z.from_int(5), 2)
    c = a * datum.h_in_A ** 2
    q = left_translation(datum, A3, alpha, c, 0, p, k=2)
    assert q.u.is_empty
    assert q.v == gen(A3, datum.A, alpha, c)


def test_translation_equivariance():
    # the suite draws samples // 2 equivariance trials: 15 here
    assert checks.translation_operators(random.Random(7), 30) == []


def test_translation_independence_of_choices():
    # the suite draws samples // 2 independence trials: 10 here
    assert checks.translation_operators(random.Random(8), 20) == []


def test_translation_rejects_small_k():
    datum = make_datum()
    u = gen(A3, datum.B_h, A3.simple_roots[0], datum.B_h.fraction(Z.from_int(1), 1))
    p = PatchPair(u, identity_word(A3, datum.A))
    with pytest.raises(InsufficientLevelError):
        left_translation(datum, A3, A3.simple_roots[1], datum.A.one, 0, p, k=0)


def test_translation_relations_report():
    datum = make_datum()
    report = verify_translation_relations(datum, A3, ADJ, 12, random.Random(9))
    assert report.ok, report.failures
    assert report.to_json()["failures"] == 0


def test_translation_relations_identity_datum():
    datum = PatchDatum(Z, Z, identity_hom(Z), Z.el(3), "identity")
    report = verify_translation_relations(datum, A3, ADJ, 8, random.Random(10))
    assert report.ok, report.failures


def test_unit_laws_word_level():
    datum = make_datum()
    rng = random.Random(11)
    p0 = PatchPair(identity_word(A3, datum.B_h), identity_word(A3, datum.A))
    v = gen(A3, datum.A, A3.simple_roots[0], datum.A.fraction(Z.from_int(5), 1)) * \
        gen(A3, datum.A, A3.simple_roots[2], datum.A.fraction(Z.from_int(1), 2))
    pv = translate_by_word(datum, A3, substitute(v, datum.lam_A), p0)
    assert mu_image(datum, ADJ, pv) == reps.evaluate(v, ADJ, hom=datum.lam_A)
    u = random_g(datum, rng, s_max=1)
    pu = translate_by_word(datum, A3, substitute(u, datum.iota_loc),
                           PatchPair(identity_word(A3, datum.B_h), v))
    assert pu.u == u and pu.v == v


# -- glueing -------------------------------------------------------------------

def test_glueing_demo_empty_and_image_cases():
    datum = make_datum()
    assert glueing_demo(datum, A3, ADJ, identity_word(A3, datum.A)).is_empty
    w0 = words.commutator(gen(A3, Z, A3.simple_roots[0], 2),
                          gen(A3, Z, A3.simple_roots[2], 3))
    xb = substitute(w0, datum.iota)
    y = glueing_demo(datum, A3, ADJ, xb)
    assert reps.evaluate(substitute(y, datum.iota), ADJ) == reps.evaluate(xb, ADJ)
    assert reps.evaluate(substitute(y, datum.lam_B), ADJ).is_identity


def test_glueing_demo_with_denominators():
    datum = make_datum()
    c = datum.A.fraction(Z.from_int(5), 2)
    d = datum.A.fraction(Z.from_int(7), 1)
    x = words.commutator(gen(A3, datum.A, A3.simple_roots[0], c),
                         gen(A3, datum.A, A3.simple_roots[2], d))
    y = glueing_demo(datum, A3, ADJ, x)
    assert not y.is_empty
    assert reps.evaluate(substitute(y, datum.lam_B), ADJ).is_identity
    assert reps.evaluate(substitute(y, datum.iota), ADJ) == reps.evaluate(x, ADJ)


def test_glueing_demo_rejects_non_kernel_targets():
    datum = make_datum()
    with pytest.raises(GlueingError):
        glueing_demo(datum, A3, ADJ, gen(A3, datum.A, A3.simple_roots[0], datum.A.one))
