"""Conjugation homomorphisms, orbit translation operators, glueing."""

import hashlib
import json
import random

import pytest

from steinberg_lab.rings import GF, QQ, ZZ, RingMismatchError, localize, poly_ring, quotient
from steinberg_lab.roots import build_root_system
from steinberg_lab import checks, patching, reps, words
from steinberg_lab.patching import (ConjugationHom, GlueingError,
                                    InsufficientLevelError, PatchDatum,
                                    PatchPair, conj_bound, glueing_demo,
                                    left_translation, mu_image, star_reduce,
                                    translate_by_word, verify_conjugation,
                                    verify_translation_relations,
                                    zariski_datum)
from steinberg_lab.words import gen, identity_word, substitute

Z = ZZ()
A2, A3, D4 = (build_root_system(t, r) for t, r in (("A", 2), ("A", 3), ("D", 4)))
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
    assert zariski_datum is PatchDatum
    datum = PatchDatum(ZZ(), 2, 3)
    assert datum.A is localize(ZZ(), 2) and datum.A_h is localize(datum.A, datum.h_in_A)
    assert repr(datum) == "PatchDatum(ZZ -> (ZZ)_[2], h=3)"
    with pytest.raises(ValueError):
        zariski_datum(Z, 2, 0)
    for m in (GF(7).from_int(2), localize(Z, 2).from_int(2)):
        with pytest.raises(RingMismatchError):
            PatchDatum(Z, m, 3)


def test_datum_needs_coprime_m_and_h():
    F3t = poly_ring(GF(3), ("t",))
    t = F3t.var("t")
    zariski_datum(QQ(), 2, 4)                 # nonzero is enough over a field
    zariski_datum(F3t, t, t + 1)
    for B, m, h in [(Z, 2, 4), (Z, 0, 3), (F3t, t, t * (t + 1)),
                    (quotient(Z, 6), 5, 1),   # no Bezout algorithm: undecidable
                    (poly_ring(Z, ("t",)), 2, 3)]:
        with pytest.raises(ValueError):
            zariski_datum(B, m, h)
    for m, h in [(2, 2), (6, 3), (2, 4)]:
        with pytest.raises(ValueError, match="coprime"):
            PatchDatum(Z, m, h)


def test_decompose_shifted_reconstructs():
    assert checks.bezout_reconstruction(random.Random(2), 50) == []


def test_decompose_shifted_by_zero_is_the_decomposition():
    datum = zariski_datum(ZZ(), 2, 3)
    rng = random.Random(5)
    for _ in range(20):
        c = datum.A.sample(rng)
        for k in range(1, 5):
            for zero in (0, datum.B.zero):
                assert datum.decompose_shifted(c, k, zero) == datum.decompose(c, k)


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


@pytest.mark.parametrize("other", [A2, D4], ids=str)
def test_conj_refuses_a_conjugator_over_another_system(other):
    datum = make_datum()
    g = gen(other, datum.B_h, other.simple_roots[0], datum.B_h.fraction(Z.one, 1))
    with pytest.raises(ValueError, match=f"over {other}, not A3"):
        ConjugationHom(A3, datum.B, datum.h, g)


def test_conj_apply_word_refuses_a_word_over_another_system():
    """(0, 1, -1, 0) is a root of D4 and of A3, so without the refusal
    the D4 word is read as an A3 word."""
    datum = make_datum()
    g = gen(A3, datum.B_h, A3.simple_roots[0], datum.B_h.fraction(Z.one, 1))
    ch = ConjugationHom(A3, datum.B, datum.h, g)
    with pytest.raises(ValueError, match="over D4, not A3"):
        ch.apply_word(gen(D4, datum.B, (0, 1, -1, 0), 729), 2)


def test_conj_defining_identity_exact():
    """image(c_g(x)) = g image(x) g^-1 over the localization, exactly."""
    datum = make_datum()
    rng = random.Random(3)
    for trial in range(15):
        g = random_g(datum, rng)
        args = [(A3.roots[rng.randrange(len(A3.roots))], rng.randint(-3, 3))
                for _ in range(5)]
        assert verify_conjugation(datum, ADJ, g, args) == [], (trial,)


def test_conj_identity_above_the_bound_too():
    datum = make_datum()
    rng = random.Random(4)
    g = random_g(datum, rng)
    cb = ConjugationHom(A3, datum.B, datum.h, g).bound
    args = [(A3.roots[rng.randrange(len(A3.roots))], rng.randint(-2, 2))
            for _ in range(4)]
    assert verify_conjugation(datum, ADJ, g, args, k=cb + 2) == []


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
    assert verify_conjugation(datum, ADJ, g, args) == expected


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
    q = left_translation(datum, alpha, c, 1, p)
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
    q = left_translation(datum, alpha, c, 0, p, k=2)
    assert q.u.is_empty
    assert q.v == gen(A3, datum.A, alpha, c)


def test_translation_equivariance():
    # the suite runs ceil(samples / 2) equivariance chains: 15 here
    assert checks.translation_operators(random.Random(7), 30) == []


def test_translation_independence_of_choices():
    # each chain step draws a level floor and a shift: 40 steps here
    assert checks.translation_operators(random.Random(8), 20) == []


def test_translation_level_is_a_floor():
    """Every level below n(u^-1) + s is raised to it: each gives the pair
    of k = n(u^-1) + s, letter for letter, and one level deeper does not."""
    datum = make_datum()
    u = gen(A3, datum.B_h, A3.simple_roots[0], datum.B_h.fraction(Z.from_int(1), 1))
    p = PatchPair(u, identity_word(A3, datum.A))
    alpha, c, s = A3.simple_roots[1], datum.A.fraction(Z.from_int(5), 2), 1
    floor = conj_bound(u.inverse()) + s

    def pair(k):
        q = left_translation(datum, alpha, c, s, p, k=k)
        return q.u, q.v

    assert [pair(k) for k in range(floor)] == [pair(floor)] * floor
    assert pair(floor + 1) != pair(floor)


def test_translation_by_word_refuses_a_word_over_another_system():
    """(1, -1, 0, 0) is a root of D4 and of A3, so without the refusal
    the D4 word is read as an A3 word."""
    datum = make_datum()
    p = PatchPair(identity_word(A3, datum.B_h), identity_word(A3, datum.A))
    g = gen(D4, datum.A_h, (1, -1, 0, 0), 1)
    with pytest.raises(ValueError, match="over D4, not A3"):
        translate_by_word(datum, g, p)


def test_translation_relations_report():
    datum = make_datum()
    report = verify_translation_relations(datum, A3, ADJ, 12, random.Random(9))
    assert report.ok, report.failures
    assert (report.check, report.samples, report.failures) == ("translation-relations", 12, [])


def test_translation_relations_identity_datum():
    """m = 1 gives A = B_1, a copy of B: the square B -> B with h = 3."""
    datum = zariski_datum(ZZ(), 1, 3)
    report = verify_translation_relations(datum, A3, ADJ, 8, random.Random(10))
    assert report.ok, report.failures


def test_translation_failure_records_are_pinned(monkeypatch):
    """With every translation scalar c read as c + 1, the failure records
    of seeds 0-3 at 1, 4 and 9 samples are fixed, draw for draw and byte
    for byte (145 records: 128 equivariance, 17 unit-law-u), and each of
    the 12 runs has at least one."""
    original = patching.left_translation
    monkeypatch.setattr(patching, "left_translation",
                        lambda datum, alpha, c, *a, **kw:
                        original(datum, alpha, c + c.ring.one, *a, **kw))
    datum = make_datum()
    records = [verify_translation_relations(datum, A3, ADJ, samples, random.Random(seed)).failures
               for seed in range(4) for samples in (1, 4, 9)]
    assert all(records)
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == (
        "842fc6601f61f2925060bc4016a6ffb3b2d283f02e079246ad18d436c945bb4f")


def _n_sign_dropped(f, cg, beta, a, s, letter):
    out = f(cg, beta, a, s, letter)
    if cg.system.addition_table.get((beta, letter[0])) is None:
        return out
    (total, coeff, e), rest = out
    return [(total, coeff if cg.system.structure_constant(beta, letter[0]) == 1 else -coeff, e),
            rest]


def _opposite_letter_negated(f, cg, beta, a, s, letter):
    root, coeff, e = letter
    return f(cg, beta, a, s, (root, -coeff, e) if root == cg.system.negate(beta) else letter)


PLANTED_FAULTS = {
    "c-read-as-c-plus-1": (patching, "left_translation",
                           lambda f, datum, alpha, c, *a, **kw:
                           f(datum, alpha, c + c.ring.one, *a, **kw)),
    "shift-keeps-a": (PatchDatum, "decompose_shifted",
                      lambda f, datum, c, k, d: (f(datum, c, k, 0)[0], f(datum, c, k, d)[1])),
    "N-sign-dropped": (ConjugationHom, "_apply_letter", _n_sign_dropped),
    "opposite-letter-negated": (ConjugationHom, "_apply_letter", _opposite_letter_negated),
}


@pytest.mark.parametrize("owner, name, fault", PLANTED_FAULTS.values(), ids=PLANTED_FAULTS)
def test_translation_suite_refutes_planted_faults(owner, name, fault, monkeypatch):
    """The intact 12-sample suite holds on seeds 0-5, and each planted
    fault is refuted on every one of them: a wrong scalar, a shifted
    decomposition that keeps its A-part, conjugation with the sign of
    N(beta, gamma) dropped, and a letter on -beta conjugated with its
    coefficient negated."""
    datum = make_datum()

    def unrefuted():
        return [seed for seed in range(6)
                if verify_translation_relations(datum, A3, ADJ, 12, random.Random(seed)).ok]

    assert unrefuted() == list(range(6))
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **kw: fault(original, *a, **kw))
    assert unrefuted() == []


def test_unit_laws_word_level():
    datum = make_datum()
    rng = random.Random(11)
    p0 = PatchPair(identity_word(A3, datum.B_h), identity_word(A3, datum.A))
    v = gen(A3, datum.A, A3.simple_roots[0], datum.A.fraction(Z.from_int(5), 1)) * \
        gen(A3, datum.A, A3.simple_roots[2], datum.A.fraction(Z.from_int(1), 2))
    pv = translate_by_word(datum, substitute(v, datum.lam_A), p0)
    assert mu_image(datum, ADJ, pv) == reps.evaluate(v, ADJ, hom=datum.lam_A)
    u = random_g(datum, rng, s_max=1)
    pu = translate_by_word(datum, substitute(u, datum.iota_loc),
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


@pytest.mark.parametrize("hom, reason", [("lam_B", "does not die in the localization"),
                                         ("iota", "does not reproduce the target")])
def test_glueing_demo_certifies_its_candidate(hom, reason, monkeypatch):
    """Negative control: with a letter planted in the image of the
    candidate y under lambda_B or iota, that certification refuses it."""
    datum = make_datum()
    x = words.commutator(gen(A3, datum.A, A3.simple_roots[0], datum.A.fraction(Z.from_int(5), 2)),
                         gen(A3, datum.A, A3.simple_roots[2], datum.A.fraction(Z.from_int(7), 1)))
    original = patching.substitute

    def faulty(w, f):
        out = original(w, f)
        return out * gen(A3, out.ring, A3.roots[0], 1) if f is getattr(datum, hom) else out

    monkeypatch.setattr(patching, "substitute", faulty)
    with pytest.raises(GlueingError, match=reason):
        glueing_demo(datum, A3, ADJ, x)


@pytest.mark.parametrize("other, phi", [(A2, A3), (A3, D4)], ids=["A2-in-A3", "A3-in-D4"])
def test_glueing_demo_refuses_a_word_over_another_system(other, phi):
    """An A3 word has D4-shaped roots, so without the refusal it runs
    through D4's tables and fails as if it were outside the kernel."""
    datum = make_datum()
    c = datum.A.fraction(Z.from_int(5), 2)
    x = words.commutator(gen(other, datum.A, other.simple_roots[0], c),
                         gen(other, datum.A, other.simple_roots[-1], datum.A.one))
    with pytest.raises(ValueError, match=f"over {other}, not {phi}"):
        glueing_demo(datum, phi, reps.build_representation(phi, "adjoint"), x)
