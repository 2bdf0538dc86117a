"""Simplicial ring levels, face/degeneracy identities, Moore lifts, CRT."""

import random

import pytest

from steinberg_lab.rings import GF, ZZ, PolynomialRing, poly_ring, product_ring
from steinberg_lab.roots import build_root_system
from steinberg_lab import checks, simplicial, words
from steinberg_lab.simplicial import (MooreGenerator, degeneracy_hom, face_hom,
                                      moore_lift, pi0_connectivity_witness,
                                      simplex_ring, simplicial_identity_report)

Z = ZZ()
A2 = build_root_system("A", 2)


def test_face_formulas_level_one_and_two():
    lvl1 = simplex_ring(Z, 1)
    lvl2 = simplex_ring(Z, 2)
    assert face_hom(Z, 1, 0)(lvl1.var("t1")) == Z.one
    assert face_hom(Z, 1, 1)(lvl1.var("t1")) == Z.zero
    d0 = face_hom(Z, 2, 0)
    assert d0(lvl2.var("t1")) == lvl1.one - lvl1.var("t1")
    assert d0(lvl2.var("t2")) == lvl1.var("t1")
    d1 = face_hom(Z, 2, 1)
    assert d1(lvl2.var("t1")) == lvl1.zero
    assert d1(lvl2.var("t2")) == lvl1.var("t1")
    d2 = face_hom(Z, 2, 2)
    assert d2(lvl2.var("t1")) == lvl1.var("t1")
    assert d2(lvl2.var("t2")) == lvl1.zero


def test_index_ranges():
    with pytest.raises(ValueError):
        face_hom(Z, 1, 2)
    with pytest.raises(ValueError):
        degeneracy_hom(Z, 1, 2)


def _naive_theta_star(base, n, m, theta):
    """The images of t1..tn under theta^*: level n -> level m, summed by
    ring arithmetic with t0 = 1 - (t1 + ... + tm)."""
    lvl = simplex_ring(base, m)
    coords = [lvl.var(f"t{j}") for j in range(1, m + 1)]
    t0 = lvl.one
    for c in coords:
        t0 = t0 - c
    coords = [t0] + coords
    images = []
    for k in range(1, n + 1):
        image = lvl.zero
        for j in range(m + 1):
            if theta(j) == k:
                image = image + coords[j]
        images.append(image)
    return images


@pytest.mark.parametrize("base", [Z, GF(7)], ids=["ZZ", "F7"])
def test_faces_and_degeneracies_are_theta_star(base):
    """d_i on levels 1-4 is theta^* of the map missing i, s_i on levels
    0-3 of the map hitting i twice: same image of every variable, and
    constants map to constants."""
    # a monotone map [m] -> [n] as the list of its values
    cases = [(face_hom(base, n, i), n, n - 1, [j for j in range(n + 1) if j != i])
             for n in range(1, 5) for i in range(n + 1)]
    cases += [(degeneracy_hom(base, n, i), n, n + 1, sorted([*range(n + 1), i]))
              for n in range(4) for i in range(n + 1)]
    for hom, n, m, theta in cases:
        domain, codomain = simplex_ring(base, n), simplex_ring(base, m)
        got = [hom(domain.var(f"t{k}")) for k in range(1, n + 1)]
        assert got == _naive_theta_star(base, n, m, theta.__getitem__), hom.label
        assert hom(domain.from_int(3)) == codomain.from_int(3), hom.label


def test_face_maps_use_no_ring_arithmetic(monkeypatch):
    """Every face and degeneracy map up to level 4 is built from canonical
    payloads, with no polynomial addition, product or negation."""
    bases = [Z, GF(7), poly_ring(GF(5), ("x",))]

    def refuse(*args):
        raise AssertionError("polynomial arithmetic while building a face map")

    for name in ("_add", "_mul", "_neg"):
        monkeypatch.setattr(PolynomialRing, name, refuse)
    for base in bases:
        for n in range(5):
            for i in range(n + 1):
                degeneracy_hom(base, n, i)
                if n:
                    face_hom(base, n, i)


def test_simplicial_identities():
    assert len(simplicial_identity_report(Z, 3)) == 33
    assert checks.simplicial_identities(None, 3) == []


def test_report_builds_each_face_and_degeneracy_once(monkeypatch):
    built = []

    def counted(name):
        real = getattr(simplicial, name)

        def build(base, n, i):
            built.append((name, n, i))
            return real(base, n, i)
        return build

    for name in ("face_hom", "degeneracy_hom"):
        monkeypatch.setattr(simplicial, name, counted(name))
    assert len(simplicial_identity_report(Z, 4)) == 69
    assert built and len(built) == len(set(built))


def test_degeneracy_then_face_is_identity():
    lvl1 = simplex_ring(Z, 1)
    s0 = degeneracy_hom(Z, 1, 0)
    d0 = face_hom(Z, 2, 0)
    t1 = lvl1.var("t1")
    assert d0(s0(t1)) == t1


def test_moore_generator_shapes_and_kernel():
    lvl1 = simplex_ring(Z, 1)
    g_empty = words.identity_word(A2, lvl1)
    m = MooreGenerator(A2, Z, 1, A2.simple_roots[0], lvl1.one, g_empty)
    assert m.in_moore_kernel()
    w = m.word()
    assert len(w) == 1
    lift = moore_lift(m)
    assert lift.level == 2
    assert lift.in_moore_kernel()
    # d0(lift) reproduces the generator word-for-word
    assert lift.face(0) == m.word()
    # the lifted core is -t1 t2
    lvl2 = simplex_ring(Z, 2)
    assert lift.core_argument() == -(lvl2.var("t1") * lvl2.var("t2"))


def test_moore_level2_coefficient_must_avoid_t1():
    lvl2 = simplex_ring(Z, 2)
    with pytest.raises(ValueError):
        MooreGenerator(A2, Z, 2, A2.simple_roots[0], lvl2.var("t1"),
                       words.identity_word(A2, lvl2))


def test_moore_generator_refuses_a_conjugator_over_another_system():
    lvl1 = simplex_ring(Z, 1)
    A3 = build_root_system("A", 3)
    g = words.gen(A3, lvl1, A3.simple_roots[0], lvl1.var("t1"))
    with pytest.raises(ValueError, match="over A3, not A2"):
        MooreGenerator(A2, Z, 1, A2.simple_roots[0], lvl1.one, g)


def test_moore_lift_random_roundtrips():
    assert checks.moore_roundtrip(random.Random(12), 100) == []


def test_pi0_connectivity_witness():
    w = pi0_connectivity_witness(A2, Z, A2.simple_roots[0], 5)
    assert words.substitute(w, face_hom(Z, 1, 1)).is_empty
    image = words.substitute(w, face_hom(Z, 1, 0))
    assert image == words.gen(A2, Z, A2.simple_roots[0], 5)
    assert pi0_connectivity_witness(A2, Z, A2.simple_roots[0], 0).is_empty
    # polynomial coefficient case
    P = simplex_ring(Z, 1)
    w2 = pi0_connectivity_witness(A2, P, A2.simple_roots[0], P.var("t1"))
    assert words.substitute(w2, face_hom(P, 1, 1)).is_empty


def test_crt_roundtrip():
    assert checks.crt_roundtrip(random.Random(14), 100) == []


@pytest.mark.parametrize("left, right", [(GF(7), GF(7)), (Z, GF(7)), (GF(7), Z)], ids=str)
def test_crt_from_pair_refuses_a_pair_over_another_base(left, right):
    with pytest.raises(ValueError, match="ZZ x ZZ"):
        simplicial.crt_from_pair(product_ring(left, right).pair(3, 5),
                                 simplicial.interval_square_ring(Z))
