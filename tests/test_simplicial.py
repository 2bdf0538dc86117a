"""Simplicial ring levels, face/degeneracy identities, Moore lifts, CRT."""

import random

import pytest

from steinberg_lab.rings import ZZ
from steinberg_lab.roots import build_root_system
from steinberg_lab import checks, words
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


def test_simplicial_identities():
    assert len(simplicial_identity_report(Z, 3)) == 33
    assert checks.simplicial_identities(None, 3) == []


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
