"""Word normalization, derived elements, rewriting, and relative checks."""

import random
from fractions import Fraction

import pytest

from steinberg_lab.rings import (GF, QQ, ZZ, NonUnitError, RingHom, product_ring,
                                 poly_ring, substitution_hom)
from steinberg_lab.roots import build_root_system
from steinberg_lab import checks, reps
from steinberg_lab.words import (SteinbergWord, commutator,
                                 commutator_reduce, gen, identity_word,
                                 opposite_commutator, steinberg_symbol,
                                 substitute, torus_element, weyl_element,
                                 word_from_json, word_to_json)

A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
D4 = build_root_system("D", 4)
Z = ZZ()


def test_generator_normalization():
    a1 = A2.simple_roots[0]
    assert gen(A2, Z, a1, 0).is_empty
    assert gen(A2, Z, a1, 2) * gen(A2, Z, a1, 3) == gen(A2, Z, a1, 5)
    assert gen(A2, Z, a1, 2).inverse() == gen(A2, Z, a1, -2)
    assert (gen(A2, Z, a1, 2) * gen(A2, Z, a1, -2)).is_empty
    assert repr(gen(A2, Z, a1, 0)) == "1"


def test_normalization_cascades():
    a1, a2 = A2.simple_roots
    w = SteinbergWord(A2, Z, [(a1, Z.from_int(1)), (a2, Z.from_int(2)),
                              (a2, Z.from_int(-2)), (a1, Z.from_int(-1))])
    assert w.is_empty


def test_rejects_foreign_arguments():
    """A letter's argument must lie in the word's ring and its root in the
    word's system, also when the letters bypass `gen`."""
    a1 = A2.simple_roots[0]
    with pytest.raises(Exception):
        gen(A2, Z, a1, GF(5).from_int(1))
    with pytest.raises(ValueError):
        gen(A2, Z, (2, 0, 0), 1)
    with pytest.raises(ValueError, match="is not an element of ZZ"):
        SteinbergWord(A2, Z, [(a1, QQ().el(Fraction(1, 2)))])
    for arg in (1, 0):
        with pytest.raises(ValueError, match="is not a root of A2"):
            SteinbergWord(A2, Z, [((9, 9, 9), Z.from_int(arg))])


def test_weyl_and_torus_need_units():
    with pytest.raises(NonUnitError):
        weyl_element(A2, Z, A2.simple_roots[0], 2)
    w = weyl_element(A2, Z, A2.simple_roots[0], -1)
    assert len(w) == 3


def test_torus_of_one_is_trivial_in_matrices():
    F5 = GF(5)
    rep = reps.build_representation(A2, "defining")
    h1 = torus_element(A2, F5, A2.simple_roots[0], 1)
    assert reps.evaluate(h1, rep).is_identity


def test_symbol_with_unit_one_is_trivial():
    F7 = GF(7)
    rep = reps.build_representation(A2, "defining")
    s = steinberg_symbol(A2, F7, A2.simple_roots[0], 3, 1)
    assert reps.evaluate(s, rep).is_identity


def test_opposite_commutator_shape_and_vanishing():
    a1 = A2.simple_roots[0]
    assert opposite_commutator(A2, Z, a1, 0, 5).is_empty
    assert opposite_commutator(A2, Z, a1, 5, 0).is_empty
    y = opposite_commutator(A2, Z, a1, 2, 3)
    assert len(y) == 4
    # hand-computed 3x3 image of [x(2), x^-(3)] in the top SL2 block:
    # [[1,2],[0,1]][[1,0],[3,1]][[1,-2],[0,1]][[1,0],[-3,1]] = [[43,-12],[18,-5]]
    rep = reps.build_representation(A2, "defining")
    m = reps.evaluate(y, rep)
    expected = [[43, -12, 0], [18, -5, 0], [0, 0, 1]]
    assert m.rows == expected


def test_substitute_evaluation_examples():
    P = poly_ring(Z, ("t1", "t2"))
    t1, t2 = P.var("t1"), P.var("t2")
    a1 = A2.simple_roots[0]
    w = gen(A2, P, a1, t1 * t2)
    hom = substitution_hom(P, P, {"t1": P.one - t1, "t2": t1})
    assert substitute(w, hom) == gen(A2, P, a1, (P.one - t1) * t1)
    # evaluation at zero kills multiples of the variable
    P1 = poly_ring(Z, ("t",))
    ev0 = substitution_hom(P1, Z, {"t": Z.zero})
    w2 = gen(A2, P1, a1, P1.var("t") * P1.from_int(5))
    assert substitute(w2, ev0).is_empty


def test_substitute_product_projection():
    prod = product_ring(Z, Z)
    a1 = A2.simple_roots[0]
    w = gen(A2, prod, a1, prod.pair(1, 0))
    pr2 = RingHom(prod, prod.right, lambda p: p[1], "pr1")
    assert substitute(w, pr2).is_empty
    pr1 = RingHom(prod, prod.left, lambda p: p[0], "pr0")
    assert substitute(w, pr1) == gen(A2, Z, a1, 1)


def test_commutator_reduce_sound_and_sorted():
    assert checks.reduce_soundness(random.Random(8), 120) == []


def test_commutator_reduce_sound_other_rings():
    assert checks.reduce_soundness(random.Random(88), 390) == []


def test_commutator_reduce_collection_example():
    a1, a2 = A2.simple_roots
    adj = reps.build_representation(A2, "adjoint")
    w = gen(A2, Z, a2, 3) * gen(A2, Z, a1, 2)
    red = commutator_reduce(w)
    assert reps.evaluate(red, adj) == reps.evaluate(w, adj)
    indices = [A2.index[r] for r, _ in red.letters]
    assert indices == sorted(indices)
    # the collected letter carries -N(a1,a2) * a * b
    args = {r: a for r, a in red.letters}
    assert args[(1, 0, -1)] == Z.from_int(-A2.structure_constant(a1, a2) * 2 * 3)


def test_sorted_unipotent_word_is_fixed_point():
    a1, a2 = A2.simple_roots
    w = gen(A2, Z, a1, 2) * gen(A2, Z, (1, 0, -1), 5) * gen(A2, Z, a2, 3)
    assert commutator_reduce(w) == w


def test_orthogonal_letters_swap_freely_in_d4():
    r1, r2 = (1, -1, 0, 0), (0, 0, 1, -1)
    assert (r1, r2) not in D4.addition_table
    w = gen(D4, Z, r2, 3) * gen(D4, Z, r1, 2)
    red = commutator_reduce(w)
    assert red == gen(D4, Z, r1, 2) * gen(D4, Z, r2, 3)


def test_product_splitting_exhaustive_over_small_rings():
    """Commutators between the two factors of a product ring die in the
    product of the groups."""
    prod = product_ring(GF(2), GF(3))
    adj = reps.build_representation(A2, "adjoint")
    factor_a = [prod.pair(x, 0) for x in range(2)]
    factor_b = [prod.pair(0, y) for y in range(3)]
    for alpha in A2.roots:
        for beta in A2.roots:
            for a in factor_a:
                for b in factor_b:
                    w = commutator(gen(A2, prod, alpha, a), gen(A2, prod, beta, b))
                    assert reps.evaluate(w, adj).is_identity


def test_commutator_congruence_random_sweep():
    assert checks.congruence_condition(random.Random(21), 25) == []


def test_word_json_roundtrip():
    F5 = GF(5)
    w = steinberg_symbol(A2, F5, A2.simple_roots[0], 2, 3)
    data = word_to_json(w)
    w2 = word_from_json(data)
    assert w2 == w
    # sign -1 letters fold into negated arguments
    data2 = {"system": {"type": "A", "rank": 2},
             "ring": data["ring"],
             "letters": [{"root": [1, -1, 0], "arg": 2, "sign": -1}]}
    assert word_from_json(data2) == gen(A2, F5, A2.simple_roots[0], -2)


def test_symbol_provenance():
    F5 = GF(5)
    s1 = steinberg_symbol(A2, F5, A2.simple_roots[0], 2, 3)
    s2 = steinberg_symbol(A2, F5, A2.simple_roots[0], 4, 2)
    assert (s1 * s2).symbols == s1.symbols + s2.symbols
    assert identity_word(A2, F5).symbols == ()
    assert gen(A2, F5, A2.simple_roots[0], 1).symbols is None
    assert (s1 * gen(A2, F5, A2.simple_roots[0], 1)).symbols is None


def test_word_from_json_reduces_arguments():
    """x_a(7) over F7 is the empty word once its argument is reduced."""
    data = word_to_json(gen(A2, GF(7), A2.simple_roots[0], 1))
    data["letters"][0]["arg"] = 7
    assert word_from_json(data).is_empty
