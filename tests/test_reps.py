"""Representation tables, evaluation, kernel membership, relation sweeps."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from functools import cache, partial, reduce
from math import gcd
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from steinberg_lab.rings import (GF, QQ, ZZ, LocalizationRing, RationalField, RingElement,
                                 canonical_hom, localize, milnor_square_ring, poly_ring,
                                 product_ring, quotient)
from steinberg_lab.roots import SUPPORTED_RANKS, build_root_system
from steinberg_lab import _float_sweep, checks, reps, roots, words
from steinberg_lab.reps import GroupMatrix, build_representation, evaluate, k2_membership, verify_relations


def test_defining_generator_image():
    A2 = build_root_system("A", 2)
    rep = build_representation(A2, "defining")
    Z = ZZ()
    m = evaluate(words.gen(A2, Z, (1, -1, 0), 7), rep)
    assert m.rows[0][1] == 7
    assert all(m.rows[i][i] == 1 for i in range(3))
    assert repr(m) == "GroupMatrix over ZZ:\n[1, 7, 0]\n[0, 1, 0]\n[0, 0, 1]"


def test_vector_generator_image_d4():
    D4 = build_root_system("D", 4)
    rep = build_representation(D4, "vector")
    Z = ZZ()
    m = evaluate(words.gen(D4, Z, (1, -1, 0, 0), 5), rep)
    # I + xi (E_12 - E_{2+4,1+4})
    assert m.rows[0][1] == 5
    assert m.rows[5][4] == -5
    assert sum(1 for i in range(8) for j in range(8) if m.rows[i][j] != 0) == 10


def test_torus_element_diagonal():
    A2 = build_root_system("A", 2)
    rep = build_representation(A2, "defining")
    F5 = GF(5)
    m = evaluate(words.torus_element(A2, F5, A2.simple_roots[0], 2), rep)
    assert [m.rows[i][i] for i in range(3)] == [2, 3, 1]
    assert all(m.rows[i][j] == 0 for i in range(3) for j in range(3) if i != j)


def test_weyl_element_block():
    A2 = build_root_system("A", 2)
    rep = build_representation(A2, "defining")
    F7 = GF(7)
    m = evaluate(words.weyl_element(A2, F7, A2.simple_roots[0], 3), rep)
    inv = pow(3, -1, 7)
    assert m.rows[0][0] == 0 and m.rows[0][1] == 3
    assert m.rows[1][0] == (-inv) % 7 and m.rows[1][1] == 0
    assert m.rows[2][2] == 1


def _dense(dim, entries):
    """Dense int64 matrix from a table's sparse (i, j, coeff) entries."""
    m = np.zeros((dim, dim), dtype=np.int64)
    for i, j, c in entries:
        m[i, j] = c
    return m


def test_bracket_consistency_ties_reps_to_constants():
    for kind, rank, repkind in (("A", 2, "defining"), ("A", 3, "adjoint"),
                                ("D", 4, "vector"), ("D", 4, "adjoint")):
        system = build_root_system(kind, rank)
        rep = build_representation(system, repkind)
        mats = {r: _dense(rep.dim, rep.m1[r]) for r in system.roots}
        for (a, b), n in system.constants_table.items():
            bracket = mats[a] @ mats[b] - mats[b] @ mats[a]
            target = n * mats[system.addition_table[(a, b)]]
            assert (bracket == target).all(), (kind, rank, repkind, a, b)


@pytest.mark.parametrize("kind,rank", [(kind, rank) for kind in SUPPORTED_RANKS
                                       for rank in SUPPORTED_RANKS[kind]])
def test_adjoint_tables_match_the_defining_realization(kind, rank):
    """The adjoint tables are read off the root data; rebuild the
    Chevalley basis X_k as matrices (e_root, then the coroots
    [e_s, e_-s] of the simple roots s) and check, column by column, that
    M1 gives [e_a, X_k] and M2 gives -e_a X_k e_a."""
    system = build_root_system(kind, rank)
    rep = build_representation(system, "adjoint")
    d = system.matrix_dim

    def dense(root):
        # float64 so the products below run in BLAS; exact on these integers
        m = np.zeros((d, d))
        for (i, j), c in system.defining_matrix(root).items():
            m[i, j] = c
        return m

    e = {root: dense(root) for root in system.roots}
    coroots = [e[s] @ e[system.negate(s)] - e[system.negate(s)] @ e[s]
               for s in system.simple_roots]
    basis = np.array([e[root] for root in system.roots] + coroots)
    assert basis.shape[0] == rep.dim

    def combine(table):
        """Column k of the table as a combination of the basis matrices."""
        return (table.T @ basis.reshape(rep.dim, d * d)).reshape(basis.shape)

    for root in system.roots:
        x = e[root]
        m1, m2 = _dense(rep.dim, rep.m1[root]), _dense(rep.dim, rep.m2[root])
        assert (combine(m1) == x @ basis - basis @ x).all(), root
        assert (combine(m2) == -(x @ basis @ x)).all(), root


@pytest.mark.parametrize("kind,rank", [(kind, rank) for kind in SUPPORTED_RANKS
                                       for rank in SUPPORTED_RANKS[kind]])
def test_simple_coordinates_sum_to_the_root(kind, rank):
    """Every root of every supported system is the sum of the simple
    roots weighted by its coordinates."""
    system = build_root_system(kind, rank)
    coords = reps._simple_coordinates(system)
    assert set(coords) == set(system.roots)
    for root, c in coords.items():
        total = [sum(ci * s[k] for ci, s in zip(c, system.simple_roots, strict=True))
                 for k in range(system.dim)]
        assert tuple(total) == root, (root, c)


def test_generator_nilpotency_degrees():
    A3 = build_root_system("A", 3)
    D4 = build_root_system("D", 4)
    for system, repkind, power in ((A3, "defining", 2), (D4, "vector", 2),
                                   (A3, "adjoint", 3), (D4, "adjoint", 3)):
        rep = build_representation(system, repkind)
        for r in system.roots:
            m = _dense(rep.dim, rep.m1[r])
            acc = m.copy()
            for _ in range(power - 1):
                acc = acc @ m
            assert (acc == 0).all(), (system, repkind, r, power)


def test_evaluate_is_multiplicative():
    A2 = build_root_system("A", 2)
    rep = build_representation(A2, "adjoint")
    F7 = GF(7)
    rng = random.Random(3)
    for _ in range(50):
        letters1 = [(A2.roots[rng.randrange(6)], F7.sample(rng)) for _ in range(rng.randint(0, 3))]
        letters2 = [(A2.roots[rng.randrange(6)], F7.sample(rng)) for _ in range(rng.randint(0, 3))]
        w1 = words.SteinbergWord(A2, F7, letters1)
        w2 = words.SteinbergWord(A2, F7, letters2)
        assert evaluate(w1 * w2, rep) == evaluate(w1, rep) * evaluate(w2, rep)


def test_k2_membership():
    A2 = build_root_system("A", 2)
    defin = build_representation(A2, "defining")
    F5 = GF(5)
    assert not k2_membership(words.gen(A2, F5, A2.simple_roots[0], 1), defin)
    sym = words.steinberg_symbol(A2, F5, A2.simple_roots[0], 2, 3)
    assert k2_membership(sym, defin)
    hu = words.torus_element(A2, F5, A2.simple_roots[0], 2)
    hv = words.torus_element(A2, F5, A2.simple_roots[0], 3)
    huv = words.torus_element(A2, F5, A2.simple_roots[0], 6)
    assert k2_membership(hu * hv * huv.inverse(), defin)


def test_random_symbol_products_die_over_finite_fields():
    assert checks.kernel_words(random.Random(13), 135) == []


def test_verify_relations_sweeps():
    configs = (("A", 2, "defining"), ("A", 2, "adjoint"), ("D", 4, "vector"))
    assert checks.relations(random.Random(1), 20, [(spec, ring) for spec in configs
                                                   for ring in checks.sweep_rings()]) == []


def test_intact_sweep_draws_nothing(monkeypatch):
    """Every case of an intact rep is certified, and a certified case
    draws no trial, so the sweep leaves the rng state as it was, both
    when it builds the rep's certificate (the first ring) and when it
    finds it built (the others)."""
    monkeypatch.setattr(reps, "_CERTIFICATES", weakref.WeakKeyDictionary())
    Pt = poly_ring(ZZ(), ("t",))
    for ring in (ZZ(), quotient(ZZ(), 6), GF(7), quotient(Pt, Pt.var("t") ** 3),
                 localize(ZZ(), 2)):
        for rep in KERNEL_REPS:
            rng = random.Random(3)
            state = rng.getstate()
            assert verify_relations(rep, ring, 10, rng).ok
            assert rng.getstate() == state, (rep.describe(), ring)
            assert rep in reps._CERTIFICATES


def test_relations_hold_over_product_rings():
    rng = random.Random(4)
    A2 = build_root_system("A", 2)
    rep = build_representation(A2, "adjoint")
    prod = product_ring(GF(2), GF(3))
    assert verify_relations(rep, prod, 8, rng).ok


def test_group_matrix_identity_and_mul():
    Z = ZZ()
    ident = GroupMatrix.identity(Z, 4)
    assert ident.is_identity
    assert (ident * ident).is_identity


# -- the sparse-row kernel -----------------------------------------------------

_Pt, _F3s = poly_ring(ZZ(), ("t",)), poly_ring(GF(3), ("s",))
# the last three have a truthy zero payload: ((), 0), (0, ()) and (0, 0)
KERNEL_RINGS = [ZZ(), QQ(), quotient(ZZ(), 6), quotient(_Pt, _Pt.var("t") ** 3),
                localize(ZZ(), 2), GF(7), localize(localize(ZZ(), 2), 3),
                localize(_F3s, _F3s.var("s")), milnor_square_ring(ZZ(), 2),
                product_ring(GF(3), ZZ())]
INT_ROW_RINGS = (QQ(), localize(ZZ(), 2), localize(localize(ZZ(), 2), 3))
KERNEL_REPS = [build_representation(build_root_system("A", 2), "adjoint"),
               build_representation(build_root_system("A", 3), "defining"),
               build_representation(build_root_system("D", 4), "vector")]


def _dense_product(m, n):
    """Schoolbook product of the dense views, as the reference."""
    ring, a, b = m.ring, m.rows, n.rows
    return [[reduce(ring._add, (ring._mul(a[i][k], b[k][j]) for k in range(m.dim)))
             for j in range(m.dim)] for i in range(m.dim)]


def _dense_image(rep, w):
    """Dense payload rows of the word's image, each letter applied as
    rows + rows (xi M1 + xi^2 M2) in the ring's own `_add` and `_mul`."""
    ring, dim = w.ring, rep.dim
    rows = [[ring._from_int(int(i == j)) for j in range(dim)] for i in range(dim)]
    for root, arg in w.letters:
        xi = arg.payload
        terms = [(i, j, ring._mul(ring._from_int(c), x))
                 for table, x in ((rep.m1[root], xi), (rep.m2[root], ring._mul(xi, xi)))
                 for i, j, c in table]
        new = [list(row) for row in rows]
        for old, row in zip(rows, new):
            for i, j, v in terms:
                row[j] = ring._add(row[j], ring._mul(old[i], v))
        rows = new
    return rows


def _random_word(system, ring, rng):
    return words.SteinbergWord(system, ring, [
        (system.roots[rng.randrange(len(system.roots))], ring.sample(rng, 4))
        for _ in range(rng.randint(0, 4))])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_RINGS), st.sampled_from(KERNEL_REPS), st.integers(0, 2 ** 32))
def test_sparse_product_is_multiplicative_and_matches_dense(ring, rep, seed):
    rng = random.Random(seed)
    w1, w2 = (_random_word(rep.system, ring, rng) for _ in range(2))
    m1, m2 = evaluate(w1, rep), evaluate(w2, rep)
    product = m1 * m2
    assert evaluate(w1 * w2, rep) == product
    assert product.rows == _dense_product(m1, m2)
    assert product.is_identity == (product.rows == GroupMatrix.identity(ring, rep.dim).rows)
    assert (m1 * evaluate(w1.inverse(), rep)).is_identity
    for m in (m1, m2, product):
        assert _stored(m) if ring in INT_ROW_RINGS else all(
            d == 1 and ring.zero.payload not in row.values() for d, row in m._rows)


def test_cancelled_entries_are_not_stored():
    """Over Z/6, x_a(3) x_a(3) = x_a(6) = 1 with every off-diagonal entry
    cancelling to 0; equality and is_identity hold only if the cancelled
    entries are dropped."""
    A2 = build_root_system("A", 2)
    Z6 = quotient(ZZ(), 6)
    alpha = A2.simple_roots[0]
    for kind in ("defining", "adjoint"):
        rep = build_representation(A2, kind)
        ident = GroupMatrix.identity(Z6, rep.dim)
        x = evaluate(words.gen(A2, Z6, alpha, 3), rep)
        assert not x.is_identity
        assert (x * x).is_identity and x * x == ident
        twice = GroupMatrix(Z6, rep.dim, reps._image_rows(Z6, rep, [(alpha, 3), (alpha, 3)]))
        assert twice.is_identity and twice == ident


def test_negated_table_coefficient_is_caught():
    """Negating one coefficient of one generator table breaks the
    Steinberg relations, and the exact sweep over ZZ must see it."""
    for rep in KERNEL_REPS:
        bad = _negated_m1(rep)
        assert verify_relations(rep, ZZ(), 2, random.Random(0)).ok
        assert not verify_relations(bad, ZZ(), 2, random.Random(0)).ok


def test_evaluate_refuses_a_hom_from_another_ring():
    """Mapping the payload 1/3 of ZZ[1/3] through a map out of ZZ[1/2]
    would read it as 1/2."""
    L2, L3, L6 = (localize(ZZ(), m) for m in (2, 3, 6))
    A2 = build_root_system("A", 2)
    a, rep = A2.simple_roots[0], build_representation(A2, "defining")
    w = words.gen(A2, L3, a, L3.fraction(1, 1))
    with pytest.raises(ValueError, match="domain"):
        evaluate(w, rep, hom=canonical_hom(L2, L6))
    assert (evaluate(w, rep, hom=canonical_hom(L3, L6))
            == evaluate(words.gen(A2, L6, a, L6.fraction(2, 1)), rep))


def test_evaluate_refuses_a_representation_of_another_system():
    """(1, -1, 0, 0) is a root of A3 and of D4, so only the systems tell
    an A3 word from a D4 one."""
    A3, D4 = build_root_system("A", 3), build_root_system("D", 4)
    w = words.gen(A3, ZZ(), (1, -1, 0, 0), 2)
    assert D4.is_root((1, -1, 0, 0))
    with pytest.raises(ValueError, match="A3.*D4"):
        evaluate(w, build_representation(D4, "vector"))


@pytest.mark.parametrize("ring", [ZZ(), QQ()], ids=["ZZ", "QQ"])
def test_product_refuses_matrices_of_different_dimensions(ring):
    small, large = GroupMatrix.identity(ring, 3), GroupMatrix.identity(ring, 4)
    for m, n in ((small, large), (large, small)):
        with pytest.raises(ValueError, match="dimensions"):
            m * n


# -- the rational kernel ---------------------------------------------------------

RATIONAL_REPS = [build_representation(build_root_system("A", 2), "adjoint"),
                 build_representation(build_root_system("A", 3), "defining"),
                 build_representation(build_root_system("D", 4), "vector"),
                 build_representation(build_root_system("D", 4), "adjoint")]


def _sympy_image(rep, letters):
    """Product of I + xi M1 + xi^2 M2 over the letters, as a sympy.Matrix
    with Rational entries."""
    def table(entries):
        m = sympy.zeros(rep.dim, rep.dim)
        for i, j, c in entries:
            m[i, j] = c
        return m

    out = sympy.eye(rep.dim)
    for root, xi in letters:
        x = sympy.Rational(xi.numerator, xi.denominator)
        out = out * (sympy.eye(rep.dim) + x * table(rep.m1[root]) + x ** 2 * table(rep.m2[root]))
    return out


def _as_fractions(m):
    return [[Fraction(int(v.p), int(v.q)) for v in m.row(i)] for i in range(m.rows)]


def _image(ring, rep, letters):
    """The product of x_root(xi) over (root, payload) letters."""
    return GroupMatrix(ring, rep.dim, reps._image_rows(ring, rep, letters))


def _rational_image(rep, letters):
    return _image(QQ(), rep, letters)


def _stored(m):
    """Every stored row is (d, ints), the canonical form: d > 0,
    gcd(d, entries) = 1 and no zero entry."""
    return all(type(d) is int and d > 0 and gcd(d, *row.values()) == 1
               and all(type(v) is int and v != 0 for v in row.values()) for d, row in m._rows)


_fractions = st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 9))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RATIONAL_REPS), st.data())
def test_rational_kernel_matches_sympy(rep, data):
    letter = st.tuples(st.sampled_from(rep.system.roots), _fractions)
    first, second = (data.draw(st.lists(letter, max_size=3)) for _ in range(2))
    m, n = _rational_image(rep, first), _rational_image(rep, second)
    assert m.rows == _as_fractions(_sympy_image(rep, first))
    assert (m * n).rows == _as_fractions(_sympy_image(rep, first + second))
    assert _stored(m) and _stored(m * n)
    w = words.SteinbergWord(rep.system, QQ(), [(r, QQ().el(x)) for r, x in first])
    assert evaluate(w, rep) == GroupMatrix(QQ(), rep.dim, reps._image_rows(
        QQ(), rep, [(r, a.payload) for r, a in w.letters]))


@pytest.mark.parametrize("rep", RATIONAL_REPS, ids=lambda rep: rep.describe())
def test_rational_cancellation_stores_no_zeros(rep):
    alpha, half = rep.system.simple_roots[0], Fraction(1, 2)
    ident = GroupMatrix.identity(QQ(), rep.dim)
    assert _rational_image(rep, [(alpha, half), (alpha, -half)]) == ident
    assert _rational_image(rep, [(alpha, half)]) * _rational_image(rep, [(alpha, -half)]) == ident
    rng = random.Random(rep.describe())
    for _ in range(5):
        g = [(rng.choice(rep.system.roots), Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
             for _ in range(4)]
        inv = [(root, -x) for root, x in reversed(g)]
        m = _rational_image(rep, g)
        assert _stored(m) and not m.is_identity
        assert m * _rational_image(rep, inv) == ident and (m * _rational_image(rep, inv)).is_identity
        assert _rational_image(rep, g + inv) == ident


@pytest.mark.parametrize("rep", RATIONAL_REPS, ids=lambda rep: rep.describe())
def test_rational_kernel_with_denominators_of_2_to_the_70(rep):
    roots, big = rep.system.roots, 2 ** 70
    letters = [(roots[0], Fraction(1, big)), (roots[-1], Fraction(-3, big)),
               (roots[1], Fraction(big + 1, big)), (roots[0], Fraction(5, 3 * big))]
    m = _rational_image(rep, letters)
    assert m.rows == _as_fractions(_sympy_image(rep, letters))
    assert max(d for d, _ in m._rows) >= big
    inv = [(root, -x) for root, x in reversed(letters)]
    assert (m * _rational_image(rep, inv)).is_identity
    assert (m * m).rows == _as_fractions(_sympy_image(rep, letters + letters))


A_H = localize(localize(ZZ(), 2), 3)


def test_rational_matrices_use_no_ring_arithmetic(monkeypatch):
    """Over QQ and A_h = ZZ[1/2][1/3], words are evaluated, multiplied and
    compared on integer rows, not through the ring's payload operations;
    only the dense view `rows` maps entries back to payloads, which over
    QQ takes no field operation either."""
    rep = RATIONAL_REPS[3]

    def refuse(*args):
        raise AssertionError("ring arithmetic on the rational path")

    for ring, cls, names in ((QQ(), RationalField, ("_add", "_mul", "_neg")),
                             (A_H, LocalizationRing, ("_add", "_mul", "_norm"))):
        w = _random_word(rep.system, ring, random.Random(5))
        inv = w.inverse()
        expected = evaluate(w, rep).rows, (evaluate(w, rep) * evaluate(inv, rep)).rows
        for name in names:
            monkeypatch.setattr(cls, name, refuse)
        m = evaluate(w, rep)
        product = m * evaluate(inv, rep)
        assert m == evaluate(w, rep) and product == GroupMatrix.identity(ring, rep.dim)
        assert product.is_identity
        if ring is A_H:
            monkeypatch.undo()      # `rows` maps each entry back through the ring
        assert (m.rows, product.rows) == expected
        monkeypatch.undo()


TOWERS = [localize(ZZ(), 2), localize(ZZ(), 6), A_H, localize(localize(ZZ(), 5), 2)]
TOWER_REPS = [build_representation(build_root_system("A", 3), "adjoint"),
              build_representation(build_root_system("D", 4), "vector")]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TOWERS), st.sampled_from(TOWER_REPS), st.integers(0, 2 ** 32))
def test_localization_towers_match_the_generic_path(ring, rep, seed):
    """Over localization towers of ZZ, the integer rows give the dense
    images, products, equalities and identity tests that the ring's own
    arithmetic gives, and are stored in canonical form."""
    rng = random.Random(seed)
    w1, w2 = (_random_word(rep.system, ring, rng) for _ in range(2))
    m1, m2 = evaluate(w1, rep), evaluate(w2, rep)
    assert m1.rows == _dense_image(rep, w1) and m2.rows == _dense_image(rep, w2)
    product = m1 * m2
    assert product.rows == _dense_product(m1, m2) == _dense_image(rep, w1 * w2)
    assert _stored(m1) and _stored(m2) and _stored(product)
    assert (m1 == m2) == (m1.rows == m2.rows)
    assert evaluate(w1 * w2, rep) == product
    back = product * evaluate(w2.inverse(), rep)
    assert back == m1 and back.is_identity == (m1.rows == GroupMatrix.identity(ring, rep.dim).rows)
    assert (back * evaluate(w1.inverse(), rep)).is_identity


# ---------------------------------------------------------------------------
# pinned sweep output and replayable witnesses
# ---------------------------------------------------------------------------

def _flipped(rep):
    """Copy of rep with e_alpha negated for the first simple root alpha,
    so R3 fails on (alpha, beta) whenever 2 N a b != 0."""
    root = rep.system.simple_roots[0]
    m1 = {**rep.m1, root: tuple((i, j, -c) for i, j, c in rep.m1[root])}
    return dataclasses.replace(rep, m1=m1)


@pytest.mark.parametrize("ring", [GF(7), GF(1000000007)], ids=str)
def test_verify_relations_refuses_a_sweep_without_samples(ring):
    """A sweep of no trials refutes nothing, so it must not report that
    every law holds; one trial already refutes the flipped rep.  A count
    that is not an int, or is a bool, is refused before any work, on
    the intact rep too, which would otherwise report ok.  GF(7) takes
    the exact route and GF(1000000007) the float64 one."""
    intact = build_representation(build_root_system("A", 2), "adjoint")
    bad = _flipped(intact)
    assert not verify_relations(bad, ring, 1, random.Random(0)).ok
    for samples in (0, -1, 2.5, 1.0, True, "3", None):
        for rep in (intact, bad):
            rng = random.Random(0)
            with pytest.raises(ValueError, match="int samples >= 1"):
                verify_relations(rep, ring, samples, rng)
            assert rng.getstate() == random.Random(0).getstate()


_Pt = poly_ring(ZZ(), ("t",))
SWEEP_RINGS = {"Z6": quotient(ZZ(), 6), "F7": GF(7), "Zt3": quotient(_Pt, _Pt.var("t") ** 3),
               "ZZ": ZZ(), "Fbig": GF(1000000007)}
SWEEP_SAMPLES = {"Z6": 10, "F7": 10, "Zt3": 10, "ZZ": 2, "Fbig": 10}

# "<kind><rank>-<rep>[~flip]/<ring>" -> (pairs_checked, sha256 of
# repr(violations)), swept with random.Random(key)
SWEEP_PINS = {
    "A2-defining/Z6": (36, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "A2-defining/F7": (36, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "A2-defining/Zt3": (36, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "A2-defining/ZZ": (36, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "A2-defining/Fbig": (36, "b24f28effd22203e3e2df1d18c01b90b6a44eb977e4edcff5300cc7f9697b388"),
    "A3-defining/Z6": (144, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "A3-defining/F7": (144, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "A3-defining/Zt3": (144, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "A3-defining/ZZ": (144, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "A3-defining/Fbig": (144, "edaa8bc2e6114d5d81daf1e9d83daca9aaf1c42601173637f1cebd538f6270bb"),
    "A3-adjoint/Z6": (144, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "A3-adjoint/F7": (144, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "A3-adjoint/Zt3": (144, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "A3-adjoint/ZZ": (144, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "A3-adjoint/Fbig": (144, "a476dd7729062f3eeb7d0890f875df420a5f149633b41137065b55090ff6b79f"),
    "D4-vector/Z6": (576, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "D4-vector/F7": (576, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "D4-vector/Zt3": (576, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "D4-vector/ZZ": (576, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "D4-vector/Fbig": (576, "a465cb91c10b1a6fef866cfb8b9882ad481f9a2e8c692d6f5a027233b8704ef6"),
    "A2-defining~flip/F7": (36, "a7c1aa89df1c2fb88b786128d53a4bec26f12bd18246ca996dbbc391c0bc4044"),
    "D4-vector~flip/F7": (576, "1485d2886b49ce96dbc9eee10298d2ddde2fd87a196a256b53c2d8ba26bb52d3"),
    "A3-adjoint~flip/F7": (144, "d6ac0b86467b15d1058440542c8c3d9e80b09c51e4d87d563a6fa103046655c1"),
    "A3-defining~flip/ZZ": (144, "b6d416609c27dad3bb51c5761a28cef94adf803301632e4254594e41a6af931a"),
}


def _named_rep(name):
    """The rep "<kind><rank>-<rep>[~flip]"."""
    system, kind = name.split("~")[0].split("-")
    rep = build_representation(build_root_system(system[0], int(system[1:])), kind)
    return _flipped(rep) if name.endswith("~flip") else rep


def _pinned_sweep(key):
    name, ring = key.split("/")
    rep = _named_rep(name)
    return rep, verify_relations(rep, SWEEP_RINGS[ring], SWEEP_SAMPLES[ring], random.Random(key))


@pytest.mark.parametrize("key", list(SWEEP_PINS))
def test_sweep_output_is_pinned(key, monkeypatch):
    """Each sweep reproduces its pinned violations bit for bit, and
    batches of one matrix entry, so one case each, give the same report.
    The GF(1000000007) pins record the wrong verdicts of the float64
    products; they change when that path is made exact."""
    _, report = _pinned_sweep(key)
    digest = hashlib.sha256(repr(report.violations).encode()).hexdigest()
    assert (report.pairs_checked, digest) == SWEEP_PINS[key]
    assert len(report.arguments) == len(report.violations)
    monkeypatch.setattr(_float_sweep, "_BATCH_ENTRIES", 1)
    assert _pinned_sweep(key)[1] == report


@pytest.mark.parametrize("key", ["A3-adjoint~flip/F7", "A3-adjoint~flip/Z6",
                                 "D4-vector~flip/Zt3", "A3-defining~flip/ZZ"])
def test_sweep_witness_replays_through_evaluate(key):
    """The arguments of each violation are a witness: the two sides of
    the failing relation, evaluated exactly, differ.  Over Z/6 the flip
    only shows when 3 does not divide ab, so a witness taken from the
    wrong trial would replay as equal."""
    rep, report = _pinned_sweep(key)
    system, ring = rep.system, SWEEP_RINGS[key.split("/")[1]]
    assert report.violations
    for (law, alpha, beta), (a, b) in zip(report.violations, report.arguments):
        assert law == "R3" and a.ring is ring and b.ring is ring
        s = system.addition_table[alpha, beta]
        left = words.gen(system, ring, alpha, a) * words.gen(system, ring, beta, b)
        right = (words.gen(system, ring, s, system.structure_constant(alpha, beta) * a * b)
                 * words.gen(system, ring, beta, b) * words.gen(system, ring, alpha, a))
        assert evaluate(left, rep) != evaluate(right, rep)
        assert evaluate(left, build_representation(system, rep.kind)) == \
            evaluate(right, build_representation(system, rep.kind))


# ---------------------------------------------------------------------------
# the certificate: proved at the generic point, specialized on failure
# ---------------------------------------------------------------------------

def _sides(ring, case, a, b):
    """The letter lists (root, payload) of the two sides of a sweep
    case's law at the payloads a, b, as `reps._differences` writes them."""
    law, alpha, beta, s = case
    if law == "R1":
        return [(alpha, a), (alpha, b)], [(alpha, ring._add(a, b))]
    left, right = [(alpha, a), (beta, b)], [(beta, b), (alpha, a)]
    if law != "R2":
        ab = ring._mul(a, b)
        right = [(s, ring._neg(ab) if law == "R3-" else ab)] + right
    return left, right


def _difference(rep, case):
    """`reps._differences` of the one case."""
    return next(reps._differences(rep, [case]))


def _replayed(rep, ring, letters):
    """The product of the `evaluate` images of the single letters, so
    that R1's x_a(a) x_a(b) is not merged into one letter first."""
    return reduce(lambda m, n: m * n, (
        evaluate(words.gen(rep.system, ring, root, RingElement(ring, x)), rep)
        for root, x in letters))


def _rows_difference(left, right):
    """{(r, c): payload} of the nonzero entries of left - right, read
    from the dense views of the two matrices."""
    ring = left.ring
    zero, out = ring._from_int(0), {}
    for r, (lrow, rrow) in enumerate(zip(left.rows, right.rows)):
        for c, (x, y) in enumerate(zip(lrow, rrow)):
            v = ring._add(x, ring._neg(y))
            if v != zero:
                out[r, c] = v
    return out


def _negated_m1(rep):
    root = rep.system.simple_roots[0]
    (i, j, c), *rest = rep.m1[root]
    return dataclasses.replace(rep, m1={**rep.m1, root: ((i, j, -c), *rest)})


def _negated_m2(rep):
    """M2 of an adjoint rep is one entry, so this breaks R1 through
    x_a(a) x_a(b) - x_a(a + b) = ab (M1^2 - 2 M2) + ..."""
    root = rep.system.simple_roots[0]
    ((i, j, c),) = rep.m2[root]
    return dataclasses.replace(rep, m2={**rep.m2, root: ((i, j, -c),)})


def _rep(kind, rank, repkind):
    return build_representation(build_root_system(kind, rank), repkind)


MUTATIONS = {
    "m1-A3-defining": lambda: _negated_m1(_rep("A", 3, "defining")),
    "m1-D4-vector": lambda: _negated_m1(_rep("D", 4, "vector")),
    "m2-A2-adjoint": lambda: _negated_m2(_rep("A", 2, "adjoint")),
    "m2-A3-adjoint": lambda: _negated_m2(_rep("A", 3, "adjoint")),
    "flip-A3-defining": lambda: _flipped(_rep("A", 3, "defining")),
    "flip-A2-adjoint": lambda: _flipped(_rep("A", 2, "adjoint")),
}


def _named(case):
    """A case's name in `RelationReport.violations`."""
    law, alpha, beta, _ = case
    return (law[:2], alpha) if law == "R1" else (law[:2], alpha, beta)


@pytest.mark.parametrize("ring", [ZZ(), localize(ZZ(), 2)], ids=["ZZ", "ZZ[1/2]"])
@pytest.mark.parametrize("name", list(MUTATIONS))
def test_exact_sweep_refutes_each_mutation_with_a_replayable_witness(name, ring):
    """Each mutated table is refuted; every violation's case has a
    nonzero generic difference, and its arguments give two different
    images when the two sides are replayed through `evaluate`."""
    bad = MUTATIONS[name]()
    report = verify_relations(bad, ring, 4, random.Random(name))
    assert report.violations
    if name.startswith("m2"):
        assert any(v[0] == "R1" for v in report.violations)
    cases = {_named(case): case for case in reps._cases(bad.system)}
    for violation, (a, b) in zip(report.violations, report.arguments, strict=True):
        case = cases[violation]
        assert _difference(bad, case)
        left, right = _sides(ring, case, a.payload, b.payload)
        assert _replayed(bad, ring, left) != _replayed(bad, ring, right), violation


@pytest.mark.parametrize("kind,rank,repkind", [
    (kind, rank, repkind) for kind in SUPPORTED_RANKS for rank in SUPPORTED_RANKS[kind]
    for repkind in ("defining" if kind == "A" else "vector", "adjoint")])
def test_every_case_is_certified_at_the_generic_point(kind, rank, repkind):
    """R1-R3 hold over ZZ[a, b] for every case of every supported rep."""
    rep = _rep(kind, rank, repkind)
    cases = reps._cases(rep.system)
    assert [case for case, diff in zip(cases, reps._differences(rep, cases)) if diff] == []


def test_exact_sweep_evaluates_no_certified_case(monkeypatch):
    """Over ZZ a certified case draws no trial and evaluates nothing,
    and a failing one is specialized without `_image_rows`."""
    def unused(*args):
        raise AssertionError("a certified case was evaluated")

    monkeypatch.setattr(reps, "_image_rows", unused)
    for key in ("A3-defining", "A3-adjoint", "D4-vector"):
        rep = _rep(key[0], int(key[1]), key.split("-")[1])
        assert verify_relations(rep, ZZ(), 2, random.Random(key)).ok
    assert not verify_relations(_flipped(_rep("A", 3, "defining")), ZZ(), 2, random.Random(0)).ok


# ---------------------------------------------------------------------------
# quotient rings: certified first, except in the float64 route
# ---------------------------------------------------------------------------

QUOTIENT_RINGS = ("Z6", "F7", "Zt3")


def _assert_refuted_with_witnesses(bad, ring, report):
    """The report refutes exactly the cases of `bad` with a nonzero
    generic difference, and each witness replays through `evaluate` to
    two different images."""
    cases = reps._cases(bad.system)
    failing = [case for case, diff in zip(cases, reps._differences(bad, cases)) if diff]
    assert failing and report.violations == [_named(case) for case in failing]
    assert report.certified == len(cases) - len(failing)
    for case, (a, b) in zip(failing, report.arguments, strict=True):
        assert a.ring is ring and b.ring is ring
        left, right = _sides(ring, case, a.payload, b.payload)
        assert _replayed(bad, ring, left) != _replayed(bad, ring, right), case


def test_tables_are_read_only_and_a_rep_copies_the_dicts_it_is_given():
    """A certificate is kept per representation, which its tables make
    safe: item assignment raises TypeError on the tables of the cached
    rep and of its interned root system (each assignment rewrites the
    value there, so a table that takes it is left as it was), and a rep
    built by `dataclasses.replace` keeps a copy of the dict passed, which
    a later edit does not reach.  A flipped copy is refuted with
    replayable witnesses."""
    intact = _rep("A", 3, "defining")
    system, root = intact.system, intact.system.simple_roots[0]
    pair = next(iter(system.addition_table))
    for table, key in ((intact.m1, root), (intact.m2, root), (system.index, root),
                       (system.addition_table, pair), (system.constants_table, pair),
                       (system.defining_matrix(root), next(iter(system.defining_matrix(root))))):
        with pytest.raises(TypeError):
            table[key] = table[key]
    m1 = dict(intact.m1)
    rep = dataclasses.replace(intact, m1=m1)
    assert verify_relations(rep, GF(7), 10, random.Random(0)).ok
    m1[root] = _flipped(intact).m1[root]
    assert rep.m1 == intact.m1 and rep.m1[root] != m1[root]
    assert verify_relations(rep, GF(7), 10, random.Random(1)).ok
    bad = _flipped(intact)
    _assert_refuted_with_witnesses(bad, GF(7), verify_relations(bad, GF(7), 10, random.Random(1)))


def test_sweep_refutes_a_wrong_constant_in_the_tables_as_built(monkeypatch):
    """The case table is kept per root system and the certificate per
    rep, both read from tables fixed when they are built, so a wrong
    constant is planted where a system reads it off: a fresh A2 whose
    bracket of its two simple roots, in that order, has the wrong sign.
    Its defining rep is intact, so over F7 exactly that R3 case is
    refuted, with a witness that replays through `evaluate`."""
    intact = build_root_system("A", 2)
    a1, a2 = intact.simple_roots
    first = tuple(roots.defining_matrix("A", 2, r) for r in (a1, a2))
    bracket = roots._bracket
    monkeypatch.setattr(roots, "_LIVE", {})
    monkeypatch.setattr(reps, "_REP_CACHE", {})
    monkeypatch.setattr(roots, "_bracket", lambda a, b: {
        k: -v if (a, b) == first else v for k, v in bracket(a, b).items()})
    system = build_root_system("A", 2)
    assert system is not intact
    assert system.constants_table[a1, a2] == -intact.constants_table[a1, a2]
    rep = build_representation(system, "defining")
    report = verify_relations(rep, GF(7), 10, random.Random(0))
    assert report.violations == [("R3", a1, a2)]
    _assert_refuted_with_witnesses(rep, GF(7), report)


@pytest.mark.parametrize("key", list(SWEEP_PINS))
def test_warm_sweep_reports_as_the_cold_one(key, monkeypatch):
    """A second sweep of the same rep finds its case table and its
    certificate built, on every ring, the float64 route's too: it builds
    no difference, and on an intact rep specializes none, and gives the
    cold sweep's report, as does one after the certificates are dropped."""
    monkeypatch.setattr(reps, "_CERTIFICATES", weakref.WeakKeyDictionary())
    rep, cold = _pinned_sweep(key)
    name = key.split("/")[1]
    ring, samples = SWEEP_RINGS[name], SWEEP_SAMPLES[name]
    assert rep in reps._CERTIFICATES
    assert reps._cases(rep.system) is reps._cases(rep.system)

    def unused(*args):
        raise AssertionError("a warm sweep did per-case work")

    with monkeypatch.context() as patched:
        patched.setattr(reps, "_differences", unused)
        if "~flip" not in key:
            patched.setattr(reps, "_specialize", unused)
        assert verify_relations(rep, ring, samples, random.Random(key)) == cold
    reps._CERTIFICATES.clear()
    assert verify_relations(rep, ring, samples, random.Random(key)) == cold


def test_exactness_threshold_at_dimension_45():
    """d (p - 1)^2 < 2^53 at d = 45: below it, at 14147779, a sweep
    certifies every case; at the next prime, 14147797, every case is
    evaluated in float64 and none is certified."""
    rep = _rep("D", 5, "adjoint")
    assert rep.dim == 45
    below, above = GF(14147779), GF(14147797)
    assert 45 * (below.p - 1) ** 2 < 2 ** 53 <= 45 * (above.p - 1) ** 2
    for ring, certified in ((below, 1600), (above, 0)):
        report = verify_relations(rep, ring, 1, random.Random(0))
        assert (report.pairs_checked, report.certified) == (1600, certified)


def test_truncated_polynomials_past_the_old_float_bound_are_certified():
    """Over Z[t]/(t^4), D5 adjoint (d = 45) lay past the bound below
    which the float64 products of truncated polynomials were exact.  The
    intact rep certifies every case, and the flipped one is refuted on
    exactly its cases with a nonzero generic difference, each with a
    witness that replays through `evaluate` to two different images."""
    ring = quotient(_Pt, _Pt.var("t") ** 4)
    rep = _rep("D", 5, "adjoint")
    report = verify_relations(rep, ring, 3, random.Random(1))
    assert report.ok and report.certified == report.pairs_checked == 1600
    bad = _flipped(rep)
    _assert_refuted_with_witnesses(bad, ring, verify_relations(bad, ring, 10, random.Random(2)))


def _float_exact(rep, case):
    """Whether float64 computes both letter products of a case exactly:
    an R1 or R2 case whose two roots have no diagonal entry, and whose
    M1 + M2 supports multiply to zero in both orders, so that every
    nonzero term of a product has a factor 1 from a letter's diagonal."""
    law, alpha, beta, _ = case
    if law not in ("R1", "R2"):
        return False
    a, b = (np.abs(_dense(rep.dim, rep.m1[r])) + np.abs(_dense(rep.dim, rep.m2[r]))
            for r in (alpha, beta))
    return not (a.diagonal().any() or b.diagonal().any() or (a @ b).any() or (b @ a).any())


def test_numpy_sweep_evaluates_no_certified_case(monkeypatch):
    """Over Z/6, F7 and Z[t]/(t^3) an intact sweep certifies every case
    and evaluates none.  Over GF(1000000007), where float64 products can
    round, it skips the certified cases that float64 computes exactly
    (`_float_exact`: 96 of A3 defining's 144, none of A3 adjoint's).
    Trial t is one pass: it evaluates, once each and at that trial's
    draw, exactly the cases not skipped that held at every earlier
    trial.  The violations are the cases that failed in some pass."""
    holds = _float_sweep._holds

    def unused(*args):
        raise AssertionError("a certified case was evaluated")

    monkeypatch.setattr(_float_sweep, "_holds", unused)
    for key in ("A3-defining", "A3-adjoint", "D4-vector"):
        rep = _rep(key[0], int(key[1]), key.split("-")[1])
        for name in QUOTIENT_RINGS:
            report = verify_relations(rep, SWEEP_RINGS[name], SWEEP_SAMPLES[name],
                                      random.Random(key))
            assert report.ok and report.certified == report.pairs_checked, (key, name)

    def counted(kernel, law, roots, a, b):
        held = holds(kernel, law, roots, a, b)
        for alpha, beta, ab, ok in zip(*roots[:2].tolist(), zip(a.tolist(), b.tolist()),
                                       held.tolist()):
            n = number[law, alpha, beta]
            passes[trials[n].index(ab)].append((n, ok))
        return held

    monkeypatch.setattr(_float_sweep, "_holds", counted)
    ring, samples = SWEEP_RINGS["Fbig"], 10
    for rep in (_rep("A", 3, "defining"), _rep("A", 3, "adjoint")):
        cases, index = reps._cases(rep.system), rep.system.index
        number = {(law, index[alpha], index[beta]): n
                  for n, (law, alpha, beta, _) in enumerate(cases)}
        draws = np.random.default_rng(random.Random(0).randrange(2 ** 63)).integers(
            0, ring.p, size=(len(cases), 2, samples), dtype=np.int64)
        trials = [list(zip(*draws[n].tolist())) for n in range(len(cases))]
        passes = [[] for _ in range(samples)]
        report = verify_relations(rep, ring, samples, random.Random(0))
        skipped = {n for n, (case, diff) in enumerate(zip(cases, reps._differences(rep, cases)))
                   if not diff and _float_exact(rep, case)}
        assert report.certified == len(skipped) == (96 if rep.kind == "defining" else 0)
        live, failed = set(range(len(cases))) - skipped, set()
        for evaluated in passes:
            verdicts = dict(evaluated)
            assert len(evaluated) == len(verdicts) and set(verdicts) == live
            failed |= {n for n, ok in evaluated if not ok}
            live = {n for n, ok in evaluated if ok}
        assert 0 < len(passes[1]) < len(passes[0])
        assert report.violations == [_named(case) for n, case in enumerate(cases) if n in failed]


def test_second_float_sweep_rebuilds_no_case_table(monkeypatch):
    """The float64 route keeps a rep's case tables while the rep lives:
    a second GF(1000000007) sweep of the same rep, intact or flipped,
    asks `_chain` nothing and reports as the first."""
    def unused(*args):
        raise AssertionError("a case table was rebuilt")

    for rep in (_rep("A", 4, "defining"), _flipped(_rep("D", 4, "vector"))):
        first = verify_relations(rep, SWEEP_RINGS["Fbig"], 10, random.Random(1))
        with monkeypatch.context() as patched:
            patched.setattr(reps, "_chain", unused)
            patched.setattr(_float_sweep, "_chain", unused)
            assert verify_relations(rep, SWEEP_RINGS["Fbig"], 10, random.Random(1)) == first
        assert first.certified > 0


def _diagonal(rep):
    """Copy of rep with the entry 1 planted on the diagonal of M1 of the
    first simple root, at the first index its entries miss."""
    root = rep.system.simple_roots[0]
    used = {k for i, j, _ in rep.m1[root] for k in (i, j)}
    k = min(set(range(rep.dim)) - used)
    return dataclasses.replace(rep, m1={**rep.m1, root: (*rep.m1[root], (k, k, 1))})


def _square_term(rep):
    """Copy of rep whose first simple root also has M2 = M1, so that R1
    on it fails by 2ab M1 although no entry of the root meets another."""
    root = rep.system.simple_roots[0]
    return dataclasses.replace(rep, m2={**rep.m2, root: rep.m1[root]})


# the twelve reps of the benchmark's relation sweep and its four flipped
# controls, the mutated tables, an open R1 case whose products multiply
# no two entries, and a planted diagonal entry
SKIP_REPS = {
    **{name: partial(_named_rep, name) for name in (
        "A2-defining", "A3-defining", "A4-defining", "A5-defining", "A2-adjoint",
        "A3-adjoint", "D4-vector", "D5-vector", "D6-vector", "D4-adjoint", "A5-adjoint",
        "D5-adjoint", "A2-defining~flip", "D4-vector~flip", "A3-adjoint~flip",
        "A3-defining~flip")},
    **MUTATIONS,
    "square-A3-defining": lambda: _square_term(_rep("A", 3, "defining")),
    "diagonal-A3-defining": lambda: _diagonal(_rep("A", 3, "defining")),
}


@pytest.mark.parametrize("name", list(SKIP_REPS))
def test_float_skip_changes_no_output(name, monkeypatch):
    """With the skip of `_float_sweep._exact_cases` turned off, and the
    rep's tables rebuilt without it, every sweep over GF(1000000007) and
    GF(14147797), at 1, 3 and 10 samples on three seeds, reports the
    same violations with the same arguments and leaves the rng in the
    same state.  Over GF(14147797) only D5 adjoint (d = 45) takes the
    float64 route.  An adjoint rep skips no case, so there is nothing to
    compare."""
    rep = SKIP_REPS[name]()
    cases = reps._cases(rep.system)
    skipped = _float_sweep._exact_cases(rep, cases, reps._certificate(rep))
    assert bool(skipped) == (rep.kind != "adjoint")
    if not skipped:
        return
    for ring in (GF(1000000007), GF(14147797)):
        for samples in (1, 3, 10):
            for seed in range(3):
                runs = []
                for skip in (True, False):
                    with monkeypatch.context() as patched:
                        if not skip:
                            patched.setattr(_float_sweep, "_exact_cases", lambda *args: set())
                            patched.setattr(_float_sweep, "_TABLES", weakref.WeakKeyDictionary())
                        rng = random.Random(seed)
                        report = verify_relations(rep, ring, samples, rng)
                        runs.append((report.violations, report.arguments, rng.random()))
                assert runs[0] == runs[1], (ring, samples, seed)


def test_a_diagonal_entry_takes_the_exact_route():
    """A letter whose root has a diagonal entry is not the identity with
    the root's entries scattered in, so the float64 route declines such
    a table before it draws, and over GF(1000000007) the diagonal-planted
    A3 defining rep is refuted on exactly its 17 cases with a nonzero
    generic difference, as over F7, each with a replayable witness."""
    planted, ring = _diagonal(_rep("A", 3, "defining")), SWEEP_RINGS["Fbig"]
    rng = random.Random(0)
    assert _float_sweep.first_failures(planted, ring, 10, ring.p, rng) is None
    assert rng.getstate() == random.Random(0).getstate()
    for swept in (GF(7), ring):
        report = verify_relations(planted, swept, 10, random.Random(1))
        assert len(report.violations) == 17
        _assert_refuted_with_witnesses(planted, swept, report)


def test_float_sweep_draws_one_seed_from_rng():
    """A GF(1000000007) sweep, intact or flipped, leaves `rng` where one
    `randrange(2 ** 63)` leaves a fresh `random.Random(seed)`, whatever
    its verdicts."""
    rep = _rep("A", 3, "adjoint")
    for seed in range(3):
        expected = random.Random(seed)
        expected.randrange(2 ** 63)
        for swept in (rep, _flipped(rep)):
            rng = random.Random(seed)
            verify_relations(swept, SWEEP_RINGS["Fbig"], 10, rng)
            assert rng.getstate() == expected.getstate()


@pytest.mark.parametrize("ring, mod", [(quotient(ZZ(), 2 ** 64), 2 ** 64),
                                       (quotient(ZZ(), 3 ** 50), 3 ** 50),
                                       (GF(2 ** 61 - 1), 2 ** 61 - 1)],
                         ids=["Z/2^64", "Z/3^50", "GF(2^61-1)"])
def test_moduli_past_int64_products_take_the_exact_route(ring, mod):
    """A float64 product, truncated to int64, holds w (m - 1)^2 only
    below 2^63, w the most nonzero entries in a row of a letter; past
    that, drawing failed (Z/2^64, Z/3^50) or products wrapped into false
    violations (GF(2^61 - 1)).  Such a modulus takes the exact route:
    intact reps certify every case, and flipped ones are refuted with
    replayable witnesses."""
    for key in ("A2-defining", "A2-adjoint", "D4-vector"):
        rep = _rep(key[0], int(key[1]), key.split("-")[1])
        report = verify_relations(rep, ring, 3, random.Random(key))
        assert report.ok and report.certified == report.pairs_checked, key
        bad = _flipped(rep)
        _assert_refuted_with_witnesses(bad, ring, verify_relations(bad, ring, 3, random.Random(key)))
        assert _float_sweep._table(rep)[1] * (mod - 1) ** 2 >= 2 ** 63


def test_moduli_past_int64_leave_numpy_unloaded():
    """(m - 1)^2 >= 2^63 is decided before the float64 route is
    imported, so in a fresh process sweeps over Z/2^64, Z/3^50 and
    GF(2^61 - 1) certify every case and leave numpy unloaded."""
    code = "\n".join([
        "import random, sys",
        "from steinberg_lab.rings import GF, ZZ, quotient",
        "from steinberg_lab.roots import build_root_system",
        "from steinberg_lab.reps import build_representation, verify_relations",
        "rep = build_representation(build_root_system('A', 2), 'adjoint')",
        "for ring in (quotient(ZZ(), 2 ** 64), quotient(ZZ(), 3 ** 50), GF(2 ** 61 - 1)):",
        "    report = verify_relations(rep, ring, 3, random.Random(0))",
        "    print(report.ok, report.certified == report.pairs_checked == 36)",
        "print('numpy' in sys.modules)"])
    env = {**os.environ, "PYTHONPATH": str(Path(reps.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.split() == ["True"] * 6 + ["False"]


def test_report_counts_the_certified_cases():
    """`certified` is every case with a zero generic difference over ZZ
    and F7, and over GF(1000000007) the cases that the float64 route
    skips: A3 defining's 12 R1 and 84 R2 cases, 96 of 144, intact and
    flipped."""
    for rep in (_rep("A", 3, "defining"), _flipped(_rep("A", 3, "defining"))):
        cases = reps._cases(rep.system)
        zero = sum(not diff for diff in reps._differences(rep, cases))
        for name in ("ZZ", "F7", "Fbig"):
            report = verify_relations(rep, SWEEP_RINGS[name], 2, random.Random(name))
            assert report.pairs_checked == len(cases) == 144
            assert report.certified == (96 if name == "Fbig" else zero), (rep.describe(), name)
    assert zero < len(cases)


@pytest.mark.parametrize("ring", ["F7", "Zt3"])
@pytest.mark.parametrize("name", list(MUTATIONS))
def test_numpy_sweep_refutes_each_mutation_with_a_replayable_witness(name, ring):
    """Each mutated table is refuted on exactly its cases with a nonzero
    generic difference, and each witness replays through `evaluate` to
    two different images.  Each such case of these mutations has only
    entries n a^i b^j, with n != 0 and 1 <= i, j <= 2, so it fails
    wherever one is nonzero.  Over F7 that is wherever ab != 0, at 36 of
    the 49 points, so 30 samples miss one of its at most 28 failing
    cases with probability below 28 (13/49)^30 < 10^-15.  Over
    Z[t]/(t^3), a^i b^j != 0 exactly when i v(a) + j v(b) <= 2, v the
    order in t.  `QuotientRing._sample` draws a = 0 with probability
    595/2197, and v(a) = 0, 1, 2 with 822, 502, 278 in 2197, so a^2 b^2,
    the worst monomial, is nonzero with probability 1500972/13^6 > 0.31,
    and 30 samples miss a case with probability below 28 (0.69)^30
    < 4 10^-4."""
    bad, ring = MUTATIONS[name](), SWEEP_RINGS[ring]
    _assert_refuted_with_witnesses(bad, ring, verify_relations(bad, ring, 30, random.Random(name)))


DIFFERENTIAL_REPS = [_rep("A", 2, "defining"), _rep("A", 2, "adjoint"),
                     _rep("A", 3, "defining"), _rep("D", 4, "vector")]
DIFFERENTIAL_RINGS = [ZZ(), quotient(ZZ(), 6), GF(7), localize(ZZ(), 2), quotient(_Pt, _Pt.var("t") ** 3)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(DIFFERENTIAL_REPS), st.sampled_from(["R1", "R2", "R3"]), st.data(),
       st.sampled_from(DIFFERENTIAL_RINGS), st.integers(0, 2 ** 32))
def test_difference_specializes_to_the_evaluated_sides(rep, law, data, ring, seed):
    """At sampled (a, b) of each ring, ZZ among them, the generic
    difference specialized as the sweep does is left minus right
    as `_image_rows` multiplies them out there, on intact, flipped and
    M2-negated tables, whose cases reach every degree."""
    rep = data.draw(st.sampled_from([rep, _flipped(rep)] + ([_negated_m2(rep)] if rep.m2[
        rep.system.simple_roots[0]] else [])))
    case = data.draw(st.sampled_from([c for c in reps._cases(rep.system) if c[0][:2] == law]))
    rng = random.Random(seed)
    a, b = ring._sample(rng, 6), ring._sample(rng, 6)
    left, right = (_image(ring, rep, side) for side in _sides(ring, case, a, b))
    assert reps._specialize(ring, _difference(rep, case), a, b) == _rows_difference(left, right)


def test_difference_is_the_difference_over_the_polynomial_ring():
    """At the generic point of ZZ[a, b] itself, `_image_rows` gives the
    same difference, term by term, for every case of a flipped and an
    intact rep."""
    P = poly_ring(ZZ(), ("a", "b"))
    a, b = P.var("a"), P.var("b")
    for rep in (_rep("A", 2, "adjoint"), _flipped(_rep("A", 3, "defining"))):
        cases = reps._cases(rep.system)
        for case, diff in zip(cases, reps._differences(rep, cases)):
            left, right = (_image(P, rep, side)
                           for side in _sides(P, case, a.payload, b.payload))
            want = {}
            for (i, j, r, c), n in diff.items():
                want[r, c] = want.get((r, c), P.zero) + n * a ** i * b ** j
            got = {key: RingElement(P, v) for key, v in _rows_difference(left, right).items()}
            assert got == want, case


# ---------------------------------------------------------------------------
# the certificate's formula against a composition oracle
# ---------------------------------------------------------------------------

def _then(x, y):
    """(I + x)(I + y) - I = x + y + x y, for parts as `reps._nilpotent`
    gives."""
    out = dict(x)
    for key, n in y.items():
        out[key] = out.get(key, 0) + n
    rows = {}
    for (i, j, k, c), n in y.items():
        rows.setdefault(k, []).append((i, j, c, n))
    for (i, j, r, k), n in x.items():
        for i2, j2, c, m in rows.get(k, ()):
            out[i + i2, j + j2, r, c] = out.get((i + i2, j + j2, r, c), 0) + n * m
    return out


def _composed_differences(rep, cases):
    """The oracle for `reps._differences`: each side of each law composed
    letter by letter with `_then`, the right side subtracted from the
    left, and the zero terms dropped."""
    part = cache(lambda root, *terms: reps._nilpotent(rep, root, dict(terms)))
    a, b = ((1, 0), 1), ((0, 1), 1)
    for law, alpha, beta, s in cases:
        xa = part(alpha, a)
        if law == "R1":
            left, right = _then(xa, part(alpha, b)), part(alpha, a, b)
        else:
            xb = part(beta, b)
            left, right = _then(xa, xb), _then(xb, xa)
            if law != "R2":
                right = _then(part(s, ((1, 1), -1 if law == "R3-" else 1)), right)
        for key, n in right.items():
            left[key] = left.get(key, 0) - n
        yield {key: n for key, n in left.items() if n}


def _dropped(rep):
    """Copy of rep whose first simple root acts as the identity, empty M1
    and M2: it chains with no root, so its R3 cases fail by -S - SX."""
    root = rep.system.simple_roots[0]
    return dataclasses.replace(rep, m1={**rep.m1, root: ()}, m2={**rep.m2, root: ()})


# every supported rep, and every planted table: the flipped controls of
# the benchmark, the mutations, and the square, diagonal and dropped ones
ORACLE_REPS = {
    **{f"{kind}{rank}-{repkind}": partial(_rep, kind, rank, repkind)
       for kind in SUPPORTED_RANKS for rank in SUPPORTED_RANKS[kind]
       for repkind in ("defining" if kind == "A" else "vector", "adjoint")},
    **SKIP_REPS,
    "dropped-A3-defining": lambda: _dropped(_rep("A", 3, "defining")),
    "dropped-A3-adjoint": lambda: _dropped(_rep("A", 3, "adjoint")),
}


@pytest.mark.parametrize("name", list(ORACLE_REPS))
def test_differences_match_the_composition_oracle(name):
    """`reps._differences`, which forms each law's difference from the
    parts directly, equals the oracle's composed one, key for key and
    value for value, on every case."""
    rep = ORACLE_REPS[name]()
    cases = reps._cases(rep.system)
    assert list(reps._differences(rep, cases)) == list(_composed_differences(rep, cases))


def test_certificate_builds_each_part_once_and_no_product_for_apart_r2_cases(monkeypatch):
    """One D5-adjoint certificate builds at most five parts per root, at
    a, b, a + b, ab and -ab.  An R2 case of D6 vector whose roots do not
    chain is empty with no part built at all."""
    nilpotent, calls = reps._nilpotent, []
    monkeypatch.setattr(reps, "_nilpotent", lambda *args: calls.append(args) or nilpotent(*args))
    rep = _rep("D", 5, "adjoint")
    assert not any(reps._differences(rep, reps._cases(rep.system)))
    assert 0 < len(calls) <= 5 * len(rep.system.roots)

    def unused(*args):
        raise AssertionError("a part was built")

    monkeypatch.setattr(reps, "_nilpotent", unused)
    rep = _rep("D", 6, "vector")
    apart = [case for case in reps._cases(rep.system)
             if case[0] == "R2" and not reps._chain(rep, case[1], case[2])]
    assert apart
    for case in apart:
        assert _difference(rep, case) == {}


@pytest.mark.parametrize("name", list(ORACLE_REPS))
def test_commutator_of_the_swapped_pair_is_minus_sigma(name):
    """For any tables, the composition oracle's XY - YX of (beta, alpha)
    is -sigma of its XY - YX of (alpha, beta), sigma swapping the
    exponents of a and b, on every R2 and R3 pair: the identity by which
    `reps._differences` forms each unordered pair's commutator once."""
    rep = ORACLE_REPS[name]()
    part = cache(lambda root, *terms: reps._nilpotent(rep, root, dict(terms)))
    a, b = ((1, 0), 1), ((0, 1), 1)

    @cache
    def commutator(alpha, beta):
        out = _then(part(alpha, a), part(beta, b))
        for key, n in _then(part(beta, b), part(alpha, a)).items():
            out[key] = out.get(key, 0) - n
        return {key: n for key, n in out.items() if n}

    for law, alpha, beta, _ in reps._cases(rep.system):
        if law != "R1":
            swapped = {(j, i, r, c): -n for (i, j, r, c), n in commutator(alpha, beta).items()}
            assert commutator(beta, alpha) == swapped, (law, alpha, beta)


def test_certificate_forms_one_commutator_per_root_pair(monkeypatch):
    """A D5-adjoint certificate makes 3,080 `_times` calls and an A8
    adjoint one 8,280, against 4,600 and 13,320 with a commutator per
    ordered pair."""
    times, calls = reps._times, []
    monkeypatch.setattr(reps, "_times", lambda *args: calls.append(1) or times(*args))
    for kind, rank, products in (("D", 5, 3080), ("A", 8, 8280)):
        rep, calls[:] = _rep(kind, rank, "adjoint"), []
        assert not any(reps._differences(rep, reps._cases(rep.system)))
        assert len(calls) == products, (kind, rank)
