"""Root system tables checked against an independent dense-matrix oracle."""

import copy

import numpy as np
import pytest

from steinberg_lab.reps import build_representation, evaluate
from steinberg_lab.rings import ZZ
from steinberg_lab.roots import OPPOSITE, RootSystem, build_root_system
from steinberg_lab.words import gen

# ---------------------------------------------------------------------------
# independent oracle: dense numpy realization of the Chevalley generators,
# written from scratch (no shared code with the library's sparse tables)
# ---------------------------------------------------------------------------


def oracle_generator(kind, rank, root):
    if kind == "A":
        n = rank + 1
        m = np.zeros((n, n), dtype=np.int64)
        i = list(root).index(1)
        j = list(root).index(-1)
        m[i, j] = 1
        return m
    l = rank
    m = np.zeros((2 * l, 2 * l), dtype=np.int64)
    support = [(idx, c) for idx, c in enumerate(root) if c]
    (i, ci), (j, cj) = support
    if ci == 1 and cj == -1:
        m[i, j] = 1
        m[j + l, i + l] = -1
    elif ci == -1 and cj == 1:
        m[j, i] = 1
        m[i + l, j + l] = -1
    elif ci == 1 and cj == 1:
        m[i, j + l] = 1
        m[j, i + l] = -1
    else:
        m[j + l, i] = 1
        m[i + l, j] = -1
    return m


def oracle_constant(system, alpha, beta):
    """Sign read off from the dense commutator [e_alpha, e_beta]."""
    ea = oracle_generator(system.kind, system.rank, alpha)
    eb = oracle_generator(system.kind, system.rank, beta)
    s = tuple(x + y for x, y in zip(alpha, beta))
    es = oracle_generator(system.kind, system.rank, s)
    bracket = ea @ eb - eb @ ea
    if np.array_equal(bracket, es):
        return 1
    if np.array_equal(bracket, -es):
        return -1
    raise AssertionError(f"oracle bracket not +-e for {alpha}, {beta}")


# ---------------------------------------------------------------------------


def test_root_counts():
    assert len(build_root_system("A", 2).roots) == 6
    assert len(build_root_system("A", 5).roots) == 30
    assert len(build_root_system("D", 4).roots) == 24
    assert len(build_root_system("D", 6).roots) == 60


def test_all_roots_have_square_length_two():
    for kind, rank in (("A", 3), ("D", 5)):
        system = build_root_system(kind, rank)
        for r in system.roots:
            assert sum(x * x for x in r) == 2


def test_unsupported_systems_rejected():
    with pytest.raises(ValueError):
        build_root_system("A", 1)
    with pytest.raises(ValueError):
        build_root_system("D", 3)
    with pytest.raises(ValueError):
        build_root_system("B", 3)


def test_structure_constants_match_oracle_exhaustively():
    for kind, rank in (("A", 2), ("A", 3), ("A", 4), ("A", 5),
                       ("D", 4), ("D", 5), ("D", 6)):
        system = build_root_system(kind, rank)
        for (a, b), n in system.constants_table.items():
            assert n == oracle_constant(system, a, b), (kind, rank, a, b)


def test_constant_sign_identities():
    for kind, rank in (("A", 2), ("A", 4), ("D", 4), ("D", 5)):
        system = build_root_system(kind, rank)
        for (a, b), n in system.constants_table.items():
            assert n in (1, -1)
            assert system.constants_table[(b, a)] == -n
            assert system.constants_table[(system.negate(a), system.negate(b))] == -n


def test_a2_simple_constant_is_plus_one():
    A2 = build_root_system("A", 2)
    a1, a2 = A2.simple_roots
    assert A2.structure_constant(a1, a2) == 1
    assert A2.structure_constant(a2, a1) == -1


def test_root_sum():
    A2 = build_root_system("A", 2)
    assert A2.root_sum((1, -1, 0), (0, 1, -1)) == (1, 0, -1)
    assert A2.root_sum((1, -1, 0), (1, 0, -1)) is None
    assert A2.root_sum((1, -1, 0), (-1, 1, 0)) is OPPOSITE
    with pytest.raises(ValueError):
        A2.root_sum((1, -1, 0), (2, 0, 0))


def test_root_sum_consistent_with_table():
    for kind, rank in (("A", 3), ("D", 4)):
        system = build_root_system(kind, rank)
        for a in system.roots:
            for b in system.roots:
                s = tuple(x + y for x, y in zip(a, b))
                expected = system.addition_table.get((a, b))
                got = system.root_sum(a, b)
                if b == system.negate(a):
                    assert got is OPPOSITE
                elif expected is None:
                    assert got is None
                    assert not system.is_root(s)
                else:
                    assert got == s


def test_commutator_decomposition_enumeration_examples():
    A3 = build_root_system("A", 3)
    assert A3.commutator_decomposition((1, 0, 0, -1)) == ((1, -1, 0, 0), (0, 1, 0, -1))
    g, d = A3.commutator_decomposition((0, 1, -1, 0))
    assert tuple(x + y for x, y in zip(g, d)) == (0, 1, -1, 0)
    D4 = build_root_system("D", 4)
    assert D4.commutator_decomposition((1, 1, 0, 0)) == ((1, 0, -1, 0), (0, 1, 1, 0))


def test_commutator_decomposition_properties():
    for kind, rank in (("A", 3), ("D", 4), ("D", 5)):
        system = build_root_system(kind, rank)
        for beta in system.roots:
            g, d = system.commutator_decomposition(beta)
            assert system.is_root(g) and system.is_root(d)
            assert tuple(x + y for x, y in zip(g, d)) == beta
            assert g not in (beta, system.negate(beta))
            assert d not in (beta, system.negate(beta))
            assert system.structure_constant(g, d) in (1, -1)


def test_commutator_decomposition_needs_rank_three():
    A2 = build_root_system("A", 2)
    with pytest.raises(ValueError):
        A2.commutator_decomposition((1, -1, 0))


def test_enumeration_positive_first_and_deterministic():
    system = build_root_system("A", 3)
    npos = len(system.positive_roots)
    assert system.roots[:npos] == system.positive_roots
    for i, r in enumerate(system.positive_roots):
        assert system.roots[npos + i] == system.negate(r)
    # rebuilt system enumerates identically
    system2 = build_root_system("A", 3)
    assert system2.roots == system.roots


def test_one_live_system_per_kind_and_rank():
    """Words and representations compare systems by identity, so a
    system constructed directly is the one `build_root_system` returns,
    and a word over it evaluates in the cached representation."""
    A2 = RootSystem("A", 2)
    assert A2 is build_root_system("A", 2) is RootSystem("A", 2)
    assert copy.deepcopy(A2) is A2
    m = evaluate(gen(A2, ZZ(), A2.simple_roots[0], 5), build_representation(A2, "defining"))
    assert m.rows[0][1] == 5
