"""Simply-laced root systems (types A and D) and their structure constants.

Roots are integer coordinate tuples in the standard Euclidean models:
e_i - e_j inside Z^(l+1) for A_l, and +-e_i +- e_j inside Z^l for D_l.
The constants N(a, b) with [e_a, e_b] = N(a, b) e_(a+b) are read off from
an explicit matrix realization of the corresponding simple Lie algebra,
so every sign in the tables is independently checkable.
"""

from __future__ import annotations

from types import MappingProxyType

__all__ = [
    "Root", "RootSystem", "build_root_system",
    "defining_matrix", "SUPPORTED_RANKS",
]

Root = tuple  # integer coordinate vector

SUPPORTED_RANKS = {"A": range(2, 9), "D": range(4, 9)}


def _neg(root: Root) -> Root:
    return tuple(-x for x in root)


def _root(dim: int, i: int, j: int, sign: int) -> Root:
    """e_i + sign e_j in Z^dim."""
    return tuple(1 if k == i else sign if k == j else 0 for k in range(dim))


def defining_matrix(kind: str, rank: int, root: Root):
    """Sparse {(row, col): coeff} matrix for the root vector in the
    defining representation (sl_(l+1)) or vector representation (so_2l,
    split form with the two isotropic blocks swapped by the form)."""
    if kind == "A":
        i = root.index(1)
        j = root.index(-1)
        return {(i, j): 1}
    l = rank
    support = [(i, c) for i, c in enumerate(root) if c]
    (i, ci), (j, cj) = support
    if ci == 1 and cj == -1:
        return {(i, j): 1, (j + l, i + l): -1}
    if ci == -1 and cj == 1:
        return {(j, i): 1, (i + l, j + l): -1}
    if ci == 1 and cj == 1:
        return {(i, j + l): 1, (j, i + l): -1}
    return {(j + l, i): 1, (i + l, j): -1}


def _bracket(a: dict, b: dict) -> dict:
    """ab - ba for sparse {(row, col): coeff} matrices."""
    out = {}
    for sign, x, y in ((1, a, b), (-1, b, a)):
        for (i, k), u in x.items():
            for (k2, j), v in y.items():
                if k == k2:
                    out[i, j] = out.get((i, j), 0) + sign * u * v
    return {key: v for key, v in out.items() if v}


_LIVE: dict = {}


class RootSystem:
    """Root list in a fixed enumeration order (positive roots first,
    ordered by index pairs, negatives mirroring), with read-only tables:
    root index, addition, structure constants, defining matrices.  There
    is one instance per (kind, rank): words and representations compare
    systems by identity, so `RootSystem(kind, rank)` returns the live one."""

    def __new__(cls, kind: str, rank: int):
        self = _LIVE.get((kind, rank))
        if self is None:
            if kind not in SUPPORTED_RANKS or rank not in SUPPORTED_RANKS[kind]:
                raise ValueError(f"unsupported root system {kind}{rank}")
            self = super().__new__(cls)
            self._build(kind, rank)
            _LIVE[kind, rank] = self
        return self

    def __reduce__(self):
        return RootSystem, (self.kind, self.rank)

    def _build(self, kind: str, rank: int):
        self.kind = kind
        self.rank = rank
        self.dim = rank + 1 if kind == "A" else rank
        self.matrix_dim = rank + 1 if kind == "A" else 2 * rank
        # e_i - e_j for i < j, then (type D) e_i + e_j for i < j
        pos = [_root(self.dim, i, j, sign) for sign in ((-1,) if kind == "A" else (-1, 1))
               for i in range(self.dim) for j in range(i + 1, self.dim)]
        self.positive_roots = tuple(pos)
        self.roots = tuple(pos + [_neg(r) for r in pos])
        self.index = MappingProxyType({r: i for i, r in enumerate(self.roots)})
        simples = [_root(self.dim, i, i + 1, -1) for i in range(self.dim - 1)]
        if kind == "D":
            simples.append(_root(self.dim, self.dim - 2, self.dim - 1, 1))
        self.simple_roots = tuple(simples)
        self._matrices = {r: MappingProxyType(defining_matrix(kind, rank, r)) for r in self.roots}
        self.addition_table, self.constants_table = self._build_tables()

    def __repr__(self):
        return f"{self.kind}{self.rank}"

    def _build_tables(self):
        add, const = {}, {}
        for a in self.roots:
            for b in self.roots:
                s = tuple(x + y for x, y in zip(a, b))
                if s not in self.index:
                    continue
                add[(a, b)] = s
                bracket = _bracket(self._matrices[a], self._matrices[b])
                es = self._matrices[s]
                if bracket == es:
                    const[(a, b)] = 1
                elif bracket == {k: -v for k, v in es.items()}:
                    const[(a, b)] = -1
                else:
                    raise AssertionError(
                        f"bracket of {a}, {b} is not +-e_({s}) in {self}")
        return MappingProxyType(add), MappingProxyType(const)

    # -- queries ----------------------------------------------------------
    def is_root(self, v) -> bool:
        return tuple(v) in self.index

    def negate(self, root: Root) -> Root:
        return _neg(root)

    def structure_constant(self, alpha: Root, beta: Root) -> int:
        try:
            return self.constants_table[(alpha, beta)]
        except KeyError:
            raise ValueError(f"{alpha} + {beta} is not a root") from None

    def defining_matrix(self, root: Root) -> MappingProxyType:
        return self._matrices[root]

    def commutator_decomposition(self, beta: Root):
        """First pair (g, d) in enumeration order with g + d = beta and
        g, d both different from +-beta."""
        if self.rank < 3:
            raise ValueError("commutator decomposition needs rank >= 3")
        nbeta = _neg(beta)
        for gamma in self.roots:
            if gamma == beta or gamma == nbeta:
                continue
            delta = tuple(x - y for x, y in zip(beta, gamma))
            if delta in self.index:
                return gamma, delta
        raise ValueError(f"no commutator decomposition for {beta}")


def build_root_system(kind: str, rank: int) -> RootSystem:
    return RootSystem(kind, rank)
