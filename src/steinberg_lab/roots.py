"""Simply-laced root systems (types A and D) and their structure constants.

Roots are integer coordinate tuples in the standard Euclidean models:
e_i - e_j inside Z^(l+1) for A_l, and +-e_i +- e_j inside Z^l for D_l.
The constants N(a, b) with [e_a, e_b] = N(a, b) e_(a+b) are read off from
an explicit matrix realization of the corresponding simple Lie algebra,
so every sign in the tables is independently checkable.
"""

from __future__ import annotations

__all__ = [
    "Root", "RootSystem", "OPPOSITE", "build_root_system",
    "defining_matrix", "SUPPORTED_RANKS",
]

Root = tuple  # integer coordinate vector

SUPPORTED_RANKS = {"A": range(2, 9), "D": range(4, 9)}


class _Opposite:
    """Sentinel returned by root_sum when the arguments cancel."""

    def __repr__(self):
        return "OPPOSITE"


OPPOSITE = _Opposite()


def _neg(root: Root) -> Root:
    return tuple(-x for x in root)


def _positive_roots(kind: str, rank: int, dim: int):
    pos = []
    if kind == "A":
        for i in range(dim):
            for j in range(i + 1, dim):
                v = [0] * dim
                v[i], v[j] = 1, -1
                pos.append(tuple(v))
    else:
        for i in range(rank):
            for j in range(i + 1, rank):
                v = [0] * rank
                v[i], v[j] = 1, -1
                pos.append(tuple(v))
        for i in range(rank):
            for j in range(i + 1, rank):
                v = [0] * rank
                v[i], v[j] = 1, 1
                pos.append(tuple(v))
    return pos


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


def _sparse_mul(a: dict, b: dict) -> dict:
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                v = out.get((i, j), 0) + x * y
                if v:
                    out[(i, j)] = v
                else:
                    out.pop((i, j), None)
    return out


def _sparse_commutator(a: dict, b: dict) -> dict:
    out = dict(_sparse_mul(a, b))
    for key, v in _sparse_mul(b, a).items():
        w = out.get(key, 0) - v
        if w:
            out[key] = w
        else:
            out.pop(key, None)
    return out


_LIVE: dict = {}


class RootSystem:
    """Root list in a fixed enumeration order (positive roots first,
    ordered by index pairs, negatives mirroring), together with the
    addition table and the structure constants.  There is one instance
    per (kind, rank): words and representations compare systems by
    identity, so `RootSystem(kind, rank)` returns the live one."""

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
        pos = _positive_roots(kind, rank, self.dim)
        self.positive_roots = tuple(pos)
        self.roots = tuple(pos + [_neg(r) for r in pos])
        self.index = {r: i for i, r in enumerate(self.roots)}
        self._root_set = frozenset(self.roots)
        if kind == "A":
            simples = [tuple(1 if k == i else (-1 if k == i + 1 else 0)
                             for k in range(self.dim)) for i in range(rank)]
        else:
            simples = [tuple(1 if k == i else (-1 if k == i + 1 else 0)
                             for k in range(rank)) for i in range(rank - 1)]
            simples.append(tuple(1 if k >= rank - 2 else 0 for k in range(rank)))
        self.simple_roots = tuple(simples)
        self._matrices = {r: defining_matrix(kind, rank, r) for r in self.roots}
        self.addition_table, self.constants_table = self._build_tables()

    def __repr__(self):
        return f"{self.kind}{self.rank}"

    def _build_tables(self):
        add, const = {}, {}
        for a in self.roots:
            ea = self._matrices[a]
            for b in self.roots:
                s = tuple(x + y for x, y in zip(a, b))
                if s not in self._root_set:
                    continue
                add[(a, b)] = s
                bracket = _sparse_commutator(ea, self._matrices[b])
                es = self._matrices[s]
                if bracket == es:
                    const[(a, b)] = 1
                elif bracket == {k: -v for k, v in es.items()}:
                    const[(a, b)] = -1
                else:
                    raise AssertionError(
                        f"bracket of {a}, {b} is not +-e_({s}) in {self}")
        return add, const

    # -- queries ----------------------------------------------------------
    def is_root(self, v) -> bool:
        return tuple(v) in self._root_set

    def negate(self, root: Root) -> Root:
        return _neg(root)

    def root_sum(self, alpha: Root, beta: Root):
        """alpha + beta as a root; OPPOSITE when beta = -alpha; None when
        the sum is not a root."""
        if alpha not in self._root_set or beta not in self._root_set:
            raise ValueError("arguments are not roots of this system")
        if beta == _neg(alpha):
            return OPPOSITE
        return self.addition_table.get((alpha, beta))

    def structure_constant(self, alpha: Root, beta: Root) -> int:
        try:
            return self.constants_table[(alpha, beta)]
        except KeyError:
            raise ValueError(f"{alpha} + {beta} is not a root") from None

    def defining_matrix(self, root: Root) -> dict:
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
            if delta in self._root_set:
                return gamma, delta
        raise ValueError(f"no commutator decomposition for {beta}")


def build_root_system(kind: str, rank: int) -> RootSystem:
    return RootSystem(kind, rank)
