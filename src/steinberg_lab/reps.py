"""Matrix images of Steinberg generators and kernel membership tests.

Three representations are available: the defining representation of
sl_(l+1) for type A, the vector representation of so_2l for type D, and
the adjoint representation for both.  Every generator image is the exact
polynomial exp(xi e) = I + xi M1 + xi^2 M2 with integer matrices M1, M2
precomputed over ZZ, so evaluation is correct over any coefficient ring,
including characteristic 2.  So one sparse kernel serves every ring: a
matrix row is (d, {column: entry}), with int entries over a denominator d
over QQ and every localization tower of ZZ, and payload entries with
d = 1 over every other ring.  Only the dense view `GroupMatrix.rows`
maps int entries back to payloads.

The relation sweep (`verify_relations`) builds its cases once per root
system and proves each at the generic point of ZZ[a, b] once per
representation, since both are interned or read-only, forming each
unordered root pair's commutator once; it keeps only the open cases,
those with a nonzero difference, and specializes them in the ring at
trials that `Ring._sample` draws, over every ring but Z/m with 2^53 <=
d (m - 1)^2, (m - 1)^2 < 2^63.  There, as over GF(1000000007), the open
cases and every case whose products can round are evaluated in float64
(`_float_sweep`, the only user of numpy, which keeps its case tables
per representation), one trial per pass over the cases that held at
every earlier trial, so each stops at its first failing trial, where
the products round into false ones.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from types import MappingProxyType

from .rings import (IntegerRing, LocalizationRing, PrimeFieldRing, RationalField, Ring,
                    RingElement, RingHom, canonical_hom)
from .roots import RootSystem

__all__ = [
    "Representation", "GroupMatrix", "build_representation",
    "evaluate", "k2_membership", "verify_relations", "RelationReport",
]


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Representation:
    """Read-only integer generator tables: x_root(xi) acts as I + xi*M1 + xi^2*M2."""

    system: RootSystem
    kind: str                      # "defining" | "vector" | "adjoint"
    dim: int
    m1: dict = field(repr=False)   # root -> tuple[(i, j, coeff)]
    m2: dict = field(repr=False)
    support: dict = field(init=False, repr=False)  # root -> (row mask, column mask) of M1 + M2

    def __post_init__(self):
        for name in ("m1", "m2"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "support", MappingProxyType({
            root: (sum({1 << i for i, _, _ in t}), sum({1 << j for _, j, _ in t}))
            for root in self.system.roots for t in [self.m1[root] + self.m2[root]]}))

    def describe(self) -> str:
        return f"{self.kind}({self.system})"


def _simple_coordinates(system: RootSystem) -> dict:
    """root -> its coordinates in the simple roots.  With a_i = e_i -
    e_(i+1) they are the partial sums of the root's entries; in type D
    the last simple root is e_(l-2) + e_(l-1), so the last two are
    (P - x_(l-1))/2 and (P + x_(l-1))/2, P the partial sum up to l - 2."""
    coords = {}
    for root in system.roots:
        sums = [sum(root[:k + 1]) for k in range(system.rank)]
        if system.kind == "D":
            sums[-2:] = (sums[-2] - root[-1]) // 2, (sums[-2] + root[-1]) // 2
        coords[root] = tuple(sums)
    return coords


_REP_CACHE: dict = {}


def build_representation(system: RootSystem, kind: str = "adjoint") -> Representation:
    key = (system.kind, system.rank, kind)
    if key in _REP_CACHE:
        return _REP_CACHE[key]
    if kind in ("defining", "vector"):
        if kind == "defining" and system.kind != "A":
            raise ValueError("defining representation is the type A one")
        if kind == "vector" and system.kind != "D":
            raise ValueError("vector representation is the type D one")
        dim = system.matrix_dim
        m1 = {r: tuple((i, j, c) for (i, j), c in sorted(system.defining_matrix(r).items()))
              for r in system.roots}
        rep = Representation(system, kind, dim, m1, {r: () for r in system.roots})
    elif kind == "adjoint":
        # basis: e_root in enumeration order, then h_i = [e_(a_i), e_(-a_i)]
        # for the simple roots a_i.  x_a(xi) = exp(xi ad e_a), and
        # (ad e_a)^2 / 2 only sends e_(-a) to -e_a in a simply-laced system.
        index, nroots = system.index, len(system.roots)
        coords = _simple_coordinates(system)
        m1, m2 = {}, {}
        for a in system.roots:
            ia, ineg = index[a], index[system.negate(a)]
            col = [(index[s], index[b], system.constants_table[(a, b)])
                   for b in system.roots if (s := system.addition_table.get((a, b)))]
            col += [(nroots + i, ineg, c) for i, c in enumerate(coords[a]) if c]
            col += [(ia, nroots + i, -p) for i, simple in enumerate(system.simple_roots)
                    if (p := sum(x * y for x, y in zip(a, simple)))]
            m1[a] = tuple(sorted(col))
            m2[a] = ((ia, ineg, -1),)
        rep = Representation(system, "adjoint", nroots + system.rank, m1, m2)
    else:
        raise ValueError(f"unknown representation kind {kind!r}")
    _REP_CACHE[key] = rep
    return rep


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class GroupMatrix:
    """Square matrix over a ring with exact equality, stored sparsely so
    that equal matrices have equal rows.  Every row is (d, {column:
    entry}), its nonzero entries over one denominator d > 0.  Over QQ and
    a localization tower of ZZ (ZZ[1/2], ZZ[1/2][1/3], ...) the entries
    are ints with gcd(d, entries) = 1, which makes d the lcm of the
    entries' reduced denominators; over every other ring they are
    payloads and d = 1.  Only the dense view `rows` holds payloads."""

    __slots__ = ("ring", "dim", "_rows")

    def __init__(self, ring: Ring, dim: int, rows):
        self.ring = ring
        self.dim = dim
        self._rows = rows

    @classmethod
    def identity(cls, ring: Ring, dim: int) -> "GroupMatrix":
        one = _scalars(ring)[4]
        return cls(ring, dim, [(1, {i: one}) for i in range(dim)])

    @property
    def rows(self):
        """Dense view: a fresh list of lists of payloads; an int entry n
        over d is the payload n/d."""
        ring = self.ring
        payload = (Fraction if isinstance(ring, RationalField) else
                   (lambda n, d: ring._try_divide(ring._from_int(n), ring._from_int(d)))
                   if _scalars(ring)[-1] else lambda v, d: v)
        zero = ring._from_int(0)
        return [[payload(row[j], d) if j in row else zero for j in range(self.dim)]
                for d, row in self._rows]

    def __mul__(self, other: "GroupMatrix") -> "GroupMatrix":
        """The right factor over the lcm of its denominators (all 1 on
        payload rows), each left row over its own, multiply-added and
        divided by gcd(d, entries) when d > 1."""
        if self.ring is not other.ring:
            raise ValueError("matrices over different rings")
        if self.dim != other.dim:
            raise ValueError(f"matrices of dimensions {self.dim} and {other.dim}")
        add, mul, _, zero, *_ = _scalars(self.ring)
        big = lcm(*(d for d, _ in other._rows))
        right = [{j: b * (big // d) for j, b in row.items()} if d < big else row
                 for d, row in other._rows]
        out = []
        for d, row in self._rows:
            acc = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    v = acc.get(j)
                    acc[j] = mul(a, b) if v is None else add(v, mul(a, b))
            d *= big
            if d > 1:
                g = gcd(d, *acc.values())
                out.append((d // g, {j: v // g for j, v in acc.items() if v}))
            else:
                out.append((1, {j: v for j, v in acc.items() if v != zero}))
        return GroupMatrix(self.ring, self.dim, out)

    def __eq__(self, other):
        return (isinstance(other, GroupMatrix) and self.ring is other.ring
                and self._rows == other._rows)

    @property
    def is_identity(self) -> bool:
        return self._rows == GroupMatrix.identity(self.ring, self.dim)._rows

    def __repr__(self):
        body = "\n".join("[" + ", ".join(self.ring._payload_str(v) for v in row) + "]"
                         for row in self.rows)
        return f"GroupMatrix over {self.ring}:\n{body}"


_INTO_RATIONALS = weakref.WeakKeyDictionary()


def _scalars(ring: Ring):
    """(add, mul, neg, zero, one, cast, into): the arithmetic of the row
    entries, their int cast, and the payload map ring -> QQ.  Over QQ and
    a localization tower of ZZ the entries are ints and `into` is
    `canonical_hom(ring, QQ).fn`, kept per ring, which it does not keep
    alive; over every other ring they are the ring's payloads and `into`
    is None."""
    into = _INTO_RATIONALS.get(ring, False)
    if into is False:
        root = ring
        while isinstance(root, LocalizationRing):
            root = root.base
        tower = root is not ring and isinstance(root, IntegerRing)
        into = _INTO_RATIONALS[ring] = (canonical_hom(ring, RationalField()).fn
                                        if tower or isinstance(ring, RationalField) else None)
    if into:
        return operator.add, operator.mul, operator.neg, 0, 1, int, into
    return ring._add, ring._mul, ring._neg, ring.zero.payload, ring.one.payload, ring._from_int, None


def _image_rows(ring: Ring, rep: Representation, letters):
    """Sparse rows of the product of x_root(xi) over (root, payload)
    letters, multiplied left to right.  A letter x_r(n/d) (d = 1 on
    payload rows) scales each row it touches by s = d, or d^2 when the
    root has an M2 table, adds its terms and divides the row by
    gcd(s den, entries); at s = 1 the letter is unimodular, which keeps
    that gcd at 1, so only the entries it touched are checked for zero."""
    add, mul, neg, zero, one, cast, into = _scalars(ring)

    def scaled(table, x):
        return [(i, j, x if c == 1 else neg(x) if c == -1 else mul(x, cast(c)))
                for i, j, c in table]

    rows = [(1, {i: one}) for i in range(rep.dim)]
    for root, xi in letters:
        n, d = ((x := into(xi)).numerator, x.denominator) if into else (xi, 1)
        if n == zero:
            continue
        m2 = rep.m2[root]
        s, e = (d * d, d) if m2 else (d, 1)
        terms = scaled(rep.m1[root], n * e if e > 1 else n)
        terms += scaled(m2, mul(n, n)) if m2 else []
        for r, (den, row) in enumerate(rows):
            new, touched = row, []
            for i, j, v in terms:
                p = row.get(i)
                if p is not None:
                    if new is row:
                        new = {k: w * s for k, w in row.items()} if s > 1 else dict(row)
                    w = new.get(j)
                    new[j] = mul(p, v) if w is None else add(w, mul(p, v))
                    touched.append(j)
            if touched and s > 1:
                g = gcd(den * s, *new.values())
                rows[r] = den * s // g, {j: w // g for j, w in new.items() if w}
            elif touched:
                for j in touched:
                    if new.get(j) == zero:
                        del new[j]
                rows[r] = den, new
    return rows


def evaluate(word, rep: Representation, hom: RingHom | None = None) -> GroupMatrix:
    """Image of a word under the representation; letters are multiplied
    left to right, with arguments mapped through `hom` when given."""
    if word.system is not rep.system:
        raise ValueError(f"a word over {word.system} in a representation of {rep.system}")
    if hom is None:
        ring = word.ring
        letters = ((root, arg.payload) for root, arg in word.letters)
    else:
        if hom.domain is not word.ring:
            raise ValueError("homomorphism domain does not match word ring")
        ring = hom.codomain
        letters = ((root, hom.map_payload(arg.payload)) for root, arg in word.letters)
    return GroupMatrix(ring, rep.dim, _image_rows(ring, rep, letters))


def k2_membership(word, rep: Representation) -> bool:
    """Whether the word lies in the kernel of the chosen representation.
    That kernel is K2 only where the representation is faithful on G:
    of the library's representations, only the type-A defining one is.
    The adjoint representation kills the centre, and the D_l vector one
    is SO(2l), not Spin(2l), so there a word is decided modulo the
    centre and may answer True outside K2."""
    return evaluate(word, rep).is_identity


# ---------------------------------------------------------------------------
# relation verification sweeps
# ---------------------------------------------------------------------------

@dataclass
class RelationReport:
    """`violations` names each failing law, ("R1", a) or (law, a, b);
    `arguments` holds, at the same position, the (a, b) of its first
    failing trial as ring elements.  `certified` counts the cases proved
    at the generic point, not evaluated; 0 when evaluation decided all.
    On the float64 route, taken only by a table with no diagonal entry,
    those are the certified R1 and R2 cases that float64 computes
    exactly (`_float_sweep._exact_cases`), which that route's case
    tables, kept per representation, leave out."""

    representation: str
    ring: str
    samples: int
    pairs_checked: int
    violations: list
    arguments: list
    certified: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _nilpotent(rep: Representation, root, xi):
    """xi M1 + xi^2 M2, the part of x_root(xi) - I, for xi an integer
    polynomial {(i, j): n} in a and b, as {(i, j, r, c): n}: n a^i b^j
    at entry (r, c)."""
    square = {}
    for (i, j), n in xi.items():
        for (k, l), m in xi.items():
            square[i + k, j + l] = square.get((i + k, j + l), 0) + n * m
    out = {}
    for table, x in ((rep.m1[root], xi), (rep.m2[root], square)):
        for (i, j), n in x.items():
            for r, c, m in table:
                out[i, j, r, c] = out.get((i, j, r, c), 0) + n * m
    return out


def _chain(rep: Representation, alpha, beta) -> bool:
    """Whether a column of one root's entries is a row of the other's; if not, XY = YX = 0."""
    (ra, ca), (rb, cb) = rep.support[alpha], rep.support[beta]
    return bool(ca & rb or cb & ra)


def _plus(out: dict, sign: int, x: dict) -> dict:
    """out += sign x, in place."""
    for key, n in x.items():
        out[key] = out.get(key, 0) + sign * n
    return out


def _times(out: dict, sign: int, x: dict, rows: dict) -> dict:
    """out += sign x y, in place, for parts as `_nilpotent` gives and
    `rows` the entries of y indexed by row, {row: [(i, j, column, n)]}."""
    get = out.get
    for (i, j, r, k), n in x.items():
        n *= sign
        for i2, j2, c, m in rows.get(k, ()):
            key = i + i2, j + j2, r, c
            out[key] = get(key, 0) + n * m
    return out


def _differences(rep: Representation, cases):
    """Left side minus right side of each sweep case's law, R1
    x_a(a) x_a(b) = x_a(a + b), R2 x_a(a) x_b(b) = x_b(b) x_a(a) or R3
    x_a(a) x_b(b) = x_s(N ab) x_b(b) x_a(a) (law "R3-" when N = -1), at
    the generic point (a, b) of ZZ[a, b]: {(i, j, r, c): n}, the nonzero
    n a^i b^j at entry (r, c).  Evaluation is a ring map, so an empty
    difference means the law holds at every (a, b) of every commutative
    ring, and a nonzero one fails exactly where it specializes to a
    nonzero matrix.  With the parts X, Y, S of x_a(a), x_b(b), x_s(N ab)
    (`_nilpotent`), built once per root and argument and indexed by row,
    they are R1 X + Y + XY - part(a, a + b), R2 XY - YX, and R3 XY - YX -
    S - SY - SX - (SY)X, every right factor X or Y; an R2 case whose
    roots do not chain (`_chain`) is empty, with no product.  XY - YX of
    the pair (beta, alpha) is -sigma(XY - YX) of (alpha, beta), sigma
    swapping the exponents of a and b, so each unordered pair's
    commutator is formed once and the other order derived from it."""
    @cache
    def part(root, *terms):
        x, rows = _nilpotent(rep, root, dict(terms)), {}
        for (i, j, k, c), n in x.items():
            rows.setdefault(k, []).append((i, j, c, n))
        return x, rows

    a, b = ((1, 0), 1), ((0, 1), 1)
    swapped = {}
    for law, alpha, beta, s in cases:
        if law == "R2" and not _chain(rep, alpha, beta):
            yield {}
            continue
        (x, rx), (y, ry) = part(alpha, a), part(beta, b)
        if law == "R1":
            out = _plus(_times(_plus(dict(x), 1, y), 1, x, ry), -1, part(alpha, a, b)[0])
        else:
            out = swapped.pop((alpha, beta), None)
            if out is None:
                out = _times(_times({}, 1, x, ry), -1, y, rx)
                swapped[beta, alpha] = {(j, i, r, c): -n for (i, j, r, c), n in out.items() if n}
            if law != "R2":
                sx = part(s, ((1, 1), -1 if law == "R3-" else 1))[0]
                for z in (sx, _times({}, 1, sx, ry)):
                    _times(_plus(out, -1, z), -1, z, rx)
        yield {key: n for key, n in out.items() if n}


_CERTIFICATES = weakref.WeakKeyDictionary()


def _certificate(rep: Representation) -> dict:
    """{case index: generic difference} over the cases of `_cases` whose
    difference is nonzero, in case order, built once and kept while
    `rep` lives (its tables are read-only)."""
    open_cases = _CERTIFICATES.get(rep)
    if open_cases is None:
        diffs = enumerate(_differences(rep, _cases(rep.system)))
        open_cases = _CERTIFICATES[rep] = {n: diff for n, diff in diffs if diff}
    return open_cases


def _specialize(ring: Ring, diff, a, b) -> dict:
    """The nonzero entries {(r, c): payload} of a generic difference at
    the payloads a, b of the ring: sum n a^i b^j per entry."""
    add, mul, from_int = ring._add, ring._mul, ring._from_int
    powers_a, powers_b = [from_int(1)], [from_int(1)]
    for _ in range(max((max(i, j) for i, j, _, _ in diff), default=0)):
        powers_a.append(mul(powers_a[-1], a))
        powers_b.append(mul(powers_b[-1], b))
    entries = {}
    for (i, j, r, c), n in diff.items():
        term = mul(from_int(n), mul(powers_a[i], powers_b[j]))
        v = entries.get((r, c))
        entries[r, c] = term if v is None else add(v, term)
    zero = from_int(0)
    return {key: v for key, v in entries.items() if v != zero}


@cache
def _cases(system) -> tuple:
    """R1 on every root a, then R2 or R3 on every pair (a, b) with
    b != -a, as (law, a, b, a + b); law "R3-" when N(a, b) = -1.  Built
    once per interned root system, whose tables are read-only."""
    constant = system.constants_table
    cases = [("R1", alpha, alpha, None) for alpha in system.roots]
    for alpha in system.roots:
        minus = system.negate(alpha)
        for beta in system.roots:
            if beta != minus:
                s = system.addition_table.get((alpha, beta))
                law = "R2" if s is None else "R3-" if constant[alpha, beta] == -1 else "R3"
                cases.append((law, alpha, beta, s))
    return tuple(cases)


def _first_failures(ring: Ring, open_cases: dict, samples: int, rng) -> dict:
    """{case index: (a, b)} over the open cases (`_certificate`), in
    index order, that fail: the payloads of the first trial at which the
    case's generic difference specializes to nonzero.  Each open case
    draws trials, a then b from `Ring._sample`, up to its first failure."""
    def trials():
        for _ in range(samples):
            yield ring._sample(rng, 6), ring._sample(rng, 6)

    return {n: ab for n, diff in open_cases.items()
            if (ab := next((t for t in trials() if _specialize(ring, diff, *t)), None))}


def _report(rep, ring, samples, cases, failures: dict, certified) -> RelationReport:
    failed = [(cases[n], ab) for n, ab in failures.items()]
    return RelationReport(
        rep.describe(), ring.describe(), samples, len(cases),
        [(law[:2], alpha) if law == "R1" else (law[:2], alpha, beta)
         for (law, alpha, beta, _), _ in failed],
        [(RingElement(ring, a), RingElement(ring, b)) for _, (a, b) in failed], certified)


def verify_relations(rep: Representation, ring: Ring, samples: int, rng) -> RelationReport:
    """Check the three Steinberg relations as matrix identities,
    exhaustively over root pairs (`_cases`, built once per root system)
    and at `samples` trials (a, b) each, `samples` an int >= 1;
    violations are in case order.  Each case is certified at the generic
    point of ZZ[a, b] (`_differences`, one commutator per unordered root
    pair), once per read-only representation (`_certificate`, which
    keeps only the open cases, those with a nonzero difference): a zero
    difference holds at every (a, b) of every commutative ring and draws
    nothing from `rng`, and a nonzero one is specialized (`_specialize`)
    at trials drawn by `Ring._sample` up to the first that fails.  So an
    intact sweep leaves `rng` as it was, and a warm one does work only
    on the open cases.  Over Z/m with d (m - 1)^2 >= 2^53, as
    GF(1000000007), every case but the certified ones that float64
    computes exactly is instead evaluated in float64 (`_float_sweep`,
    from case tables kept per representation), one trial per pass over
    the cases that held at every earlier trial, so up to its first
    failing trial, after one `rng.randrange(2 ** 63)`; the products
    round there and report the false violations that the benchmark's
    relation-sweep asserts until its next revision.  A modulus with
    (m - 1)^2 >= 2^63, as Z/2^64, and a table that
    `_float_sweep.first_failures` declines before it draws (a diagonal
    entry, or w (m - 1)^2 >= 2^63) take the exact route."""
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ValueError(f"verify_relations needs an int samples >= 1, got {samples!r}")
    cases = _cases(rep.system)
    open_cases = _certificate(rep)
    mod = ring.p if isinstance(ring, PrimeFieldRing) else getattr(ring, "n", None)
    if mod and rep.dim * (mod - 1) ** 2 >= 2 ** 53 and (mod - 1) ** 2 < 2 ** 63:
        from ._float_sweep import first_failures
        found = first_failures(rep, ring, samples, mod, rng)
        if found is not None:
            return _report(rep, ring, samples, cases, *found)
    return _report(rep, ring, samples, cases, _first_failures(ring, open_cases, samples, rng),
                   len(cases) - len(open_cases))
