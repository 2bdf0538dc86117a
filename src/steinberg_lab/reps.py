"""Matrix images of Steinberg generators and kernel membership tests.

Three representations are available: the defining representation of
sl_(l+1) for type A, the vector representation of so_2l for type D, and
the adjoint representation for both.  Every generator image is the exact
polynomial exp(xi e) = I + xi M1 + xi^2 M2 with integer matrices M1, M2
precomputed over ZZ, so evaluation is correct over any coefficient ring,
including characteristic 2.

The relation sweep (`verify_relations`) proves each case at the generic
point of ZZ[a, b] and specializes only the nonzero differences in the
ring, at trials that `Ring._sample` draws, over every ring but Z/m with
d (m - 1)^2 >= 2^53.  There, as over GF(1000000007), every case is still
evaluated in float64 (`_float_sweep`, the only user of numpy), whose
products round and report false violations, which the benchmark asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .rings import PrimeFieldRing, RationalField, Ring, RingElement, RingHom
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
    """Integer generator tables: x_root(xi) acts as I + xi*M1 + xi^2*M2."""

    system: RootSystem
    kind: str                      # "defining" | "vector" | "adjoint"
    dim: int
    m1: dict = field(repr=False)   # root -> tuple[(i, j, coeff)]
    m2: dict = field(repr=False)

    def describe(self) -> str:
        return f"{self.kind}({self.system})"


def _simple_coordinates(system: RootSystem) -> dict:
    """root -> its coordinates in the simple roots.  A positive root that
    is not simple is a positive root plus a simple root a_i, so its
    coordinates are those of the smaller root plus 1 at i."""
    unit = [tuple(int(i == j) for j in range(system.rank)) for i in range(system.rank)]
    coords = dict(zip(system.simple_roots, unit))
    while len(coords) < len(system.positive_roots):
        for root in system.positive_roots:
            for i, s in enumerate(system.simple_roots):
                rest = tuple(x - y for x, y in zip(root, s))
                if rest in coords and root not in coords:
                    coords[root] = tuple(c + u for c, u in zip(coords[rest], unit[i]))
    coords.update({system.negate(r): tuple(-c for c in v) for r, v in list(coords.items())})
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
    """Square matrix of ring payloads with exact equality, stored as one
    dict {column: payload} per row holding the nonzero entries only, so
    equal matrices have equal rows."""

    __slots__ = ("ring", "dim", "_rows")

    def __init__(self, ring: Ring, dim: int, rows):
        self.ring = ring
        self.dim = dim
        self._rows = rows

    @classmethod
    def identity(cls, ring: Ring, dim: int) -> "GroupMatrix":
        one = ring._from_int(1)
        return cls(ring, dim, [{i: one} for i in range(dim)])

    @property
    def rows(self):
        """Dense view: a fresh list of lists of payloads."""
        zero = self.ring._from_int(0)
        return [[row.get(j, zero) for j in range(self.dim)] for row in self._rows]

    def __mul__(self, other: "GroupMatrix") -> "GroupMatrix":
        if self.ring is not other.ring:
            raise ValueError("matrices over different rings")
        if self.dim != other.dim:
            raise ValueError(f"matrices of dimensions {self.dim} and {other.dim}")
        ring = self.ring
        if isinstance(ring, RationalField):
            return GroupMatrix(ring, self.dim, _rational_product(self._rows, other._rows))
        add, mul = ring._add, ring._mul
        zero = ring._from_int(0)
        right = other._rows
        out = []
        for row in self._rows:
            acc = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    v = acc.get(j)
                    acc[j] = mul(a, b) if v is None else add(v, mul(a, b))
            out.append({j: v for j, v in acc.items() if v != zero})
        return GroupMatrix(ring, self.dim, out)

    def __eq__(self, other):
        return (isinstance(other, GroupMatrix) and self.ring is other.ring
                and self._rows == other._rows)

    @property
    def is_identity(self) -> bool:
        one = self.ring._from_int(1)
        return all(row == {i: one} for i, row in enumerate(self._rows))

    def __repr__(self):
        body = "\n".join("[" + ", ".join(self.ring._payload_str(v) for v in row) + "]"
                         for row in self.rows)
        return f"GroupMatrix over {self.ring}:\n{body}"


def _apply_letter(ring: Ring, rows, m1, m2, xi):
    """Sparse rows of rows * (I + xi M1 + xi^2 M2); rows the letter does
    not touch are shared, not copied."""
    zero = ring._from_int(0)
    add, mul, neg = ring._add, ring._mul, ring._neg

    def scaled(entries, x):
        return [(i, j, x if c == 1 else neg(x) if c == -1 else mul(x, ring._from_int(c)))
                for i, j, c in entries]

    terms = scaled(m1, xi) + (scaled(m2, mul(xi, xi)) if m2 else [])
    out = []
    for row in rows:
        new, touched = row, []
        for i, j, s in terms:
            p = row.get(i)
            if p is not None:
                if new is row:
                    new = dict(row)
                v = new.get(j)
                new[j] = mul(p, s) if v is None else add(v, mul(p, s))
                touched.append(j)
        for j in touched:
            if new.get(j) == zero:
                del new[j]
        out.append(new)
    return out


def _fractions(num, den):
    """Sparse Fraction rows of integer rows `num` over the denominators `den`."""
    return [{j: Fraction(v, d) for j, v in row.items()} if d > 1 else
            {j: Fraction(v) for j, v in row.items()} for d, row in zip(den, num)]


def _rational_product(left, right):
    """Sparse rows of left * right over QQ, multiplied on integers: the
    right factor over the lcm of its denominators, each left row over its own."""
    big = lcm(*(b.denominator for row in right for b in row.values()))
    right = [{j: b.numerator * (big // b.denominator) for j, b in row.items()} for row in right]
    num, den = [], []
    for row in left:
        d = lcm(*(a.denominator for a in row.values()))
        acc = {}
        for k, a in row.items():
            a = a.numerator * (d // a.denominator)
            for j, b in right[k].items():
                acc[j] = acc.get(j, 0) + a * b
        num.append({j: v for j, v in acc.items() if v})
        den.append(d * big)
    return _fractions(num, den)


def _rational_rows(rep: Representation, letters):
    """`_image_rows` over QQ on integers: row i is num[i] / den[i].  A
    letter x_r(n/d) scales the rows it touches by s = d, or d^2 when the
    root has an M2 table, adds the integer terms and divides the row by
    gcd(den, entries).  At s = 1 the letter is unimodular, which keeps
    that gcd at 1, so it is not taken."""
    num, den = [{i: 1} for i in range(rep.dim)], [1] * rep.dim
    for root, xi in letters:
        n, d, m2 = xi.numerator, xi.denominator, rep.m2[root]
        s, e = (d * d, d) if m2 else (d, 1)
        terms = [(i, j, c * n * e) for i, j, c in rep.m1[root]]
        terms += [(i, j, c * n * n) for i, j, c in m2]
        for r, row in enumerate(num):
            hits = [(j, row[i] * c) for i, j, c in terms if i in row]
            if hits:
                new = {k: v * s for k, v in row.items()} if s > 1 else dict(row)
                for j, v in hits:
                    new[j] = new.get(j, 0) + v
                g = gcd(den[r] * s, *new.values()) if s > 1 else 1
                num[r], den[r] = {j: v // g for j, v in new.items() if v}, den[r] * s // g
    return _fractions(num, den)


def _image_rows(ring: Ring, rep: Representation, letters):
    """Sparse rows of the product of x_root(xi) over (root, payload)
    letters, multiplied left to right."""
    zero = ring._from_int(0)
    if isinstance(ring, RationalField):
        return _rational_rows(rep, [(root, xi) for root, xi in letters if xi != zero])
    rows = GroupMatrix.identity(ring, rep.dim)._rows
    for root, xi in letters:
        if xi != zero:
            rows = _apply_letter(ring, rows, rep.m1[root], rep.m2[root], xi)
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
        ring = hom.codomain
        letters = ((root, hom.map_payload(arg.payload)) for root, arg in word.letters)
    return GroupMatrix(ring, rep.dim, _image_rows(ring, rep, letters))


def k2_membership(word, rep: Representation) -> bool:
    """Whether the word lies in the kernel of the chosen representation;
    for configurations faithful on the elementary subgroup this kernel
    contains exactly the unstable K2 classes."""
    return evaluate(word, rep).is_identity


# ---------------------------------------------------------------------------
# relation verification sweeps
# ---------------------------------------------------------------------------

@dataclass
class RelationReport:
    """`violations` names each failing law, ("R1", a) or (law, a, b);
    `arguments` holds, at the same position, the (a, b) of its first
    failing trial as ring elements.  `certified` counts the cases proved
    at the generic point, not evaluated; 0 when evaluation decided all."""

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


def _then(x, y):
    """(I + x)(I + y) - I = x + y + x y, for parts as `_nilpotent` gives."""
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


def _differences(rep: Representation, cases):
    """Left side minus right side of each sweep case's law, R1
    x_a(a) x_a(b) = x_a(a + b), R2 x_a(a) x_b(b) = x_b(b) x_a(a) or R3
    x_a(a) x_b(b) = x_s(N ab) x_b(b) x_a(a) (law "R3-" when N = -1), at
    the generic point (a, b) of ZZ[a, b]: {(i, j, r, c): n},
    the nonzero n a^i b^j at entry (r, c).  Evaluation at any (a, b) of
    any commutative ring is a ring map, so an empty difference means the
    law holds there, and a nonzero one fails exactly where it specializes
    to a nonzero matrix.  Each root's part at each argument is built once."""
    part = cache(lambda root, *terms: _nilpotent(rep, root, dict(terms)))
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


def _cases(system):
    """R1 on every root a, then R2 or R3 on every pair (a, b) with
    b != -a, as (law, a, b, a + b); law "R3-" when N(a, b) = -1."""
    cases = [("R1", alpha, alpha, None) for alpha in system.roots]
    for alpha in system.roots:
        for beta in system.roots:
            if beta != system.negate(alpha):
                s = system.addition_table.get((alpha, beta))
                law = ("R2" if s is None else
                       "R3-" if system.structure_constant(alpha, beta) == -1 else "R3")
                cases.append((law, alpha, beta, s))
    return cases


def _first_failures(ring: Ring, diffs, samples: int, rng):
    """For each case, the payloads (a, b) of its first trial at which its
    generic difference specializes to nonzero, None if there is none.
    Only a case with a nonzero difference draws trials: a, then b, from
    `Ring._sample`, trial by trial, up to the first that fails."""
    def trials():
        for _ in range(samples):
            yield ring._sample(rng, 6), ring._sample(rng, 6)

    return [next((ab for ab in trials() if _specialize(ring, diff, *ab)), None) if diff
            else None for diff in diffs]


def _report(rep, ring, samples, cases, failures, certified) -> RelationReport:
    failed = [(case, ab) for case, ab in zip(cases, failures) if ab is not None]
    return RelationReport(
        rep.describe(), ring.describe(), samples, len(cases),
        [(law[:2], alpha) if law == "R1" else (law[:2], alpha, beta)
         for (law, alpha, beta, _), _ in failed],
        [tuple(RingElement(ring, x) for x in ab) for _, ab in failed], certified)


def verify_relations(rep: Representation, ring: Ring, samples: int, rng) -> RelationReport:
    """Check the three Steinberg relations as matrix identities,
    exhaustively over root pairs (`_cases`) and at `samples` trials (a, b)
    each; violations are in case order.  Each case is certified at the
    generic point of ZZ[a, b] (`_differences`): a zero difference holds
    at every (a, b) of every commutative ring and draws nothing from
    `rng`, and a nonzero one is specialized (`_specialize`) at trials
    drawn by `Ring._sample` up to the first that fails.  So an intact
    sweep leaves `rng` as it was.  Over Z/m with d (m - 1)^2 >= 2^53, as
    GF(1000000007), every case is instead evaluated in float64
    (`_float_sweep`), whose products round there and report the false
    violations that the benchmark's relation-sweep asserts until its
    next revision."""
    cases = _cases(rep.system)
    mod = ring.p if isinstance(ring, PrimeFieldRing) else getattr(ring, "n", None)
    if mod and rep.dim * (mod - 1) ** 2 >= 2 ** 53:
        from ._float_sweep import first_failures
        return _report(rep, ring, samples, cases,
                       first_failures(rep, ring, samples, cases, mod, rng), 0)
    diffs = list(_differences(rep, cases))
    return _report(rep, ring, samples, cases, _first_failures(ring, diffs, samples, rng),
                   diffs.count({}))
