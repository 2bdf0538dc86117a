"""Matrix images of Steinberg generators and kernel membership tests.

Three representations are available: the defining representation of
sl_(l+1) for type A, the vector representation of so_2l for type D, and
the adjoint representation for both.  Every generator image is the exact
polynomial exp(xi e) = I + xi M1 + xi^2 M2 with integer matrices M1, M2
precomputed over ZZ, so evaluation is correct over any coefficient ring,
including characteristic 2.

The relation sweep (`verify_relations`) proves each case at the generic
point of ZZ[a, b] and specializes only the nonzero differences in the
ring, over every ring but Z/m with d (m - 1)^2 >= 2^53.  There, as over
GF(1000000007), every case is still evaluated in float64, whose products
round and report false violations, which the benchmark asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import numpy as np

from .rings import (IntegerRing, PolynomialRing, PrimeFieldRing, QuotientRing,
                    RationalField, Ring, RingElement, RingHom)
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


def _np_coeff_profile(ring: Ring):
    """(k, modulus, bound) for the rings whose sweep trials numpy draws:
    k coefficients of Z[t]/(t^k) in [-bound, bound], or one residue
    modulo m."""
    if isinstance(ring, PrimeFieldRing):
        return 1, ring.p, None
    if isinstance(ring, QuotientRing) and ring.n is not None:
        return 1, ring.n, None
    if (isinstance(ring, QuotientRing) and ring.n is None
            and isinstance(ring.base, PolynomialRing)
            and isinstance(ring.base.base, IntegerRing)
            and len(ring.modulus.payload) == 1):
        return ring.modulus.payload[0][0][0], None, 4
    return None


def _element(ring: Ring, coeffs):
    """The payload of the drawn coefficients `coeffs`: sum c_i t^i in
    Z[t]/(t^k), or the residue c_0 over Z/m."""
    if len(coeffs) == 1:
        return ring._from_int(int(coeffs[0]))
    t = ring.project(ring.base.gens()[0])
    return sum((int(c) * t ** i for i, c in enumerate(coeffs)), ring.zero).payload


# matrix entries in one batch of images: on the small representations
# 2^12 takes nearly twice as long, and 2^16 saves under a tenth of the
# time for 4 MB more peak memory
_BATCH_ENTRIES = 2 ** 14


def _letter_tables(rep: Representation):
    """Per root, in enumeration order, the flat positions p = i d + j of
    the entries of M1 and M2 and their coefficients there: three int64
    arrays of shape (roots, width).  A root vector is nilpotent, so none
    of these entries is on the diagonal.  A root with fewer entries
    repeats its first one, which writes the same value again."""
    d = rep.dim
    rows = []
    for root in rep.system.roots:
        m1 = {i * d + j: c for i, j, c in rep.m1[root]}
        m2 = {i * d + j: c for i, j, c in rep.m2[root]}
        rows.append([(p, m1.get(p, 0), m2.get(p, 0)) for p in {**m1, **m2}])
    width = max(map(len, rows))
    table = np.array([row + row[:1] * (width - len(row)) for row in rows], dtype=np.int64)
    return tuple(np.moveaxis(table, 2, 0))


class _FloatKernel:
    """Every case of a sweep over Z/m evaluated at every trial in float64
    products, which are exact only while d (m - 1)^2 < 2^53 and serve
    only the moduli past that bound (see `verify_relations`).  The cases
    of one law are evaluated together, at most `_BATCH_ENTRIES` matrix
    entries at a time, or one case when a case is larger.  Over a batch
    of B = cases x samples, a scalar is a (B,) int64 array and an image a
    (B, d, d) int64 array, both reduced mod m."""

    # a law builds at most six images per batch: R3's three letters and
    # three products
    SLOTS = 6

    def __init__(self, rep: Representation, ring: Ring, samples: int, mod: int):
        self.rep, self.ring, self.samples, self.mod = rep, ring, samples, mod
        self.tables = _letter_tables(rep)
        case_entries = samples * rep.dim ** 2
        self.chunk = max(1, _BATCH_ENTRIES // case_entries)
        # a batch's images, and a product's float64 operands and result,
        # are written into these buffers: fresh arrays for every batch
        # cost more in page faults than the products at d = 45
        self.slots = np.empty((self.SLOTS, self.chunk * case_entries), dtype=np.int64)
        self.floats = np.empty((3, self.chunk * case_entries))
        self.used = 0

    def run(self, cases, draws):
        """The payloads (a, b) of each case's first failing trial, None
        where the law held; `draws` has shape (cases, 2, samples)."""
        laws = {}
        for n, case in enumerate(cases):
            laws.setdefault(case[0], []).append(n)
        out = [None] * len(cases)
        for law, members in laws.items():
            for start in range(0, len(members), self.chunk):
                part = members[start:start + self.chunk]
                a, b = (draws[part, t].reshape(-1) for t in (0, 1))
                self.used = 0
                held = _holds(self, law, [cases[n] for n in part], a, b)
                for n, trials in zip(part, held):
                    if not trials.all():
                        s = int(np.argmin(trials))
                        out[n] = tuple(self.ring._from_int(int(x)) for x in draws[n, :, s])
        return out

    def _buffer(self, flat, batch):
        d = self.rep.dim
        return flat[:batch * d * d].reshape(batch, d, d)

    def _image(self, batch):
        self.used += 1
        return self._buffer(self.slots[self.used - 1], batch)

    def letter(self, roots, xi):
        """x_root(xi) for each root of the batch, over its samples: the
        identity with the root's table entries scattered in."""
        d, batch = self.rep.dim, len(xi)
        index = self.rep.system.index
        idx = np.repeat([index[r] for r in roots], self.samples)
        pos, c1, c2 = (t[idx] for t in self.tables)
        vals = xi[:, None] * c1
        if c2.any():
            vals += (xi * xi % self.mod)[:, None] * c2
        x = self._image(batch)
        x.fill(0)
        flat = x.reshape(batch, d * d)
        flat[:, ::d + 1] = 1
        flat[np.arange(batch)[:, None], pos] = vals % self.mod
        return x

    def product(self, x, y):
        # taken in float64, so the BLAS kernels apply, then truncated to
        # int64 and reduced; past 2^53 the float sums round
        xf, yf, acc = (self._buffer(f, len(x)) for f in self.floats)
        np.copyto(xf, x)
        np.copyto(yf, y)
        np.matmul(xf, yf, out=acc)
        out = self._image(len(x))
        np.copyto(out, acc, casting="unsafe")
        np.remainder(out, self.mod, out=out)
        return out

    def equal(self, x, y):
        """(cases, samples): whether the two images agree on each trial."""
        return (x == y).reshape(-1, self.samples, self.rep.dim ** 2).all(axis=2)


def _holds(kernel, law, cases, a, b):
    """The float kernel's verdict (`equal`) on whether `law` holds on a
    batch of its cases (law, alpha, beta, s) at arguments a, b: R1
    x_a(a) x_a(b) = x_a(a + b); R2 x_a(a) x_b(b) = x_b(b) x_a(a); R3
    x_a(a) x_b(b) = x_s(N ab) x_b(b) x_a(a), law "R3-" when N = -1.  Each
    letter is built once, and R3's right side is multiplied right to
    left, x_s (x_b x_a)."""
    _, alphas, betas, sums = zip(*cases)
    letter, product, m = kernel.letter, kernel.product, kernel.mod
    xa = letter(alphas, a)
    if law == "R1":
        return kernel.equal(product(xa, letter(alphas, b)), letter(alphas, (a + b) % m))
    xb = letter(betas, b)
    left, right = product(xa, xb), product(xb, xa)
    if law != "R2":
        ab = a * b % m
        right = product(letter(sums, -ab % m if law == "R3-" else ab), right)
    return kernel.equal(left, right)


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
    """Left side minus right side of each sweep case's law, as in
    `_holds`, at the generic point (a, b) of ZZ[a, b]: {(i, j, r, c): n},
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


def _first_failures(ring: Ring, diffs, trials):
    """For each case, the payloads (a, b) of its first trial at which its
    generic difference specializes to nonzero, None if there is none.
    `trials` yields each case's trials, in case order; the trials of a
    certified case, {}, are run through and evaluate nothing."""
    return [next((ab for ab in draws if diff and _specialize(ring, diff, *ab)), None)
            for diff, draws in zip(diffs, trials)]


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
    generic point of ZZ[a, b] (`_differences`).  A zero difference holds
    at every (a, b) of every commutative ring; a nonzero one is
    specialized in the ring (`_specialize`) at the case's trials, up to
    the first that fails.  Over Z/n, F_p and Z[t]/(t^k)
    (`_np_coeff_profile`) every trial is drawn in one numpy call and
    only the open cases' trials are converted; over every other ring
    `Ring._sample` draws them one by one, certified cases included.  An
    open case stops drawing at its first failing trial, so there the rng
    state after the sweep depends on the verdicts.  One route is not
    certified: over Z/m with d (m - 1)^2 >= 2^53, as over
    GF(1000000007), every case is evaluated in float64 (`_FloatKernel`),
    whose products round there and report false violations.  The
    benchmark's relation-sweep asserts those verdicts, so that route
    moves to the certificate with the next benchmark revision."""
    cases, profile = _cases(rep.system), _np_coeff_profile(ring)
    if profile is not None:
        k, mod, bound = profile
        lo, hi = (0, mod) if mod else (-bound, bound + 1)
        draws = np.random.default_rng(rng.randrange(2 ** 63)).integers(
            lo, hi, size=(len(cases), 2, samples, k), dtype=np.int64)
        if mod and rep.dim * (mod - 1) ** 2 >= 2 ** 53:
            failures = _FloatKernel(rep, ring, samples, mod).run(cases, draws[..., 0])
            return _report(rep, ring, samples, cases, failures, 0)
    diffs = list(_differences(rep, cases))
    if profile is None:
        trials = (((ring._sample(rng, 6), ring._sample(rng, 6)) for _ in range(samples))
                  for _ in cases)
    else:
        trials = (((_element(ring, x), _element(ring, y)) for x, y in zip(*draws[n]))
                  if diff else () for n, diff in enumerate(diffs))
    return _report(rep, ring, samples, cases, _first_failures(ring, diffs, trials),
                   diffs.count({}))
