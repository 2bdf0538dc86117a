"""Matrix images of Steinberg generators and kernel membership tests.

Three representations are available: the defining representation of
sl_(l+1) for type A, the vector representation of so_2l for type D, and
the adjoint representation for both.  Every generator image is the exact
polynomial exp(xi e) = I + xi M1 + xi^2 M2 with integer matrices M1, M2
precomputed over ZZ, so evaluation is correct over any coefficient ring,
including characteristic 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rings import (IntegerRing, PolynomialRing, PrimeFieldRing,
                    QuotientRing, Ring, RingElement, RingHom)
from .roots import RootSystem, sparse_commutator, sparse_mul

__all__ = [
    "Representation", "GroupMatrix", "build_representation",
    "evaluate", "k2_membership", "verify_relations", "RelationReport",
]


# ---------------------------------------------------------------------------
# decomposition of matrices into the Chevalley basis
# ---------------------------------------------------------------------------

def _decompose_type_a(system: RootSystem, mat: dict) -> dict:
    d = system.matrix_dim
    coeffs = {}
    diag = [0] * d
    for (i, j), c in mat.items():
        if i == j:
            diag[i] = c
        else:
            root = tuple(1 if k == i else (-1 if k == j else 0) for k in range(d))
            coeffs[system.index[root]] = c
    if sum(diag) != 0:
        raise AssertionError("matrix is not traceless")
    nroots = len(system.roots)
    acc = 0
    for k in range(system.rank):
        acc += diag[k]
        if acc:
            coeffs[nroots + k] = acc
    return coeffs


def _decompose_type_d(system: RootSystem, mat: dict) -> dict:
    l = system.rank
    coeffs = {}
    diag = [0] * l
    for (i, j), c in mat.items():
        if i == j:
            if i < l:
                diag[i] = c
            continue
        if i < l and j < l:
            root = tuple(1 if k == i else (-1 if k == j else 0) for k in range(l))
            coeffs[system.index[root]] = c
        elif i < l <= j:
            a, b = i, j - l
            if a < b:
                root = tuple(1 if k in (a, b) else 0 for k in range(l))
                coeffs[system.index[root]] = c
        elif j < l <= i:
            a, b = j, i - l
            if a < b:
                root = tuple(-1 if k in (a, b) else 0 for k in range(l))
                coeffs[system.index[root]] = c
    # Cartan part: first l-2 coefficients are prefix sums, the last two
    # come from a 2x2 system whose solution must be integral.
    prefix = 0
    nroots = len(system.roots)
    pref = []
    for k in range(l):
        prefix += diag[k]
        pref.append(prefix)
    for k in range(l - 2):
        if pref[k]:
            coeffs[nroots + k] = pref[k]
    top = pref[l - 1]
    if top % 2 or (pref[l - 2] - diag[l - 1]) % 2:
        raise AssertionError("non-integral Cartan coefficients")
    c_last = top // 2
    c_prev = (pref[l - 2] - diag[l - 1]) // 2
    if c_prev:
        coeffs[nroots + l - 2] = c_prev
    if c_last:
        coeffs[nroots + l - 1] = c_last
    return coeffs


def _decompose(system: RootSystem, mat: dict, basis) -> dict:
    coeffs = (_decompose_type_a if system.kind == "A" else _decompose_type_d)(system, mat)
    # reconstruct to certify the read-off
    recon = {}
    for idx, c in coeffs.items():
        for pos, v in basis[idx].items():
            w = recon.get(pos, 0) + c * v
            if w:
                recon[pos] = w
            else:
                recon.pop(pos, None)
    if recon != mat:
        raise AssertionError("basis decomposition failed to reconstruct input")
    return coeffs


def _chevalley_basis(system: RootSystem):
    basis = [dict(system.defining_matrix(r)) for r in system.roots]
    for s in system.simple_roots:
        basis.append(dict(system.coroot_matrix(s)))
    return basis


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

    def root_matrix(self, root):
        """Dense integer matrix of the basis nilpotent e_root."""
        return _dense(self.dim, self.m1[root])

    def describe(self) -> str:
        return f"{self.kind}({self.system})"


def _dense(dim: int, entries):
    """Dense int64 matrix from sparse (i, j, coeff) entries."""
    m = np.zeros((dim, dim), dtype=np.int64)
    for i, j, c in entries:
        m[i, j] = c
    return m


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
        basis = _chevalley_basis(system)
        dim = len(basis)
        m1, m2 = {}, {}
        for root in system.roots:
            e = system.defining_matrix(root)
            col1, col2 = [], []
            for k, x in enumerate(basis):
                ex = sparse_mul(e, x)
                for row, c in _decompose(system, sparse_commutator(e, x), basis).items():
                    col1.append((row, k, c))
                # second-order term of Ad(I + xi e): X |-> -e X e
                exe = sparse_mul(ex, e)
                if exe:
                    exe = {pos: -v for pos, v in exe.items()}
                    for row, c in _decompose(system, exe, basis).items():
                        col2.append((row, k, c))
            m1[root] = tuple(sorted(col1))
            m2[root] = tuple(sorted(col2))
        rep = Representation(system, "adjoint", dim, m1, m2)
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
        ring = self.ring
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

    def entry(self, i: int, j: int) -> RingElement:
        return RingElement(self.ring, self._rows[i].get(j, self.ring._from_int(0)))

    def det(self) -> RingElement:
        """Fraction-free Gaussian elimination (Bareiss); needs exact
        division in the ring."""
        ring = self.ring
        zero = ring._from_int(0)
        a = self.rows
        d = self.dim
        sign = 1
        prev = ring._from_int(1)
        for k in range(d - 1):
            if a[k][k] == zero:
                for r in range(k + 1, d):
                    if a[r][k] != zero:
                        a[k], a[r] = a[r], a[k]
                        sign = -sign
                        break
                else:
                    return ring.zero
            for i in range(k + 1, d):
                for j in range(k + 1, d):
                    num = ring._add(ring._mul(a[i][j], a[k][k]),
                                    ring._neg(ring._mul(a[i][k], a[k][j])))
                    q = ring._try_divide(num, prev)
                    if q is None:
                        raise ArithmeticError("Bareiss pivot division failed")
                    a[i][j] = q
            prev = a[k][k]
        val = a[d - 1][d - 1]
        if sign < 0:
            val = ring._neg(val)
        return RingElement(ring, val)

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


def _image_rows(ring: Ring, rep: Representation, letters):
    """Sparse rows of the product of x_root(xi) over (root, payload)
    letters, multiplied left to right."""
    zero = ring._from_int(0)
    rows = GroupMatrix.identity(ring, rep.dim)._rows
    for root, xi in letters:
        if xi != zero:
            rows = _apply_letter(ring, rows, rep.m1[root], rep.m2[root], xi)
    return rows


def evaluate(word, rep: Representation, hom: RingHom | None = None) -> GroupMatrix:
    """Image of a word under the representation; letters are multiplied
    left to right, with arguments mapped through `hom` when given."""
    if hom is None:
        ring = word.ring
        letters = ((root, arg.payload) for root, arg in word.letters)
    else:
        ring = hom.codomain
        letters = ((root, hom.map_payload(arg.payload)) for root, arg in word.letters)
    return GroupMatrix(ring, rep.dim, _image_rows(ring, rep, letters))


def k2_membership(word, rep: Representation, hom: RingHom | None = None) -> bool:
    """Whether the word lies in the kernel of the chosen representation;
    for configurations faithful on the elementary subgroup this kernel
    contains exactly the unstable K2 classes."""
    return evaluate(word, rep, hom).is_identity


# ---------------------------------------------------------------------------
# relation verification sweeps
# ---------------------------------------------------------------------------

@dataclass
class RelationReport:
    representation: str
    ring: str
    samples: int
    pairs_checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _np_coeff_profile(ring: Ring):
    """(k, modulus, coeff_bound) for rings with a numpy fast path."""
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


def _np_poly_mul(u, v, k, mod):
    s = u.shape[0]
    out = np.zeros((s, k), dtype=np.int64)
    for i in range(k):
        for j in range(k - i):
            out[:, i + j] += u[:, i] * v[:, j]
    return out % mod if mod else out


def _np_matmul(a, b, k, mod):
    # a, b: (S, k, d, d) truncated matrix polynomials; products are taken
    # in float64 so the BLAS kernels apply.  That is exact only below
    # 2^53: fine for small moduli, inexact for moduli near 10^9
    s, _, d, _ = a.shape
    af = a.astype(np.float64)
    bf = b.astype(np.float64)
    out = np.zeros((s, k, d, d))
    for i in range(k):
        for j in range(k - i):
            out[:, i + j] += np.matmul(af[:, i], bf[:, j])
    res = out.astype(np.int64)
    return res % mod if mod else res


def _np_generator(dense1, dense2, xi, k, mod):
    s = xi.shape[0]
    d = dense1.shape[0]
    x = np.zeros((s, k, d, d), dtype=np.int64)
    x[:, 0] = np.eye(d, dtype=np.int64)
    x += xi[:, :, None, None] * dense1[None, None]
    if dense2 is not None:
        xi2 = _np_poly_mul(xi, xi, k, mod)
        x += xi2[:, :, None, None] * dense2[None, None]
    return x % mod if mod else x


def _np_verify(rep: Representation, ring: Ring, samples: int, rng, profile):
    k, mod, bound = profile
    d = rep.dim
    dense1 = {root: _dense(d, rep.m1[root]) for root in rep.system.roots}
    dense2 = {root: _dense(d, rep.m2[root]) for root in rep.system.roots if rep.m2[root]}

    nprng = np.random.default_rng(rng.randrange(2 ** 63))

    def draw():
        if mod:
            return nprng.integers(0, mod, size=(samples, k), dtype=np.int64)
        return nprng.integers(-bound, bound + 1, size=(samples, k), dtype=np.int64)

    violations = []
    pairs = 0
    system = rep.system
    for alpha in system.roots:
        a = draw()
        b = draw()
        xa = _np_generator(dense1[alpha], dense2.get(alpha), a, k, mod)
        xb = _np_generator(dense1[alpha], dense2.get(alpha), b, k, mod)
        xab = _np_generator(dense1[alpha], dense2.get(alpha),
                            (a + b) % mod if mod else a + b, k, mod)
        pairs += 1
        if not np.array_equal(_np_matmul(xa, xb, k, mod), xab):
            violations.append(("R1", alpha))
    for alpha in system.roots:
        for beta in system.roots:
            if beta == system.negate(alpha):
                continue
            s = system.addition_table.get((alpha, beta))
            a = draw()
            b = draw()
            xa = _np_generator(dense1[alpha], dense2.get(alpha), a, k, mod)
            xb = _np_generator(dense1[beta], dense2.get(beta), b, k, mod)
            left = _np_matmul(xa, xb, k, mod)
            right = _np_matmul(xb, xa, k, mod)
            pairs += 1
            if s is None:
                if not np.array_equal(left, right):
                    violations.append(("R2", alpha, beta))
            else:
                n_ab = _np_poly_mul(a, b, k, mod) * system.structure_constant(alpha, beta)
                if mod:
                    n_ab %= mod
                xs = _np_generator(dense1[s], dense2.get(s), n_ab, k, mod)
                if not np.array_equal(left, _np_matmul(xs, right, k, mod)):
                    violations.append(("R3", alpha, beta))
    return RelationReport(rep.describe(), ring.describe(), samples, pairs, violations)


def _generic_verify(rep: Representation, ring: Ring, samples: int, rng):
    system = rep.system
    violations = []
    pairs = 0
    for alpha in system.roots:
        pairs += 1
        for _ in range(samples):
            a, b = ring._sample(rng, 6), ring._sample(rng, 6)
            left = _image_rows(ring, rep, [(alpha, a), (alpha, b)])
            if left != _image_rows(ring, rep, [(alpha, ring._add(a, b))]):
                violations.append(("R1", alpha))
                break
    for alpha in system.roots:
        for beta in system.roots:
            if beta == system.negate(alpha):
                continue
            s = system.addition_table.get((alpha, beta))
            pairs += 1
            for _ in range(samples):
                a, b = ring._sample(rng, 6), ring._sample(rng, 6)
                left = _image_rows(ring, rep, [(alpha, a), (beta, b)])
                if s is None:
                    right = _image_rows(ring, rep, [(beta, b), (alpha, a)])
                    if left != right:
                        violations.append(("R2", alpha, beta))
                        break
                else:
                    prod = ring._mul(a, b)
                    n = system.structure_constant(alpha, beta)
                    right = _image_rows(ring, rep, [(s, prod if n == 1 else ring._neg(prod)),
                                                    (beta, b), (alpha, a)])
                    if left != right:
                        violations.append(("R3", alpha, beta))
                        break
    return RelationReport(rep.describe(), ring.describe(), samples, pairs, violations)


def verify_relations(rep: Representation, ring: Ring, samples: int, rng) -> RelationReport:
    """Check the three Steinberg relations as matrix identities,
    exhaustively over root pairs and randomized over ring elements."""
    profile = _np_coeff_profile(ring)
    if profile is not None:
        return _np_verify(rep, ring, samples, rng, profile)
    return _generic_verify(rep, ring, samples, rng)
