"""The float64 route of the relation sweep, over Z/m with d (m - 1)^2 >= 2^53
as GF(1000000007): batched float64 products, whose sums round past 2^53
and report false violations, which the benchmark asserts.  A rep's
tables are read once (`_table`).  A certified case that float64
computes exactly (`_exact_cases`) is skipped; every other case is
evaluated at trial 0, and at its later trials only if it held there.
`reps.verify_relations` imports this module on that branch alone, so
numpy is loaded only here."""

from __future__ import annotations

import weakref

import numpy as np

from .reps import Representation
from .rings import Ring


def first_failures(rep: Representation, ring: Ring, samples: int, cases, open_cases: dict,
                   mod: int, rng) -> tuple[dict, int] | None:
    """({case index: (a, b)}, skipped): over the cases that fail, in
    index order, the payloads of each one's first failing trial, and the
    number of cases skipped by `_exact_cases`; None, drawing nothing,
    when `_table` finds a diagonal entry or w (m - 1)^2 >= 2^63, past
    int64.  Every trial of every case is drawn in one numpy call, seeded
    by one `rng.randrange(2 ** 63)`, so a skip moves no draw.  Trial 0 is
    evaluated for every case not skipped, and trials 1 to samples - 1, in
    one more pass, only for the cases that held at trial 0."""
    letters, _, width, nilpotent = _table(rep)
    if not nilpotent or width * (mod - 1) ** 2 >= 2 ** 63:
        return None
    draws = np.random.default_rng(rng.randrange(2 ** 63)).integers(
        0, mod, size=(len(cases), 2, samples), dtype=np.int64)
    skipped = _exact_cases(rep, cases, open_cases)
    members = [n for n in range(len(cases)) if n not in skipped]
    failed = _FloatKernel(rep, letters, 1, mod).run(cases, members, draws[:, :, :1])
    held = [n for n in members if n not in failed]
    if samples > 1 and held:
        later = _FloatKernel(rep, letters, samples - 1, mod).run(cases, held, draws[:, :, 1:])
        failed.update((n, s + 1) for n, s in later.items())
    order = sorted(failed)
    pairs = draws[order, :, [failed[n] for n in order]].tolist()
    return {n: tuple(map(ring._from_int, ab)) for n, ab in zip(order, pairs)}, len(skipped)


def _exact_cases(rep: Representation, cases, open_cases: dict) -> set:
    """The indices of the certified R1 and R2 cases, those not in
    `open_cases`, whose letter products multiply no two root-vector
    entries: no column of one root's entries is a row of the other's,
    either way round.  With no diagonal entry (`first_failures`), every
    nonzero term of such a product has a factor 1 from a letter's
    diagonal, so BLAS returns the exact integers and the case holds."""
    support = _table(rep)[1]

    def apart(alpha, beta):
        (ra, ca), (rb, cb) = support[alpha], support[beta]
        return not (ca & rb or cb & ra)

    return {n for n, (law, alpha, beta, _) in enumerate(cases)
            if law in ("R1", "R2") and n not in open_cases and apart(alpha, beta)}


# matrix entries in one batch of images: over the twelve representations
# of the benchmark's relation sweep (10 trials, 2 shared CPUs), 2^12 takes
# 1.4 to 1.9 times as long, and 2^16 is at best a tenth faster for 3 to 4
# MB more peak RSS
_BATCH_ENTRIES = 2 ** 14


_TABLES = weakref.WeakKeyDictionary()


def _table(rep: Representation):
    """(letters, support, w, nilpotent), read from the M1 and M2 entries
    of `rep` in one pass and kept while it lives.  letters: per root, the
    flat positions p = i d + j of its entries and their M1 and M2
    coefficients, three int64 arrays of shape (roots, entries), a root
    with fewer entries repeating its first one.  support: root -> its
    entries' rows and columns as bit masks.  w: the most nonzero entries
    in a row of a letter I + M1 + M2.  nilpotent: no diagonal entry."""
    table = _TABLES.get(rep)
    if table is None:
        d, rows, support, w, nilpotent = rep.dim, [], {}, 0, True
        for root in rep.system.roots:
            m1, m2 = ({(i, j): c for i, j, c in t} for t in (rep.m1[root], rep.m2[root]))
            rows.append([(i * d + j, m1.get((i, j), 0), m2.get((i, j), 0)) for i, j in m1 | m2])
            rs, cs = zip(*(m1 | m2))
            support[root] = sum({1 << r for r in rs}), sum({1 << c for c in cs})
            w = max(w, 1 + max(map(rs.count, rs)))
            nilpotent &= all(r != c for r, c in zip(rs, cs))
        n = max(map(len, rows))
        letters = np.array([row + row[:1] * (n - len(row)) for row in rows], dtype=np.int64)
        table = _TABLES[rep] = tuple(np.moveaxis(letters, 2, 0)), support, w, nilpotent
    return table


class _FloatKernel:
    """Cases of a sweep over Z/m evaluated at `samples` trials each in
    float64 products, which are exact only while d (m - 1)^2 < 2^53 and
    serve only the moduli past that bound (see `verify_relations`).  The
    cases of one law are evaluated together, at most `_BATCH_ENTRIES`
    matrix entries at a time, or one case when a case is larger.  Over a
    batch of B = cases x samples, a scalar is a (B,) int64 array and an
    image a (B, d, d) float64 array of integers reduced mod m, so exact."""

    # a law builds at most six images per batch: R3's three letters and
    # three products
    SLOTS = 6

    def __init__(self, rep: Representation, tables, samples: int, mod: int):
        self.rep, self.tables, self.samples, self.mod = rep, tables, samples, mod
        case_entries = samples * rep.dim ** 2
        self.chunk = max(1, _BATCH_ENTRIES // case_entries)
        # a batch's images are written into these buffers: fresh arrays
        # for every batch cost more in page faults than the products at
        # d = 45
        self.slots = np.empty((self.SLOTS, self.chunk * case_entries))
        self.eye = np.tile(np.eye(rep.dim).reshape(-1), self.chunk * samples)
        self.used = 0

    def run(self, cases, members, draws) -> dict:
        """{case index: its first failing trial} over `members`, the
        indices of the cases to evaluate; `draws` has shape (cases, 2,
        samples)."""
        laws = {}
        for n in members:
            laws.setdefault(cases[n][0], []).append(n)
        failed = {}
        for law, indices in laws.items():
            for start in range(0, len(indices), self.chunk):
                part = indices[start:start + self.chunk]
                a, b = (draws[part, t].reshape(-1) for t in (0, 1))
                self.used = 0
                held = _holds(self, law, [cases[n] for n in part], a, b)
                bad = ~held.all(axis=1)
                failed.update(zip(np.compress(bad, part).tolist(),
                                  held[bad].argmin(axis=1).tolist()))
        return failed

    def _buffer(self, flat, batch):
        d = self.rep.dim
        return flat[:batch * d * d].reshape(batch, d, d)

    def _image(self, batch):
        self.used += 1
        return self._buffer(self.slots[self.used - 1], batch)

    def letter(self, roots, xi):
        """x_root(xi) for each root of the batch, over its samples: the
        identity with the root's table entries scattered in."""
        batch = len(xi)
        index = self.rep.system.index
        idx = np.repeat([index[r] for r in roots], self.samples)
        pos, c1, c2 = (t[idx] for t in self.tables)
        vals = xi[:, None] * c1
        if c2.any():
            vals += (xi * xi % self.mod)[:, None] * c2
        x = self._image(batch)
        np.copyto(x, self._buffer(self.eye, batch))
        x.reshape(batch, -1)[np.arange(batch)[:, None], pos] = vals % self.mod
        return x

    def product(self, x, y):
        # a BLAS float64 product, rounded past 2^53; its entries are
        # integers below 2^63, so fmod reduces those >= m exactly
        out = self._image(len(x))
        np.matmul(x, y, out=out)
        np.fmod(out, self.mod, out=out, where=out >= self.mod)
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
