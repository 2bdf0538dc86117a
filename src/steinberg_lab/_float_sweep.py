"""The float64 route of the relation sweep, over Z/m with d (m - 1)^2 >= 2^53
as GF(1000000007): batched float64 products, whose sums round past 2^53
and report false violations, which the benchmark asserts.  A rep's
letter and case tables are built once and kept while it lives
(`_table`); its cases leave out the certified ones that float64 computes
exactly (`_exact_cases`).  Trial t is one pass over the cases that held
at every earlier trial, so each case stops at its first failing trial.
`reps.verify_relations` imports this module on that branch alone, so
numpy is loaded only here."""

from __future__ import annotations

import weakref

import numpy as np

from .reps import Representation, _cases, _certificate, _chain
from .rings import Ring


def first_failures(rep: Representation, ring: Ring, samples: int, mod: int,
                   rng) -> tuple[dict, int] | None:
    """({case index: (a, b)}, skipped): over the cases of `reps._cases`
    that fail, in index order, the payloads of each one's first failing
    trial, and the number of cases skipped by `_exact_cases`; None,
    drawing nothing, when `_table` finds a diagonal entry or w (m - 1)^2
    >= 2^63, past int64.  Every trial of every case is drawn in one numpy
    call, seeded by one `rng.randrange(2 ** 63)`, so a skip moves no
    draw.  Trial t is one pass, law by law, over the cases not skipped
    that held at every earlier trial."""
    letters, width, nilpotent, laws, skipped = _table(rep)
    if not nilpotent or width * (mod - 1) ** 2 >= 2 ** 63:
        return None
    draws = np.random.default_rng(rng.randrange(2 ** 63)).integers(
        0, mod, size=(len(_cases(rep.system)), 2, samples), dtype=np.int64)
    kernel, live, failed = _FloatKernel(rep, letters, mod), dict(laws), {}
    for t in range(samples):
        for law, group in live.items():
            held = kernel.run(law, group[1:], draws[group[0], :, t])
            failed.update(dict.fromkeys(group[0, ~held].tolist(), t))
            live[law] = group[:, held]
        live = {law: group for law, group in live.items() if group.size}
    order = sorted(failed)
    pairs = draws[order, :, [failed[n] for n in order]].tolist()
    return {n: tuple(map(ring._from_int, ab)) for n, ab in zip(order, pairs)}, skipped


def _exact_cases(rep: Representation, cases, open_cases: dict) -> set:
    """The indices of the certified R1 and R2 cases, those not in
    `open_cases`, whose letter products multiply no two root-vector
    entries: the two roots do not chain (`reps._chain`).  With no
    diagonal entry (`first_failures`), every nonzero term of such a
    product has a factor 1 from a letter's diagonal, so BLAS returns the
    exact integers and the case holds."""
    return {n for n, (law, alpha, beta, _) in enumerate(cases)
            if law in ("R1", "R2") and n not in open_cases and not _chain(rep, alpha, beta)}


# matrix entries in one batch of images: over the twelve representations
# of the benchmark's relation sweep (10 trials, 2 shared CPUs), 2^12 takes
# 1.4 to 1.9 times as long, and 2^16 is at best a tenth faster for 3 to 4
# MB more peak RSS
_BATCH_ENTRIES = 2 ** 14


_TABLES = weakref.WeakKeyDictionary()


def _table(rep: Representation):
    """(letters, w, nilpotent, laws, skipped), read from the M1 and M2
    entries and the cases of `rep` in one pass and kept while it lives.
    letters: per root and entry, the flat position p = i d + j and the M1
    and M2 coefficients, an int64 array of shape (roots, entries, 3), a
    root with fewer entries repeating its first one.  w: the most nonzero
    entries in a row of a letter I + M1 + M2.  nilpotent: no diagonal
    entry.  laws: {law: (4, cases) int64 array} over the cases of
    `reps._cases` that `_exact_cases` does not skip, in case order, each
    column a case index and the root indices of alpha, beta and their
    sum (0 when there is none).  skipped: how many it skips."""
    table = _TABLES.get(rep)
    if table is None:
        d, rows, w, nilpotent = rep.dim, [], 0, True
        for root in rep.system.roots:
            m1, m2 = ({(i, j): c for i, j, c in t} for t in (rep.m1[root], rep.m2[root]))
            rows.append([(i * d + j, m1.get((i, j), 0), m2.get((i, j), 0)) for i, j in m1 | m2])
            rs, cs = zip(*(m1 | m2))
            w = max(w, 1 + max(map(rs.count, rs)))
            nilpotent &= all(r != c for r, c in zip(rs, cs))
        n = max(map(len, rows))
        letters = np.array([row + row[:1] * (n - len(row)) for row in rows], dtype=np.int64)
        cases, index, laws = _cases(rep.system), rep.system.index, {}
        skipped = _exact_cases(rep, cases, _certificate(rep))
        for k, (law, alpha, beta, s) in enumerate(cases):
            if k not in skipped:
                laws.setdefault(law, []).append((k, index[alpha], index[beta], index.get(s, 0)))
        laws = {law: np.array(group, dtype=np.int64).T for law, group in laws.items()}
        table = _TABLES[rep] = letters, w, nilpotent, laws, len(skipped)
    return table


class _FloatKernel:
    """Cases of a sweep over Z/m evaluated, one trial each, in float64
    products, which are exact only while d (m - 1)^2 < 2^53 and serve
    only the moduli past that bound (see `verify_relations`).  The cases
    of one law are evaluated together, at most `_BATCH_ENTRIES` matrix
    entries at a time, or one case when a case is larger.  Over a batch
    of B cases, a scalar is a (B,) int64 array and an image a (B, d, d)
    float64 array of integers reduced mod m, so exact."""

    def __init__(self, rep: Representation, tables, mod: int):
        d = rep.dim
        self.tables, self.mod, self.chunk = tables, mod, max(1, _BATCH_ENTRIES // d ** 2)
        # a batch's three letters per case and its three products are
        # written into these buffers: fresh arrays for every batch cost
        # more in page faults than the products at d = 45
        self.letters, self.products = np.empty((2, 3 * self.chunk, d, d))
        self.eye, self.rows = np.eye(d), np.arange(3 * self.chunk)[:, None]

    def run(self, law, roots, ab):
        """Whether each case of `law` holds: roots, shape (3, cases), are
        the root indices of its alpha, beta and sum, and ab, shape
        (cases, 2), its arguments."""
        held = np.empty(len(ab), dtype=bool)
        for start in range(0, len(ab), self.chunk):
            part = slice(start, start + self.chunk)
            held[part] = _holds(self, law, roots[:, part], ab[part, 0], ab[part, 1])
        return held

    def letter(self, idx, xi):
        """x_root(xi) for each root index and argument, stacked: the
        identity with the root's table entries scattered in."""
        n = len(xi)
        pos, c1, c2 = self.tables[idx].transpose(2, 0, 1)
        x = self.letters[:n]
        np.copyto(x, self.eye)
        x.reshape(n, -1)[self.rows[:n], pos] = (
            xi[:, None] * c1 + (xi * xi % self.mod)[:, None] * c2) % self.mod
        return x

    def product(self, x, y, at: int):
        """x y into the products from index `at` on: a BLAS float64
        product per stacked matrix, rounded past 2^53; its entries are
        integers below 2^63, so fmod reduces those >= m exactly."""
        out = self.products[at:at + x.size // self.eye.size].reshape(x.shape)
        np.matmul(x, y, out=out)
        np.fmod(out, self.mod, out=out, where=out >= self.mod)
        return out

    def equal(self, x, y):
        """(cases,): whether the two images agree on each case."""
        return (x == y).reshape(len(x), -1).all(axis=1)


def _holds(kernel, law, roots, a, b):
    """The float kernel's verdict (`equal`) on whether `law` holds on a
    batch of n of its cases, at root indices roots = (alphas, betas,
    sums) and arguments a, b: R1 x_a(a) x_a(b) = x_a(a + b); R2 x_a(a)
    x_b(b) = x_b(b) x_a(a); R3 x_a(a) x_b(b) = x_s(N ab) x_b(b) x_a(a),
    law "R3-" when N = -1.  One call builds all the batch's letters and
    one call multiplies both sides x_a x_b, x_b x_a of R2 and R3; R3's
    right side is multiplied right to left, x_s (x_b x_a)."""
    n, m, d = len(a), kernel.mod, len(kernel.eye)
    if law == "R1":
        x = kernel.letter(roots[[0, 0, 0]].reshape(-1), np.concatenate([a, b, (a + b) % m]))
        return kernel.equal(kernel.product(x[:n], x[n:2 * n], 0), x[2 * n:])
    ab = a * b % m
    k = 2 if law == "R2" else 3
    args = np.concatenate([a, b, -ab % m if law == "R3-" else ab][:k])
    x = kernel.letter(roots[:k].reshape(-1), args)
    pair = x[:2 * n].reshape(2, n, d, d)
    left, right = kernel.product(pair, pair[::-1], 0)
    if law != "R2":
        right = kernel.product(x[2 * n:], right, 2 * n)
    return kernel.equal(left, right)
