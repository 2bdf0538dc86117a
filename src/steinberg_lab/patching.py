"""Patching across a localization square: conjugation homomorphisms, the
orbit-set translation operators, and a glueing demo.

The construction works over a datum (B, A, iota, h) with B/h = A/h
effective; the supported instances are the identity case A = B and the
Zariski case A = B_m with m coprime to h.  All group-level equalities are
asserted at matrix-image level: the orbit map mu sends a pair (u, v) to
image(u) * image(v) in G(A_h), and every operator is checked against it.
The degree bounds attached to conjugation homomorphisms are computed
constructively (any valid bound works) and are deliberately conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import (LocalizationRing, Ring, RingElement, RingHom,
                    decompose_modulo_power, localization_hom,
                    localization_functor_hom, localize)
from .roots import RootSystem
from .words import SteinbergWord, gen, identity_word, substitute
from . import reps

__all__ = [
    "PatchDatum", "zariski_datum",
    "ConjugationHom", "conj_bound", "PatchPair", "star_reduce",
    "left_translation", "mu_image", "verify_conjugation",
    "verify_translation_relations", "glueing_demo", "PatchReport",
    "InsufficientLevelError", "GlueingError",
]


class InsufficientLevelError(ValueError):
    """Argument level is below the bound required by a conjugation map."""


class GlueingError(ValueError):
    """The glueing demo could not certify its output."""


class PatchDatum:
    """(B, A, iota, h) with an effective decomposition A = A h^k + B."""

    def __init__(self, B: Ring, A: Ring, iota: RingHom, h: RingElement,
                 kind: str):
        self.B = B
        self.A = A
        self.iota = iota
        self.h = B.el(h)
        if self.h.is_zero:
            raise ValueError("h must be nonzero")
        self.kind = kind
        self.h_in_A = iota(self.h)
        self.B_h = localize(B, self.h)
        self.A_h = localize(A, self.h_in_A)
        self.lam_B = localization_hom(B, self.B_h)
        self.lam_A = localization_hom(A, self.A_h)
        self.iota_loc = localization_functor_hom(self.B_h, self.A_h, iota)

    def __repr__(self):
        return f"PatchDatum[{self.kind}]({self.B} -> {self.A}, h={self.h!r})"

    def decompose(self, c: RingElement, k: int):
        """c = a h^k + b with a in A, b in B; elements already coming
        from B decompose with a = 0."""
        a, b = decompose_modulo_power(self.A.el(c), k, self.h, self.B)
        return a, b

    def decompose_shifted(self, c: RingElement, k: int, d: RingElement):
        """A second valid decomposition, perturbed by d in B:
        (a - iota(d), b + d h^k)."""
        a, b = self.decompose(c, k)
        d = self.B.el(d)
        return a - self.iota(d), b + d * self.h ** k


def zariski_datum(B: Ring, m, h) -> PatchDatum:
    """B -> B_m with h coprime to m: the localization instance of the
    excision square."""
    A = localize(B, B.el(m))
    return PatchDatum(B, A, localization_hom(B, A), B.el(h), "zariski")


# ---------------------------------------------------------------------------
# conjugation homomorphisms
# ---------------------------------------------------------------------------

def conj_bound(g: SteinbergWord) -> int:
    """A valid level bound n(g): inputs at level >= n(g) stay at
    nonnegative levels through every letter of g (outermost first,
    each letter with denominator exponent s costs need -> 2(need+s))."""
    need = 0
    for _, arg in g.letters:
        _, s = arg.payload
        need = 2 * (need + s)
    return need


class ConjugationHom:
    """Word-level model of conjugation by g in St(loc) as a map on
    words with h-divisible arguments.

    Letters are handled through the commutator relations; the opposite
    root case is resolved by splitting the generator into a commutator
    over a root decomposition, which needs level headroom (hence the
    bound).  The defining property  image(c_g(x)) = g image(x) g^-1
    holds exactly in any representation and is what the tests assert.
    """

    def __init__(self, system: RootSystem, ring: Ring, h: RingElement,
                 g: SteinbergWord):
        loc = g.ring
        if not isinstance(loc, LocalizationRing) or loc.base is not ring:
            raise ValueError("conjugator must live over the localization of the ring")
        if loc.multiplier != ring.el(h):
            raise ValueError("conjugator localization does not invert h")
        self.system = system
        self.ring = ring
        self.h = ring.el(h)
        self.g = g
        # letters as (root, numerator in ring, denominator exponent)
        self.g_letters = tuple((root, RingElement(ring, arg.payload[0]), arg.payload[1])
                               for root, arg in g.letters)
        self.bound = conj_bound(g)

    # -- letter-level case formulas ---------------------------------------
    def _apply_plain(self, beta, a: RingElement, s: int, letter):
        gamma, coeff, e = letter
        total = self.system.addition_table.get((beta, gamma))
        if total is None:
            return [letter]
        if e < s:
            raise InsufficientLevelError(
                f"level {e} below denominator exponent {s}")
        n = self.system.structure_constant(beta, gamma)
        new_coeff = a * coeff
        if n == -1:
            new_coeff = -new_coeff
        return [(total, new_coeff, e - s), letter]

    def _apply_letter(self, beta, a: RingElement, s: int, letter):
        gamma, coeff, e = letter
        if gamma != self.system.negate(beta):
            return self._apply_plain(beta, a, s, letter)
        m = e // 2
        if m < s:
            raise InsufficientLevelError(
                f"opposite-root case needs level >= {2 * s}, got {e}")
        g1, g2 = self.system.commutator_decomposition(gamma)
        n = self.system.structure_constant(g1, g2)
        c1 = coeff if n == 1 else -coeff
        one = self.ring.one
        pieces = [(g1, c1, e - m), (g2, one, m),
                  (g1, -c1, e - m), (g2, -one, m)]
        out = []
        for piece in pieces:
            out.extend(self._apply_plain(beta, a, s, piece))
        return out

    # -- word-level application -------------------------------------------
    def apply_leveled(self, letters) -> SteinbergWord:
        """Image of the word with letters x_root(coeff h^e), given as
        leveled letters (root, coeff, e)."""
        current = list(letters)
        for beta, a, s in reversed(self.g_letters):
            nxt = []
            for letter in current:
                nxt.extend(self._apply_letter(beta, a, s, letter))
            current = nxt
        return SteinbergWord(self.system, self.ring,
                             tuple((root, coeff * self.h ** e) for root, coeff, e in current))

    def apply_word(self, w: SteinbergWord, k: int) -> SteinbergWord:
        """Image of a word whose arguments all lie in h^k * ring."""
        if k < self.bound:
            raise InsufficientLevelError(
                f"level {k} below the bound n(g) = {self.bound}")
        hk = self.h ** k
        leveled = []
        for root, arg in w.letters:
            coeff = arg.try_divide(hk)
            if coeff is None:
                raise ValueError(f"argument {arg!r} is not divisible by h^{k}")
            leveled.append((root, coeff, k))
        return self.apply_leveled(leveled)


def verify_conjugation(datum: PatchDatum, system: RootSystem, rep,
                       g: SteinbergWord, args, k: int | None = None) -> list:
    """The exact matrix identity image(c_g(x)) = g image(x) g^-1 in G(B_h)
    for g over B_h and x = x_root(coeff h^k) over B, k defaulting to the
    bound n(g).  Returns the (root, coeff) pairs of `args` on which it
    fails; an empty list means it holds on all of them."""
    B = datum.B
    cg = ConjugationHom(system, B, datum.h, g)
    k = cg.bound if k is None else k
    g_img = reps.evaluate(g, rep)
    g_inv_img = reps.evaluate(g.inverse(), rep)
    hk = datum.h ** k
    failed = []
    for root, coeff in args:
        x = gen(system, B, root, B.el(coeff) * hk)
        left = reps.evaluate(cg.apply_word(x, k), rep, hom=datum.lam_B)
        if left != g_img * reps.evaluate(x, rep, hom=datum.lam_B) * g_inv_img:
            failed.append((root, coeff))
    return failed


# ---------------------------------------------------------------------------
# the orbit set and its translation operators
# ---------------------------------------------------------------------------

@dataclass
class PatchPair:
    """Representative (u, v) of an orbit: u over B_h, v over A."""

    u: SteinbergWord
    v: SteinbergWord


def mu_image(datum: PatchDatum, rep, pair: PatchPair):
    """Orbit invariant: image(u) * image(v) in G(A_h)."""
    left = reps.evaluate(pair.u, rep, hom=datum.iota_loc)
    right = reps.evaluate(pair.v, rep, hom=datum.lam_A)
    return left * right


def star_reduce(datum: PatchDatum, pair: PatchPair, g: SteinbergWord) -> PatchPair:
    """Action of g in St(B) on representatives:
    (u, v) -> (u lambda_h(g)^-1, iota(g) v); mu is unchanged."""
    if g.ring is not datum.B:
        raise ValueError("acting word must live over B")
    u2 = pair.u * substitute(g, datum.lam_B).inverse()
    v2 = substitute(g, datum.iota) * pair.v
    return PatchPair(u2, v2)


def left_translation(datum: PatchDatum, system: RootSystem, alpha,
                     c: RingElement, s: int, pair: PatchPair,
                     k: int | None = None,
                     shift: RingElement | None = None,
                     min_level: int = 0) -> PatchPair:
    """Translation operator for x_alpha(c/h^s) on orbit representatives:
    with c = a h^k + b,

        (u, v) -> (x_alpha(b/h^s) u,  c_{|(u^-1)}(x_alpha(a h^(k-s))) v).

    `k` may be any value >= n(u^-1) + s (the default is the smallest not
    below `min_level`); `shift` perturbs the decomposition by an element
    of B.  All of these choices leave the mu-image unchanged.
    """
    alpha = tuple(alpha)
    c = datum.A.el(c)
    uinv = pair.u.inverse()
    g_conj = substitute(uinv, datum.iota_loc)
    cg = ConjugationHom(system, datum.A, datum.h_in_A, g_conj)
    k_min = cg.bound + s
    if k is None:
        k = max(k_min, min_level)
    elif k < k_min:
        raise InsufficientLevelError(f"k = {k} below n(u^-1) + s = {k_min}")
    if shift is None:
        a_part, b_part = datum.decompose(c, k)
    else:
        a_part, b_part = datum.decompose_shifted(c, k, shift)
    new_u = gen(system, datum.B_h, alpha, datum.B_h.fraction(b_part, s)) * pair.u
    if a_part.is_zero:
        conj_word = identity_word(system, datum.A)
    else:
        conj_word = cg.apply_leveled([(alpha, a_part, k - s)])
    return PatchPair(new_u, conj_word * pair.v)


def translate_by_word(datum: PatchDatum, system: RootSystem,
                      g: SteinbergWord, pair: PatchPair,
                      min_level: int = 0) -> PatchPair:
    """Iterated translation g . pair for a word g over A_h."""
    if g.ring is not datum.A_h:
        raise ValueError("translating word must live over A_h")
    for root, arg in reversed(g.letters):
        num, s = arg.payload
        pair = left_translation(datum, system, root, RingElement(datum.A, num), s,
                                pair, min_level=min_level)
    return pair


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------

@dataclass
class PatchReport:
    check: str
    samples: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self):
        return {"check": self.check, "samples": self.samples,
                "failures": len(self.failures)}


def _random_pair(datum: PatchDatum, system: RootSystem, rng) -> PatchPair:
    """Words u over B_h and v over A of at most two letters each; the
    letters of u have denominator exponents at most 1."""
    u = identity_word(system, datum.B_h)
    for _ in range(rng.randint(0, 2)):
        root = system.roots[rng.randrange(len(system.roots))]
        b = datum.B.from_int(rng.randint(-3, 3))
        u = u * gen(system, datum.B_h, root, datum.B_h.fraction(b, rng.randint(0, 1)))
    v = identity_word(system, datum.A)
    for _ in range(rng.randint(0, 2)):
        root = system.roots[rng.randrange(len(system.roots))]
        v = v * gen(system, datum.A, root, datum.A.sample(rng, 3))
    return PatchPair(u, v)


def _word_letters(w: SteinbergWord):
    return [[list(root), str(arg)] for root, arg in w.letters]


def verify_translation_relations(datum: PatchDatum, system: RootSystem, rep,
                                 samples: int, rng) -> PatchReport:
    """The translation operators satisfy the three Steinberg relations at
    mu-image level; also checks independence of the decomposition level
    and of the decomposition itself, equivariance, and the two unit laws.
    Scalars c, c2 are drawn from A and denominator exponents s from {0, 1}.
    Each failure is a dict naming the law, the trial and its inputs: the
    pair's letters u and v, and alpha, beta, c, c2, s as far as the law
    draws them."""
    failures = []
    roots = system.roots

    def mu(p):
        return mu_image(datum, rep, p)

    def fail(law, trial, p, **inputs):
        record = {"law": law, "trial": trial,
                  "u": _word_letters(p.u), "v": _word_letters(p.v)}
        for key, val in inputs.items():
            record[key] = (list(val) if isinstance(val, tuple)
                           else str(val) if isinstance(val, RingElement) else val)
        failures.append(record)

    n_rel = max(1, samples)
    for trial in range(n_rel):
        p = _random_pair(datum, system, rng)
        s = rng.randint(0, 1)
        alpha = roots[rng.randrange(len(roots))]
        c, c2 = datum.A.sample(rng, 4), datum.A.sample(rng, 4)
        # R1 on a single root
        lhs = left_translation(datum, system, alpha, c2, s,
                               left_translation(datum, system, alpha, c, s, p))
        rhs = left_translation(datum, system, alpha, c + c2, s, p)
        if mu(lhs) != mu(rhs):
            fail("R1", trial, p, alpha=alpha, c=c, c2=c2, s=s)
        # R2 / R3 on a random second root
        beta = roots[rng.randrange(len(roots))]
        if beta == system.negate(alpha):
            continue
        lhs = left_translation(datum, system, alpha, c, s,
                               left_translation(datum, system, beta, c2, s, p))
        total = system.addition_table.get((alpha, beta))
        base = left_translation(datum, system, beta, c2, s,
                                left_translation(datum, system, alpha, c, s, p))
        if total is None:
            if mu(lhs) != mu(base):
                fail("R2", trial, p, alpha=alpha, beta=beta, c=c, c2=c2, s=s)
        else:
            n = system.structure_constant(alpha, beta)
            cc = c * c2
            rhs = left_translation(datum, system, total,
                                   cc if n == 1 else -cc, 2 * s, base)
            if mu(lhs) != mu(rhs):
                fail("R3", trial, p, alpha=alpha, beta=beta, c=c, c2=c2, s=s)

    # independence: higher level and perturbed decomposition
    for trial in range(max(1, samples // 2)):
        p = _random_pair(datum, system, rng)
        alpha = roots[rng.randrange(len(roots))]
        s = rng.randint(0, 1)
        c = datum.A.sample(rng, 4)
        base = left_translation(datum, system, alpha, c, s, p)
        k = conj_bound(p.u.inverse()) + s + rng.randint(1, 2)
        deeper = left_translation(datum, system, alpha, c, s, p, k=k)
        shift = datum.B.from_int(rng.randint(-2, 2))
        shifted = left_translation(datum, system, alpha, c, s, p, shift=shift)
        m0 = mu(base)
        if mu(deeper) != m0 or mu(shifted) != m0:
            fail("independence", trial, p, alpha=alpha, c=c, s=s, k=k, shift=shift)

    # equivariance
    for trial in range(max(1, samples // 2)):
        p = _random_pair(datum, system, rng)
        alpha = roots[rng.randrange(len(roots))]
        s = rng.randint(0, 1)
        c = datum.A.sample(rng, 4)
        translated = left_translation(datum, system, alpha, c, s, p)
        x = gen(system, datum.A_h, alpha, datum.A_h.fraction(c, s))
        if mu(translated) != reps.evaluate(x, rep) * mu(p):
            fail("equivariance", trial, p, alpha=alpha, c=c, s=s)

    # unit laws: lambda_h(v).[1,1] = [1,v] and iota(u).[1,v] = [u,v]
    for trial in range(max(1, samples // 4)):
        p0 = PatchPair(identity_word(system, datum.B_h), identity_word(system, datum.A))
        v = _random_pair(datum, system, rng).v
        pv = translate_by_word(datum, system, substitute(v, datum.lam_A), p0)
        if mu(pv) != reps.evaluate(v, rep, hom=datum.lam_A):
            fail("unit-law-v", trial, PatchPair(p0.u, v))
        u = _random_pair(datum, system, rng).u
        start = PatchPair(identity_word(system, datum.B_h), v)
        pu = translate_by_word(datum, system, substitute(u, datum.iota_loc), start)
        if not (pu.u == u and pu.v == v):
            fail("unit-law-u", trial, PatchPair(u, v))

    # star invariance of mu
    for trial in range(max(1, samples // 2)):
        p = _random_pair(datum, system, rng)
        w = identity_word(system, datum.B)
        for _ in range(rng.randint(0, 3)):
            root = roots[rng.randrange(len(roots))]
            w = w * gen(system, datum.B, root, datum.B.sample(rng, 3))
        if mu(star_reduce(datum, p, w)) != mu(p):
            fail("star", trial, p, g=_word_letters(w))

    return PatchReport("translation-relations", samples, failures)


# ---------------------------------------------------------------------------
# glueing demo
# ---------------------------------------------------------------------------

def glueing_demo(datum: PatchDatum, system: RootSystem, rep,
                 x: SteinbergWord) -> SteinbergWord:
    """Produce y over B with image(iota(y)) = image(x) and
    image(lambda_h(y)) = 1, for x over A whose localized image is
    trivial.  The orbit of (1, 1) is translated by the localization of x
    to a representative whose first component has integral arguments;
    that component, read back through B, is y.  Raises GlueingError when
    an argument is not integral or either final certification fails.
    """
    if x.ring is not datum.A:
        raise ValueError("target word must live over A")
    if x.is_empty:
        return identity_word(system, datum.B)
    start = PatchPair(identity_word(system, datum.B_h), identity_word(system, datum.A))
    # level 1 forces an honest split c = a h + b, so the B-side
    # actually accumulates the descended word
    pair = translate_by_word(datum, system, substitute(x, datum.lam_A), start, min_level=1)
    letters = [(root, datum.B_h.base_part(arg)) for root, arg in pair.u.letters]
    if any(arg is None for _, arg in letters):
        raise GlueingError("orbit representative has a non-integral component")
    y = SteinbergWord(system, datum.B, letters)
    if not reps.evaluate(substitute(y, datum.lam_B), rep).is_identity:
        raise GlueingError("candidate does not die in the localization")
    if reps.evaluate(substitute(y, datum.iota), rep) != reps.evaluate(x, rep):
        raise GlueingError("candidate does not reproduce the target over A")
    return y
