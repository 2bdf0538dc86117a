"""Patching across a localization square: conjugation homomorphisms, the
orbit-set translation operators, and a glueing demo.

The construction works over the Zariski square B -> A = B_m with m and
h coprime in B, so that c = a h^k + b splits effectively, and every map
of the square is canonical.
All group-level equalities are asserted at matrix-image level: the orbit
map mu sends a pair (u, v) to image(u) * image(v) in G(A_h), and every
operator is checked against it.  The degree bounds attached to
conjugation homomorphisms are computed constructively (any valid bound
works) and are deliberately conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import (LocalizationRing, Ring, RingElement, bezout_identity,
                    canonical_hom, decompose_modulo_power, localize)
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
    """The Zariski square B -> A = B_m with h, where m and h are nonzero
    and coprime in B, so that A = A h^k + B effectively.  Over a field
    nonzero is enough; elsewhere a Bezout identity certifies coprimality,
    so ValueError is raised when m and h are not coprime or where that
    cannot be decided (`ext_gcd` covers ZZ and F[t]).  iota, lambda_B,
    lambda_A and iota_h are the canonical maps of the square; m = 1 gives
    A = B_1, a copy of B."""

    def __init__(self, B: Ring, m, h):
        m, h = B.el(m), B.el(h)
        if m.is_zero or h.is_zero:
            raise ValueError(f"m = {m!r} and h = {h!r} must be nonzero")
        if not B.is_field:
            bezout_identity(m, h)
        self.B, self.h = B, h
        self.A = localize(B, m)
        self.iota = canonical_hom(B, self.A)
        self.h_in_A = self.iota(h)
        self.B_h = localize(B, h)
        self.A_h = localize(self.A, self.h_in_A)
        self.lam_B = canonical_hom(B, self.B_h)
        self.lam_A = canonical_hom(self.A, self.A_h)
        self.iota_loc = canonical_hom(self.B_h, self.A_h)

    def __repr__(self):
        return f"PatchDatum({self.B} -> {self.A}, h={self.h!r})"

    def decompose(self, c: RingElement, k: int):
        """c = a h^k + b with a in A, b in B; elements already coming
        from B decompose with a = 0."""
        return decompose_modulo_power(self.A.el(c), k, self.h, self.B)

    def decompose_shifted(self, c: RingElement, k: int, d: RingElement):
        """A second valid decomposition, perturbed by d in B:
        (a - iota(d), b + d h^k); the decomposition itself at d = 0."""
        d = self.B.el(d)
        a, b = self.decompose(c, k)
        return (a, b) if d.is_zero else (a - self.iota(d), b + d * self.h ** k)


zariski_datum = PatchDatum


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
        if g.system is not system:
            raise ValueError(f"conjugator is a word over {g.system}, not {system}")
        loc = g.ring
        if not isinstance(loc, LocalizationRing) or loc.base is not ring:
            raise ValueError("conjugator must live over the localization of the ring")
        if loc.multiplier != ring.el(h):
            raise ValueError("conjugator localization does not invert h")
        self.system = system
        self.ring = ring
        self.h = ring.el(h)
        # letters as (root, numerator in ring, denominator exponent)
        self.g_letters = tuple((root, RingElement(ring, arg.payload[0]), arg.payload[1])
                               for root, arg in g.letters)
        self.bound = conj_bound(g)

    # -- letter-level case formulas ---------------------------------------
    def _apply_letter(self, beta, a: RingElement, s: int, letter):
        """Conjugate the leveled letter by x_beta(a / h^s).  A letter on -beta is
        a commutator over g1 + g2 = -beta, g1, g2 != +-beta: its pieces are plain."""
        gamma, coeff, e = letter
        if gamma == self.system.negate(beta):
            m = e // 2
            if m < s:
                raise InsufficientLevelError(
                    f"opposite-root case needs level >= {2 * s}, got {e}")
            g1, g2 = self.system.commutator_decomposition(gamma)
            c1 = coeff if self.system.structure_constant(g1, g2) == 1 else -coeff
            one = self.ring.one
            pieces = ((g1, c1, e - m), (g2, one, m), (g1, -c1, e - m), (g2, -one, m))
            return [out for piece in pieces for out in self._apply_letter(beta, a, s, piece)]
        total = self.system.addition_table.get((beta, gamma))
        if total is None:
            return [letter]
        if e < s:
            raise InsufficientLevelError(
                f"level {e} below denominator exponent {s}")
        new_coeff = a * coeff
        if self.system.structure_constant(beta, gamma) == -1:
            new_coeff = -new_coeff
        return [(total, new_coeff, e - s), letter]

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
        if w.system is not self.system:
            raise ValueError(f"word is over {w.system}, not {self.system}")
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


def verify_conjugation(datum: PatchDatum, rep, g: SteinbergWord, args, k: int = 0) -> list:
    """The exact matrix identity image(c_g(x)) = g image(x) g^-1 in G(B_h)
    for g over B_h and x = x_root(coeff h^k) over B, the root system being
    g's and the level k raised to the bound n(g) where it is below.
    Returns the (root, coeff) pairs of `args` on which it fails; an empty
    list means it holds on all of them."""
    B, system = datum.B, g.system
    cg = ConjugationHom(system, B, datum.h, g)
    k = max(k, cg.bound)
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


def left_translation(datum: PatchDatum, alpha, c: RingElement, s: int,
                     pair: PatchPair, k: int = 0, shift: RingElement = 0) -> PatchPair:
    """Translation operator for x_alpha(c/h^s) on orbit representatives
    over the root system of `pair`: with c = a h^k + b,

        (u, v) -> (x_alpha(b/h^s) u,  c_{|(u^-1)}(x_alpha(a h^(k-s))) v).

    `k` is a floor, raised to n(u^-1) + s where it is below; `shift`
    perturbs the decomposition by an element of B.  All of these choices
    leave the mu-image unchanged.
    """
    system = pair.u.system
    alpha = tuple(alpha)
    g_conj = substitute(pair.u.inverse(), datum.iota_loc)
    cg = ConjugationHom(system, datum.A, datum.h_in_A, g_conj)
    k = max(k, cg.bound + s)
    a_part, b_part = datum.decompose_shifted(datum.A.el(c), k, shift)
    new_u = gen(system, datum.B_h, alpha, datum.B_h.fraction(b_part, s)) * pair.u
    if a_part.is_zero:
        conj_word = identity_word(system, datum.A)
    else:
        conj_word = cg.apply_leveled([(alpha, a_part, k - s)])
    return PatchPair(new_u, conj_word * pair.v)


def translate_by_word(datum: PatchDatum, g: SteinbergWord, pair: PatchPair,
                      k: int = 0) -> PatchPair:
    """Iterated translation g . pair for a word g over A_h, every letter
    at the level floor `k`."""
    if g.ring is not datum.A_h:
        raise ValueError("translating word must live over A_h")
    if g.system is not pair.u.system:
        raise ValueError(f"translating word is over {g.system}, not {pair.u.system}")
    for root, arg in reversed(g.letters):
        num, s = arg.payload
        pair = left_translation(datum, root, RingElement(datum.A, num), s, pair, k)
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


_CHAIN_STEPS = 4


def verify_translation_relations(datum: PatchDatum, system: RootSystem, rep,
                                 samples: int, rng) -> PatchReport:
    """Check the translation operators at mu-image level, `samples` an int >= 1.

    equivariance, on ceil(samples / 2) chains of `_CHAIN_STEPS` steps from
    a `_random_pair`: each step draws alpha, s in {0, 1}, c in A, a level
    floor k (below n(u^-1) + s in a quarter of the steps) and a shift in B,
    and checks mu(T_x p) = image(x) mu(p) for x = x_alpha(c / h^s).  With
    the relations in G, which the relation sweep certifies, this gives
    R1-R3, independence of the level and of the decomposition, and the
    unit law lambda_h(v).[1, 1] = [1, v].  unit-law-u, on ceil(samples / 4)
    pairs, is iota(u).[1, v] = [u, v] word for word; star, on
    ceil(samples / 2) pairs, is mu(g * p) = mu(p) for g over B.  Only
    mu-images are compared: that the operators act on orbits is decided
    nowhere in the library.  Each failure is a dict of the law, the trial,
    the letters u and v of the pair it starts from, and what it drew:
    alpha, c, s, k, shift and step, or g."""
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ValueError(f"verify_translation_relations needs an int samples >= 1, "
                         f"got {samples!r}")
    failures = []

    def check(holds, law, trial, p, **inputs):
        if not holds:
            failures.append({"law": law, "trial": trial, "u": _word_letters(p.u),
                             "v": _word_letters(p.v), **inputs})

    for trial in range(-(-samples // 2)):
        p = _random_pair(datum, system, rng)
        mu_p = mu_image(datum, rep, p)
        for step in range(_CHAIN_STEPS):
            alpha, s, c = rng.choice(system.roots), rng.randint(0, 1), datum.A.sample(rng, 4)
            k = conj_bound(p.u.inverse()) + s + rng.randint(-1, 2)
            shift = datum.B.from_int(rng.randint(-2, 2))
            q = left_translation(datum, alpha, c, s, p, k, shift)
            mu_q = mu_image(datum, rep, q)
            x = gen(system, datum.A_h, alpha, datum.A_h.fraction(c, s))
            check(mu_q == reps.evaluate(x, rep) * mu_p, "equivariance", trial, p,
                  alpha=list(alpha), c=str(c), s=s, k=k, shift=str(shift), step=step)
            p, mu_p = q, mu_q

    for trial in range(-(-samples // 4)):
        p = _random_pair(datum, system, rng)
        start = PatchPair(identity_word(system, datum.B_h), p.v)
        check(translate_by_word(datum, substitute(p.u, datum.iota_loc), start) == p,
              "unit-law-u", trial, p)

    for trial in range(-(-samples // 2)):
        p = _random_pair(datum, system, rng)
        w = identity_word(system, datum.B)
        for _ in range(rng.randint(0, 3)):
            w = w * gen(system, datum.B, rng.choice(system.roots), datum.B.sample(rng, 3))
        check(mu_image(datum, rep, star_reduce(datum, p, w)) == mu_image(datum, rep, p),
              "star", trial, p, g=_word_letters(w))

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
    if x.system is not system:
        raise ValueError(f"target is a word over {x.system}, not {system}")
    if x.is_empty:
        return identity_word(system, datum.B)
    start = PatchPair(identity_word(system, datum.B_h), identity_word(system, datum.A))
    # level 1 forces an honest split c = a h + b, so the B-side
    # actually accumulates the descended word
    pair = translate_by_word(datum, substitute(x, datum.lam_A), start, k=1)
    letters = [(root, datum.B_h.base_part(arg)) for root, arg in pair.u.letters]
    if any(arg is None for _, arg in letters):
        raise GlueingError("orbit representative has a non-integral component")
    y = SteinbergWord(system, datum.B, letters)
    if not reps.evaluate(substitute(y, datum.lam_B), rep).is_identity:
        raise GlueingError("candidate does not die in the localization")
    if reps.evaluate(substitute(y, datum.iota), rep) != reps.evaluate(x, rep):
        raise GlueingError("candidate does not reproduce the target over A")
    return y
