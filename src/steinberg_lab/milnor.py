"""Milnor K2 symbol calculus over Q, with tame symbols as the oracle.

Symbols {a, b} are stored as formal multisets with integer
multiplicities.  Simplification applies only sound K2 relations
(bilinearity via prime factorization, skew-symmetry, {u,-u} and
{u,1-u} vanishing); no complete normal form is attempted, and equality
claims are routed through tame-symbol images at odd primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .rings import _MR_LIMIT, RationalField, Ring, _is_prime

__all__ = [
    "MilnorSymbolSum", "TameSymbolImage", "symbol", "symbol_normalize",
    "tame_symbol", "steinberg_to_milnor",
    "relevant_odd_primes", "factor_positive",
]


_SMALL_PRIMES = tuple(p for p in range(1 << 8) if _is_prime(p))
_RHO_STEPS = 1 << 18   # Pollard rho steps tried on a cofactor at or above psi_13


def factor_positive(n: int) -> dict:
    """Prime factorization of a positive integer, keys ascending.  Trial
    division by the primes below 2^8, then Miller-Rabin and Pollard rho
    on the cofactor.  A cofactor at or above psi_13, where Miller-Rabin
    is not exact, gets _RHO_STEPS rho steps (about half a second);
    ValueError if they find no factor."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"cannot factor {n!r}: not an integer")
    if n <= 0:
        raise ValueError("argument must be positive")
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        for p in _large_factors(n):
            out[p] = out.get(p, 0) + 1
    return dict(sorted(out.items()))


def _large_factors(n: int) -> list:
    """Prime factors, with repetition, of n > 1 free of primes below
    2^8: such an n below 2^16 is prime."""
    if n < 1 << 16:
        return [n]
    if n < _MR_LIMIT:
        if _is_prime(n):
            return [n]
        d = _pollard_rho(n)
    else:
        d = _pollard_rho(n, _RHO_STEPS)
        if d is None:
            raise ValueError(f"cannot factor {n}: no factor below 2^8 or in "
                             f"{_RHO_STEPS} Pollard rho steps, and its primality "
                             f"is decided only below {_MR_LIMIT}")
    return _large_factors(d) + _large_factors(n // d)


def _pollard_rho(n: int, steps=None):
    """A proper factor of the odd composite n, or None when n is not
    split within the given number of steps (no limit by default; n then
    always splits): Floyd cycle finding on x -> x^2 + c with one gcd per
    64 steps, trying c = 1, 2, ... until the gcd is proper.  A batch whose
    product falls to 0 mod n is replayed one step at a time."""
    c = 0
    while steps is None or steps > 0:
        c += 1
        x = y = 2
        d = 1
        while d == 1 and (steps is None or steps > 0):
            x0, y0 = x, y
            q = 1
            for _ in range(64):
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                q = q * (x - y) % n
            d = gcd(q, n)
            if d == n:
                x, y, d = x0, y0, 1
                while d == 1:
                    x = (x * x + c) % n
                    y = (y * y + c) % n
                    y = (y * y + c) % n
                    d = gcd(x - y, n)
            if steps is not None:
                steps -= 64
        if 1 < d < n:
            return d
    return None


def _factor_rational(x: Fraction):
    """(sign, {prime: exponent}) with negative exponents from the
    denominator."""
    if x == 0:
        raise ValueError("zero has no symbol factorization")
    sign = 1 if x > 0 else -1
    fac = dict(factor_positive(abs(x.numerator)))
    for p, e in factor_positive(x.denominator).items():
        fac[p] = fac.get(p, 0) - e
    return sign, {p: e for p, e in fac.items() if e}


class MilnorSymbolSum:
    """Formal integer combination of symbols {a, b} over a field."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Ring, terms):
        self.field = field
        clean = {}
        one = field._from_int(1)
        for (a, b), mult in terms.items() if isinstance(terms, dict) else terms:
            a, b = field.el(a), field.el(b)
            if a.is_zero or b.is_zero:
                raise ValueError("symbol entries must be nonzero")
            if a.payload == one or b.payload == one or mult == 0:
                continue
            key = (a.payload, b.payload)
            clean[key] = clean.get(key, 0) + mult
        self.terms = tuple(sorted(
            ((k, m) for k, m in clean.items() if m),
            key=lambda km: (str(km[0][0]), str(km[0][1]))))

    def __add__(self, other: "MilnorSymbolSum") -> "MilnorSymbolSum":
        if other.field != self.field:
            raise ValueError("symbol sums over different fields")
        terms = dict(self.terms)
        for k, m in other.terms:
            terms[k] = terms.get(k, 0) + m
        return MilnorSymbolSum(self.field, terms)

    def __neg__(self) -> "MilnorSymbolSum":
        return MilnorSymbolSum(self.field, {k: -m for k, m in self.terms})

    def __sub__(self, other: "MilnorSymbolSum") -> "MilnorSymbolSum":
        return self + (-other)

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, MilnorSymbolSum)
                and self.field == other.field and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{m}*{{{a}, {b}}}" if m != 1 else f"{{{a}, {b}}}"
                          for (a, b), m in self.terms)


@dataclass(frozen=True)
class TameSymbolImage:
    prime: int
    value: int

    def __post_init__(self):
        if not 0 < self.value < self.prime:
            raise ValueError("tame symbol value must be a nonzero residue")


def symbol(a, b) -> MilnorSymbolSum:
    return MilnorSymbolSum(RationalField(), [((a, b), 1)])


def relevant_odd_primes(s: MilnorSymbolSum):
    """Odd primes dividing a numerator or denominator of any entry."""
    primes = set()
    for (a, b), _ in s.terms:
        for x in (a, b):
            _, fac = _factor_rational(Fraction(x))
            primes.update(p for p in fac if p != 2)
    return sorted(primes)


# ---------------------------------------------------------------------------
# tame symbols
# ---------------------------------------------------------------------------

def _check_odd_prime(p) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or p == 2 or not _is_prime(p):
        raise ValueError("tame symbols are computed at odd primes only")


def _unit_split(x, p: int):
    """(v_p(x), unit part of x mod p) for a nonzero rational x, read off
    its numerator and denominator."""
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num * pow(den, -1, p) % p


def _tame_term(a, b, p: int) -> int:
    va, ua = _unit_split(a, p)
    vb, ub = _unit_split(b, p)
    val = pow(ua, vb, p) * pow(ub, -va, p) % p
    return p - val if (va * vb) % 2 else val


def tame_symbol(s: MilnorSymbolSum, p: int) -> TameSymbolImage:
    """Image of the symbol sum in F_p^x at an odd prime p."""
    _check_odd_prime(p)
    if not isinstance(s.field, RationalField):
        raise ValueError("tame symbols are defined over Q here")
    val = 1
    for (a, b), mult in s.terms:
        val = val * pow(_tame_term(a, b, p), mult, p) % p
    return TameSymbolImage(p, val)


# ---------------------------------------------------------------------------
# sound simplification
# ---------------------------------------------------------------------------

def symbol_normalize(s: MilnorSymbolSum) -> MilnorSymbolSum:
    """Expand both entries through prime factorizations (bilinearity),
    orient pairs by skew-symmetry and cancel the standard vanishing
    symbols.  Every step is a K2 relation, so all tame images are
    preserved; the result is not claimed to be a complete normal form.
    """
    if not isinstance(s.field, RationalField):
        # over other fields only multiplicity bookkeeping applies
        return MilnorSymbolSum(s.field, dict(s.terms))
    field = s.field
    atoms: dict = {}

    def bump(a: Fraction, b: Fraction, mult: int):
        if mult == 0 or a == 1 or b == 1:
            return
        key = (a, b)
        atoms[key] = atoms.get(key, 0) + mult

    for (a, b), mult in s.terms:
        a, b = Fraction(a), Fraction(b)
        sa, fa = _factor_rational(a)
        sb, fb = _factor_rational(b)
        lefts = ([(Fraction(-1), 1)] if sa < 0 else []) + [(Fraction(p), e) for p, e in fa.items()]
        rights = ([(Fraction(-1), 1)] if sb < 0 else []) + [(Fraction(q), f) for q, f in fb.items()]
        for x, e in lefts:
            for y, f in rights:
                bump(x, y, mult * e * f)

    oriented: dict = {}

    def put(a, b, mult):
        if mult == 0:
            return
        key = (a, b)
        oriented[key] = oriented.get(key, 0) + mult

    for (a, b), mult in atoms.items():
        if a == b:
            # {u, u} = {u, -1} since {u, -u} = 0
            if a == -1:
                put(Fraction(-1), Fraction(-1), mult)
            else:
                put(Fraction(-1), a, mult)
        elif (a, b) == (Fraction(-1), Fraction(-1)):
            put(a, b, mult)
        elif b == -1 or (a != -1 and a > b):
            put(b, a, -mult)  # skew-symmetry
        else:
            put(a, b, mult)

    # {-1, x} and {-1, -1} are 2-torsion
    final = {}
    for (a, b), mult in oriented.items():
        if a == -1:
            mult %= 2
        if mult:
            final[(a, b)] = mult
    return MilnorSymbolSum(field, final)


# ---------------------------------------------------------------------------
# bridge from Steinberg words
# ---------------------------------------------------------------------------

def steinberg_to_milnor(word) -> MilnorSymbolSum:
    """Convert a product of Steinberg symbols on a fixed root into the
    corresponding Milnor symbol sum.  Recognition is syntactic through
    the constructor provenance of the word."""
    if word.symbols is None:
        raise ValueError("word was not built as a product of symbols")
    field = word.ring
    if not field.is_field:
        raise ValueError("Milnor symbols require a field of coefficients")
    if len({r for r, _, _ in word.symbols}) > 1:
        raise ValueError("symbols sit on more than one root")
    terms = {}
    for _, u, v in word.symbols:
        key = (u.payload, v.payload)
        terms[key] = terms.get(key, 0) + 1
    return MilnorSymbolSum(field, terms)
