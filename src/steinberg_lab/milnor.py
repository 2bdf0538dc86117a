"""Milnor K2 symbol calculus over Q, with tame symbols as the oracle.

Symbols {a, b} are stored as formal multisets with integer
multiplicities.  Simplification applies only sound K2 relations
(bilinearity via prime factorization, skew-symmetry, {u,-u} and
{u,1-u} vanishing); no complete normal form is attempted, and equality
claims are routed through tame symbols at odd primes and the real symbol,
which decide it in K2(Q).  Terms are merged and ordered on (str(a), str(b))
of the payloads, hashing no Fraction; two caches of 256 int entries keep
factorizations and primality answers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf

from .rings import _MR_LIMIT, RationalField, Ring, _is_prime

__all__ = [
    "MilnorSymbolSum", "TameSymbolImage", "symbol", "symbol_normalize",
    "tame_symbol", "real_symbol", "steinberg_to_milnor",
    "relevant_odd_primes", "factor_positive",
]


_SMALL_PRIMES = tuple(p for p in range(1 << 8) if _is_prime(p))
_RHO_STEPS = 1 << 18   # Pollard rho steps tried on a cofactor at or above psi_13
_is_prime_cached = lru_cache(maxsize=256)(_is_prime)


def factor_positive(n: int) -> dict:
    """Prime factorization of a positive integer, keys ascending, as a
    fresh dict.  Trial division by the primes below 2^8, then Miller-Rabin
    and Pollard rho on the cofactor.  A cofactor at or above psi_13, where
    Miller-Rabin is not exact, gets _RHO_STEPS rho steps (about half a
    second); ValueError if they find no factor."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"cannot factor {n!r}: not an integer")
    if n <= 0:
        raise ValueError("argument must be positive")
    return dict(_factorization(n))


@lru_cache(maxsize=256)
def _factorization(n: int) -> tuple:
    """The (prime, exponent) pairs of n > 0, primes ascending."""
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
    return tuple(sorted(out.items()))


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


def _pollard_rho(n: int, steps=inf):
    """A proper factor of the odd composite n, or None when n is not
    split within the given number of steps (no limit by default; n then
    always splits): Floyd cycle finding on x -> x^2 + c with one gcd per
    step, trying c = 1, 2, ... until the gcd is proper."""
    c = 0
    while steps > 0:
        c += 1
        x = y = 2
        d = 1
        while d == 1 and steps > 0:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
            steps -= 1
        if 1 < d < n:
            return d
    return None


def _factor_rational(x: Fraction) -> dict:
    """{entry: exponent} with x the product of entry^exponent over -1
    (first, when x < 0) and the primes of x, ascending; denominator
    primes get negative exponents."""
    fac = {-1: 1} if x < 0 else {}
    fac.update(factor_positive(abs(x.numerator)))
    for p, e in factor_positive(x.denominator).items():
        fac[p] = fac.get(p, 0) - e
    return {p: e for p, e in fac.items() if e}


def _clean(field: Ring, items):
    """Payload terms of the items ((a, b), mult), without symbols on 1."""
    zero, one = field._from_int(0), field._from_int(1)
    for (a, b), mult in items:
        a, b = field.el(a).payload, field.el(b).payload
        if a == zero or b == zero:
            raise ValueError("symbol entries must be nonzero")
        if a != one and b != one:
            yield (a, b), mult


class MilnorSymbolSum:
    """Formal integer combination of symbols {a, b} over a field."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Ring, terms):
        self._collect(field, _clean(field, terms.items()))

    def _collect(self, field: Ring, terms) -> "MilnorSymbolSum":
        """Set the sum of payload terms ((a, b), mult), merged on (str(a), str(b))."""
        keys, mults = {}, {}
        for k, m in terms:
            s = (str(k[0]), str(k[1]))
            keys[s] = k
            mults[s] = mults.get(s, 0) + m
        self.field = field
        self.terms = tuple((keys[s], mults[s]) for s in sorted(mults) if mults[s])
        return self

    def __add__(self, other: "MilnorSymbolSum") -> "MilnorSymbolSum":
        if other.field != self.field:
            raise ValueError("symbol sums over different fields")
        return object.__new__(MilnorSymbolSum)._collect(self.field, self.terms + other.terms)

    def __neg__(self) -> "MilnorSymbolSum":
        return object.__new__(MilnorSymbolSum)._collect(self.field, ((k, -m) for k, m in self.terms))

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
    field = RationalField()
    return object.__new__(MilnorSymbolSum)._collect(field, _clean(field, (((a, b), 1),)))


def relevant_odd_primes(s: MilnorSymbolSum):
    """Odd primes dividing a numerator or denominator of any entry of a
    sum over QQ."""
    if not isinstance(s.field, RationalField):
        raise ValueError("tame symbols are defined over Q here")
    parts = {n for (a, b), _ in s.terms
             for x in (a, b) for n in (abs(x.numerator), x.denominator)}
    return sorted({p for n in parts for p in factor_positive(n) if p > 2})


# ---------------------------------------------------------------------------
# tame symbols
# ---------------------------------------------------------------------------

def _check_odd_prime(p) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or p == 2 or not _is_prime_cached(p):
        raise ValueError("tame symbols are computed at odd primes only")


def _strip(x, p: int):
    """(v_p(x), numerator, denominator) of a rational x != 0, p taken out."""
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def _tame_term(a, b, p: int) -> int:
    """(-1)^(v(a) v(b)) a^v(b) / b^v(a) mod p; a zero exponent takes no inverse."""
    va, na, da = _strip(a, p)
    vb, nb, db = _strip(b, p)
    if not (va or vb):
        return 1
    val = pow(na, vb, p) * pow(da, -vb, p) * pow(nb, -va, p) * pow(db, va, p) % p
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


def real_symbol(s: MilnorSymbolSum) -> int:
    """Image in K2(R) -> {+-1}, as 0 or 1: the multiplicity of the terms
    {a, b} with a < 0 and b < 0, mod 2.  With the tame symbols at the odd
    primes it decides equality in K2(Q) (Tate; Milnor, section 11)."""
    if not isinstance(s.field, RationalField):
        raise ValueError("real symbols are defined over Q here")
    return sum(mult for (a, b), mult in s.terms if a < 0 and b < 0) % 2


# ---------------------------------------------------------------------------
# sound simplification
# ---------------------------------------------------------------------------

def symbol_normalize(s: MilnorSymbolSum) -> MilnorSymbolSum:
    """One pass over the factored entries (Milnor, Introduction to
    Algebraic K-Theory, section 11): expand {a, b} by bilinearity into
    symbols on -1 and primes, write {u, u} as {-1, u} (as {u, -u} = 0),
    orient by skew-symmetry with -1 first and then the smaller entry, and
    reduce the 2-torsion symbols {-1, x} mod 2.  Every step is a K2
    relation, so all tame images are preserved; the result is not claimed
    to be a complete normal form.  ValueError over any field but Q."""
    if not isinstance(s.field, RationalField):
        raise ValueError("symbols are normalized over Q here")
    out = {}
    for (a, b), mult in s.terms:
        fb = _factor_rational(b)
        for x, e in _factor_rational(a).items():
            for y, f in fb.items():
                key = (-1, max(x, y)) if x == y or -1 in (x, y) else (min(x, y), max(x, y))
                out[key] = out.get(key, 0) + (mult * e * f if x <= y else -mult * e * f)
    return MilnorSymbolSum(s.field, {k: m % 2 if k[0] == -1 else m for k, m in out.items()})


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
    return MilnorSymbolSum(field, Counter((u.payload, v.payload)
                                          for _, u, v in word.symbols))
