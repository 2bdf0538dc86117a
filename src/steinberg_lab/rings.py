"""Exact arithmetic over a closed family of commutative rings.

Supported constructions: integers, prime fields, rationals, sparse
multivariate polynomial rings, localization at a single element,
quotients by a principal ideal, binary products, and the pullback ring
R |x tR_a[t] of a Milnor square.  Rings are interned: constructing a
ring returns the one live instance for its class and canonical
arguments, so two rings are equal exactly when they are the same object.
Every element carries a canonical hashable payload, so element equality
is payload comparison.  All values are immutable and all operations are
pure.
"""

from __future__ import annotations

import operator
import threading
import weakref
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Ring", "RingElement", "RingHom",
    "IntegerRing", "PrimeFieldRing", "RationalField", "PolynomialRing",
    "LocalizationRing", "QuotientRing", "ProductRing", "MilnorSquareRing",
    "ZZ", "QQ", "GF", "poly_ring", "localize", "quotient", "product_ring",
    "milnor_square_ring",
    "RingMismatchError", "NonUnitError", "CompatibilityError",
    "DecompositionError",
    "canonical_hom", "substitution_hom", "coarser_localization_hom",
    "fraction_field_hom",
    "ext_gcd", "bezout_identity", "bezout_decompose",
    "reciprocal_localization_witness",
    "milnor_square_pullback", "milnor_square_project_poly",
    "milnor_square_project_base",
    "decompose_modulo_power",
    "ring_to_json", "ring_from_json",
]

class RingMismatchError(TypeError):
    """Operands belong to different rings."""


class NonUnitError(ArithmeticError):
    """Division by an element that is not a unit."""


class CompatibilityError(ValueError):
    """Pullback datum violates its compatibility condition."""


class DecompositionError(ValueError):
    """No effective decomposition for the requested configuration."""


def _json_int(data) -> int:
    if not isinstance(data, int) or isinstance(data, bool):
        raise ValueError(f"expected an integer, got {data!r}")
    return data


# ---------------------------------------------------------------------------
# ring base class
# ---------------------------------------------------------------------------

# The live rings, keyed by (class, canonical constructor arguments); a
# ring nobody references drops out.  The lock is reentrant because some
# constructors build their inner rings.
_LIVE_RINGS = weakref.WeakValueDictionary()
_LIVE_LOCK = threading.RLock()


class _Interned(type):
    """Metaclass of the rings: calling a ring class returns the live ring
    with the same canonical arguments, if there is one, and otherwise
    builds it and gives it its ``zero``, ``one`` and ``_args`` (the
    canonical arguments, which ``ring_to_json`` writes out)."""

    def __call__(cls, *args):
        key = (cls, *cls._canonical(*args))
        with _LIVE_LOCK:
            ring = _LIVE_RINGS.get(key)
            if ring is None:
                ring = super().__call__(*key[1:])
                ring._args = key[1:]
                ring.zero = RingElement(ring, ring._from_int(0))
                ring.one = RingElement(ring, ring._from_int(1))
                _LIVE_RINGS[key] = ring
        return ring


def _base_and_payload(base, x):
    return base, base.el(x).payload


class Ring(metaclass=_Interned):
    """Base class: payload-level arithmetic plus element facade.

    Subclasses set ``kind`` and implement ``describe()`` and the payload
    protocol: ``_add``, ``_neg``, ``_mul``, ``_from_int``, ``_try_divide``
    (a q with q*b = a, None when there is none, ValueError when the ring
    cannot decide), ``_sample``, ``_payload_from_json``.  A ring built over
    ``base`` (R[x], R_a, R/(m)) implements ``_from_base``, the canonical
    map base -> ring on payloads, and inherits ``_from_int``, ``from_base``."""

    is_domain = False
    is_field = False

    def _payload_str(self, a) -> str:
        return repr(a)

    def _factor_bound(self, a) -> int:
        """An upper bound on the number of prime factors of the nonzero
        payload a, counted with multiplicity (0 over a field); ValueError
        where the ring gives no such bound."""
        if self.is_field:
            return 0
        raise ValueError(f"no bound on the prime factors of elements of {self}")

    # -- generic layer ----------------------------------------------------
    @staticmethod
    def _canonical(*args):
        """The constructor arguments that identify the ring, checked and normalized."""
        return args

    def __repr__(self):
        return self.describe()

    def el(self, x) -> "RingElement":
        """Coerce x into this ring: an element of it, an int (not a bool),
        or a Fraction when the ring is QQ.  Raw payloads are not accepted;
        wrap a canonical payload with ``RingElement(ring, payload)``."""
        if isinstance(x, RingElement):
            if x.ring is not self:
                raise RingMismatchError(f"element of {x.ring} given to {self}")
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return RingElement(self, self._from_int(x))
        if isinstance(x, Fraction) and isinstance(self, RationalField):
            return RingElement(self, x)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def from_int(self, n: int) -> "RingElement":
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"expected an int, got {n!r}")
        return RingElement(self, self._from_int(n))

    def _from_int(self, n):
        return self._from_base(self.base._from_int(n))

    def from_base(self, x) -> "RingElement":
        """The image of x under the canonical map base -> self."""
        return RingElement(self, self._from_base(self.base.el(x).payload))

    def sample(self, rng, size: int = 6) -> "RingElement":
        return RingElement(self, self._sample(rng, size))

    def _payload_to_json(self, a):
        return a


class RingElement:
    """Immutable element of a :class:`Ring`, identified by payload."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring: Ring, payload):
        self.ring = ring
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is self.ring:
                return other
            raise RingMismatchError(
                f"cannot combine element of {other.ring} with element of {self.ring}")
        if isinstance(other, int) and not isinstance(other, bool):
            return RingElement(self.ring, self.ring._from_int(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._add(self.payload, o.payload))

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.payload))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._mul(self.payload, o.payload))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.ring.one
        # left to right from the top bit: bit_length - 1 squarings and
        # popcount - 1 products by self
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.ring is other.ring and self.payload == other.payload
        if isinstance(other, int) and not isinstance(other, bool):
            return self.payload == self.ring._from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.kind, self.payload))

    @property
    def is_zero(self) -> bool:
        return self.payload == self.ring.zero.payload

    def __bool__(self):
        return not self.is_zero

    def divide(self, other) -> "RingElement":
        """Exact division; raises :class:`NonUnitError` when not exact."""
        q = self.try_divide(other)
        if q is None:
            raise NonUnitError(f"{self} is not exactly divisible by {self._coerce(other)}")
        return q

    def try_divide(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot divide {self} by {other!r}")
        q = self.ring._try_divide(self.payload, o.payload)
        return None if q is None else RingElement(self.ring, q)

    def is_unit(self) -> bool:
        return self.ring._try_divide(self.ring._from_int(1), self.payload) is not None

    def inverse(self) -> "RingElement":
        q = self.ring._try_divide(self.ring._from_int(1), self.payload)
        if q is None:
            raise NonUnitError(f"{self} is not a unit of {self.ring}")
        return RingElement(self.ring, q)

    def __repr__(self):
        return self.ring._payload_str(self.payload)


# ---------------------------------------------------------------------------
# concrete rings
# ---------------------------------------------------------------------------

class IntegerRing(Ring):
    kind = "integers"
    is_domain = True

    def describe(self):
        return "ZZ"

    # payload operations are Python's own; builtins bind no self
    _add, _neg, _mul, _from_int = operator.add, operator.neg, operator.mul, int
    _divmod = divmod   # Euclidean division, as PolynomialRing._divmod

    def _try_divide(self, a, b):
        if b == 0:
            return None if a else 0
        q, r = divmod(a, b)
        return q if r == 0 else None

    def _sample(self, rng, size):
        return rng.randint(-size, size)

    def _factor_bound(self, a):
        return abs(a).bit_length()

    def _payload_from_json(self, data):
        return _json_int(data)


class RationalField(Ring):
    kind = "rationals"
    is_domain = True
    is_field = True

    def describe(self):
        return "QQ"

    _add, _neg, _mul, _from_int = operator.add, operator.neg, operator.mul, Fraction

    def _try_divide(self, a, b):
        if b == 0:
            return None if a else a
        return a / b

    def _sample(self, rng, size):
        return Fraction(rng.randint(-size, size), rng.randint(1, size))

    def _payload_to_json(self, a):
        return {"n": a.numerator, "d": a.denominator}

    def _payload_from_json(self, data):
        d = _json_int(data["d"])
        if d == 0:
            raise ValueError("zero denominator")
        return Fraction(_json_int(data["n"]), d)


# psi_k is the least odd composite that is a strong pseudoprime to each of
# the first k primes, so below psi_k those k bases decide primality
# (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)
_MR_LIMIT = _MR_PSI[-1]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases n needs; ValueError from psi_13."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_MR_BASES, _MR_PSI):   # n < psi_13: returns in the loop
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True


class PrimeFieldRing(Ring):
    kind = "prime_field"
    is_domain = True
    is_field = True
    _canonical = staticmethod(lambda p: (_json_int(p),))

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def describe(self):
        return f"F{self.p}"

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _from_int(self, n):
        return n % self.p

    def _try_divide(self, a, b):
        if b % self.p == 0:
            return None if a % self.p else 0
        return (a * pow(b, -1, self.p)) % self.p

    def _sample(self, rng, size):
        return rng.randrange(self.p)

    def _payload_from_json(self, data):
        return _json_int(data) % self.p


# -- sparse multivariate polynomials ----------------------------------------
#
# Payload: tuple of (exponent_tuple, coeff_payload) sorted by graded
# lexicographic order, descending, with no zero coefficients.  Every
# payload operation assumes canonical operands; only _payload_from_json
# takes raw terms.

def _grlex(term):
    return (sum(term[0]), term[0])


def _poly_canonical(terms: dict):
    if len(terms) < 2:
        return tuple(terms.items())
    return tuple(sorted(terms.items(), key=_grlex, reverse=True))


def _poly_collect(base, terms):
    """The canonical payload of a sum of (exponents, coefficient) terms."""
    acc, badd = {}, base._add
    for e, c in terms:
        acc[e] = badd(acc[e], c) if e in acc else c
    bz = base.zero.payload
    return _poly_canonical({e: c for e, c in acc.items() if c != bz})


class PolynomialRing(Ring):
    kind = "polynomial"

    @staticmethod
    def _canonical(base, names):
        if not (isinstance(names, (list, tuple)) and names
                and all(isinstance(n, str) and n.isidentifier() for n in names)
                and len(set(names)) == len(names)):
            raise ValueError(f"variables must be distinct identifiers, got {names!r}")
        return base, tuple(names)

    def __init__(self, base: Ring, names):
        self.base = base
        self.names = names
        self.nvars = len(names)
        self.is_domain = base.is_domain

    def describe(self):
        return f"{self.base.describe()}[{','.join(self.names)}]"

    def var(self, name: str) -> RingElement:
        i = self.names.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return RingElement(self, ((exps, self.base._from_int(1)),))

    def _from_base(self, c):
        return () if c == self.base.zero.payload else (((0,) * self.nvars, c),)

    constant = Ring.from_base

    def _add(self, a, b):
        if not a or not b:
            return a or b
        terms = dict(a)
        bz, badd = self.base.zero.payload, self.base._add
        for e, c in b:
            if e in terms:
                s = badd(terms[e], c)
                if s == bz:
                    del terms[e]
                else:
                    terms[e] = s
            else:
                terms[e] = c
        return _poly_canonical(terms)

    def _neg(self, a):
        return tuple((e, self.base._neg(c)) for e, c in a)

    def _mul(self, a, b):
        if not a or not b:
            return ()
        bmul = self.base._mul
        if len(a) == 1 == len(b):   # a monomial times a monomial
            (e1, c1), (e2, c2) = a[0], b[0]
            c = bmul(c1, c2)
            return () if c == self.base.zero.payload else ((tuple(map(operator.add, e1, e2)), c),)
        return _poly_collect(self.base, ((tuple(map(operator.add, e1, e2)), bmul(c1, c2))
                                         for e1, c1 in a for e2, c2 in b))

    def _divmod(self, a, b):
        """Leading-term division of a by b != 0: (quotient, remainder).

        Stops at the first remainder whose leading term is not a multiple
        of lt(b), so over a domain b divides a exactly iff the remainder
        is 0.  For univariate b with a unit leading coefficient this is
        division with remainder."""
        base = self.base
        lt_e, lt_c = b[0]
        quo = {}
        rem = a
        while rem:
            re, rc = rem[0]
            de = tuple(x - y for x, y in zip(re, lt_e))
            if min(de) < 0:
                break
            qc = base._try_divide(rc, lt_c)
            if qc is None:
                break
            # leading monomials strictly decrease, so each de is new
            quo[de] = qc
            rem = self._add(rem, self._neg(self._mul(((de, qc),), b)))
        return _poly_canonical(quo), rem

    def _try_divide(self, a, b):
        if not b:
            return None if a else a
        q, r = self._divmod(a, b)
        if r and not self.is_domain:
            raise ValueError(f"leading-term division does not decide divisibility in {self}")
        return None if r else q

    def _sample(self, rng, size):
        terms = {}
        bz = self.base.zero.payload
        for _ in range(rng.randint(0, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(self.nvars))
            c = self.base._sample(rng, size)
            if c != bz:
                terms[exps] = c
        return _poly_canonical(terms)

    # univariate helpers -------------------------------------------------
    def degree(self, a) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not a:
            return -1
        return max(sum(e) for e, _ in a)

    def _factor_bound(self, a):
        # the content divides every coefficient, and each other prime
        # factor has positive degree
        return self.degree(a) + max(self.base._factor_bound(c) for _, c in a)

    def is_monic_univariate(self, a) -> bool:
        if self.nvars != 1 or not a:
            return False
        return a[0][1] == self.base._from_int(1)

    def _payload_str(self, a):
        if not a:
            return "0"
        parts = []
        for exps, c in a:
            mono = "*".join(
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(self.names, exps) if e)
            cs = self.base._payload_str(c)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def _payload_to_json(self, a):
        return [[list(e), self.base._payload_to_json(c)] for e, c in a]

    def _payload_from_json(self, data):
        terms = []
        for e, c in data:
            e = tuple(_json_int(x) for x in e)
            if len(e) != self.nvars or min(e) < 0:
                raise ValueError(f"bad exponent vector {list(e)} for {self}")
            terms.append((e, self.base._payload_from_json(c)))
        return _poly_collect(self.base, terms)


# each localization caches its multiplier powers below this exponent
_POWER_CACHE = 64


class LocalizationRing(Ring):
    """R_a: payloads (numerator, k) standing for numerator / a^k.

    The exponent is minimized by trial division, which is canonical in
    any domain, so payload identity decides equality.
    """

    kind = "localization"
    _canonical = staticmethod(_base_and_payload)

    def __init__(self, base: Ring, multiplier):
        if not base.is_domain:
            raise ValueError("localization base must be a domain")
        mult = RingElement(base, multiplier)
        if mult.is_zero:
            raise ValueError("localization multiplier must be nonzero")
        self.base = base
        self.multiplier = mult
        self.is_domain = True
        self._powers = {0: base._from_int(1), 1: multiplier}

    def describe(self):
        return f"({self.base.describe()})_[{self.multiplier!r}]"

    def _power(self, k: int):
        # the powers below _POWER_CACHE are kept, filled in order so the
        # keys are 0..len - 1; a larger one is computed and not stored
        powers = self._powers
        if k in powers:
            return powers[k]
        if k >= _POWER_CACHE:
            return (self.multiplier ** k).payload
        for i in range(len(powers), k + 1):
            powers[i] = self.base._mul(powers[i - 1], powers[1])
        return powers[k]

    def _norm(self, num, k):
        bz = self.base.zero.payload
        if num == bz:
            return (bz, 0)
        # strip m^1, m^2, m^4, ... while they divide, then the halving
        # steps below the first failure: O(log t) divisions to remove m^t,
        # and one for a numerator that m does not divide
        step = 1
        while step <= k:
            q = self.base._try_divide(num, self._power(step))
            if q is None:
                break
            num, k, step = q, k - step, 2 * step
        while step > 1:
            step //= 2
            if step <= k:
                q = self.base._try_divide(num, self._power(step))
                if q is not None:
                    num, k = q, k - step
        return (num, k)

    def _add(self, a, b):
        n1, k1 = a
        n2, k2 = b
        k = max(k1, k2)
        s = self.base._add(
            self.base._mul(n1, self._power(k - k1)),
            self.base._mul(n2, self._power(k - k2)))
        return self._norm(s, k)

    def _neg(self, a):
        return (self.base._neg(a[0]), a[1])

    def _mul(self, a, b):
        return self._norm(self.base._mul(a[0], b[0]), a[1] + b[1])

    def _from_base(self, c):
        return self._norm(c, 0)

    def _try_divide(self, a, b):
        n1, k1 = a
        n2, k2 = b
        bz = self.base.zero.payload
        if n1 == bz:
            return (bz, 0)
        if n2 == bz:
            return None
        # a/b = n1 a^(k2+t) / n2 / a^(k1+t) for any large enough t; the
        # number of prime factors of n2 bounds every valuation that the
        # multiplier powers have to clear (ValueError where none is known)
        num = self.base._mul(n1, self._power(k2))
        t = self.base._factor_bound(n2)
        q = self.base._try_divide(self.base._mul(num, self._power(t)), n2)
        return None if q is None else self._norm(q, k1 + t)

    def _sample(self, rng, size):
        return self._norm(self.base._sample(rng, size), rng.randint(0, 2))

    def _factor_bound(self, a):
        return self.base._factor_bound(a[0])

    def fraction(self, num, k: int) -> RingElement:
        if _json_int(k) < 0:
            raise ValueError(f"negative localization exponent {k}")
        return RingElement(self, self._norm(self.base.el(num).payload, k))

    def base_part(self, x: RingElement):
        """Return the base preimage of x when its exponent is 0, else None."""
        num, k = self.el(x).payload
        if k != 0:
            return None
        return RingElement(self.base, num)

    def _payload_str(self, a):
        n, k = a
        ns = self.base._payload_str(n)
        if k == 0:
            return ns
        return f"({ns})/({self.base._payload_str(self.multiplier.payload)})^{k}"

    def _payload_to_json(self, a):
        return {"num": self.base._payload_to_json(a[0]), "exp": a[1]}

    def _payload_from_json(self, data):
        num = RingElement(self.base, self.base._payload_from_json(data["num"]))
        return self.fraction(num, data["exp"]).payload


class QuotientRing(Ring):
    """Quotient of ZZ by n, or of a univariate polynomial ring by a monic
    modulus.  Payloads are the canonical reduced representatives."""

    kind = "quotient"

    @staticmethod
    def _canonical(base, modulus):
        base, m = _base_and_payload(base, modulus)
        return base, abs(m) if isinstance(base, IntegerRing) else m

    def __init__(self, base: Ring, modulus):
        self.base = base
        self.modulus = RingElement(base, modulus)
        if isinstance(base, IntegerRing):
            if modulus in (0, 1):   # Z/1 is the zero ring, where 1 == 0
                raise ValueError("modulus must be nonzero and not a unit")
            self.n = modulus
            # a finite domain is a field
            self.is_domain = self.is_field = _is_prime(modulus)
        elif isinstance(base, PolynomialRing) and base.nvars == 1:
            if not base.is_monic_univariate(modulus) or modulus[0][0] == (0,):
                raise ValueError("polynomial modulus must be monic univariate of degree >= 1")
            self.n = None
            self.is_domain = False
        else:
            raise ValueError("unsupported quotient configuration")

    def describe(self):
        return f"{self.base.describe()}/({self.modulus!r})"

    def _reduce(self, a):
        if self.n is not None:
            return a % self.n
        return self.base._divmod(a, self.modulus.payload)[1]

    _from_base = _reduce

    def _add(self, a, b):
        return self._reduce(self.base._add(a, b))

    def _neg(self, a):
        return self._reduce(self.base._neg(a))

    def _mul(self, a, b):
        return self._reduce(self.base._mul(a, b))

    def _try_divide(self, a, b):
        E, m = self.base, self.modulus.payload
        if self.n is not None or E.base.is_field:
            return _divide_mod(E, a, b, m)[0]
        if not isinstance(E.base, IntegerRing):
            if len(b) == 1 and not any(b[0][0]):   # b is a constant c
                c_inv = E.base._try_divide(E.base._from_int(1), b[0][1])
                if c_inv is not None:
                    return self._mul(a, ((b[0][0], c_inv),))
            raise ValueError(f"cannot decide division in {self}: its base is not ZZ or a field")
        # f is monic, so ZZ[t]/(f) is a subring of QQ[t]/(f)
        F = PolynomialRing(RationalField(), E.names)
        q, g = _divide_mod(F, *(tuple((e, Fraction(c)) for e, c in x) for x in (a, b, m)))
        if q is not None and all(c.denominator == 1 for _, c in q):
            return tuple((e, c.numerator) for e, c in q)
        if q is None or F.degree(g) == 0:   # no quotient, or the unique one
            return None
        raise ValueError(f"cannot decide in {self} whether "
                         f"{self._payload_str(b)} divides {self._payload_str(a)}")

    def _sample(self, rng, size):
        return self._reduce(self.base._sample(rng, size))

    project = Ring.from_base

    def _payload_str(self, a):
        return self.base._payload_str(a)

    def _payload_to_json(self, a):
        return self.base._payload_to_json(a)

    def _payload_from_json(self, data):
        return self._reduce(self.base._payload_from_json(data))


class ProductRing(Ring):
    kind = "product"

    def __init__(self, left: Ring, right: Ring):
        self.left = left
        self.right = right
        self.is_domain = False

    def describe(self):
        return f"{self.left.describe()} x {self.right.describe()}"

    def pair(self, x, y) -> RingElement:
        return RingElement(self, (self.left.el(x).payload, self.right.el(y).payload))

    def _add(self, a, b):
        return (self.left._add(a[0], b[0]), self.right._add(a[1], b[1]))

    def _neg(self, a):
        return (self.left._neg(a[0]), self.right._neg(a[1]))

    def _mul(self, a, b):
        return (self.left._mul(a[0], b[0]), self.right._mul(a[1], b[1]))

    def _from_int(self, n):
        return (self.left._from_int(n), self.right._from_int(n))

    def _try_divide(self, a, b):
        l = self.left._try_divide(a[0], b[0])
        r = self.right._try_divide(a[1], b[1])
        if l is None or r is None:
            return None
        return (l, r)

    def _sample(self, rng, size):
        return (self.left._sample(rng, size), self.right._sample(rng, size))

    def _payload_str(self, a):
        return f"({self.left._payload_str(a[0])}, {self.right._payload_str(a[1])})"

    def _payload_to_json(self, a):
        return [self.left._payload_to_json(a[0]), self.right._payload_to_json(a[1])]

    def _payload_from_json(self, data):
        x, y = data
        return (self.left._payload_from_json(x), self.right._payload_from_json(y))


class MilnorSquareRing(Ring):
    """The pullback ring R |x tR_a[t] of the Milnor square built from a
    principal localization.  Payloads are pairs (x, f) with x in R and f
    in tR_a[t] (zero constant term); the second coordinate of the actual
    pullback is recovered as lambda_a(x) + f.
    """

    kind = "milnor_square"
    _canonical = staticmethod(_base_and_payload)

    def __init__(self, base: Ring, multiplier):
        if not base.is_domain:
            raise ValueError("pullback base must be a domain")
        self.base = base
        self.loc = LocalizationRing(base, RingElement(base, multiplier))
        self.poly = PolynomialRing(self.loc, ("t",))
        self.multiplier = self.loc.multiplier
        self.is_domain = True

    def describe(self):
        return f"{self.base.describe()} |x t({self.loc.describe()})[t]"

    def _add(self, a, b):
        return (self.base._add(a[0], b[0]), self.poly._add(a[1], b[1]))

    def _neg(self, a):
        return (self.base._neg(a[0]), self.poly._neg(a[1]))

    # the ring is the subring of R_a[t] whose constant terms lie in R:
    # (x, f) is lambda_a(x) + f, and products and quotients are taken there
    def _lift(self, a):
        # f has no constant term, so the constant goes last in grlex order
        return a[1] + self.poly._from_base(self.loc._from_base(a[0]))

    def _split(self, g):
        """(numerator of g(0), g - g(0)), or None when g(0) is not in R."""
        x, k = self.loc.zero.payload
        if g and g[-1][0] == (0,):
            (x, k), g = g[-1][1], g[:-1]
        return None if k else (x, g)

    def _mul(self, a, b):
        return self._split(self.poly._mul(self._lift(a), self._lift(b)))

    def _from_int(self, n):
        return (self.base._from_int(n), ())

    def _try_divide(self, a, b):
        q = self.poly._try_divide(self._lift(a), self._lift(b))
        return None if q is None else self._split(q)

    def _sample(self, rng, size):
        f = {}
        for _ in range(rng.randint(0, 2)):
            e = (rng.randint(1, 3),)
            c = self.loc._sample(rng, size)
            if c != self.loc.zero.payload:
                f[e] = c
        return (self.base._sample(rng, size), _poly_canonical(f))

    def pair(self, x, f) -> RingElement:
        return RingElement(self, self._pair(self.base.el(x).payload, self.poly.el(f).payload))

    @staticmethod
    def _pair(x, f):
        if f and f[-1][0] == (0,):
            raise ValueError("second component must have zero constant term")
        return (x, f)

    def _payload_str(self, a):
        return f"({self.base._payload_str(a[0])}, {self.poly._payload_str(a[1])})"

    def _payload_to_json(self, a):
        return [self.base._payload_to_json(a[0]), self.poly._payload_to_json(a[1])]

    def _payload_from_json(self, data):
        x, f = data
        return self._pair(self.base._payload_from_json(x), self.poly._payload_from_json(f))


# constructor names --------------------------------------------------------

ZZ, QQ, GF = IntegerRing, RationalField, PrimeFieldRing
poly_ring, localize, quotient = PolynomialRing, LocalizationRing, QuotientRing
product_ring, milnor_square_ring = ProductRing, MilnorSquareRing


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class RingHom:
    """Ring homomorphism given by a payload-level map."""

    def __init__(self, domain: Ring, codomain: Ring, fn, label: str = "hom"):
        self.domain = domain
        self.codomain = codomain
        self.fn = fn
        self.label = label

    def __call__(self, x) -> RingElement:
        x = self.domain.el(x)
        return RingElement(self.codomain, self.fn(x.payload))

    def map_payload(self, payload):
        return self.fn(payload)

    def compose(self, inner: "RingHom") -> "RingHom":
        if inner.codomain is not self.domain:
            raise RingMismatchError("homomorphisms do not compose")
        return RingHom(inner.domain, self.codomain,
                       lambda p: self.fn(inner.fn(p)),
                       f"{self.label}*{inner.label}")

    def __repr__(self):
        return f"{self.label}: {self.domain} -> {self.codomain}"


def _canonical_fn(domain: Ring, codomain: Ring):
    """The payload map of the canonical homomorphism domain -> codomain of
    the ring tower; ValueError when there is none.  The first rule that
    applies decides:

    1. the identity of a ring;
    2. a ring R[x], R_a or R/(m) over its base: ``codomain._from_base``;
    3. ZZ into any ring: ``codomain._from_int``;
    4. R_a: n/a^k |-> f(n) f(a)^-k with f the map R -> codomain, when
       f(a) is a unit;
    5. into R[x], R_a or R/(m): the map into its base, then rule 2.

    Rule 2 precedes rule 4 so that R_a -> (R_a)_h takes the direct route."""
    if domain is codomain:
        return lambda p: p
    over_base = isinstance(codomain, (PolynomialRing, LocalizationRing, QuotientRing))
    if over_base and codomain.base is domain:
        return codomain._from_base
    if isinstance(domain, IntegerRing):
        return codomain._from_int
    if isinstance(domain, LocalizationRing):
        f = _canonical_fn(domain.base, codomain)
        u = codomain._try_divide(codomain._from_int(1), f(domain.multiplier.payload))
        if u is None:
            raise ValueError(f"{domain.multiplier!r} is not a unit of {codomain}")
        power = lru_cache(maxsize=_POWER_CACHE)(lambda k: (RingElement(codomain, u) ** k).payload)
        mul = codomain._mul
        return lambda p: mul(f(p[0]), power(p[1])) if p[1] else f(p[0])
    if over_base:
        f, g = _canonical_fn(domain, codomain.base), codomain._from_base
        return lambda p: g(f(p))
    raise ValueError(f"no canonical map {domain} -> {codomain}")


def canonical_hom(domain: Ring, codomain: Ring) -> RingHom:
    """The canonical homomorphism of the ring tower (``_canonical_fn``)."""
    return RingHom(domain, codomain, _canonical_fn(domain, codomain), "canonical")


def substitution_hom(domain: PolynomialRing, codomain: Ring, images) -> RingHom:
    """Evaluation homomorphism sending each variable to the given image;
    coefficients map canonically into the codomain."""
    images = {name: codomain.el(v) for name, v in images.items()}
    missing = [n for n in domain.names if n not in images]
    if missing:
        raise ValueError(f"no image for variables {missing}")
    img = [images[n].payload for n in domain.names]
    coeff_fn = _canonical_fn(domain.base, codomain)

    def fn(payload):
        acc = codomain.zero.payload
        for exps, c in payload:
            term = coeff_fn(c)
            for base_img, e in zip(img, exps):
                for _ in range(e):
                    term = codomain._mul(term, base_img)
            acc = codomain._add(acc, term)
        return acc

    return RingHom(domain, codomain, fn, "subst")


def coarser_localization_hom(fine: LocalizationRing, coarse: LocalizationRing) -> RingHom:
    """R_a -> R_ab along n/a^k |-> n b^k/(ab)^k."""
    return canonical_hom(fine, coarse)


def fraction_field_hom(ring: Ring) -> RingHom:
    """Embedding into QQ, for ZZ and localizations of ZZ."""
    return canonical_hom(ring, RationalField())


# ---------------------------------------------------------------------------
# extended gcd / Bezout identities
# ---------------------------------------------------------------------------

def _euclid(E: Ring, a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b), on payloads of E = ZZ or
    a univariate polynomial ring over a field."""
    div = E._divmod
    zero, one = E._from_int(0), E._from_int(1)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while r1:
        q, r = div(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, E._add(s0, E._neg(E._mul(q, s1)))
        t0, t1 = t1, E._add(t0, E._neg(E._mul(q, t1)))
    return r0, s0, t0


def _divide_mod(E: Ring, a, b, m):
    """(q, g) with q*b = a modulo m, or q = None when there is no such q,
    and g = gcd(b, m), in E = ZZ or F[t].  With s*b = g modulo m, b
    divides a modulo m exactly when g divides a, and q = (a/g)(s mod m/g)."""
    div = E._divmod
    g, s, _ = _euclid(E, b, m)
    ag, r = div(a, g)
    if r:
        return None, g
    return div(E._mul(ag, div(s, div(m, g)[0])[1]), m)[1], g


def ext_gcd(a: RingElement, b: RingElement):
    """(g, x, y) with x*a + y*b = g, over ZZ or univariate polynomials
    over a field."""
    ring = a.ring
    if ring is not b.ring:
        raise RingMismatchError("ext_gcd operands in different rings")
    if not (isinstance(ring, IntegerRing)
            or isinstance(ring, PolynomialRing) and ring.nvars == 1 and ring.base.is_field):
        raise ValueError(f"no effective Bezout algorithm for {ring}")
    return tuple(RingElement(ring, p) for p in _euclid(ring, a.payload, b.payload))


def bezout_identity(a: RingElement, b: RingElement, s: int = 1, t: int = 1):
    """(x, y) with x*a^s + y*b^t = 1; requires a, b coprime."""
    A, B = a ** s, b ** t
    g, x, y = ext_gcd(A, B)
    ring = a.ring
    ginv = ring._try_divide(ring._from_int(1), g.payload)
    if ginv is None:
        raise ValueError(f"{a!r} and {b!r} are not coprime (gcd {g!r})")
    gi = RingElement(ring, ginv)
    x, y = x * gi, y * gi
    if x * A + y * B != ring.one:
        raise AssertionError("Bezout identity failed to certify")
    return x, y


def _bezout_split(A: LocalizationRing, r: RingElement, h: RingElement, s: int, k: int):
    """(r*y/m^s in A, r*x), a split of r/m^s along x*m^s + y*h^k = 1, m the multiplier of A."""
    x, y = bezout_identity(A.multiplier, h, s, k)
    return A.fraction(r * y, s), r * x


def bezout_decompose(x: RingElement, b: RingElement, s: int):
    """Split r/a^s into a principal part in b*R_a and an integral part in R.

    With x*a^s + y*b^s = 1 the input decomposes as r*x + r*y*(b/a)^s;
    the two parts sum back to the input inside R_(ab).
    """
    loc = x.ring
    if not isinstance(loc, LocalizationRing):
        raise ValueError("input must live in a localization")
    R, a = loc.base, loc.multiplier
    b = R.el(b)
    num, k = x.payload
    if k > s:
        raise ValueError(f"input has denominator exponent {k} > s = {s}")
    r = RingElement(R, num) * a ** (s - k)
    if s == 0:
        return loc.zero, r
    part, integral = _bezout_split(loc, r, b, s, s)
    return part * loc.from_base(b ** s), integral


def reciprocal_localization_witness(f: RingElement) -> RingElement:
    """For monic f of degree n, return g = f/t^n inside R[t]_t, so that
    t^n * g = f and the localizations at f and at g agree."""
    P = f.ring
    if not (isinstance(P, PolynomialRing) and P.nvars == 1):
        raise ValueError("input must be a univariate polynomial")
    if not P.is_monic_univariate(f.payload):
        raise ValueError("polynomial must be monic")
    n = P.degree(f.payload)
    laurent = LocalizationRing(P, P.var(P.names[0]))
    return laurent.fraction(f, n)


# ---------------------------------------------------------------------------
# Milnor square operations
# ---------------------------------------------------------------------------

def milnor_square_pullback(x: RingElement, g: RingElement,
                           square: MilnorSquareRing) -> RingElement:
    """The unique pullback element over compatible (x, g); requires that
    x and g(0) agree in the localization."""
    g = square.poly.el(g)
    x = square.base.el(x)
    e = square._split(g.payload)
    if e is None or e[0] != x.payload:
        raise CompatibilityError(
            f"incompatible pair: image of {x!r} differs from constant term {g!r}")
    return RingElement(square, e)


def milnor_square_project_poly(elem: RingElement) -> RingElement:
    """Projection to R_a[t] (restores the constant term)."""
    return RingElement(elem.ring.poly, elem.ring._lift(elem.payload))


def milnor_square_project_base(elem: RingElement) -> RingElement:
    """Projection to R."""
    return RingElement(elem.ring.base, elem.payload[0])


# ---------------------------------------------------------------------------
# decomposition c = a*h^k + b across a patching configuration
# ---------------------------------------------------------------------------

def decompose_modulo_power(c: RingElement, k: int, h: RingElement, B: Ring):
    """Write c in A as a*h^k + b with a in A and b from B.

    A must be a localization B_m with m and h coprime in B (the Zariski
    square); DecompositionError otherwise.  Elements whose payload is
    already h-integral decompose with a = 0.
    """
    A = c.ring
    h = B.el(h)
    if not (isinstance(A, LocalizationRing) and A.base is B):
        raise DecompositionError(f"no effective decomposition for {A} over {B}")
    num, s = c.payload
    if s == 0:
        return A.zero, RingElement(B, num)
    # prefer the pure a-part when c is divisible by h^k in A
    q = c.try_divide(A.from_base(h) ** k)
    if q is not None:
        return q, B.zero
    return _bezout_split(A, RingElement(B, num), h, s, k)


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

# The JSON fields of each ring class, one per canonical constructor
# argument (``_Interned``): a ring, a payload of the base ring, or the
# argument itself (variable names as a list).
_RING_JSON = {
    IntegerRing: (), RationalField: (), PrimeFieldRing: ("p",),
    PolynomialRing: ("base", "vars"), LocalizationRing: ("base", "multiplier"),
    QuotientRing: ("base", "modulus"), ProductRing: ("left", "right"),
    MilnorSquareRing: ("base", "multiplier"),
}
_RING_KINDS = {cls.kind: cls for cls in _RING_JSON}
_RING_FIELDS = ("base", "left", "right")
_PAYLOAD_FIELDS = ("multiplier", "modulus")


def ring_to_json(ring: Ring):
    if type(ring) not in _RING_JSON:
        raise ValueError(f"unserializable ring {ring}")
    out = {"kind": ring.kind}
    for name, arg in zip(_RING_JSON[type(ring)], ring._args):
        out[name] = (ring_to_json(arg) if name in _RING_FIELDS
                     else ring.base._payload_to_json(arg) if name in _PAYLOAD_FIELDS
                     else list(arg) if name == "vars" else arg)
    return out


def ring_from_json(data) -> Ring:
    cls = _RING_KINDS.get(data["kind"])
    if cls is None:
        raise ValueError(f"unknown ring kind {data['kind']!r}")
    args = []
    for name in _RING_JSON[cls]:
        value = data[name]
        args.append(ring_from_json(value) if name in _RING_FIELDS
                    else RingElement(args[0], args[0]._payload_from_json(value))
                    if name in _PAYLOAD_FIELDS else value)
    return cls(*args)
