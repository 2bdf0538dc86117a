"""Differential tests of primality, factorization, polynomial division,
quotient-ring division and extended Euclid against sympy or brute force,
and a property test of exact multivariate division."""

import random
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from steinberg_lab.milnor import _pollard_rho, factor_positive, symbol, tame_symbol
from steinberg_lab.rings import (GF, ZZ, RingElement, _is_prime, _poly_canonical,
                                 ext_gcd, poly_ring, quotient)

PSI_13 = 3_317_044_064_679_887_385_961_981


# -- primality ---------------------------------------------------------------

def test_is_prime_matches_sympy_below_1e5():
    assert [n for n in range(-5, 10 ** 5) if _is_prime(n) != sympy.isprime(n)] == []


def test_is_prime_matches_sympy_on_80_bit_inputs():
    rng = random.Random(80)
    odd = [rng.getrandbits(80) | (1 << 79) | 1 for _ in range(300)]
    primes = [sympy.nextprime(n) for n in odd[:30]]
    for n in odd + primes:
        assert _is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("n", [561, 2047, 3215031751, 3825123056546413051])
def test_strong_pseudoprimes_and_carmichael_are_composite(n):
    assert not sympy.isprime(n)
    assert not _is_prime(n)


# psi_1 .. psi_12: the least odd composite that is a strong pseudoprime to
# each of the first k primes (OEIS A014233); psi_13 is refused below
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461)


def test_is_prime_rejects_every_psi_k():
    # psi_k passes the first k bases, so stopping one base early calls it prime
    assert [k for k, n in enumerate(PSI, 1) if _is_prime(n)] == []


def test_is_prime_refuses_above_psi_13():
    assert _is_prime(PSI_13 - 2) == sympy.isprime(PSI_13 - 2)
    for n in (PSI_13, PSI_13 + 2 ** 70):
        with pytest.raises(ValueError):
            _is_prime(n)


def test_factor_positive_matches_sympy_below_2_64():
    rng = random.Random(64)
    semiprimes = [sympy.nextprime(rng.getrandbits(32)) * sympy.nextprime(rng.getrandbits(31))
                  for _ in range(3)]
    for n in [rng.randrange(1, 2 ** 64) for _ in range(60)] + semiprimes:
        assert factor_positive(n) == sympy.factorint(n), n


PRIMES_8_10 = list(sympy.primerange(2 ** 8, 2 ** 10))
primes_8_10 = st.sampled_from(PRIMES_8_10)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(primes_8_10.map(lambda p: p ** 2), primes_8_10.map(lambda p: p ** 3),
                 st.tuples(primes_8_10, primes_8_10).map(lambda pq: pq[0] * pq[1]),
                 st.integers(1, 2 ** 64 - 1)))
def test_factor_positive_matches_factorint(n):
    fac = factor_positive(n)
    assert fac == sympy.factorint(n)
    assert list(fac) == sorted(fac)


def test_pollard_rho_splits_products_of_primes_just_above_2_8():
    # the cycles mod p and mod q both close within the first 64-step
    # batch for most of these, so its product is 0 mod n and only the
    # step-by-step replay of that batch finds the factor
    ns = [p * q for p in PRIMES_8_10 for q in PRIMES_8_10 if p <= q]
    for n in ns + [p ** 3 for p in PRIMES_8_10]:
        d = _pollard_rho(n, 1 << 12)
        assert d is not None and 1 < d < n and n % d == 0, n


def test_factor_positive_refuses_two_primes_above_2_64():
    p = sympy.nextprime(2 ** 64)
    with pytest.raises(ValueError):
        factor_positive(p * sympy.nextprime(p))


def test_mersenne_61_field_and_tame_symbol():
    p = 2 ** 61 - 1
    assert GF(p).p == p
    image = tame_symbol(symbol(2, 3), p)
    assert image.prime == p and 0 < image.value < p


# -- univariate division against sympy's div -------------------------------

def _random_payload(P, rng, deg):
    terms = {}
    for e in range(deg + 1):
        c = P.base._from_int(rng.randint(-9, 9))
        if c != P.base._from_int(0):
            terms[(e,)] = c
    return RingElement(P, _poly_canonical(terms))


def _to_sympy(f, x, modulus):
    expr = sum(int(c) * x ** e[0] for e, c in f.payload)
    if modulus is None:
        return sympy.Poly(expr, x, domain="ZZ")
    return sympy.Poly(expr, x, modulus=modulus)


@pytest.mark.parametrize("modulus", [None, 7])
def test_poly_divmod_matches_sympy_div(modulus):
    base = ZZ() if modulus is None else GF(modulus)
    P = poly_ring(base, ("x",))
    x = sympy.Symbol("x")
    rng = random.Random(7 if modulus else 0)
    checked = 0
    while checked < 200:
        a = _random_payload(P, rng, rng.randint(0, 7))
        b = _random_payload(P, rng, rng.randint(0, 4))
        if b.is_zero:
            continue
        q, r = P._divmod(a.payload, b.payload)
        # auto=False keeps sympy in ZZ[x] instead of moving to QQ[x]
        sq, sr = _to_sympy(a, x, modulus).div(_to_sympy(b, x, modulus), auto=False)
        assert _to_sympy(RingElement(P, q), x, modulus) == sq
        assert _to_sympy(RingElement(P, r), x, modulus) == sr
        checked += 1


# -- exact multivariate division -------------------------------------------

P3 = poly_ring(ZZ(), ("x", "y", "z"))

polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.integers(-6, 6).filter(bool),
    max_size=5,
).map(lambda terms: RingElement(P3, _poly_canonical(terms)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(polys, polys)
def test_exact_division_recovers_factor(f, g):
    if g.is_zero:
        return
    assert (f * g).try_divide(g) == f
    if P3.degree(g.payload) > 0:
        # g cannot divide f*g + 1 without dividing the unit 1
        assert (f * g + 1).try_divide(g) is None


# -- division in quotient rings ----------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 60), st.data())   # Z/1, the zero ring, is refused
def test_integer_quotient_division_matches_brute_force(n, data):
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    q = quotient(ZZ(), n).from_int(a).try_divide(b)
    if all((x * b - a) % n for x in range(n)):
        assert q is None
    else:
        # the representative is (a/g)(b/g)^-1 mod n/g, scaled into Z/n
        g = gcd(b, n)
        assert q.payload == (a // g * pow(b // g, -1, n // g) % n if n > g else 0)


def _quotient_case(base, p, data):
    """Random a, b in base[t]/(f) for a monic f of degree 1..4, and the
    sympy polynomials of a, b and f."""
    P = poly_ring(base, ("x",))
    coeffs = st.integers(-4, 4)
    deg = data.draw(st.integers(1, 4))
    # coefficient lists, constant term first
    f = data.draw(st.lists(coeffs, min_size=deg, max_size=deg)) + [1]
    a, b = (data.draw(st.lists(coeffs, max_size=deg)) for _ in range(2))
    x = sympy.Symbol("x")
    opts = {"domain": "QQ"} if p is None else {"modulus": p}
    polys = [sympy.Poly(c[::-1] or [0], x, **opts) for c in (a, b, f)]
    a, b, f = (RingElement(P, _poly_canonical(
        {(e,): P.base._from_int(c) for e, c in enumerate(cs) if P.base._from_int(c)}))
        for cs in (a, b, f))
    Q = quotient(P, f)
    return Q.project(a), Q.project(b), polys


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 7]), st.data())
def test_prime_field_quotient_division_matches_sympy(p, data):
    a, b, (sa, sb, sf) = _quotient_case(GF(p), p, data)
    q = a.try_divide(b)
    if sa.rem(sb.gcd(sf)).is_zero:
        assert q is not None and q * b == a
    else:
        assert q is None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_integer_polynomial_quotient_division_agrees_with_qq(data):
    a, b, (sa, sb, sf) = _quotient_case(ZZ(), None, data)
    g = sb.gcd(sf)
    try:
        q = a.try_divide(b)
    except ValueError:
        # only a rational quotient that is neither integral nor unique
        assert sa.rem(g).is_zero and g.degree() > 0
        return
    if q is not None:
        assert q * b == a
    elif sa.rem(g).is_zero:
        # b is a unit over QQ, and its one quotient is not integral
        assert g.degree() == 0
        unique = (sa * sympy.invert(sb, sf)).rem(sf)
        assert any(c.q != 1 for c in unique.all_coeffs())


# -- extended Euclid ---------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(-10 ** 12, 10 ** 12), st.integers(-10 ** 12, 10 ** 12))
def test_ext_gcd_over_integers_matches_sympy(a, b):
    Z = ZZ()
    g, x, y = ext_gcd(Z.from_int(a), Z.from_int(b))
    assert x * a + y * b == g
    assert abs(g.payload) == sympy.gcd(a, b)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 6), max_size=7), st.lists(st.integers(0, 6), max_size=7))
def test_ext_gcd_over_f7_matches_sympy(ca, cb):
    P = poly_ring(GF(7), ("x",))
    x = sympy.Symbol("x")
    a, b = (RingElement(P, _poly_canonical({(e,): c for e, c in enumerate(cs) if c}))
            for cs in (ca, cb))
    g, u, v = ext_gcd(a, b)
    assert u * a + v * b == g
    want = _to_sympy(a, x, 7).gcd(_to_sympy(b, x, 7))
    if g.is_zero:
        assert want.is_zero
    else:
        monic = g * GF(7).el(g.payload[0][1]).inverse().payload
        assert _to_sympy(monic, x, 7) == want


# -- polynomial arithmetic against sympy and a dict reference ----------------

def _grlex_payload(terms):
    """The canonical payload of {exponents: coefficient}, built without
    the ring: nonzero terms in descending graded-lex order."""
    return tuple(sorted(((e, c) for e, c in terms.items() if c),
                        key=lambda t: (sum(t[0]), t[0]), reverse=True))


def _assert_canonical(f):
    """A tuple of (exponents, coefficient) pairs, strictly descending in
    graded-lex order, with no zero coefficient."""
    p, zero = f.payload, f.ring.base.zero.payload
    assert isinstance(p, tuple) and all(c != zero for _, c in p), p
    keys = [(sum(e), e) for e, _ in p]
    assert all(k > l for k, l in zip(keys, keys[1:])), p


def _polys(P, coeffs, max_size):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * P.nvars), coeffs,
                           max_size=max_size).map(lambda t: RingElement(P, _grlex_payload(t)))


# (ring, sympy options, coefficients)
SYMPY_RINGS = {
    "ZZ[x,y,z]": (poly_ring(ZZ(), ("x", "y", "z")), {"domain": "ZZ"}, st.integers(-6, 6)),
    "F7[x]": (poly_ring(GF(7), ("x",)), {"modulus": 7}, st.integers(0, 6)),
}


def _sympy_poly(f, opts):
    gens = sympy.symbols(f.ring.names)
    return sympy.Poly.from_dict({e: int(c) for e, c in f.payload} or {(0,) * len(gens): 0},
                                *gens, **opts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SYMPY_RINGS)), st.data())
def test_polynomial_arithmetic_matches_sympy(name, data):
    P, opts, coeffs = SYMPY_RINGS[name]
    f, g = data.draw(_polys(P, coeffs, 4)), data.draw(_polys(P, coeffs, 4))
    n = data.draw(st.integers(0, 12))
    sf, sg = _sympy_poly(f, opts), _sympy_poly(g, opts)
    for got, want in ((f + g, sf + sg), (f - g, sf - sg), (f * g, sf * sg), (f ** n, sf ** n)):
        _assert_canonical(got)
        assert _sympy_poly(got, opts) == want


Z6X = poly_ring(quotient(ZZ(), 6), ("x",))


def _z6_mul(a, b):
    out = {}
    for (i,), c in a.items():
        for (j,), d in b.items():
            out[(i + j,)] = (out.get((i + j,), 0) + c * d) % 6
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_polys(Z6X, st.integers(1, 5), 3), _polys(Z6X, st.integers(1, 5), 3),
       st.integers(0, 12))
def test_polynomial_arithmetic_over_z6_matches_a_dict_reference(f, g, n):
    """Over Z/6 a product of nonzero coefficients can vanish, in the
    monomial path (2x * 3x = 0) as in the general one."""
    a, b = dict(f.payload), dict(g.payload)
    add = {e: (a.get(e, 0) + b.get(e, 0)) % 6 for e in a.keys() | b.keys()}
    sub = {e: (a.get(e, 0) - b.get(e, 0)) % 6 for e in a.keys() | b.keys()}
    power = {(0,): 1}
    for _ in range(n):
        power = _z6_mul(power, a)
    for got, want in ((f + g, add), (f - g, sub), (f * g, _z6_mul(a, b)), (f ** n, power)):
        _assert_canonical(got)
        assert got.payload == _grlex_payload(want)
    x = Z6X.var("x")
    assert (2 * x) * (3 * x) == 0 and ((2 * x) * (3 * x)).payload == ()


XY = poly_ring(ZZ(), ("x", "y"))


def test_json_payload_merges_drops_and_sorts_raw_terms():
    raw = [[[0, 1], 2], [[1, 0], 3], [[0, 1], -2], [[2, 0], 0], [[0, 0], 5],
           [[1, 1], 4], [[1, 0], 1]]
    assert XY._payload_from_json(raw) == (((1, 1), 4), ((1, 0), 4), ((0, 0), 5))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.integers(-3, 3)), max_size=8))
def test_json_payload_of_raw_terms_is_their_canonical_sum(raw):
    want = {}
    for e, c in raw:
        want[e] = want.get(e, 0) + c
    got = RingElement(XY, XY._payload_from_json([[list(e), c] for e, c in raw]))
    _assert_canonical(got)
    assert got.payload == _grlex_payload(want)
