"""Tests for the exact ring tower and its construction-specific operations."""

import gc
import json
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from steinberg_lab import checks
from steinberg_lab.patching import zariski_datum
from steinberg_lab.rings import (
    GF, QQ, ZZ, CompatibilityError, DecompositionError, Ideal, NonUnitError, RingElement,
    bezout_decompose, bezout_identity, coarser_localization_hom,
    decompose_modulo_power, ext_gcd, fraction_field_hom, localization_hom,
    localize, milnor_square_pullback, milnor_square_project_base,
    milnor_square_project_poly, milnor_square_ring, poly_ring, product_ring,
    quotient, quotient_hom, reciprocal_localization_witness, ring_from_json,
    ring_to_json, substitution_hom,
)
from steinberg_lab.roots import build_root_system
from steinberg_lab.words import gen

A2 = build_root_system("A", 2)


def test_rings_are_interned():
    Z = ZZ()
    assert Z is ZZ() and GF(7) is GF(7)
    assert localize(Z, 2) is localize(Z, Z.from_int(2))
    assert quotient(Z, -6) is quotient(Z, 6)
    assert poly_ring(Z, ["t"]) is poly_ring(Z, ("t",))
    assert milnor_square_ring(Z, 2).loc is localize(Z, 2)
    assert localize(Z, 2) is not localize(Z, 3) and GF(5) is not quotient(Z, 5)
    for ring in checks.ring_constructions():
        assert ring_from_json(ring_to_json(ring)) is ring


def test_unreferenced_ring_is_freed():
    ref = weakref.ref(localize(poly_ring(ZZ(), ("unused",)), 7))
    gc.collect()
    assert ref() is None


def test_ring_axioms_random_triples():
    assert checks.ring_axioms(random.Random(11), 1000) == []


def test_basic_arithmetic_examples():
    Z = ZZ()
    assert (Z.from_int(2) + Z.from_int(3)).payload == 5
    F5 = GF(5)
    assert (F5.from_int(3) * F5.from_int(4)).payload == 2
    L2 = localize(Z, 2)
    assert (L2.fraction(3, 1) + L2.fraction(1, 2)).payload == (7, 2)


def test_localization_normal_form_and_injectivity():
    Z = ZZ()
    L2 = localize(Z, 2)
    # canonical exponent minimization
    assert L2.fraction(8, 2).payload == (2, 0)
    assert L2.fraction(6, 1).payload == (3, 0)
    # the base map is injective on a domain
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        n = rng.randint(-500, 500)
        if n in seen:
            continue
        seen.add(n)
    images = {L2.from_base(Z.from_int(n)).payload for n in seen}
    assert len(images) == len(seen)
    # non-prime multiplier still normalizes canonically
    L6 = localize(Z, 6)
    assert L6.fraction(12, 1).payload == (2, 0)
    assert L6.fraction(3, 1).payload == (3, 1)


def test_localization_normal_form_takes_log_many_divisions(monkeypatch):
    """Stripping 2^1000 from a numerator takes O(log 1000) base divisions,
    one numerator that 2 does not divide costs exactly one, and the
    payloads stay canonical."""
    Z = ZZ()
    L2 = localize(Z, 2)
    divide, calls = Z._try_divide, []
    monkeypatch.setattr(Z, "_try_divide", lambda a, b: calls.append(b) or divide(a, b))
    assert L2.fraction(3 * 2 ** 1000, 1200).payload == (3, 200)
    assert len(calls) <= 2 * (1000).bit_length() + 1
    calls.clear()
    assert L2.fraction(3, 1200).payload == (3, 1200)
    assert len(calls) == 1
    for v in range(12):
        for k in range(12):
            assert L2.fraction(3 * 2 ** v, k).payload == (3 * 2 ** max(v - k, 0), max(k - v, 0))


def test_localization_division_and_units():
    Z = ZZ()
    L2 = localize(Z, 2)
    x = L2.from_base(Z.from_int(2))
    assert x.is_unit()
    assert x.inverse().payload == (1, 1)
    assert not L2.from_base(Z.from_int(6)).is_unit()
    nested = localize(L2, L2.from_base(Z.from_int(3)))
    y = nested.from_base(L2.from_base(Z.from_int(6)))
    assert y.is_unit()
    assert y * y.inverse() == nested.one


def test_localization_units_over_integers_need_no_search_bound():
    Z = ZZ()
    L2, L6 = localize(Z, 2), localize(Z, 6)
    big = L2.from_int(2 ** 70)
    assert big.is_unit() and big.inverse().payload == (1, 70)
    mixed = L6.from_int(3 ** 50 * 2 ** 9)
    assert mixed.is_unit() and mixed * mixed.inverse() == L6.one
    assert not L6.from_int(5).is_unit()
    # 10 / (5 * 3^90) = 2 / 3^90 = 2^91 / 6^90
    assert L6.from_int(10).try_divide(L6.from_int(5 * 3 ** 90)) == L6.fraction(2 ** 91, 90)


def test_localization_units_need_no_search_bound_over_other_bases():
    F3s = poly_ring(GF(3), ("s",))
    s = F3s.var("s")
    Ls = localize(F3s, s)
    assert Ls.from_base(s ** 70).inverse() == Ls.fraction(F3s.one, 70)
    assert not Ls.from_base(s ** 70 + F3s.one).is_unit()
    Pt = poly_ring(ZZ(), ("t",))
    L2 = localize(Pt, 2)
    assert L2.from_int(2 ** 70).inverse() == L2.fraction(Pt.one, 70)
    assert not L2.from_int(3 * 2 ** 70).is_unit()
    A_h = zariski_datum(ZZ(), 2, 3).A_h
    x = A_h.from_int(3 ** 70)
    assert x.is_unit() and x * x.inverse() == A_h.one


def test_large_multiplier_powers_are_not_kept():
    """Deciding that 7^3000 is a unit of ZZ[1/77] needs 77^t for t near
    the bit length of 7^3000; that power is not cached afterwards."""
    L77 = localize(ZZ(), 77)
    x = L77.from_int(7 ** 3000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert x.is_unit()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


def test_localization_division_in_A_h_matches_fractions():
    """ZZ[1/2][1/3] against Fraction arithmetic: b divides a iff a/b has
    no prime other than 2 and 3 in its denominator."""
    A_h = zariski_datum(ZZ(), 2, 3).A_h
    L2, frac = A_h.base, fraction_field_hom(A_h)
    nums = list(range(-9, 10)) + [3 ** 70, -5 * 2 ** 65, 6 ** 40 * 7]
    elems = [A_h.fraction(L2.fraction(n, k), j)
             for n in nums for k in range(2) for j in range(2)]
    for a in elems:
        for b in elems:
            if b.is_zero:
                continue
            q = frac(a).payload / frac(b).payload
            d = q.denominator
            for p in (2, 3):
                while d % p == 0:
                    d //= p
            got = a.try_divide(b)
            assert (got is not None) == (d == 1), (a, b)
            assert got is None or frac(got).payload == q, (a, b)


@pytest.mark.parametrize("m", [2, 6, -4, 12])
def test_localization_division_over_integers_matches_brute_force(m):
    """b divides a in ZZ[1/m] iff n2 divides n1 m^(k2+t) for some t; for
    these small inputs t <= 20 is ample."""
    L = localize(ZZ(), m)
    for n1 in range(-12, 13):
        for n2 in range(-12, 13):
            if n2 == 0:
                continue
            for k1 in range(3):
                for k2 in range(3):
                    a, b = L.fraction(n1, k1), L.fraction(n2, k2)
                    q = a.try_divide(b)
                    exists = any(n1 * m ** (k2 + t) % n2 == 0 for t in range(20))
                    assert (q is not None) == exists, (n1, k1, n2, k2)
                    assert q is None or q * b == a, (n1, k1, n2, k2)


def test_polynomial_ring_exact_division():
    P = poly_ring(ZZ(), ("x", "y"))
    x, y = P.gens()
    f = (x + y) * (x - y + 1)
    assert f.try_divide(x + y) == x - y + 1
    assert f.try_divide(x + 2 * y) is None


def test_quotient_rings():
    Z = ZZ()
    Z6 = quotient(Z, 6)
    assert (Z6.from_int(4) + Z6.from_int(5)).payload == 3
    assert Z6.from_int(5).is_unit()
    assert not Z6.from_int(2).is_unit()
    # division by a zero divisor when the solution exists
    assert Z6.from_int(4).try_divide(Z6.from_int(2)).payload in (2, 5)
    Pt = poly_ring(Z, ("t",))
    T3 = quotient(Pt, Pt.var("t") ** 3)
    u = T3.project(Pt.one + Pt.var("t"))
    assert u * u.inverse() == T3.one
    # zero ring: unit ideal quotient
    Z1 = quotient(Z, 1)
    assert Z1.one == Z1.zero
    # quotients by zero divisors in ZZ[t]/(t^3) and F7[t]/(t^3)
    t = T3.project(Pt.var("t"))
    assert T3.from_int(2).try_divide(T3.from_int(2)) == T3.one
    assert (t * t).try_divide(t) == t
    P7 = poly_ring(GF(7), ("t",))
    Q7 = quotient(P7, P7.var("t") ** 3)
    t7 = Q7.project(P7.var("t"))
    assert (t7 * t7).try_divide(t7) == t7
    assert t7.try_divide(t7 * t7) is None
    # Z/7 is a field, so (Z/7)[t]/(t^2 + 1) divides like F7[t]/(t^2 + 1)
    Z7 = quotient(Z, 7)
    assert Z7.is_field
    P = poly_ring(Z7, ("t",))
    i = quotient(P, P.var("t") ** 2 + 1).project(P.var("t"))
    assert i.inverse() == -i


def test_quotient_units_over_integers():
    Pt = poly_ring(ZZ(), ("t",))
    t = Pt.var("t")
    Q = quotient(Pt, t ** 2 + 1)
    tq = Q.project(t)
    assert tq.is_unit() and tq.inverse() == -tq
    assert not (1 + tq).is_unit()          # norm 2
    Q2 = quotient(Pt, t ** 2 - 2)
    assert (1 + Q2.project(t)).inverse() == Q2.project(t - 1)
    T3 = quotient(Pt, t ** 3)
    u = T3.project(1 + 2 * t + 5 * t ** 2)
    assert u.inverse() == T3.project(1 - 2 * t - t ** 2)
    assert not T3.project(2 + t).is_unit()
    # 2 is a unit over QQ, so 2 + 4t has exactly one quotient by 2
    assert T3.project(2 + 4 * t).try_divide(T3.from_int(2)) == T3.project(1 + 2 * t)
    assert T3.project(1 + 4 * t).try_divide(T3.from_int(2)) is None
    # every rational quotient of t by 2t is 1/2 + ct, none integral; the
    # rule does not search them, so it says that it cannot decide
    T2 = quotient(Pt, t ** 2)
    with pytest.raises(ValueError, match="cannot decide"):
        T2.project(t).try_divide(T2.project(2 * t))


def test_quotient_division_over_other_bases_raises():
    # 1 + t is a unit of both rings, (1 + t)(1 - t) = 1 and
    # (1 + t)(1 - t + t^2) = 1, but neither base is ZZ or a field
    for base, k in ((quotient(ZZ(), 6), 2), (localize(ZZ(), 2), 3)):
        P = poly_ring(base, ("t",))
        u = quotient(P, P.var("t") ** k).project(P.one + P.var("t"))
        with pytest.raises(ValueError, match="cannot decide"):
            u.is_unit()


def test_quotient_division_by_a_unit_of_another_base():
    # dividing by a constant unit of the base needs no decision
    for base, k, c in ((quotient(ZZ(), 6), 2, 5), (localize(ZZ(), 2), 3, 2)):
        P = poly_ring(base, ("t",))
        Q = quotient(P, P.var("t") ** k)
        t = Q.project(P.var("t"))
        assert Q.one.is_unit()
        q = (3 * t + 1).divide(c)
        assert q * c == 3 * t + 1
        assert (c * Q.one).inverse() * c == Q.one


def test_polynomial_division_over_a_non_domain_raises():
    P6 = poly_ring(quotient(ZZ(), 6), ("t",))
    t = P6.var("t")
    assert 4 * (2 * t + 3) == 2 * t
    with pytest.raises(ValueError, match="does not decide"):
        (2 * t).try_divide(2 * t + 3)
    assert (2 * t * (t + 1)).try_divide(t + 1) == 2 * t


def test_ideals():
    Z = ZZ()
    I2 = Ideal(Z, [2])
    I3 = Ideal(Z, [3])
    assert I2.contains(Z.from_int(10))
    assert not I2.contains(Z.from_int(5))
    I6 = I2.product(I3)
    assert I6.contains(Z.from_int(12))
    assert not I6.contains(Z.from_int(4))


# -- Milnor square -----------------------------------------------------------

def test_milnor_square_pullback_integers():
    Z = ZZ()
    square = milnor_square_ring(Z, 2)
    tv = square.poly.var("t")
    g = square.poly.constant(square.loc.from_base(3)) + tv * square.poly.constant(
        square.loc.fraction(1, 1))
    e = milnor_square_pullback(Z.from_int(3), g, square)
    assert milnor_square_project_base(e).payload == 3
    assert milnor_square_project_poly(e) == g
    bad = square.poly.constant(square.loc.from_base(5)) + tv
    with pytest.raises(CompatibilityError):
        milnor_square_pullback(Z.from_int(3), bad, square)


def test_milnor_square_pullback_function_field():
    R = poly_ring(GF(3), ("s",))
    s = R.var("s")
    square = milnor_square_ring(R, s)
    tv = square.poly.var("t")
    g = square.poly.constant(square.loc.from_base(s * s)) + \
        tv * tv * square.poly.constant(square.loc.fraction(R.one, 1))
    e = milnor_square_pullback(s * s, g, square)
    assert milnor_square_project_base(e) == s * s
    assert milnor_square_project_poly(e) == g


def test_milnor_square_division():
    square = milnor_square_ring(ZZ(), 2)
    t = square.poly.var("t")
    assert square.pair(1, t).try_divide(square.pair(-1, 0)) == square.pair(-1, -t)
    # 1/2 lies in ZZ[1/2] but not in ZZ, and 2t/(1 + t) is not a polynomial
    assert square.pair(1, 0).try_divide(square.pair(2, 0)) is None
    assert square.pair(0, 2 * t).try_divide(square.pair(1, t)) is None
    rng = random.Random(5)
    for _ in range(200):
        x, y = square.sample(rng), square.sample(rng)
        if not y.is_zero:
            assert (x * y).try_divide(y) == x


@pytest.mark.parametrize("ring", checks.ring_constructions(), ids=str)
def test_zero_over_zero_is_zero(ring):
    """q 0 = 0 for every q, so 0 / 0 has a quotient, 0, in every
    construction; a nonzero element over 0 has none."""
    assert ring.zero.try_divide(ring.zero) == ring.zero
    assert ring.one.try_divide(ring.zero) is None


def test_product_division_with_a_zero_component():
    """(c, 1) (0, 1) = (0, 1) for every c in F3, so (0, 1) / (0, 1) has
    a quotient; it is (0, 1)."""
    P = product_ring(GF(3), ZZ())
    x = RingElement(P, (0, 1))
    assert x.try_divide(x) == x
    assert RingElement(P, (1, 1)).try_divide(x) is None


def test_milnor_square_roundtrip_random():
    assert checks.milnor_square_roundtrip(random.Random(17), 100) == []


# -- Bezout decompositions ---------------------------------------------------

def test_bezout_decompose_integers_example():
    Z = ZZ()
    L2 = localize(Z, 2)
    principal, integral = bezout_decompose(L2.fraction(5, 1), Z.from_int(3), 1)
    assert principal.payload == (15, 1)
    assert integral.payload == -5
    # parts sum to the input in the common overring
    L6 = localize(Z, 6)
    to6 = coarser_localization_hom(L2, L6)
    assert to6(principal) + to6(L2.from_base(integral)) == to6(L2.fraction(5, 1))


def test_bezout_decompose_s_zero():
    Z = ZZ()
    L2 = localize(Z, 2)
    principal, integral = bezout_decompose(L2.from_base(Z.from_int(7)), Z.from_int(3), 0)
    assert principal.is_zero and integral.payload == 7


def test_bezout_decompose_function_field():
    R = poly_ring(GF(5), ("x",))
    x = R.var("x")
    Lx = localize(R, x)
    inp = Lx.fraction(R.one, 2)            # 1/x^2
    principal, integral = bezout_decompose(inp, x + 1, 2)
    big = localize(R, x * (x + 1))
    lift = coarser_localization_hom(Lx, big)
    assert lift(principal) + lift(Lx.from_base(integral)) == lift(inp)
    # principal part is divisible by x+1 inside the localization
    numerator = RingElement(R, principal.payload[0])
    assert principal.is_zero or numerator.try_divide(x + 1) is not None


def test_bezout_identity_failure_for_non_coprime():
    Z = ZZ()
    with pytest.raises(ValueError):
        bezout_identity(Z.from_int(2), Z.from_int(4))


def test_ext_gcd_polynomials():
    P = poly_ring(QQ(), ("x",))
    x = P.var("x")
    g, u, v = ext_gcd(x ** 2, (x + 1) ** 2)
    assert u * x ** 2 + v * (x + 1) ** 2 == g
    assert P.degree(g.payload) == 0


# -- reciprocal localization witness ----------------------------------------

def test_reciprocal_witness_quadratic():
    P = poly_ring(ZZ(), ("t",))
    t = P.var("t")
    f = t * t + 3 * t + 2
    g = reciprocal_localization_witness(f)
    # g = 1 + 3 t^-1 + 2 t^-2, stored as f / t^2
    assert g.payload == (f.payload, 2)
    laurent = g.ring
    assert laurent.from_base(t) ** 2 * g == laurent.from_base(f)


def test_reciprocal_witness_monomial_and_f7():
    P = poly_ring(ZZ(), ("t",))
    t = P.var("t")
    g = reciprocal_localization_witness(t)
    assert g == g.ring.one
    P7 = poly_ring(GF(7), ("t",))
    t7 = P7.var("t")
    f = t7 ** 3 - P7.one
    g = reciprocal_localization_witness(f)
    assert g.ring.from_base(t7) ** 3 * g == g.ring.from_base(f)


def test_reciprocal_witness_rejects_non_monic():
    P = poly_ring(ZZ(), ("t",))
    t = P.var("t")
    with pytest.raises(ValueError):
        reciprocal_localization_witness(2 * t + 1)


def test_reciprocal_witness_random_sweep():
    assert checks.reciprocal_witnesses(random.Random(23), 50) == []


# -- decompositions across a patching datum ----------------------------------

def test_decompose_modulo_power_examples():
    Z = ZZ()
    L2 = localize(Z, 2)
    h = Z.from_int(3)
    a, b = decompose_modulo_power(L2.fraction(5, 1), 1, h, Z)
    assert b.payload == -5
    assert a * L2.from_base(h) + L2.from_base(b) == L2.fraction(5, 1)
    a, b = decompose_modulo_power(L2.fraction(1, 2), 2, h, Z)
    assert b.payload == -2
    assert a * L2.from_base(h) ** 2 + L2.from_base(b) == L2.fraction(1, 2)


def test_decompose_modulo_power_identity_instance():
    Z = ZZ()
    a, b = decompose_modulo_power(Z.from_int(9), 4, Z.from_int(3), Z)
    assert a.is_zero and b.payload == 9


def test_decompose_modulo_power_integral_prefers_b():
    Z = ZZ()
    L2 = localize(Z, 2)
    a, b = decompose_modulo_power(L2.from_base(Z.from_int(7)), 3, Z.from_int(3), Z)
    assert a.is_zero and b.payload == 7


def test_decompose_modulo_power_random_reconstruction():
    assert checks.bezout_reconstruction(random.Random(31), 200) == []


def test_decompose_modulo_power_unsupported():
    Z = ZZ()
    prod = product_ring(Z, Z)
    with pytest.raises(DecompositionError):
        decompose_modulo_power(prod.one, 1, Z.from_int(3), Z)


# -- homomorphisms and serialization ----------------------------------------

def test_substitution_hom():
    P = poly_ring(ZZ(), ("t1", "t2"))
    t1, t2 = P.gens()
    hom = substitution_hom(P, P, {"t1": P.one - t1, "t2": t1})
    assert hom(t1 * t2) == (P.one - t1) * t1


def test_fraction_field_hom():
    Z = ZZ()
    L6 = localize(Z, 6)
    hom = fraction_field_hom(L6)
    from fractions import Fraction
    assert hom(L6.fraction(5, 2)).payload == Fraction(5, 36)


def test_quotient_hom_and_localization_hom():
    Z = ZZ()
    Z6 = quotient(Z, 6)
    qh = quotient_hom(Z, Z6)
    assert qh(Z.from_int(10)).payload == 4
    L2 = localize(Z, 2)
    lh = localization_hom(Z, L2)
    assert lh(Z.from_int(12)).payload == (12, 0)


def test_json_roundtrip():
    rng = random.Random(41)
    for ring in checks.ring_constructions():
        blob = json.dumps(ring_to_json(ring))
        ring2 = ring_from_json(json.loads(blob))
        assert ring2 == ring
        for _ in range(20):
            x = ring.sample(rng, 5)
            data = json.dumps(ring._payload_to_json(x.payload))
            assert ring._payload_from_json(json.loads(data)) == x.payload


@pytest.mark.parametrize("build", [
    lambda: ZZ().el(2.5),
    lambda: ZZ().el("3"),
    lambda: ZZ().el(True),
    lambda: ZZ().one + True,
    lambda: ZZ().from_int(True),
    lambda: ZZ().one.divide(True),
    lambda: gen(A2, ZZ(), A2.roots[0], 2.5),
    lambda: _strict_eq(ZZ().one, True),
    lambda: _strict_eq(ZZ().zero, False),
], ids=["float", "str", "bool", "add-bool", "from_int-bool", "divide-bool", "gen-float",
        "eq-true", "eq-false"])
def test_el_rejects_raw_payloads(build):
    with pytest.raises(TypeError):
        build()


def _strict_eq(x, other):
    """x == other, raising TypeError where x refuses the comparison; a
    refused comparison with a bool falls back to identity, so is False."""
    if x.__eq__(other) is NotImplemented:
        assert (x == other) is False and x != other
        raise TypeError(f"{x!r} does not compare with {other!r}")
    return x == other


def test_el_coerces_elements_ints_and_rationals():
    assert ZZ().el(3) == ZZ().from_int(3) and GF(7).el(-1).payload == 6
    assert QQ().el(Fraction(1, 2)).payload == Fraction(1, 2)
    assert localize(ZZ(), 2).el(4).payload == (4, 0)
    with pytest.raises(TypeError):
        GF(7).el(Fraction(1, 2))


def test_division_errors():
    Z = ZZ()
    with pytest.raises(NonUnitError):
        Z.from_int(3).divide(Z.from_int(2))
    with pytest.raises(NonUnitError):
        Z.from_int(2).inverse()


def test_json_payloads_are_canonical():
    Pt = poly_ring(ZZ(), ("t",))
    t = Pt.var("t")
    assert Pt._payload_from_json([[[1], 2], [[1], 3]]) == (5 * t).payload
    assert Pt._payload_from_json([[[1], 2], [[0], 0], [[1], -2]]) == ()
    assert GF(7)._payload_from_json(7) == 0 and GF(7)._payload_from_json(-1) == 6
    assert quotient(ZZ(), 6)._payload_from_json(-1) == 5
    assert QQ()._payload_from_json({"n": 2, "d": -4}) == Fraction(-1, 2)
    assert localize(ZZ(), 2)._payload_from_json({"num": 4, "exp": 3}) == (1, 1)


@pytest.mark.parametrize("ring, data", [
    (ZZ(), 2.5),
    (ZZ(), True),
    (GF(7), "3"),
    (QQ(), {"n": 1, "d": 0}),
    (QQ(), {"n": 1.5, "d": 2}),
    (localize(ZZ(), 2), {"num": 1, "exp": -1}),
    (poly_ring(ZZ(), ("t",)), [[[1, 0], 2]]),
    (poly_ring(ZZ(), ("t",)), [[[-1], 2]]),
    (milnor_square_ring(ZZ(), 2), [3, [[[0], {"num": 3, "exp": 0}]]]),
    (product_ring(ZZ(), ZZ()), [1, 2, 3]),
])
def test_malformed_json_payloads_raise_value_error(ring, data):
    with pytest.raises(ValueError):
        ring._payload_from_json(data)
