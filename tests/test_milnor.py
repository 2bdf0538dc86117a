"""Milnor symbol calculus checked against the tame-symbol oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from steinberg_lab.milnor import (TameSymbolImage, factor_positive,
                                  steinberg_to_milnor, symbol,
                                  symbol_normalize, tame_symbol)
from steinberg_lab.rings import GF
from steinberg_lab.roots import build_root_system
from steinberg_lab import checks, words


def test_factor_positive():
    assert factor_positive(360) == {2: 3, 3: 2, 5: 1}
    assert factor_positive(1) == {}
    with pytest.raises(ValueError):
        factor_positive(0)
    m31, m61 = 2 ** 31 - 1, 2 ** 61 - 1
    assert factor_positive(m61) == {m61: 1}
    assert factor_positive(m31 * m61) == {m31: 1, m61: 1}
    assert factor_positive(5 ** 40) == {5: 40}
    # 2^89 - 1 is prime, above the bound where Miller-Rabin is exact
    with pytest.raises(ValueError):
        factor_positive(2 ** 89 - 1)


def test_factor_positive_refuses_non_integers():
    for n in (2.5, True, Fraction(4), "6"):
        with pytest.raises(TypeError):
            factor_positive(n)


def test_tame_symbol_examples():
    assert tame_symbol(symbol(2, 3), 3).value == 2
    assert tame_symbol(symbol(2, 3), 5).value == 1
    with pytest.raises(ValueError):
        tame_symbol(symbol(2, 3), 2)
    with pytest.raises(ValueError):
        tame_symbol(symbol(2, 3), 9)


def _term(a, b, p):
    """The tame symbol of the one symbol {a, b} at p."""
    return tame_symbol(symbol(a, b), p).value


def test_tame_symbol_term_valuations():
    """(-1)^(v(a)v(b)) a^v(b) / b^v(a) modulo p on single symbols."""
    # v_3(9) = 2, v_3(5) = 0: value is 5^(-2) = 1 mod 3
    assert _term(Fraction(9), Fraction(5), 3) == 1
    # v_3(1/3) = -1, v_3(2) = 0: value is 2^(+1) = 2 mod 3
    assert _term(Fraction(1, 3), Fraction(2), 3) == 2
    # both valuations odd: sign flip, 3 * 5 at p=3 and p=5
    assert _term(Fraction(3), Fraction(3), 3) == (-1) % 3


def test_tame_symbol_term_refuses_primes_that_are_not_odd_primes():
    # 9 first: the unchecked formula returned 1 there and looped at p = 1
    for p in (9, 2, 1, -1, -3, True, 3.0):
        with pytest.raises(ValueError, match="odd primes only"):
            _term(2, 3, p)


def _fraction_tame_term(a, b, p):
    """The tame symbol term computed through Fraction unit parts, as a
    reference for the integer version."""
    def valuation(x):
        v, num, den = 0, x.numerator, x.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v, Fraction(num, den)

    (va, ua), (vb, ub) = valuation(a), valuation(b)
    ua_mod = ua.numerator * pow(ua.denominator, -1, p) % p
    ub_mod = ub.numerator * pow(ub.denominator, -1, p) % p
    val = pow(ua_mod, vb, p) * pow(ub_mod, -va, p) % p
    return (-val) % p if (va * vb) % 2 else val


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([3, 5, 7, 11, 101, 65537, 2 ** 31 - 1]), st.data())
def test_tame_symbol_term_matches_fraction_formula(p, data):
    def entry():
        unit = Fraction(data.draw(st.integers(-10 ** 6, 10 ** 6).filter(bool)),
                        data.draw(st.integers(1, 10 ** 6)))
        return unit * Fraction(p) ** data.draw(st.integers(-3, 3))

    a, b = entry(), entry()
    assert _term(a, b, p) == _fraction_tame_term(a, b, p)


def test_symbol_entries_validated():
    with pytest.raises(ValueError):
        symbol(0, 3)
    # entries equal to one are dropped
    assert symbol(1, 7).is_empty


def test_skew_symmetry_pair_cancels():
    s = symbol(3, -2) + symbol(-2, 3)
    for p in (3, 5, 7, 11):
        assert tame_symbol(s, p).value == 1
    assert symbol_normalize(s).is_empty


def test_bilinearity_normalization_example():
    n = symbol_normalize(symbol(4, 5))
    assert n.terms == (((Fraction(2), Fraction(5)), 2),)


def test_formal_cancellation():
    assert (symbol(7, -6) - symbol(7, -6)).is_empty


def test_steinberg_relation_sweep():
    assert checks.tame_laws(random.Random(5), 200) == []


def test_tame_bilinearity_sweep():
    assert checks.tame_laws(random.Random(6), 300) == []


def test_normalize_preserves_tame_images():
    assert checks.normalize_tame_images(random.Random(7), 150) == []


def test_tame_image_type_invariants():
    with pytest.raises(ValueError):
        TameSymbolImage(5, 0)
    with pytest.raises(ValueError):
        TameSymbolImage(5, 5)


def test_steinberg_bridge():
    A2 = build_root_system("A", 2)
    F5 = GF(5)
    root = A2.simple_roots[0]
    w = words.steinberg_symbol(A2, F5, root, 2, 3) * \
        words.steinberg_symbol(A2, F5, root, 2, 4)
    ms = steinberg_to_milnor(w)
    assert dict(ms.terms) == {(2, 3): 1, (2, 4): 1}
    assert steinberg_to_milnor(words.identity_word(A2, F5)).is_empty
    with pytest.raises(ValueError):
        steinberg_to_milnor(words.gen(A2, F5, root, 1))
    # symbols on two different roots are rejected
    w2 = words.steinberg_symbol(A2, F5, root, 2, 3) * \
        words.steinberg_symbol(A2, F5, A2.simple_roots[1], 2, 3)
    with pytest.raises(ValueError):
        steinberg_to_milnor(w2)


def test_bridge_consistency_with_kernel_membership():
    assert checks.kernel_words(random.Random(9), 50) == []
