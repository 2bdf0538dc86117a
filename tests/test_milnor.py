"""Milnor symbol calculus checked against the tame-symbol oracle."""

import hashlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from steinberg_lab.milnor import (MilnorSymbolSum, TameSymbolImage, factor_positive,
                                  real_symbol, relevant_odd_primes, steinberg_to_milnor, symbol,
                                  symbol_normalize, tame_symbol)
from steinberg_lab.rings import GF, QQ
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


def test_factor_positive_returns_a_fresh_dict():
    factor_positive(360)[7] = 1
    factor_positive(360).clear()
    assert factor_positive(360) == {2: 3, 3: 2, 5: 1}


def test_factor_positive_splits_products_of_primes_above_2_8():
    """p*q and p^3 for primes 257 <= p <= q <= 997: their cycles mod p and
    mod q are short and often close at the same rho step."""
    primes = [p for p in range(257, 998) if all(p % d for d in range(2, 32))]
    assert len(primes) == 114
    for i, p in enumerate(primes):
        assert factor_positive(p ** 3) == {p: 3}
        assert factor_positive(p * p) == {p: 2}
        for q in primes[i + 1:]:
            assert factor_positive(p * q) == {p: 1, q: 1}


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


def test_tame_symbol_at_p_needs_only_the_valuation_at_p():
    """2^89 - 1 is a prime above psi_13, where primality is not decided
    and `relevant_odd_primes` of these sums raises ValueError; the tame
    symbol at 5 reads only v_5 of each entry."""
    mersenne = 2 ** 89 - 1
    assert tame_symbol(symbol(mersenne, 3), 5).value == 1
    assert tame_symbol(symbol(5 * mersenne, 3), 5).value == 2


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


def test_prime_refusals_hold_after_a_cached_tame_symbol():
    """3 is in the primality cache, and 3.0 and True hash like 3 and 1."""
    assert _term(2, 3, 3) == 2
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


def _prime_to(rng, p):
    n = rng.randint(1, 10 ** 6)
    return n + 1 if n % p == 0 else n


@pytest.mark.parametrize("divides", ["neither", "a", "b", "both"])
def test_tame_symbol_term_fast_paths_match_fraction_formula(divides):
    """Terms where p divides neither entry (the value is 1), one entry
    (one unit part is read), or both."""
    rng = random.Random(divides)
    for p in (3, 5, 7, 65537):
        for _ in range(100):
            def entry(divisible):
                v = rng.choice([-2, -1, 1, 2]) if divisible else 0
                return (Fraction(rng.choice([-1, 1]) * _prime_to(rng, p), _prime_to(rng, p))
                        * Fraction(p) ** v)

            a, b = entry(divides in ("a", "both")), entry(divides in ("b", "both"))
            assert _term(a, b, p) == _fraction_tame_term(a, b, p)
            if divides == "neither":
                assert _term(a, b, p) == 1


def _reference_terms(field, items):
    """The terms of a sum as collected before: a dict keyed by pairs of
    payloads, then sorted by the strings of both entries."""
    clean, one = {}, field._from_int(1)
    for (a, b), mult in items:
        a, b = field.el(a), field.el(b)
        if a.is_zero or b.is_zero:
            raise ValueError("symbol entries must be nonzero")
        if a.payload == one or b.payload == one or mult == 0:
            continue
        key = (a.payload, b.payload)
        clean[key] = clean.get(key, 0) + mult
    return tuple(sorted(((k, m) for k, m in clean.items() if m),
                        key=lambda km: (str(km[0][0]), str(km[0][1]))))


_ENTRIES = {"QQ": st.one_of(st.integers(-4, 4).filter(bool),
                            st.builds(Fraction, st.integers(-4, 4).filter(bool),
                                      st.integers(1, 3))),
            "F7": st.integers(-9, 16).filter(lambda n: n % 7)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_ENTRIES)), st.data())
def test_sums_match_the_reference_collector(name, data):
    """Construction, +, - and negation against the old collector, on
    entries that repeat (2 and 4/2 over QQ, 2 and 9 over F7), equal 1,
    and multiplicities that cancel."""
    field = QQ() if name == "QQ" else GF(7)

    def terms():
        pairs = st.tuples(st.tuples(_ENTRIES[name], _ENTRIES[name]), st.integers(-2, 2))
        return dict(data.draw(st.lists(pairs, max_size=6)))

    s_in, t_in = terms(), terms()
    s, t = MilnorSymbolSum(field, s_in), MilnorSymbolSum(field, t_in)
    assert s.terms == _reference_terms(field, s_in.items())
    assert (s + t).terms == _reference_terms(field, s.terms + t.terms)
    assert (-s).terms == _reference_terms(field, [(k, -m) for k, m in s.terms])
    assert (s - t).terms == _reference_terms(field, s.terms + (-t).terms)
    assert (s - s).is_empty
    if name == "QQ":
        a, b = data.draw(_ENTRIES[name]), data.draw(_ENTRIES[name])
        assert symbol(a, b).terms == _reference_terms(field, [((a, b), 1)])


def test_sum_terms_keep_field_payloads():
    s = MilnorSymbolSum(GF(7), {(2, 3): 1, (9, 10): 2, (1, 5): 4, (3, 2): -1})
    assert s.terms == (((2, 3), 3), ((3, 2), -1))
    with pytest.raises(ValueError):
        MilnorSymbolSum(GF(7), {(7, 3): 1})
    assert symbol(Fraction(4, 2), 3).terms == (((Fraction(2), Fraction(3)), 1),)


_BIG_ENTRIES = st.one_of(
    st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9).filter(bool), st.integers(1, 10 ** 9)),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_BIG_ENTRIES, _BIG_ENTRIES, _BIG_ENTRIES)
def test_relevant_odd_primes_of_a_sum_sharing_an_entry(a, b, c):
    """The odd primes of the entries of every term, as sympy finds them;
    the entry a is shared by both terms."""
    s = symbol(a, b) + symbol(a, c)
    expected = sorted({p for (x, y), _ in s.terms for z in (x, y)
                       for p in sympy.primefactors(z.numerator * z.denominator) if p > 2})
    assert relevant_odd_primes(s) == expected


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


def _random_entry(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 60))


def test_normalize_output_is_pinned():
    """The exact normal form of 500 seeded random sums, not only its tame
    images: entries +-1..60 / 1..60, multiplicities +-1..3."""
    rng = random.Random(19)
    digest = hashlib.sha256()
    for _ in range(500):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (_random_entry(rng), _random_entry(rng))
            terms[key] = terms.get(key, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
        digest.update(repr(symbol_normalize(MilnorSymbolSum(QQ(), terms))).encode() + b"\n")
    assert digest.hexdigest() == "0ac805d09d0b67b037d275d404bc66dbf1ea799be7fed5b41f1cbe31fdec6e38"


def test_formal_cancellation():
    assert (symbol(7, -6) - symbol(7, -6)).is_empty


def test_steinberg_relation_sweep():
    assert checks.tame_laws(random.Random(5), 200) == []


def test_tame_bilinearity_sweep():
    assert checks.tame_laws(random.Random(6), 300) == []


def test_normalize_preserves_tame_images():
    assert checks.normalize_tame_images(random.Random(7), 150) == []


def test_real_symbol_sees_minus_one_squared():
    """{-1, -1} has every tame image trivial and real symbol 1, the
    generator of K2(Z); the real symbol is bilinear in the signs."""
    assert real_symbol(symbol(-1, -1)) == 1
    assert all(tame_symbol(symbol(-1, -1), p).value == 1 for p in (3, 5, 7))
    assert real_symbol(symbol(-2, Fraction(-3, 5))) == 1
    assert real_symbol(symbol(-2, 3) + symbol(2, -3)) == 0
    assert real_symbol(symbol(-1, -1) + symbol(-6, -5)) == 0
    assert real_symbol(symbol_normalize(symbol(-6, -5))) == 1


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
