"""Every public argument refusal raises its documented exception, and
negative powers go through the inverse."""

import random
from fractions import Fraction

import pytest

from steinberg_lab import milnor, patching, reps, simplicial, words
from steinberg_lab.rings import (GF, QQ, ZZ, IntegerRing, NonUnitError, RingMismatchError,
                                 bezout_decompose, canonical_hom, ext_gcd, localize,
                                 milnor_square_ring, poly_ring, quotient,
                                 reciprocal_localization_witness, ring_from_json,
                                 ring_to_json, substitution_hom)
from steinberg_lab.roots import build_root_system

Z, Q = ZZ(), QQ()
L2 = localize(Z, 2)
A2, A3, D4 = (build_root_system(k, r) for k, r in (("A", 2), ("A", 3), ("D", 4)))
a1 = A2.simple_roots[0]
LVL1, LVL2 = simplicial.simplex_ring(Z, 1), simplicial.simplex_ring(Z, 2)


def _datum():
    return patching.zariski_datum(Z, 3, 2)


def _pair(datum):
    return patching.PatchPair(words.identity_word(A2, datum.B_h),
                              words.identity_word(A2, datum.A))


def _conj(h=2, g=None):
    return patching.ConjugationHom(A2, Z, h, g or words.gen(A2, L2, a1, 1))


def _identity_image(ring):
    return reps.evaluate(words.identity_word(A2, ring), reps.build_representation(A2, "defining"))


def _moore(level, f, ring=LVL1):
    return simplicial.MooreGenerator(A2, Z, level, a1, f, words.identity_word(A2, ring))


class _UnlistedIntegers(IntegerRing):
    """A ring type that the JSON descriptor format does not know."""


REFUSALS = {
    "patching.PatchDatum-zero-h": (lambda: patching.PatchDatum(Z, 2, 0), ValueError),
    "patching.ConjugationHom-unlocalized-conjugator":
        (lambda: _conj(g=words.gen(A2, Z, a1, 1)), ValueError),
    "patching.ConjugationHom-h-not-inverted": (lambda: _conj(h=3), ValueError),
    "patching.ConjugationHom.apply_leveled-level-below-s":
        (lambda: _conj(g=words.gen(A2, L2, a1, L2.fraction(1, 1)))
         .apply_leveled([(A2.simple_roots[1], Z.one, 0)]), patching.InsufficientLevelError),
    "patching.ConjugationHom.apply_word-indivisible-argument":
        (lambda: _conj().apply_word(words.gen(A2, Z, a1, 3), 1), ValueError),
    "patching.star_reduce-word-over-another-ring":
        (lambda: patching.star_reduce(_datum(), _pair(_datum()), words.gen(A2, Q, a1, 1)),
         ValueError),
    "patching.translate_by_word-word-over-another-ring":
        (lambda: patching.translate_by_word(_datum(), words.gen(A2, Z, a1, 1),
                                            _pair(_datum())), ValueError),
    "patching.glueing_demo-target-over-another-ring":
        (lambda: patching.glueing_demo(_datum(), A2, reps.build_representation(A2, "defining"),
                                       words.gen(A2, Z, a1, 1)), ValueError),
    **{f"patching.verify_translation_relations-samples-{samples!r}":
       (lambda samples=samples: patching.verify_translation_relations(
           _datum(), A2, reps.build_representation(A2, "adjoint"), samples, random.Random(0)),
        ValueError)
       for samples in (0, True, 2.5)},
    "rings.poly_ring-no-variables": (lambda: poly_ring(Z, ()), ValueError),
    "rings.poly_ring-string-of-variables": (lambda: poly_ring(Z, "ts"), ValueError),
    "rings.ring_from_json-string-of-variables":
        (lambda: ring_from_json({"kind": "polynomial", "base": {"kind": "integers"},
                                 "vars": "ts"}), ValueError),
    "rings.GF-float-prime": (lambda: GF(7.0), ValueError),
    "rings.ring_from_json-float-prime":
        (lambda: ring_from_json({"kind": "prime_field", "p": 7.0}), ValueError),
    "rings.RingElement.__add__-mixed-rings": (lambda: Z.one + GF(7).one, RingMismatchError),
    "rings.poly_ring-repeated-variable": (lambda: poly_ring(Z, ("t", "t")), ValueError),
    "rings.poly_ring-non-identifier-variable": (lambda: poly_ring(Z, ("t,s",)), ValueError),
    "rings.poly_ring-empty-variable-name": (lambda: poly_ring(Z, ("",)), ValueError),
    "rings.localize-non-domain": (lambda: localize(quotient(Z, 6), 5), ValueError),
    "rings.localize-zero-multiplier": (lambda: localize(Z, 0), ValueError),
    "rings.quotient-unsupported-base": (lambda: quotient(Q, 2), ValueError),
    "rings.milnor_square_ring-non-domain":
        (lambda: milnor_square_ring(quotient(Z, 6), 5), ValueError),
    "rings.RingHom.compose-mismatched":
        (lambda: canonical_hom(Z, Q).compose(canonical_hom(Z, L2)), RingMismatchError),
    "rings.substitution_hom-missing-image":
        (lambda: substitution_hom(poly_ring(Z, ("x", "y")), Z, {"x": 1}), ValueError),
    "rings.ext_gcd-mixed-rings": (lambda: ext_gcd(Z.from_int(2), Q.from_int(2)),
                                  RingMismatchError),
    "rings.bezout_decompose-unlocalized": (lambda: bezout_decompose(Z.from_int(3), 5, 1),
                                           ValueError),
    "rings.bezout_decompose-exponent-above-s":
        (lambda: bezout_decompose(L2.fraction(1, 3), 3, 1), ValueError),
    "rings.reciprocal_localization_witness-constant":
        (lambda: reciprocal_localization_witness(Z.from_int(3)), ValueError),
    "rings.ring_to_json-unlisted-ring": (lambda: ring_to_json(_UnlistedIntegers()), ValueError),
    "reps.build_representation-defining-D4":
        (lambda: reps.build_representation(D4, "defining"), ValueError),
    "reps.build_representation-unknown-kind":
        (lambda: reps.build_representation(A2, "spin"), ValueError),
    "reps.GroupMatrix.__mul__-mixed-rings":
        (lambda: _identity_image(Z) * _identity_image(Q), ValueError),
    "simplicial.simplex_ring-negative-level": (lambda: simplicial.simplex_ring(Z, -1), ValueError),
    "simplicial.MooreGenerator-mismatched-rings": (lambda: _moore(1, LVL2.one), ValueError),
    "simplicial.MooreGenerator-level-3":
        (lambda: _moore(3, simplicial.simplex_ring(Z, 3).one, simplicial.simplex_ring(Z, 3)),
         ValueError),
    "simplicial.moore_lift-level-2": (lambda: simplicial.moore_lift(_moore(2, LVL2.one, LVL2)),
                                      ValueError),
    "simplicial.crt_to_pair-outside-the-square":
        (lambda: simplicial.crt_to_pair(Z.from_int(1)), ValueError),
    "simplicial.crt_from_pair-not-a-pair":
        (lambda: simplicial.crt_from_pair(Z.from_int(1), simplicial.interval_square_ring(Z)),
         ValueError),
    "words.SteinbergWord.__mul__-other-system":
        (lambda: words.gen(A2, Z, a1, 1) * words.gen(A3, Z, A3.simple_roots[0], 1), ValueError),
    "words.SteinbergWord.__mul__-other-ring":
        (lambda: words.gen(A2, Z, a1, 1) * words.gen(A2, Q, a1, 1), ValueError),
    "words.substitute-hom-from-another-ring":
        (lambda: words.substitute(words.gen(A2, L2, a1, 1), canonical_hom(Z, Q)), ValueError),
    "milnor.MilnorSymbolSum.__add__-other-field":
        (lambda: milnor.symbol(2, 3) + milnor.MilnorSymbolSum(GF(7), {(2, 3): 1}), ValueError),
    "milnor.relevant_odd_primes-over-F7":
        (lambda: milnor.relevant_odd_primes(milnor.MilnorSymbolSum(GF(7), {(3, 5): 1})),
         ValueError),
    "milnor.tame_symbol-over-F7":
        (lambda: milnor.tame_symbol(milnor.MilnorSymbolSum(GF(7), {(2, 3): 1}), 3), ValueError),
    "milnor.real_symbol-over-F7":
        (lambda: milnor.real_symbol(milnor.MilnorSymbolSum(GF(7), {(3, 5): 1})), ValueError),
    "milnor.symbol_normalize-over-F7":
        (lambda: milnor.symbol_normalize(milnor.MilnorSymbolSum(GF(7), {(3, 5): 1})),
         ValueError),
    "milnor.steinberg_to_milnor-over-ZZ":
        (lambda: milnor.steinberg_to_milnor(words.steinberg_symbol(A2, Z, a1, -1, -1)),
         ValueError),
    "roots.structure_constant-non-root-sum":
        (lambda: A2.structure_constant(a1, a1), ValueError),
    "roots.commutator_decomposition-non-root": (lambda: A3.commutator_decomposition((5, 0, 0, 0)),
                                                ValueError),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS)
def test_public_refusals_raise(call, error):
    with pytest.raises(error):
        call()


def test_negative_powers_invert():
    assert Q.from_int(2) ** -3 == Q.el(Fraction(1, 8))
    assert L2.from_int(2) ** -2 == L2.fraction(1, 2)
    with pytest.raises(NonUnitError):
        Z.from_int(2) ** -1
