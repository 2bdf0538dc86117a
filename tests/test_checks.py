"""Negative controls: with a fault planted under it, every check in
steinberg_lab.checks must return witnesses naming the failing inputs."""

import dataclasses
import json
import random
from functools import partial

import pytest

from steinberg_lab import checks, patching, simplicial
from steinberg_lab.milnor import TameSymbolImage, symbol
from steinberg_lab.rings import GF, RingElement
from steinberg_lab.roots import RootSystem
from steinberg_lab.words import gen


def _extra_letter(w):
    return w * gen(w.system, w.ring, w.system.roots[0], 1)


# (check, n, where the fault goes, attribute, fault(original, *args))
FAULTS = [
    (checks.ring_axioms, 3, RingElement, "__mul__", lambda f, a, b: f(a, b) + a),
    (checks.milnor_square_roundtrip, 5, checks, "milnor_square_project_base",
     lambda f, e: f(e) + 1),
    (checks.bezout_reconstruction, 10, checks, "decompose_modulo_power",
     lambda f, *a: (f(*a)[0], f(*a)[1] + 1)),
    (checks.reciprocal_witnesses, 5, checks, "reciprocal_localization_witness",
     lambda f, p: f(p) + 1),
    (checks.root_tables, 50, RootSystem, "structure_constant",
     lambda f, system, a, b: abs(f(system, a, b))),
    (checks.tame_laws, 20, checks, "tame_symbol",
     lambda f, s, p: TameSymbolImage(p, f(s, p).value % (p - 1) + 1)),
    (checks.normalize_tame_images, 10, checks, "symbol_normalize",
     lambda f, s: f(s) + symbol(2, 3)),
    (checks.kernel_words, 20, checks, "steinberg_symbol",
     lambda f, system, ring, root, u, v: f(system, ring, root, u, v * v)),
    (checks.reduce_soundness, 6, checks, "commutator_reduce",
     lambda f, w: _extra_letter(f(w))),
    (checks.congruence_condition, 10, checks, "opposite_commutator",
     lambda f, system, ring, root, a, b: f(system, ring, root, a, b + ring.one)),
    (checks.word_examples, 1, checks, "opposite_commutator",
     lambda f, system, ring, root, a, b: _extra_letter(f(system, ring, root, a, b))),
    (partial(checks.relations, cases=[(("A", 2, "adjoint"), GF(7))]), 3,
     RootSystem, "structure_constant", lambda f, system, a, b: -f(system, a, b)),
    (checks.conjugation_identity, 1, patching.ConjugationHom, "apply_word",
     lambda f, cg, x, k: _extra_letter(f(cg, x, k))),
    (checks.translation_operators, 2, patching, "left_translation",
     lambda f, datum, alpha, c, *a, **kw: f(datum, alpha, c + c.ring.one, *a, **kw)),
    (checks.patching_examples, 1, checks, "star_reduce",
     lambda f, datum, pair, g: patching.PatchPair(f(datum, pair, g).u,
                                                  _extra_letter(f(datum, pair, g).v))),
    (checks.simplicial_identities, 3, simplicial, "face_hom",
     lambda f, base, n, i: f(base, n, 0)),
    (checks.moore_roundtrip, 4, checks, "moore_lift",
     lambda f, m: f(dataclasses.replace(m, f=m.f + 1))),
    (checks.crt_roundtrip, 5, checks, "crt_from_pair",
     lambda f, x, square: f(x, square) + 1),
    (checks.simplicial_examples, 1, checks, "pi0_connectivity_witness",
     lambda f, *a: _extra_letter(f(*a))),
]


@pytest.mark.parametrize("check, n, owner, name, fault", FAULTS,
                         ids=[getattr(c[0], "__name__", "relations") for c in FAULTS])
def test_planted_fault_is_witnessed(check, n, owner, name, fault, monkeypatch):
    assert check(random.Random(1), n) == []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **kw: fault(original, *a, **kw))
    bad = check(random.Random(1), n)
    assert bad, "the planted fault went unnoticed"
    for w in bad:
        assert {"args", "roots", "identity", "trial"} & set(w), w


def test_translation_witnesses_name_their_inputs(monkeypatch):
    """A failed translation trial names the pair's letters and the root,
    scalar, denominator exponent, level, shift and chain step it drew, in
    JSON-ready form."""
    original = patching.left_translation
    monkeypatch.setattr(patching, "left_translation",
                        lambda datum, alpha, c, *a, **kw:
                        original(datum, alpha, c + c.ring.one, *a, **kw))
    bad = checks.translation_operators(random.Random(1), 4)
    assert bad
    json.dumps(bad)
    for w in bad:
        assert {"ring", "rep", "law", "trial", "u", "v"} <= set(w), w
    steps = [w for w in bad if w["law"] == "equivariance"]
    assert steps
    for w in steps:
        assert {"alpha", "c", "s", "k", "shift", "step"} <= set(w), w


def test_relation_witnesses_name_their_arguments(monkeypatch):
    """A relation witness carries the a and b of the first failing trial."""
    original = RootSystem.structure_constant
    monkeypatch.setattr(RootSystem, "structure_constant",
                        lambda system, a, b: -original(system, a, b))
    bad = checks.relations(random.Random(1), 3, [(("A", 2, "adjoint"), GF(7))])
    assert bad
    json.dumps(bad)
    for w in bad:
        assert {"ring", "rep", "relation", "roots", "a", "b"} <= set(w), w
        assert w["relation"] == "R3" and int(w["a"]) * int(w["b"]) % 7, w
