"""Golden-file round trips for the JSON schemas used by the CLI."""

import json
from pathlib import Path

import pytest

from steinberg_lab.rings import (GF, ZZ, RingElement, localize, milnor_square_ring,
                                 poly_ring, ring_from_json, ring_to_json)
from steinberg_lab.words import word_from_json, word_to_json
from steinberg_lab import checks, reps

FIXTURES = Path(__file__).parent / "golden" / "fixtures.json"


def load():
    with open(FIXTURES, "r", encoding="utf-8") as fh:
        return json.load(fh)


def element_to_json(x):
    return {"ring": ring_to_json(x.ring), "payload": x.ring._payload_to_json(x.payload)}


def element_from_json(data):
    ring = ring_from_json(data["ring"])
    return RingElement(ring, ring._payload_from_json(data["payload"]))


def test_element_fixtures_round_trip_and_normalize():
    data = load()
    for entry in data["elements"]:
        x = element_from_json(entry["element"])
        assert x.ring._payload_to_json(x.payload) == entry["canonical"]
        assert element_from_json(element_to_json(x)) == x


def test_word_fixture_evaluates_to_frozen_matrix():
    data = load()
    w = word_from_json(data["word"]["word"])
    rep = reps.build_representation(w.system, "adjoint")
    m = reps.evaluate(w, rep)
    got = [[m.ring._payload_to_json(v) for v in row] for row in m.rows]
    assert got == data["word"]["adjoint_image"]
    assert word_to_json(word_from_json(data["word"]["word"])) == data["word"]["word"]


def test_word_rows_fixtures_are_canonical_payloads():
    """The dense view maps each entry back to the ring's canonical
    payload: a word over ZZ[1/2][1/3] in A3 adjoint, one over QQ in D4
    vector."""
    for entry in load()["word_rows"]:
        w = word_from_json(entry["word"])
        m = reps.evaluate(w, reps.build_representation(w.system, entry["rep"]))
        assert [[m.ring._payload_to_json(v) for v in row] for row in m.rows] == entry["rows"]
        assert m.rows == [[m.ring._payload_from_json(v) for v in row] for row in entry["rows"]]


def _golden_rings():
    """Every construction of `checks.ring_constructions`, then nested towers."""
    F3s = poly_ring(GF(3), ("s",))
    return checks.ring_constructions() + [
        localize(localize(ZZ(), 2), 3), poly_ring(localize(ZZ(), 2), ("t",)),
        milnor_square_ring(F3s, F3s.var("s"))]


def test_ring_descriptors_match_the_golden_format():
    """The descriptor format itself, key order included, not only that it
    round-trips."""
    entries = load()["rings"]
    rings = _golden_rings()
    assert len(entries) == len(rings)
    for ring, entry in zip(rings, entries):
        assert ring.describe() == entry["describe"]
        assert json.dumps(ring_to_json(ring)) == json.dumps(entry["descriptor"])
        assert ring_from_json(entry["descriptor"]) is ring


@pytest.mark.parametrize("ring", _golden_rings(), ids=str)
def test_is_zero_compares_with_the_interned_zero(ring, monkeypatch):
    """`is_zero` reads `ring.zero` and builds no zero of its own."""
    zero, one = RingElement(ring, ring._from_int(0)), ring.one
    monkeypatch.setattr(ring, "_from_int", None)
    assert zero.is_zero and ring.zero.is_zero and (one - one).is_zero
    assert not one.is_zero and not (one + one).is_zero and not (-one).is_zero


def test_unknown_ring_kind_is_refused():
    with pytest.raises(ValueError):
        ring_from_json({"kind": "bogus"})
