"""Golden-file round trips for the JSON schemas used by the CLI."""

import json
from pathlib import Path

from steinberg_lab.rings import RingElement, ring_from_json, ring_to_json
from steinberg_lab.words import word_from_json, word_to_json
from steinberg_lab import reps

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
