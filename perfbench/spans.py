"""Spans around the benchmark's calls into each layer, for the traced run.

:func:`install` replaces public functions and methods of the library
with wrappers that record a span per call: name, start, end, parent span
and task id.  Spans are kept in memory and written out when the run
ends.  A span's self time is its duration minus the durations of its
child spans.

What a wrapper can and cannot see:

* A module function is replaced as a module attribute, so calls through
  ``module.fn`` and calls from inside the same module are seen.  Calls
  the library makes through a name bound by ``from .x import y`` keep
  the original function and are not seen; their time is the caller's
  self time.
* A method is replaced on its class and is seen from everywhere.
* Inner loops that call the private ``Ring._add``/``_mul`` payload
  arithmetic are not wrapped; that work is the self time of the caller
  (``reps.sweep``, ``reps.matmul``, ``reps.evaluate``...).
* Ring element operations (``RingElement.__add__`` and friends) are so
  frequent that they are aggregated (count and self time per ring kind)
  rather than stored one by one.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from steinberg_lab import (cli, milnor, patching, reps, rings, roots,
                           simplicial, words)

RING_KINDS = {"integers": "integer", "rationals": "rational",
              "prime_field": "prime_field", "quotient": "quotient",
              "polynomial": "polynomial", "localization": "localization",
              "product": "product", "milnor_square": "milnor_square"}

ELEM_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__neg__", "__pow__", "__eq__", "divide", "try_divide", "inverse",
            "is_unit")


class Tracer:
    def __init__(self, ring_labels):
        self.ring_labels = ring_labels     # Ring.describe() -> short label
        self.task = "setup"
        self.spans = []                    # stored span records
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.count = defaultdict(int)
        self._stack = []                   # [span id, child time, name]
        self._next_id = 0
        self._saved = []

    # -- wrapping ------------------------------------------------------------
    def _wrapper(self, fn, name, after, store):
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent = stack[-1] if stack else None
            parent_id = parent[0] if parent else None
            if store:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent_id
            frame = [sid, 0.0, label]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                self.calls[label] += 1
                self.self_s[label] += dur - frame[1]
                self.total_s[label] += dur
                if store:
                    spans.append((sid, label, start, end, parent_id, self.task))
            if after is not None:
                after(self.count, args, result, parent is not None and parent[2] == label)
            return result

        return wrapper

    def wrap(self, owner, attr, name, after=None, store=True):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        if isinstance(original, property):
            setattr(owner, attr, property(self._wrapper(original.fget, name, after, store)))
        else:
            setattr(owner, attr, self._wrapper(original, name, after, store))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output --------------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "task": task}) + "\n")


def _sweep_after(count, args, report, nested):
    count["reps.sweep.pairs"] += report.pairs_checked
    count["reps.sweep.identities"] += report.samples * report.pairs_checked
    count["reps.sweep.violations"] += len(report.violations)


def _evaluate_after(count, args, result, nested):
    count["reps.evaluate.letters"] += len(args[0].letters)


def _matmul_after(count, args, result, nested):
    count["reps.matmul.mac_computed"] += args[0].dim ** 3


def _conj_after(count, args, result, nested):
    count["patching.conj.letters_in"] += len(args[1].letters)
    count["patching.conj.letters_out"] += len(result.letters)


def _word_after(count, args, result, nested):
    if not nested:
        count["words.build.letters"] += len(result.letters)


def install(t):
    """Wrap the library so that calls record into tracer ``t``; returns
    ``t``.  Call ``t.uninstall()`` afterwards."""

    def sweep_name(args):
        return "reps.sweep@" + t.ring_labels.get(args[1].describe(), "other")

    t.wrap(reps, "verify_relations", sweep_name, _sweep_after)
    t.wrap(reps, "evaluate", "reps.evaluate", _evaluate_after)
    t.wrap(reps, "build_representation", "reps.build")
    t.wrap(reps.GroupMatrix, "__mul__", "reps.matmul", _matmul_after)
    t.wrap(reps.GroupMatrix, "__eq__", "reps.compare")
    t.wrap(reps.GroupMatrix, "is_identity", "reps.compare")
    t.wrap(roots, "build_root_system", "roots.build")

    t.wrap(patching.ConjugationHom, "apply_word", "patching.conj", _conj_after)
    t.wrap(patching, "left_translation", "patching.translate")
    t.wrap(patching, "translate_by_word", "patching.translate")
    t.wrap(patching, "mu_image", "patching.mu")
    t.wrap(patching, "verify_translation_relations", "patching.suite")
    t.wrap(patching, "glueing_demo", "patching.glue")

    def elem_name(args):
        return "rings.elem_ops@" + RING_KINDS.get(args[0].ring.kind, "other")

    for op in ELEM_OPS:
        t.wrap(rings.RingElement, op, elem_name, store=False)
    t.wrap(rings.RingHom, "__call__", "rings.hom")
    t.wrap(rings.RingHom, "map_payload", "rings.hom", store=False)
    for fn in ("decompose_modulo_power", "bezout_decompose", "bezout_identity",
               "ext_gcd", "reciprocal_localization_witness"):
        t.wrap(rings, fn, "rings.decompose")
    for fn in ("milnor_square_pullback", "milnor_square_project_base",
               "milnor_square_project_poly"):
        t.wrap(rings, fn, "rings.pullback")

    for fn in ("gen", "identity_word", "steinberg_symbol", "weyl_element",
               "torus_element", "commutator", "opposite_commutator"):
        t.wrap(words, fn, "words.build", _word_after)
    t.wrap(words.SteinbergWord, "__mul__", "words.build", _word_after)
    t.wrap(words.SteinbergWord, "inverse", "words.build", _word_after)
    t.wrap(words, "substitute", "words.substitute")
    t.wrap(words, "commutator_reduce", "words.reduce")

    t.wrap(milnor, "symbol", "milnor.symbol")
    t.wrap(milnor.MilnorSymbolSum, "__add__", "milnor.symbol")
    t.wrap(milnor, "relevant_odd_primes", "milnor.primes")
    t.wrap(milnor, "factor_positive", "milnor.primes")
    t.wrap(milnor, "tame_symbol", "milnor.tame")
    t.wrap(milnor, "symbol_normalize", "milnor.normalize")

    t.wrap(simplicial, "simplicial_identity_report", "simplicial.identities")
    t.wrap(simplicial, "moore_lift", "simplicial.moore")
    for meth in ("word", "face", "in_moore_kernel"):
        t.wrap(simplicial.MooreGenerator, meth, "simplicial.moore")
    t.wrap(simplicial, "crt_to_pair", "simplicial.crt")
    t.wrap(simplicial, "crt_from_pair", "simplicial.crt")

    t.wrap(cli, "main", "cli.selftest")
    return t


def _sum(table, prefix):
    return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "@"))


def layer_metrics(t, failures_by_layer, overhead_frac, sweep_labels):
    """Per-layer metric values, keyed by the names in BENCHMARK.json."""
    m = {}

    def op(name):
        m[f"{name}.calls"] = _sum(t.calls, name)
        m[f"{name}.self_s"] = _sum(t.self_s, name)

    op("reps.sweep")
    for key in ("pairs", "identities", "violations"):
        m[f"reps.sweep.{key}"] = t.count[f"reps.sweep.{key}"]
    for label in sweep_labels:
        m[f"reps.sweep.self_s.{label}"] = t.self_s[f"reps.sweep@{label}"]
    op("reps.evaluate")
    m["reps.evaluate.letters"] = t.count["reps.evaluate.letters"]
    op("reps.matmul")
    m["reps.matmul.mac_computed"] = t.count["reps.matmul.mac_computed"]
    op("reps.compare")
    m["reps.build.s"] = t.total_s["reps.build"]

    op("patching.conj")
    lin, lout = t.count["patching.conj.letters_in"], t.count["patching.conj.letters_out"]
    m["patching.conj.letters_in"] = lin
    m["patching.conj.letters_out"] = lout
    m["patching.conj.expansion"] = lout / lin if lin else 0.0
    for name in ("translate", "mu", "suite", "glue"):
        op(f"patching.{name}")

    for kind in RING_KINDS.values():
        m[f"rings.elem_ops.calls.{kind}"] = t.calls[f"rings.elem_ops@{kind}"]
    m["rings.elem_ops.self_s"] = _sum(t.self_s, "rings.elem_ops")
    for name in ("hom", "decompose", "pullback"):
        op(f"rings.{name}")

    op("words.build")
    m["words.build.letters"] = t.count["words.build.letters"]
    op("words.substitute")
    op("words.reduce")

    for name in ("symbol", "primes", "tame", "normalize"):
        op(f"milnor.{name}")
    for name in ("identities", "moore", "crt"):
        op(f"simplicial.{name}")

    m["roots.build.calls"] = t.calls["roots.build"]
    m["roots.build.s"] = t.total_s["roots.build"]
    op("cli.selftest")

    for layer in ("reps", "patching", "rings", "words", "milnor", "simplicial", "cli"):
        m[f"{layer}.failures"] = failures_by_layer.get(layer, 0)
    m["trace.overhead_frac"] = overhead_frac
    m["trace.spans"] = len(t.spans)
    return m
