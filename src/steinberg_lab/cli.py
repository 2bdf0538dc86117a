"""Command-line front-end: batch computation and verification reports.

Every subcommand is a thin adapter over the library; output is
machine-readable (JSON or TSV) by default and deterministic under a
fixed --seed.  Each request (`word reduce`, `patch verify`, ...) has its
own parser and accepts only the flags its command reads.  Exit codes:
0 ok, 1 a verification failed, 2 a usage error (a bad or misplaced flag,
ring spec, prime, symbol, root system, root index, representation,
non-positive count, patch datum, or word or generator file; the
request's usage line and one message on stderr), 3 a crash (an uncaught
exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback
from fractions import Fraction
from functools import partial

from . import checks, milnor, patching, reps, simplicial, words
from .rings import GF, QQ, ZZ, RingElement, _is_prime, poly_ring, quotient, ring_from_json
from .roots import SUPPORTED_RANKS, build_root_system
from .words import word_from_json, word_to_json

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CRASH = 3


def parse_ring(spec: str):
    """Ring specs: int | rat | Fp:<p> | Zmod:<n> | intpoly:<var>.  Used as
    an argparse type, so a bad spec is a usage error (exit 2)."""
    kind, _, arg = spec.partition(":")
    try:
        if spec == "int":
            return ZZ()
        if spec == "rat":
            return QQ()
        if kind == "Fp":
            return GF(int(arg))
        if kind == "Zmod":
            return quotient(ZZ(), int(arg))
        if kind == "intpoly":
            return poly_ring(ZZ(), (arg,))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad ring spec {spec!r}: {exc}") from None
    raise argparse.ArgumentTypeError(f"unknown ring spec {spec!r}")


def _read_json(path: str, what: str, convert):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return convert(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read {what} from {path!r}: {exc}") from None


def parse_word_file(path: str):
    """A word JSON file, read as an argparse type."""
    return _read_json(path, "a word", word_from_json)


def _generator_from_json(data):
    system = build_root_system(data["system"]["type"], data["system"]["rank"])
    base = ring_from_json(data["base"])
    lvl1 = simplicial.simplex_ring(base, 1)
    f = RingElement(lvl1, lvl1._payload_from_json(data["f"]))
    g = words.SteinbergWord(system, lvl1, [
        (tuple(e["root"]), RingElement(lvl1, lvl1._payload_from_json(e["arg"])))
        for e in data["g"]])
    return simplicial.MooreGenerator(system, base, 1, tuple(data["root"]), f, g)


def parse_generator_file(path: str):
    """A level-1 Moore generator JSON file, read as an argparse type."""
    return _read_json(path, "a level-1 generator", _generator_from_json)


def parse_phi(spec: str):
    """A root system of rank >= 3 (the conjugation maps split opposite
    roots into commutators), such as A3 or D4."""
    try:
        system = build_root_system(spec[:1], int(spec[1:]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad root system {spec!r}: {exc}") from None
    if system.rank < 3:
        raise argparse.ArgumentTypeError(f"patching needs rank >= 3, got {spec!r}")
    return system


def parse_symbol(spec: str):
    """'a,b' with nonzero rationals a and b."""
    try:
        a, b = (Fraction(x) for x in spec.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"symbol {spec!r} is not two rationals a,b") from None
    if a == 0 or b == 0:
        raise argparse.ArgumentTypeError(f"symbol {spec!r} has a zero entry")
    return a, b


def parse_odd_prime(spec: str) -> int:
    try:
        if int(spec) != 2 and _is_prime(int(spec)):
            return int(spec)
    except ValueError:   # not an integer, or too large to decide
        pass
    raise argparse.ArgumentTypeError(f"{spec!r} is not an odd prime")


def positive_int(spec: str) -> int:
    """A count of samples or levels: a check of zero of them checks nothing.
    argparse reports the ValueError of a non-integer as a usage error too."""
    if int(spec) < 1:
        raise argparse.ArgumentTypeError(f"{spec!r} is not a positive integer")
    return int(spec)


def _emit(data, pretty: bool):
    print(json.dumps(data, indent=2 if pretty else None, sort_keys=True))


def _matrix_json(m):
    return [[m.ring._payload_to_json(v) for v in row] for row in m.rows]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_roots(args) -> int:
    system = build_root_system(args.type, args.rank)
    if args.constants:
        for (a, b), n in sorted(system.constants_table.items(),
                                key=lambda kv: (system.index[kv[0][0]], system.index[kv[0][1]])):
            if system.index[a] < system.index[b]:
                s = system.addition_table[(a, b)]
                print("\t".join([",".join(map(str, a)), ",".join(map(str, b)),
                                 ",".join(map(str, s)), f"{n:+d}"]))
    else:
        for r in system.roots:
            print(",".join(map(str, r)))
    return EXIT_OK


def cmd_word_reduce(args) -> int:
    _emit(word_to_json(words.commutator_reduce(args.word)), args.pretty)
    return EXIT_OK


def cmd_word_symbol(args) -> int:
    ring = args.ring
    if not (ring.from_int(args.u).is_unit() and ring.from_int(args.v).is_unit()):
        args.parser.error(f"--u {args.u} and --v {args.v} must be units of {ring}")
    system = build_root_system(args.type, args.rank)
    root = system.simple_roots[args.root_index]
    _emit(word_to_json(words.steinberg_symbol(system, ring, root, args.u, args.v)),
          args.pretty)
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        rep = reps.build_representation(args.word.system, args.rep)
    except ValueError as exc:
        args.parser.error(f"--rep {args.rep} does not fit the word: {exc}")
    m = reps.evaluate(args.word, rep)
    if args.check_identity:
        ok = m.is_identity
        _emit({"check": "identity", "ok": ok}, args.pretty)
        return EXIT_OK if ok else EXIT_VERIFICATION
    _emit({"matrix": _matrix_json(m)}, args.pretty)
    return EXIT_OK


def cmd_k2m(args) -> int:
    if args.batch:
        try:
            with open(args.batch, "r", encoding="utf-8") as fh:
                jobs = [(parse_symbol(",".join(map(str, item["symbol"]))),
                         parse_odd_prime(str(item["prime"]))) for item in json.load(fh)]
        except (OSError, ValueError, KeyError, TypeError, argparse.ArgumentTypeError) as exc:
            args.parser.error(f"bad batch file {args.batch!r}: {exc}")
        out = []
        for (a, b), p in jobs:
            img = milnor.tame_symbol(milnor.symbol(a, b), p)
            out.append({"symbol": [str(a), str(b)], "prime": img.prime,
                        "value": img.value})
        _emit(out, args.pretty)
        return EXIT_OK
    print(milnor.tame_symbol(milnor.symbol(*args.symbol), args.prime).value)
    return EXIT_OK


def cmd_simplicial_check(args) -> int:
    report = simplicial.simplicial_identity_report(args.ring, args.nmax)
    bad = [name for name, ok in report if not ok]
    _emit({"check": "simplicial-identities", "samples": len(report),
           "failures": len(bad)}, args.pretty)
    return EXIT_OK if not bad else EXIT_VERIFICATION


def cmd_simplicial_lift(args) -> int:
    _emit(word_to_json(simplicial.moore_lift(args.word).word()), args.pretty)
    return EXIT_OK


def cmd_patch_verify(args) -> int:
    rep = reps.build_representation(args.phi, "adjoint")
    report = patching.verify_translation_relations(args.datum, args.phi, rep, args.samples,
                                                   random.Random(args.seed))
    _emit(report.to_json(), args.pretty)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_patch_demo(args) -> int:
    if args.word.ring is not args.datum.A:
        args.parser.error(f"word ring {args.word.ring} does not match the datum")
    rep = reps.build_representation(args.phi, "adjoint")
    try:
        y = patching.glueing_demo(args.datum, args.phi, rep, args.word)
    except patching.GlueingError as exc:
        _emit({"check": "glueing-demo", "ok": False, "reason": str(exc)}, args.pretty)
        return EXIT_VERIFICATION
    _emit({"check": "glueing-demo", "ok": True, "descended": word_to_json(y)},
          args.pretty)
    return EXIT_OK


def cmd_milnor_square(args) -> int:
    bad = checks.milnor_square_roundtrip(random.Random(args.seed), args.samples)
    _emit({"check": "milnor-square-roundtrip", "samples": 2 * args.samples,
           "failures": len(bad)}, args.pretty)
    return EXIT_VERIFICATION if bad else EXIT_OK


# ---------------------------------------------------------------------------
# selftest: the randomized acceptance checks at reduced sizes
# ---------------------------------------------------------------------------

_SELFTEST_RELATIONS = [(("A", 2, "adjoint"), quotient(ZZ(), 6)),
                       (("A", 2, "defining"), quotient(ZZ(), 6)),
                       (("D", 4, "vector"), GF(7))]

# (line name, [(check, quick n, full n)]); one shared rng runs them in order
SELFTEST = [
    ("ring-axioms", [(checks.ring_axioms, 5, 50)]),
    ("bezout-and-witnesses", [(checks.bezout_reconstruction, 10, 50),
                              (checks.reciprocal_witnesses, 2, 10),
                              (checks.milnor_square_roundtrip, 3, 15)]),
    ("root-systems", [(checks.root_tables, 50, 500)]),
    ("steinberg-words", [(checks.reduce_soundness, 3, 30),
                         (checks.kernel_words, 3, 15),
                         (checks.congruence_condition, 1, 10),
                         (checks.word_examples, 1, 1)]),
    ("representations", [(partial(checks.relations, cases=_SELFTEST_RELATIONS), 5, 25)]),
    ("milnor-symbols", [(checks.tame_laws, 3, 30),
                        (checks.normalize_tame_images, 1, 10)]),
    ("simplicial", [(checks.simplicial_identities, 2, 3),
                    (checks.moore_roundtrip, 1, 10), (checks.crt_roundtrip, 5, 50),
                    (checks.simplicial_examples, 1, 1)]),
    ("patching", [(checks.translation_operators, 3, 10),
                  (checks.conjugation_identity, 0, 2),
                  (checks.patching_examples, 1, 1)]),
]


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for name, calls in SELFTEST:
        try:
            bad = [w for check, quick, full in calls
                   for w in check(rng, quick if args.quick else full)]
        except Exception as exc:  # report, do not crash the sweep
            bad = [f"{type(exc).__name__}: {exc}"]
        print(f"FAIL {name}: {bad[0]}" if bad else f"ok   {name}")
        failures += bool(bad)
    return EXIT_VERIFICATION if failures else EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """One parser per request, with exactly the flags its command reads."""
    parser = argparse.ArgumentParser(prog="steinberg-lab")
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", help="indent JSON output")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    datum = argparse.ArgumentParser(add_help=False)
    datum.add_argument("--B", type=parse_ring, default="int")
    datum.add_argument("--a", type=int, default=2, help="m of the datum B -> B_m")
    datum.add_argument("--b", type=int, default=3, help="h, coprime to m in B")
    datum.add_argument("--phi", type=parse_phi, default="A3")
    sub = parser.add_subparsers(dest="command", required=True)

    def request(subparsers, name, fn, *parents, **kw):
        p = subparsers.add_parser(name, parents=parents, **kw)
        p.set_defaults(fn=fn, parser=p)
        return p

    def actions(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    p = request(sub, "roots", cmd_roots, help="root system tables")
    p.add_argument("--type", choices=("A", "D"), required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--constants", action="store_true",
                   help="emit TSV (alpha, beta, alpha+beta, N)")

    word = actions("word", "word operations")
    p = request(word, "reduce", cmd_word_reduce, pretty)
    p.add_argument("--word", type=parse_word_file, required=True, help="word JSON file")
    p = request(word, "symbol", cmd_word_symbol, pretty)
    p.add_argument("--type", choices=("A", "D"), default="A")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--ring", type=parse_ring, default="Fp:5")
    p.add_argument("--root-index", type=int, default=0)
    p.add_argument("--u", type=int, default=2)
    p.add_argument("--v", type=int, default=3)

    p = request(sub, "eval", cmd_eval, pretty, help="evaluate a word in a representation")
    p.add_argument("--rep", choices=("defining", "vector", "adjoint"), default="adjoint")
    p.add_argument("--word", type=parse_word_file, required=True)
    p.add_argument("--check-identity", action="store_true")

    p = request(actions("k2m", "Milnor K2 tame symbols"), "tame", cmd_k2m, pretty)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--symbol", type=parse_symbol, help="a,b (with --prime)")
    source.add_argument("--batch", help="JSON list of {symbol, prime}")
    p.add_argument("--prime", type=parse_odd_prime)

    cx = actions("simplicial", "simplicial ring checks")
    p = request(cx, "check", cmd_simplicial_check, pretty)
    p.add_argument("--nmax", type=positive_int, default=3)
    p.add_argument("--ring", type=parse_ring, default="int")
    p = request(cx, "lift", cmd_simplicial_lift, pretty)
    p.add_argument("--word", type=parse_generator_file, required=True,
                   help="level-1 generator JSON")

    patch = actions("patch", "patching demo and verification")
    p = request(patch, "verify", cmd_patch_verify, datum, seed, pretty)
    p.add_argument("--samples", type=positive_int, default=25)
    p = request(patch, "demo", cmd_patch_demo, datum, pretty)
    p.add_argument("--word", type=parse_word_file, required=True,
                   help="target word JSON over the localized ring")

    p = request(actions("milnor-square", "pullback round-trip checks"), "verify",
                cmd_milnor_square, seed, pretty)
    p.add_argument("--samples", type=positive_int, default=100)

    p = request(sub, "selftest", cmd_selftest, seed,
                help="run every module's invariant sweep")
    p.add_argument("--quick", action="store_true")
    return parser


def main(argv=None) -> int:
    try:  # usage errors are SystemExit(2), raised by the request's parser, and pass through
        args, extra = build_parser().parse_known_args(argv)
        error = args.parser.error
        if extra:
            error(f"unrecognized arguments: {' '.join(extra)}")
        if "rank" in args:
            if args.rank not in SUPPORTED_RANKS[args.type]:
                error(f"unsupported root system {args.type}{args.rank}")
            if "root_index" in args and not 0 <= args.root_index < args.rank:
                error(f"--root-index {args.root_index} is not in 0..{args.rank - 1}")
        if "batch" in args:
            if (args.batch is None) == (args.prime is None):
                error("k2m tame takes --symbol with --prime, or --batch alone")
            if args.pretty and args.batch is None:
                error("--pretty indents the JSON of --batch; --symbol prints an integer")
        if "phi" in args:
            try:
                args.datum = patching.zariski_datum(args.B, args.a, args.b)
            except ValueError as exc:
                error(f"bad patch datum --B {args.B} --a {args.a} --b {args.b}: {exc}")
        return args.fn(args)
    except Exception:  # a crash must not look like a verdict or a usage error
        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
