"""Command-line front-end: batch computation and verification reports.

Every subcommand is a thin adapter over the library; output is
machine-readable (JSON or TSV) by default, deterministic under a fixed
--seed, and the process exits nonzero whenever a verification fails.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import milnor, patching, reps, simplicial, words
from .rings import (GF, QQ, ZZ, Ideal, bezout_decompose,
                    coarser_localization_hom, decompose_modulo_power,
                    localize, milnor_square_pullback,
                    milnor_square_project_base, milnor_square_project_poly,
                    milnor_square_ring, poly_ring, product_ring, quotient,
                    reciprocal_localization_witness, ring_from_json)
from .roots import build_root_system
from .words import word_from_json, word_to_json

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


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


def _load_word(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return word_from_json(json.load(fh))


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
        rows = []
        for (a, b), n in sorted(system.constants_table.items(),
                                key=lambda kv: (system.index[kv[0][0]], system.index[kv[0][1]])):
            if system.index[a] < system.index[b]:
                s = system.addition_table[(a, b)]
                rows.append((a, b, s, n))
        for a, b, s, n in rows:
            print("\t".join([",".join(map(str, a)), ",".join(map(str, b)),
                             ",".join(map(str, s)), f"{n:+d}"]))
    else:
        for r in system.roots:
            print(",".join(map(str, r)))
    return EXIT_OK


def cmd_word(args) -> int:
    if args.action == "eval":
        w = _load_word(args.word)
        rep = reps.build_representation(w.system, args.rep)
        _emit({"matrix": _matrix_json(reps.evaluate(w, rep))}, args.pretty)
        return EXIT_OK
    if args.action == "reduce":
        w = _load_word(args.word)
        _emit(word_to_json(words.commutator_reduce(w)), args.pretty)
        return EXIT_OK
    if args.action == "symbol":
        system = build_root_system(args.type, args.rank)
        root = system.simple_roots[args.root_index]
        w = words.steinberg_symbol(system, args.ring, root, args.u, args.v)
        _emit(word_to_json(w), args.pretty)
        return EXIT_OK
    raise AssertionError(args.action)


def cmd_eval(args) -> int:
    w = _load_word(args.word)
    rep = reps.build_representation(w.system, args.rep)
    m = reps.evaluate(w, rep)
    if args.check_identity:
        ok = m.is_identity
        _emit({"check": "identity", "ok": ok}, args.pretty)
        return EXIT_OK if ok else EXIT_VERIFICATION
    _emit({"matrix": _matrix_json(m)}, args.pretty)
    return EXIT_OK


def _parse_symbol_entry(s):
    return Fraction(s)


def cmd_k2m(args) -> int:
    if args.batch:
        with open(args.batch, "r", encoding="utf-8") as fh:
            items = json.load(fh)
        out = []
        for item in items:
            a, b = (_parse_symbol_entry(str(x)) for x in item["symbol"])
            img = milnor.tame_symbol(milnor.symbol(a, b), item["prime"])
            out.append({"symbol": [str(a), str(b)], "prime": img.prime,
                        "value": img.value})
        _emit(out, args.pretty)
        return EXIT_OK
    a, b = (_parse_symbol_entry(x) for x in args.symbol.split(","))
    img = milnor.tame_symbol(milnor.symbol(a, b), args.prime)
    print(img.value)
    return EXIT_OK


def cmd_simplicial(args) -> int:
    if args.action == "check":
        report = simplicial.simplicial_identity_report(args.ring, args.nmax)
        bad = [name for name, ok in report if not ok]
        _emit({"check": "simplicial-identities", "samples": len(report),
               "failures": len(bad)}, args.pretty)
        return EXIT_OK if not bad else EXIT_VERIFICATION
    if args.action == "lift":
        with open(args.word, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        system = build_root_system(data["system"]["type"], data["system"]["rank"])
        base = ring_from_json(data["base"])
        lvl1 = simplicial.simplex_ring(base, 1)
        f = lvl1.el(lvl1._payload_from_json(data["f"]))
        g = words.SteinbergWord(system, lvl1, [
            (tuple(e["root"]), lvl1.el(lvl1._payload_from_json(e["arg"])))
            for e in data["g"]])
        generator = simplicial.MooreGenerator(system, base, 1, tuple(data["root"]), f, g)
        lifted = simplicial.moore_lift(generator)
        _emit(word_to_json(lifted.word()), args.pretty)
        return EXIT_OK
    raise AssertionError(args.action)


def cmd_patch(args) -> int:
    datum = patching.zariski_datum(args.B, args.a, args.b)
    system = build_root_system(args.phi[0], int(args.phi[1:]))
    rep = reps.build_representation(system, "adjoint")
    wants_verify = args.action == "verify" or args.relations or (
        args.action is None and args.word is None)
    if wants_verify:
        rng = random.Random(args.seed)
        report = patching.verify_translation_relations(datum, system, rep,
                                                       args.samples, rng)
        _emit(report.to_json(), args.pretty)
        return EXIT_OK if report.ok else EXIT_VERIFICATION
    if args.word is None:
        print("patch demo requires --word", file=sys.stderr)
        return EXIT_USAGE
    w = _load_word(args.word)
    if w.ring != datum.A:
        print(f"word ring {w.ring} does not match the datum", file=sys.stderr)
        return EXIT_USAGE
    try:
        y = patching.glueing_demo(datum, system, rep, w)
    except patching.GlueingError as exc:
        _emit({"check": "glueing-demo", "ok": False, "reason": str(exc)}, args.pretty)
        return EXIT_VERIFICATION
    _emit({"check": "glueing-demo", "ok": True, "descended": word_to_json(y)},
          args.pretty)
    return EXIT_OK


def cmd_milnor_square(args) -> int:
    rng = random.Random(args.seed)
    failures = 0
    Z = ZZ()
    configs = [(Z, Z.from_int(2))]
    f3s = poly_ring(GF(3), ("s",))
    configs.append((f3s, f3s.var("s")))
    for base, mult in configs:
        square = milnor_square_ring(base, mult)
        for _ in range(args.samples):
            x = base.sample(rng, 5)
            f = square.poly.zero
            for _ in range(rng.randint(0, 2)):
                f = f + square.poly.var("t") ** rng.randint(1, 3) \
                    * square.poly.constant(square.loc.sample(rng, 5))
            g = square.poly.constant(square.loc.from_base(x)) + f
            elem = milnor_square_pullback(x, g, square)
            if (milnor_square_project_base(elem) != x
                    or milnor_square_project_poly(elem) != g):
                failures += 1
    _emit({"check": "milnor-square-roundtrip", "samples": 2 * args.samples,
           "failures": failures}, args.pretty)
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# selftest: one quick sweep through every operation
# ---------------------------------------------------------------------------

def _selftest_checks(rng, quick: bool):
    Z, Q5, F5, F7 = ZZ(), QQ(), GF(5), GF(7)
    n_ax = 100 if quick else 1000
    n_small = 10 if quick else 50

    def ring_axioms():
        constructions = [Z, Q5, F5, quotient(Z, 6), localize(Z, 2),
                         poly_ring(F5, ("x", "y")),
                         quotient(poly_ring(Z, ("t",)), poly_ring(Z, ("t",)).var("t") ** 3),
                         milnor_square_ring(Z, 2), product_ring(GF(3), Z)]
        for ring in constructions:
            for _ in range(max(3, n_ax // len(constructions))):
                a, b, c = (ring.sample(rng, 4) for _ in range(3))
                if (a + b) * c != a * c + b * c or a * b != b * a or (a + b) + c != a + (b + c):
                    return False
        return True

    def bezout_ops():
        L2 = localize(Z, 2)
        L6 = localize(Z, 6)
        to6 = coarser_localization_hom(L2, L6)
        h = Z.from_int(3)
        for _ in range(n_small):
            r = Z.from_int(rng.randint(-20, 20))
            s = rng.randint(0, 3)
            x = L2.fraction(r, s)
            pr_, integ = bezout_decompose(x, h, s)
            if to6(pr_ + L2.from_base(integ)) != to6(x):
                return False
            k = rng.randint(0, 3)
            a_part, b_part = decompose_modulo_power(x, k, h, Z)
            if a_part * L2.from_base(h) ** k + L2.from_base(b_part) != x:
                return False
        Pt = poly_ring(Z, ("t",))
        t = Pt.var("t")
        for _ in range(n_small):
            coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
            f = t ** (len(coeffs))
            for i, cval in enumerate(coeffs):
                f = f + Pt.from_int(cval) * t ** i
            g = reciprocal_localization_witness(f)
            n = Pt.degree(f.payload)
            if g.ring.from_base(t) ** n * g != g.ring.from_base(f):
                return False
        square = milnor_square_ring(Z, 2)
        for _ in range(n_small):
            x = Z.sample(rng, 5)
            f = square.poly.var("t") * square.poly.constant(square.loc.sample(rng, 4))
            g = square.poly.constant(square.loc.from_base(x)) + f
            e = milnor_square_pullback(x, g, square)
            if (milnor_square_project_base(e) != x
                    or milnor_square_project_poly(e) != g):
                return False
        return True

    def roots_ok():
        for kind, rank in (("A", 2), ("A", 3), ("D", 4)):
            system = build_root_system(kind, rank)
            for (a, b), n in system.constants_table.items():
                if n not in (1, -1) or system.constants_table[(b, a)] != -n:
                    return False
        A3 = build_root_system("A", 3)
        if A3.root_sum((1, -1, 0, 0), (0, 1, -1, 0)) != (1, 0, -1, 0):
            return False
        for beta in A3.roots:
            g, d = A3.commutator_decomposition(beta)
            if tuple(x + y for x, y in zip(g, d)) != beta:
                return False
        return True

    def words_ok():
        A2 = build_root_system("A", 2)
        adj = reps.build_representation(A2, "adjoint")
        defin = reps.build_representation(A2, "defining")
        a1 = A2.simple_roots[0]
        if not words.gen(A2, Z, a1, 0).is_empty:
            return False
        if words.gen(A2, Z, a1, 2) * words.gen(A2, Z, a1, 3) != words.gen(A2, Z, a1, 5):
            return False
        s = words.steinberg_symbol(A2, F5, a1, 2, 3)
        if not reps.k2_membership(s, defin):
            return False
        if not reps.k2_membership(words.weyl_element(A2, F5, a1, 2) *
                                  words.weyl_element(A2, F5, a1, 2).inverse(), defin):
            return False
        for _ in range(n_small):
            letters = [(A2.roots[rng.randrange(6)], F7.sample(rng))
                       for _ in range(rng.randint(0, 4))]
            w = words.SteinbergWord(A2, F7, letters)
            if reps.evaluate(words.commutator_reduce(w), adj) != reps.evaluate(w, adj):
                return False
        # letterwise base change along an evaluation homomorphism
        from .rings import substitution_hom
        P1 = poly_ring(Z, ("t",))
        ev0 = substitution_hom(P1, Z, {"t": Z.zero})
        wt = words.gen(A2, P1, a1, P1.var("t") * P1.from_int(3))
        if not words.substitute(wt, ev0).is_empty:
            return False
        y = words.opposite_commutator(A2, Z, a1, 2, 3)
        if len(y) != 4:
            return False
        return words.check_commutator_congruence(A2, a1, 2, 3, 5, Ideal(Z, [2]), Ideal(Z, [3]))

    def reps_ok():
        A2 = build_root_system("A", 2)
        for kind in ("adjoint", "defining"):
            rep = reps.build_representation(A2, kind)
            if not reps.verify_relations(rep, quotient(Z, 6), 5 if quick else 25, rng).ok:
                return False
        D4 = build_root_system("D", 4)
        return reps.verify_relations(reps.build_representation(D4, "vector"), F7,
                                     5 if quick else 25, rng).ok

    def milnor_ok():
        if milnor.tame_symbol(milnor.symbol(2, 3), 3).value != 2:
            return False
        for _ in range(n_small):
            u = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            if u in (0, 1):
                continue
            s = milnor.symbol(u, 1 - u)
            for p in milnor.relevant_odd_primes(s):
                if milnor.tame_symbol(s, p).value != 1:
                    return False
        # sound simplification preserves tame images
        s = milnor.symbol(4, 5) + milnor.symbol(5, 4)
        n = milnor.symbol_normalize(s)
        for p in milnor.relevant_odd_primes(s):
            if milnor.tame_symbol(s, p).value != milnor.tame_symbol(n, p).value:
                return False
        # bridge from constructor provenance
        A2 = build_root_system("A", 2)
        w = words.steinberg_symbol(A2, F5, A2.simple_roots[0], 2, 3)
        if dict(milnor.steinberg_to_milnor(w).terms) != {(2, 3): 1}:
            return False
        return True

    def simplicial_ok():
        if any(not ok for _, ok in simplicial.simplicial_identity_report(Z, 2)):
            return False
        A2 = build_root_system("A", 2)
        lvl1 = simplicial.simplex_ring(Z, 1)
        m = simplicial.MooreGenerator(A2, Z, 1, A2.simple_roots[0], lvl1.one,
                                      words.identity_word(A2, lvl1))
        lift = simplicial.moore_lift(m)
        if not (lift.in_moore_kernel() and lift.face(0) == m.word()):
            return False
        w = simplicial.pi0_connectivity_witness(A2, Z, A2.simple_roots[0], 5)
        d1 = simplicial.face_hom(Z, 1, 1)
        d0 = simplicial.face_hom(Z, 1, 0)
        if not words.substitute(w, d1).is_empty:
            return False
        if words.substitute(w, d0) != words.gen(A2, Z, A2.simple_roots[0], 5):
            return False
        from .simplicial import crt_from_pair, crt_to_pair, interval_square_ring
        sq = interval_square_ring(Z)
        prod = product_ring(Z, Z)
        for _ in range(n_small):
            x = sq.project(sq.base.sample(rng, 5))
            if crt_from_pair(crt_to_pair(x, prod), sq) != x:
                return False
        return True

    def patching_ok():
        A3 = build_root_system("A", 3)
        adj = reps.build_representation(A3, "adjoint")
        datum = patching.zariski_datum(Z, 2, 3)
        g = words.gen(A3, datum.B_h, A3.simple_roots[0],
                      datum.B_h.fraction(Z.from_int(2), 1))
        if not patching.verify_conjugation(datum, A3, adj, g,
                                           [(r, 2) for r in A3.simple_roots]):
            return False
        report = patching.verify_translation_relations(datum, A3, adj,
                                                       3 if quick else 10, rng)
        if not report.ok:
            return False
        # star action on representatives preserves the orbit invariant
        pair = patching.PatchPair(words.identity_word(A3, datum.B_h),
                                  words.gen(A3, datum.A, A3.simple_roots[0],
                                            datum.A.fraction(Z.from_int(5), 1)))
        acting = words.gen(A3, datum.B, A3.simple_roots[1], Z.from_int(2))
        moved = patching.star_reduce(datum, pair, acting)
        if patching.mu_image(datum, adj, moved) != patching.mu_image(datum, adj, pair):
            return False
        A = datum.A
        x = words.commutator(words.gen(A3, A, A3.simple_roots[0], A.fraction(Z.from_int(5), 1)),
                             words.gen(A3, A, A3.simple_roots[2], A.fraction(Z.from_int(7), 2)))
        try:
            patching.glueing_demo(datum, A3, adj, x)
        except patching.GlueingError:
            return False
        return True

    return [("ring-axioms", ring_axioms), ("bezout-and-witnesses", bezout_ops),
            ("root-systems", roots_ok), ("steinberg-words", words_ok),
            ("representations", reps_ok), ("milnor-symbols", milnor_ok),
            ("simplicial", simplicial_ok), ("patching", patching_ok)]


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for name, check in _selftest_checks(rng, args.quick):
        try:
            ok = check()
        except Exception as exc:  # report, do not crash the sweep
            ok = False
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        print(("ok   " if ok else "FAIL ") + name)
        if not ok:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="steinberg-lab")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent JSON output")
    common.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("roots", help="root system tables")
    p.add_argument("--type", choices=("A", "D"), required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--constants", action="store_true",
                   help="emit TSV (alpha, beta, alpha+beta, N)")
    p.set_defaults(fn=cmd_roots)

    p = add_parser("word", help="word operations")
    p.add_argument("action", choices=("eval", "reduce", "symbol"))
    p.add_argument("--word", help="word JSON file")
    p.add_argument("--rep", default="adjoint")
    p.add_argument("--type", choices=("A", "D"), default="A")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--ring", type=parse_ring, default="Fp:5")
    p.add_argument("--root-index", type=int, default=0)
    p.add_argument("--u", type=int, default=2)
    p.add_argument("--v", type=int, default=3)
    p.set_defaults(fn=cmd_word)

    p = add_parser("eval", help="evaluate a word in a representation")
    p.add_argument("--rep", default="adjoint")
    p.add_argument("--word", required=True)
    p.add_argument("--check-identity", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = add_parser("k2m", help="Milnor K2 tame symbols")
    p.add_argument("action", choices=("tame",))
    p.add_argument("--symbol", help="a,b")
    p.add_argument("--prime", type=int)
    p.add_argument("--batch", help="JSON list of {symbol, prime}")
    p.set_defaults(fn=cmd_k2m)

    p = add_parser("simplicial", help="simplicial ring checks")
    p.add_argument("action", choices=("check", "lift"))
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--ring", type=parse_ring, default="int")
    p.add_argument("--word", help="level-1 generator JSON for lift")
    p.set_defaults(fn=cmd_simplicial)

    p = add_parser("patch", help="patching demo and verification")
    p.add_argument("action", choices=("demo", "verify"), nargs="?")
    p.add_argument("--B", type=parse_ring, default="int")
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--b", type=int, default=3)
    p.add_argument("--phi", default="A3")
    p.add_argument("--word", help="target word JSON over the localized ring")
    p.add_argument("--relations", action="store_true")
    p.add_argument("--samples", type=int, default=25)
    p.set_defaults(fn=cmd_patch)

    p = add_parser("milnor-square", help="pullback round-trip checks")
    p.add_argument("action", choices=("verify",), nargs="?", default="verify")
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(fn=cmd_milnor_square)

    p = add_parser("selftest", help="run every module's invariant sweep")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
