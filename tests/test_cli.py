"""End-to-end CLI checks: output shapes, exit codes, determinism."""

import json
import shlex
import shutil
from pathlib import Path

import pytest

from steinberg_lab import cli
from steinberg_lab.cli import main, parse_ring
from steinberg_lab.rings import _MR_LIMIT, GF, QQ, ZZ, localize, quotient
from steinberg_lab.roots import build_root_system
from steinberg_lab.words import commutator, gen, word_to_json

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_ring():
    assert parse_ring("int") == ZZ()
    assert parse_ring("rat") == QQ()
    assert parse_ring("Fp:7") == GF(7)
    assert parse_ring("Zmod:6") == quotient(ZZ(), 6)
    with pytest.raises(Exception):
        parse_ring("nope")


def test_roots_constants_tsv(capsys):
    code, out = run(capsys, "roots", "--type", "A", "--rank", "2", "--constants")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 6
    assert any(l.startswith("1,-1,0\t0,1,-1\t1,0,-1\t+1") for l in lines)


def test_roots_list_in_enumeration_order(capsys):
    code, out = run(capsys, "roots", "--type", "A", "--rank", "2")
    assert code == 0
    assert out.splitlines() == [",".join(map(str, r)) for r in build_root_system("A", 2).roots]
    assert len(out.splitlines()) == 6


def test_word_symbol_eval_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "word", "symbol", "--type", "A", "--rank", "2",
                    "--ring", "Fp:5", "--u", "2", "--v", "3")
    assert code == 0
    path = tmp_path / "sym.json"
    path.write_text(out)
    code, out = run(capsys, "eval", "--rep", "defining", "--word", str(path),
                    "--check-identity")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_eval_non_identity_exit_code(tmp_path, capsys):
    A2 = build_root_system("A", 2)
    F5 = GF(5)
    w = gen(A2, F5, A2.simple_roots[0], 1)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(word_to_json(w)))
    code, out = run(capsys, "eval", "--word", str(path), "--check-identity")
    assert code == 1
    code, out = run(capsys, "eval", "--word", str(path))
    assert code == 0
    assert "matrix" in json.loads(out)


def test_word_reduce(tmp_path, capsys):
    A2 = build_root_system("A", 2)
    Z = ZZ()
    w = gen(A2, Z, A2.simple_roots[1], 3) * gen(A2, Z, A2.simple_roots[0], 2)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(word_to_json(w)))
    code, out = run(capsys, "word", "reduce", "--word", str(path))
    assert code == 0
    data = json.loads(out)
    assert len(data["letters"]) == 3


def test_k2m_tame(capsys):
    code, out = run(capsys, "k2m", "tame", "--symbol", "2,3", "--prime", "3")
    assert code == 0
    assert out.strip() == "2"


def test_k2m_tame_of_an_entry_past_the_primality_bound(capsys):
    """The entry 2^89 - 1 is past psi_13, where primality is not decided,
    yet its tame symbol at 5 needs only v_5."""
    code, out = run(capsys, "k2m", "tame", "--symbol", "618970019642690137449562111,3",
                    "--prime", "5")
    assert code == 0
    assert out.strip() == "1"


def test_a_prime_past_the_primality_bound_is_refused_with_the_reason(capsys):
    """2^89 - 1 is a prime, but one past psi_13, where primality is not
    decided: the usage error says so rather than that it is not prime."""
    code, err = _exit_code(["k2m", "tame", "--symbol", "2,3",
                            "--prime", "618970019642690137449562111"], capsys)
    assert code == 2
    assert f"primality is decided only below {_MR_LIMIT}" in err
    assert "not an odd prime" not in err


def test_k2m_batch(tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([{"symbol": ["2", "3"], "prime": 3},
                                {"symbol": ["1/2", "5"], "prime": 5}]))
    code, out = run(capsys, "k2m", "tame", "--batch", str(path))
    assert code == 0
    data = json.loads(out)
    assert data[0]["value"] == 2
    code, out = run(capsys, "k2m", "tame", "--batch", str(path), "--pretty")
    assert code == 0 and json.loads(out) == data and "\n  " in out


def test_simplicial_check(capsys):
    code, out = run(capsys, "simplicial", "check", "--nmax", "3", "--ring", "Fp:7")
    assert code == 0
    assert json.loads(out)["failures"] == 0


@pytest.mark.parametrize("argv, owner, name, fault, verdict", [
    (["patch", "verify", "--samples", "3"], cli.patching, "verify_translation_relations",
     lambda f, *a: cli.patching.PatchReport(f(*a).check, f(*a).samples, ["R1"]),
     {"check": "translation-relations", "samples": 3, "failures": 1}),
    (["simplicial", "check", "--nmax", "2"], cli.simplicial, "simplicial_identity_report",
     lambda f, *a: f(*a)[:2] + [("planted", False)],
     {"check": "simplicial-identities", "samples": 3, "failures": 1}),
    (["milnor-square", "verify", "--samples", "4"], cli.checks, "milnor_square_roundtrip",
     lambda f, *a: f(*a) + [{"args": []}, {"args": []}],
     {"check": "milnor-square-roundtrip", "samples": 8, "failures": 2}),
], ids=["patch", "simplicial", "milnor-square"])
def test_failed_verification_exits_1(argv, owner, name, fault, verdict, capsys, monkeypatch):
    """Each verification prints {check, samples, failures} and exits 1
    when a failure is planted under it."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: fault(original, *a))
    code, out = run(capsys, *argv)
    assert code == 1 and json.loads(out) == verdict


def test_simplicial_lift(tmp_path, capsys):
    lvl1_descr = {"kind": "integers"}
    payload_f = [[[0], 1]]            # constant polynomial 1
    data = {"system": {"type": "A", "rank": 2}, "base": lvl1_descr,
            "root": [1, -1, 0], "f": payload_f, "g": []}
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "simplicial", "lift", "--word", str(path))
    assert code == 0
    lifted = json.loads(out)
    assert lifted["letters"], "lift should be a nonempty word"


def test_generator_conjugator_reads_letter_signs(tmp_path):
    """The conjugator of a generator file is read like the letters of a
    word file: "sign": -1 negates the argument."""
    letter = {"root": [1, -1, 0], "arg": [[[1], 2]]}
    data = {"system": {"type": "A", "rank": 2}, "base": {"kind": "integers"},
            "root": [0, 1, -1], "f": [[[0], 1]], "g": [{**letter, "sign": -1}]}
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(data))
    m = cli.parse_generator_file(str(path))
    t1 = m.ring.var("t1")
    assert m.conjugator.letters == (((1, -1, 0), -2 * t1),)


def _demo_word():
    """A commutator over ZZ[1/2] that the glueing demo descends."""
    Z = ZZ()
    A3 = build_root_system("A", 3)
    A = localize(Z, 2)
    c = A.fraction(Z.from_int(5), 2)
    d = A.fraction(Z.from_int(7), 1)
    return (gen(A3, A, A3.simple_roots[0], c) * gen(A3, A, A3.simple_roots[2], d)
            * gen(A3, A, A3.simple_roots[0], -c) * gen(A3, A, A3.simple_roots[2], -d))


def test_patch_verify_and_demo(tmp_path, capsys):
    code, out = run(capsys, "patch", "verify", "--samples", "4", "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0 and report["check"] == "translation-relations"

    path = tmp_path / "x.json"
    path.write_text(json.dumps(word_to_json(_demo_word())))
    code, out = run(capsys, "patch", "demo", "--word", str(path))
    assert code == 0
    result = json.loads(out)
    assert result["ok"] is True and result["descended"]["letters"]


def test_patch_demo_outside_the_kernel_exits_1(tmp_path, capsys):
    A3, A = build_root_system("A", 3), localize(ZZ(), 2)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(word_to_json(gen(A3, A, A3.simple_roots[0], 1))))
    code, out = run(capsys, "patch", "demo", "--word", str(path))
    assert code == 1
    result = json.loads(out)
    assert result["check"] == "glueing-demo" and result["ok"] is False and result["reason"]


def test_milnor_square_verify(capsys):
    code, out = run(capsys, "milnor-square", "verify", "--samples", "10")
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_selftest_quick(capsys):
    code, out = run(capsys, "selftest", "--quick", "--seed", "2")
    assert code == 0
    assert out.count("ok   ") == 8 and "FAIL" not in out


def test_selftest_crash_exits_3_with_traceback(monkeypatch, capsys):
    """A check that raises is a crash, not a failed verification."""
    def crash(rng, n):
        raise RuntimeError("planted crash")

    (name, calls), *rest = cli.SELFTEST
    monkeypatch.setattr(cli, "SELFTEST", [(name, [(crash, 1, 1), *calls[1:]]), *rest])
    assert main(["selftest", "--quick"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: planted crash" in err


def test_selftest_deterministic_output(capsys):
    _, out1 = run(capsys, "selftest", "--quick", "--seed", "3")
    _, out2 = run(capsys, "selftest", "--quick", "--seed", "3")
    assert out1 == out2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["roots"])          # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["word", "symbol", "--ring", "Fp:4"],
    ["word", "symbol", "--ring", "bogus"],
    ["word", "symbol", "--ring", "Zmod:0"],
    ["simplicial", "check", "--ring", "Fp:4"],
    ["patch", "verify", "--B", "bogus"],
])
def test_bad_ring_spec_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "ring spec" in capsys.readouterr().err


def _word_file(ring, arg):
    """A one-letter A2 word over the given ring JSON."""
    return {"system": {"type": "A", "rank": 2}, "ring": ring,
            "letters": [{"root": [1, -1, 0], "arg": arg, "sign": 1}]}


def _signed(word, sign):
    """The word JSON with the sign of its first letter replaced."""
    return {**word, "letters": [{**word["letters"][0], "sign": sign}, *word["letters"][1:]]}


ZZ_JSON = {"kind": "integers"}
ZZT_JSON = {"kind": "polynomial", "base": ZZ_JSON, "vars": ["t"]}

# input files written into the working directory of the usage-error tests
INPUT_FILES = {
    "a2-word.json": _word_file(ZZ_JSON, 1),
    "a2-demo-word.json": _word_file(
        {"kind": "localization", "base": ZZ_JSON, "multiplier": 2}, {"num": 1, "exp": 1}),
    "a3-word.json": {**_word_file(ZZ_JSON, 1), "system": {"type": "A", "rank": 3},
                     "letters": [{"root": [1, -1, 0, 0], "arg": 1, "sign": 1}]},
    "a3-word-zz2-3.json": {
        "system": {"type": "A", "rank": 3},
        "ring": {"kind": "localization", "multiplier": {"num": 3, "exp": 0},
                 "base": {"kind": "localization", "base": ZZ_JSON, "multiplier": 2}},
        "letters": [{"root": [1, -1, 0, 0], "arg": {"num": {"num": 1, "exp": 0}, "exp": 1}}]},
    "p-float.json": _word_file({"kind": "prime_field", "p": 11.0}, 3),
    "generator.json": {"system": {"type": "A", "rank": 2}, "base": ZZ_JSON,
                       "root": [1, -1, 0], "f": [[[0], 1]], "g": []},
    "float-arg.json": _word_file(ZZ_JSON, 2.5),
    "bool-arg.json": _word_file(ZZ_JSON, True),
    "zero-denominator.json": _word_file({"kind": "rationals"}, {"n": 1, "d": 0}),
    "negative-exp.json": _word_file(
        {"kind": "localization", "base": ZZ_JSON, "multiplier": 2}, {"num": 1, "exp": -1}),
    "short-exponents.json": _word_file(
        {"kind": "polynomial", "base": ZZ_JSON, "vars": ["s", "t"]}, [[[1], 2]]),
    # (1, 1, -2) is a weight of A2, not a root
    "not-a-root.json": {**_word_file(ZZ_JSON, 1),
                        "letters": [{"root": [1, 1, -2], "arg": 1, "sign": 1}]},
    # True == 1 and 1.0 == 1, but a root's coordinates are integers
    **{f"{name}-root.json": {**_word_file(ZZ_JSON, 1),
                             "letters": [{"root": root, "arg": 3, "sign": 1}]}
       for name, root in (("bool", [True, -1, 0]), ("float", [1.0, 0, -1]))},
    "generator-bad-conjugator.json": {
        "system": {"type": "A", "rank": 2}, "base": ZZ_JSON, "root": [1, -1, 0],
        "f": [[[0], 1]], "g": [{"root": [5, 5, 5], "arg": [[[0], 1]], "sign": 1}]},
    "generator-bad-root.json": {"system": {"type": "A", "rank": 2}, "base": ZZ_JSON,
                                "root": [1, 1, -2], "f": [[[0], 1]], "g": []},
    # a letter's sign is 1 or -1, or missing; nothing else stands for either
    **{f"sign-{i}.json": _signed(_word_file(ZZ_JSON, 1), sign)
       for i, sign in enumerate((2, "minus", 0, None, True, -1.0))},
    "generator-bad-sign.json": {
        "system": {"type": "A", "rank": 2}, "base": ZZ_JSON, "root": [1, -1, 0],
        "f": [[[0], 1]], "g": [{"root": [1, -1, 0], "arg": [[[0], 1]], "sign": "minus"}]},
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A working directory holding INPUT_FILES, a glueing-demo word over
    ZZ[1/2] (also with a bad sign), a one-job k2m batch and four
    malformed batches."""
    monkeypatch.chdir(tmp_path)
    files = {**INPUT_FILES, "demo-word.json": word_to_json(_demo_word()),
             "demo-sign.json": _signed(word_to_json(_demo_word()), True),
             "batch.json": [{"symbol": ["2", "3"], "prime": 3}],
             "batch-one-entry.json": [{"symbol": [2], "prime": 3}],
             "batch-prime-9.json": [{"symbol": [2, 3], "prime": 9}],
             "batch-not-a-list.json": {"symbol": [2, 3], "prime": 3},
             "batch-empty-object.json": {}}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    return tmp_path


def _exit_code(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def _assert_request_usage(argv, err):
    """A usage error is reported by the parser of the request that argv
    names, or of the deepest command it reaches: its usage line, then
    its message."""
    parser, prog = cli.build_parser(), "steinberg-lab"
    for token in argv:
        subs = [a for a in parser._actions if isinstance(a.choices, dict)]
        if not subs or token not in subs[0].choices:
            break
        parser, prog = subs[0].choices[token], f"{prog} {token}"
    assert err.startswith(f"usage: {prog} [-h]") and f"\n{prog}: error: " in err, err


@pytest.mark.parametrize("argv", [
    ["word", "symbol", "--ring", "int"],          # 2 and 3 are not units of ZZ
    ["k2m", "tame", "--symbol", "2,3", "--prime", "9"],
    ["k2m", "tame", "--symbol", "2,x", "--prime", "3"],
    ["k2m", "tame", "--symbol", "0,3", "--prime", "3"],
    ["k2m", "tame"],
    ["eval", "--word", "no-such-dir/word.json"],
    ["word", "reduce"],
    ["roots", "--type", "A", "--rank", "1"],
    ["roots", "--type", "D", "--rank", "3"],
    ["patch", "verify", "--phi", "A9"],
    ["patch", "verify", "--phi", "X3"],
    ["patch", "verify", "--phi", "A2"],
    ["word", "symbol", "--root-index", "7"],
    ["word", "symbol", "--root-index", "-1"],
    ["simplicial", "lift", "--word", "no-such-dir/generator.json"],
    ["simplicial", "lift"],
    ["eval", "--word", "float-arg.json"],
    ["eval", "--word", "bool-arg.json"],
    ["eval", "--word", "zero-denominator.json"],
    ["eval", "--word", "negative-exp.json"],
    ["eval", "--word", "short-exponents.json"],
    ["eval", "--word", "not-a-root.json", "--rep", "adjoint"],
    ["eval", "--word", "bool-root.json"],
    ["eval", "--word", "float-root.json"],
    ["word", "eval"],                             # evaluation is the `eval` command
    ["patch", "--relations"],                     # as is `patch verify`
    ["patch"],                                    # the action is required
    ["patch", "--word", "demo-word.json"],        # spelled `patch demo --word`
    ["milnor-square"],                            # spelled `milnor-square verify`
    ["k2m", "tame", "--symbol", "2,3"],
    ["k2m", "tame", "--prime", "3"],
    ["k2m", "tame", "--symbol", "2,3", "--prime", "3", "--batch", "batch.json"],
    ["k2m", "tame", "--batch", "batch.json", "--prime", "3"],
    ["eval", "--word", "a2-word.json", "--rep", "vector"],    # vector is type D
    ["eval", "--word", "a2-word.json", "--rep", "bogus"],
    ["patch", "verify", "--a", "0"],
    ["patch", "verify", "--b", "0"],
    ["patch", "verify", "--B", "Zmod:6"],         # not a domain
    ["patch", "verify", "--B", "intpoly:t"],      # coprimality undecidable
    ["patch", "verify", "--a", "2", "--b", "4"],  # not coprime
    ["patch", "verify", "--samples", "0"],
    ["milnor-square", "verify", "--samples", "0"],
    ["milnor-square", "verify", "--samples", "-1"],
    ["simplicial", "check", "--nmax", "-1"],
    ["simplicial", "check", "--nmax", "0"],
    ["word", "symbol", "--rank", "9"],
    ["patch", "verify", "--B", "Fp:7", "--a", "7"],             # m = 0 in F7
    ["k2m", "tame", "--symbol", "2,3", "--prime", "3", "--pretty"],  # prints an integer
    ["k2m", "tame", "--batch", "no-such-dir/batch.json"],
    ["patch", "demo", "--word", "a2-word.json"],                 # not over ZZ[1/2]
    ["simplicial", "lift", "--word", "generator-bad-conjugator.json"],
    ["simplicial", "lift", "--word", "generator-bad-root.json"],
    *(["eval", "--word", f"sign-{i}.json"] for i in range(6)),
    ["word", "reduce", "--word", "sign-1.json"],
    ["patch", "demo", "--word", "demo-sign.json"],
    ["simplicial", "lift", "--word", "generator-bad-sign.json"],
    ["k2m", "tame", "--batch", "batch-one-entry.json"],
    ["k2m", "tame", "--batch", "batch-prime-9.json"],
    ["k2m", "tame", "--batch", "batch-not-a-list.json"],
    ["k2m", "tame", "--batch", "batch-empty-object.json"],
    ["word", "symbol", "--ring", "Zmod:1"],        # the zero ring
    ["simplicial", "check", "--ring", "intpoly:", "--nmax", "1"],     # no variable name
    ["simplicial", "check", "--ring", "intpoly:t,s", "--nmax", "1"],  # reads as ZZ[t,s]
    ["patch", "demo", "--word", "a2-demo-word.json"],            # A2 word over ZZ[1/2]
    ["patch", "demo", "--word", "demo-word.json", "--phi", "D4"],  # Phi is the word's
    ["k2m", "tame", "--symbol", "2,3", "--prime", "x"],
    ["eval", "--word", "p-float.json"],                          # F11.0 is not F11
    ["patch", "demo", "--word", "a3-word.json"],                 # ZZ is not some B_m
    ["patch", "demo", "--word", "a3-word-zz2-3.json", "--b", "5"],  # no Bezout rule in ZZ[1/2]
    *(["k2m", "tame", "--symbol", "2,3", "--prime", p] for p in ("2", "-3", str(_MR_LIMIT))),
])
def test_input_errors_are_usage_errors(argv, capsys, workdir):
    code, err = _exit_code(argv, capsys)
    assert code == 2
    assert "error" in err and "Traceback" not in err
    _assert_request_usage(argv, err)


# every (request, flag) pair that was parsed and then ignored, as a usage
# error: each argv is a valid request followed by the misplaced flag
MISPLACED_FLAGS = [
    ["roots", "--type", "A", "--rank", "2", "--pretty"],
    ["roots", "--type", "A", "--rank", "2", "--seed", "1"],
    *(["word", "reduce", "--word", "a2-word.json", *flag] for flag in (
        ["--seed", "1"], ["--type", "A"], ["--rank", "2"], ["--ring", "int"],
        ["--root-index", "0"], ["--u", "2"], ["--v", "3"])),
    ["word", "symbol", "--seed", "1"],
    ["word", "symbol", "--word", "a2-word.json"],
    ["eval", "--word", "a2-word.json", "--seed", "1"],
    ["k2m", "tame", "--symbol", "2,3", "--prime", "3", "--seed", "1"],
    ["simplicial", "check", "--seed", "1"],
    ["simplicial", "check", "--word", "generator.json"],
    ["simplicial", "lift", "--word", "generator.json", "--seed", "1"],
    ["simplicial", "lift", "--word", "generator.json", "--nmax", "3"],
    ["simplicial", "lift", "--word", "generator.json", "--ring", "int"],
    ["patch", "verify", "--word", "demo-word.json"],
    ["patch", "demo", "--word", "demo-word.json", "--seed", "1"],
    ["patch", "demo", "--word", "demo-word.json", "--samples", "4"],
    ["selftest", "--quick", "--pretty"],
]


@pytest.mark.parametrize("argv", MISPLACED_FLAGS, ids=" ".join)
def test_misplaced_flag_is_usage_error(argv, capsys, workdir):
    code, err = _exit_code(argv, capsys)
    assert code == 2
    assert "unrecognized arguments" in err and "Traceback" not in err
    _assert_request_usage(argv, err)


def test_each_request_takes_only_its_flags():
    def requests(parser, name):
        subs = [a for a in parser._actions if isinstance(a.choices, dict)]
        if subs:
            for sub, p in subs[0].choices.items():
                yield from requests(p, f"{name} {sub}".strip())
        else:
            yield name, {a.option_strings[-1] for a in parser._actions
                         if a.option_strings and a.dest != "help"}

    surface = dict(requests(cli.build_parser(), ""))
    datum = {"--B", "--a", "--b", "--phi"}
    assert surface == {
        "roots": {"--type", "--rank", "--constants"},
        "word reduce": {"--word", "--pretty"},
        "word symbol": {"--type", "--rank", "--ring", "--root-index", "--u", "--v",
                        "--pretty"},
        "eval": {"--rep", "--word", "--check-identity", "--pretty"},
        "k2m tame": {"--symbol", "--prime", "--batch", "--pretty"},
        "simplicial check": {"--nmax", "--ring", "--pretty"},
        "simplicial lift": {"--word", "--pretty"},
        "patch verify": datum | {"--samples", "--seed", "--pretty"},
        "patch demo": {"--b", "--word", "--pretty"},
        "milnor-square verify": {"--samples", "--seed", "--pretty"},
        "selftest": {"--quick", "--seed"},
    }
    assert sum(map(len, surface.values())) == 40


def test_crash_exits_3_with_traceback(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("planted crash")

    monkeypatch.setattr(cli, "cmd_roots", crash)
    assert main(["roots", "--type", "A", "--rank", "2"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: planted crash" in err


def test_crash_while_parsing_exits_3(monkeypatch, capsys):
    def crash(spec):
        raise RuntimeError("planted crash")

    monkeypatch.setattr(cli, "parse_phi", crash)
    assert main(["patch", "verify", "--phi", "A3"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: planted crash" in err


def test_eval_sums_repeated_monomials(tmp_path, capsys):
    outs = []
    for arg in ([[[1], 2], [[1], 3]], [[[1], 5]]):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(_word_file(ZZT_JSON, arg)))
        code, out = run(capsys, "eval", "--word", str(path))
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0] == outs[1]


def _readme_cli_lines():
    """The `steinberg-lab` lines of the README's CLI example block, in order."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("```sh\nsteinberg-lab"):]
    block = block[:block.index("```", 3)]
    return [line.split("  #")[0].strip() for line in block.splitlines()
            if line.startswith("steinberg-lab ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every README CLI example exits 0, in order, in one directory: w.json
    is a copy of the symbol word sym.json, and x.json the commutator
    [x_a1(5/2), x_a3(7/4)] over ZZ[1/2] that `checks.patching_examples`
    glues."""
    monkeypatch.chdir(tmp_path)
    Z, A3 = ZZ(), build_root_system("A", 3)
    A = localize(Z, 2)
    a1, _, a3 = A3.simple_roots
    x = commutator(gen(A3, A, a1, A.fraction(Z.from_int(5), 1)),
                   gen(A3, A, a3, A.fraction(Z.from_int(7), 2)))
    (tmp_path / "x.json").write_text(json.dumps(word_to_json(x)))
    lines = _readme_cli_lines()
    assert len(lines) == 10
    for line in lines:
        argv, _, target = line.partition(">")
        code, out = run(capsys, *shlex.split(argv)[1:])
        assert code == 0, line
        if target:
            (tmp_path / target.strip()).write_text(out)
        if target.strip() == "sym.json":
            shutil.copy(tmp_path / "sym.json", tmp_path / "w.json")
        if line.startswith("steinberg-lab k2m tame"):
            assert out.strip() == "2"
