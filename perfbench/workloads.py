"""Seeded workloads: what each one builds before timing, and its tasks.

A workload is a set-up function, which builds every root system,
representation, ring and patch datum its checks use, and a round
generator.  A round is a fixed list of task kinds in fixed numbers; the
seed only draws the inputs of each task and the order of the round.  A
run is a whole number of rounds, so every run of a workload does the same
mix of work and its figures can be compared across seeds.

Task ``i`` depends only on (workload, seed, i), so a failed task can be
replayed alone with ``run.py --replay i``.
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace

from steinberg_lab import patching, reps, rings, roots, simplicial


@dataclasses.dataclass
class Task:
    index: int
    check: str            # name in checks.CHECKS
    params: dict
    expect: bool          # known answer: True = holds, False = refuted
    layer: str            # the layer whose check this is
    control: bool = False
    known_defect: str = ""


def _rng(workload, seed, rnd):
    return random.Random(f"{workload}/{seed}/{rnd}")


def _flipped(rep):
    """Copy of ``rep`` with e_alpha negated for the first simple root
    alpha, which flips the sign of every structure constant N(alpha, .):
    its generator becomes X_alpha(-a), so R3 on (alpha, beta) fails
    whenever 2 N a b != 0."""
    root = rep.system.simple_roots[0]
    m1 = dict(rep.m1)
    m1[root] = tuple((i, j, -c) for i, j, c in rep.m1[root])
    return dataclasses.replace(rep, m1=m1)


# ---------------------------------------------------------------------------
# relation-sweep
# ---------------------------------------------------------------------------

SWEEP_SMALL = [("A", 2, "defining"), ("A", 3, "defining"), ("A", 4, "defining"),
               ("A", 5, "defining"), ("A", 2, "adjoint"), ("A", 3, "adjoint"),
               ("D", 4, "vector"), ("D", 5, "vector")]
SWEEP_BIG = [("D", 6, "vector"), ("D", 4, "adjoint"), ("A", 5, "adjoint"),
             ("D", 5, "adjoint")]
SWEEP_TINY = [("A", 2, "defining"), ("A", 3, "defining"), ("A", 3, "adjoint"),
              ("D", 4, "vector")]
SWEEP_RINGS = ("Z6", "F7", "Zt3", "ZZ", "Fbig")
SWEEP_SAMPLES = {"Z6": 10, "F7": 10, "Zt3": 10, "ZZ": 2, "Fbig": 10}
SWEEP_CONTROLS = [("A2-defining~flip", "F7"), ("D4-vector~flip", "F7"),
                  ("A3-adjoint~flip", "F7"), ("A3-defining~flip", "ZZ")]
FBIG = 1000000007
FBIG_DEFECT = ("reps float64 sweep is inexact over GF(1000000007): "
               "products exceed 2^53 (ROADMAP direction 2, float exactness)")


def _key(kind, rank, rep):
    return f"{kind}{rank}-{rep}"


def sweep_rings():
    Z = rings.ZZ()
    Pt = rings.poly_ring(Z, ("t",))
    return {"Z6": rings.quotient(Z, 6), "F7": rings.GF(7),
            "Zt3": rings.quotient(Pt, Pt.var("t") ** 3), "ZZ": Z, "Fbig": rings.GF(FBIG)}


def setup_relation_sweep(tiny=False):
    ctx = SimpleNamespace(reps={}, rings=sweep_rings())
    configs = SWEEP_TINY if tiny else SWEEP_SMALL + SWEEP_BIG
    for kind, rank, rep in configs:
        ctx.reps[_key(kind, rank, rep)] = reps.build_representation(
            roots.build_root_system(kind, rank), rep)
    for name, _ in SWEEP_CONTROLS:
        ctx.reps[name] = _flipped(ctx.reps[name.split("~")[0]])
    return ctx


def round_relation_sweep(ctx, rng, tiny=False):
    if tiny:
        keys = [_key(*c) for c in SWEEP_TINY]
    else:
        # the whole grid once, the eight smaller configs three more times
        keys = [_key(*c) for c in SWEEP_BIG] + [_key(*c) for c in SWEEP_SMALL] * 4
    out = []
    for rep in keys:
        for ring in SWEEP_RINGS:
            out.append(("sweep", {"rep": rep, "ring": ring,
                                  "samples": SWEEP_SAMPLES[ring],
                                  "seed": rng.randrange(2 ** 63)},
                        True, "reps", False, FBIG_DEFECT if ring == "Fbig" else ""))
    for rep, ring in SWEEP_CONTROLS:
        out.append(("sweep", {"rep": rep, "ring": ring, "samples": SWEEP_SAMPLES[ring],
                              "seed": rng.randrange(2 ** 63)},
                    False, "reps", True, ""))
    return out


# ---------------------------------------------------------------------------
# patch-conjugation
# ---------------------------------------------------------------------------

def setup_patch_conjugation(tiny=False):
    Z = rings.ZZ()
    datum = patching.zariski_datum(Z, 2, 3)
    ctx = SimpleNamespace(Z=Z, datum=datum, systems={}, reps={},
                          fr_B=rings.fraction_field_hom(datum.B),
                          fr_Bh=rings.fraction_field_hom(datum.B_h))
    for kind, rank in (("A", 3), ("D", 4)):
        system = roots.build_root_system(kind, rank)
        ctx.systems[f"{kind}{rank}"] = system
        ctx.reps[f"{kind}{rank}"] = reps.build_representation(system, "adjoint")
    return ctx


def _conj_params(ctx, rng, system, wrong):
    nroots = len(ctx.systems[system].roots)
    letters = [(rng.randrange(nroots), rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                rng.randint(0, 1)) for _ in range(rng.randint(1, 3))]
    return ("conjugation", {"system": system, "letters": letters,
                            "root": rng.randrange(nroots),
                            "coeff": rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                            "extra": rng.randint(0, 1), "wrong": wrong},
            not wrong, "patching", wrong, "")


def _glue_params(ctx, rng, in_kernel):
    system = ctx.systems["A3"]
    n = len(system.roots)
    while True:
        a, b = rng.randrange(n), rng.randrange(n)
        ra, rb = system.roots[a], system.roots[b]
        if rb != system.negate(ra) and (ra, rb) not in system.addition_table and a != b:
            break
    frac = lambda: (rng.choice([-7, -5, -3, -1, 1, 3, 5, 7]), rng.randint(0, 2))
    return ("glueing", {"alpha": a, "beta": b, "c": frac(), "d": frac(),
                        "in_kernel": in_kernel},
            in_kernel, "patching", not in_kernel, "")


def round_patch_conjugation(ctx, rng, tiny=False):
    scale = 1 if tiny else 10
    out = []
    for _ in range(12 * scale):
        out.append(_conj_params(ctx, rng, "A3", False))
    for _ in range(4 * scale):
        out.append(_conj_params(ctx, rng, "D4", False))
    for _ in range(scale):
        out.append(("translation_suite", {"samples": 2, "seed": rng.randrange(2 ** 63)},
                    True, "patching", False, ""))
        out.append(_glue_params(ctx, rng, True))
    out.append(_conj_params(ctx, rng, "A3", True))
    out.append(_conj_params(ctx, rng, "D4", True))
    out.append(_glue_params(ctx, rng, False))
    return out


# ---------------------------------------------------------------------------
# symbols-rings
# ---------------------------------------------------------------------------

K2_PRIMES = (5, 7, 11, 13)
K2_REPS = [("A2", "defining"), ("A3", "defining"), ("D4", "vector")]


def setup_symbols_rings(tiny=False):
    Z = rings.ZZ()
    L2, L6 = rings.localize(Z, 2), rings.localize(Z, 6)
    F3s = rings.poly_ring(rings.GF(3), ("s",))
    lvl1 = simplicial.simplex_ring(Z, 1)
    ctx = SimpleNamespace(
        Z=Z, L2=L2, L6=L6, to_L6=rings.coarser_localization_hom(L2, L6),
        rings={"ZZ": Z, "F7": rings.GF(7)},
        prime_fields={p: rings.GF(p) for p in K2_PRIMES},
        polys={"ZZ": rings.poly_ring(Z, ("t",)), "F7": rings.poly_ring(rings.GF(7), ("t",))},
        squares={"ZZ": rings.milnor_square_ring(Z, 2),
                 "F3s": rings.milnor_square_ring(F3s, F3s.var("s"))},
        lvl1=lvl1, interval_square=simplicial.interval_square_ring(Z),
        pair_ring=rings.product_ring(Z, Z), systems={}, reps={})
    for kind, rank in (("A", 2), ("A", 3), ("D", 4)):
        ctx.systems[f"{kind}{rank}"] = roots.build_root_system(kind, rank)
    for system, rep in K2_REPS + [("A2", "adjoint"), ("A3", "adjoint")]:
        ctx.reps[f"{system}-{rep}"] = reps.build_representation(ctx.systems[system], rep)
    return ctx


def _big_fraction(rng):
    return (rng.choice([-1, 1]) * rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9))


def _small_fraction(rng):
    return (rng.choice([-1, 1]) * rng.randint(1, 30000), rng.randint(1, 30000))


def _symbol_params(rng):
    u = _big_fraction(rng)
    while u[0] in (0, u[1]):
        u = _big_fraction(rng)
    a = _big_fraction(rng)
    return ("symbol_suite", {"a": (abs(a[0]), a[1]), "b": _small_fraction(rng),
                             "c": _small_fraction(rng), "u": u},
            True, "milnor", False, "")


def _k2_params(ctx, rng, extra):
    system, rep = K2_REPS[rng.randrange(len(K2_REPS))]
    p = rng.choice(K2_PRIMES)
    pairs = [(rng.randint(1, p - 1), rng.randint(1, p - 1)) for _ in range(rng.randint(1, 3))]
    return ("k2_word", {"p": p, "system": system, "rep": rep,
                        "root": rng.randrange(len(ctx.systems[system].roots)),
                        "pairs": pairs, "extra": extra},
            not extra, "words", extra, "")


def _reduce_params(ctx, rng, perturb):
    system = rng.choice(["A2", "A3"])
    n = len(ctx.systems[system].roots)
    letters = [(rng.randrange(n), rng.randint(1, 6)) for _ in range(rng.randint(2, 6))]
    return ("reduce_sound", {"system": system, "ring": rng.choice(["F7", "ZZ"]),
                             "letters": letters, "perturb": perturb},
            not perturb, "words", perturb, "")


def _bezout_params(rng, perturb):
    return ("bezout", {"num": rng.choice([-1, 1]) * rng.randint(1, 60),
                       "s": rng.randint(0, 4), "k": rng.randint(0, 5),
                       "poly_base": rng.choice(["ZZ", "F7"]),
                       "coeffs": [rng.randint(-6, 6) for _ in range(rng.randint(1, 6))],
                       "perturb": perturb},
            not perturb, "rings", perturb, "")


def _square_params(rng, perturb):
    base = rng.choice(["ZZ", "F3s"])
    value = (lambda: rng.randint(-5, 5)) if base == "ZZ" else \
        (lambda: [rng.randint(0, 2) for _ in range(rng.randint(1, 3))])
    terms = [(rng.randint(1, 3), (value(), rng.randint(0, 2)))
             for _ in range(rng.randint(0, 3))]
    return ("milnor_square", {"base": base, "x": value(), "terms": terms,
                              "perturb": perturb},
            not perturb, "rings", perturb, "")


def _poly_spec(rng, deg, size):
    return [(rng.randint(-size, size), rng.randint(0, deg)) for _ in range(rng.randint(0, 3))]


def _moore_params(ctx, rng, wrong):
    conj = [(rng.randrange(6), _poly_spec(rng, 2, 2)) for _ in range(rng.randint(0, 3))]
    return ("moore", {"root": rng.randrange(6), "f": _poly_spec(rng, 3, 3),
                      "conj": conj, "wrong": wrong},
            not wrong, "simplicial", wrong, "")


def _crt_params(rng, perturb):
    return ("crt", {"spec": _poly_spec(rng, 4, 9), "perturb": perturb},
            not perturb, "simplicial", perturb, "")


def round_symbols_rings(ctx, rng, tiny=False):
    # weighted so that milnor and the ring tower do most of the work and
    # reps (k2_word, reduce_sound, moore and the selftest) stays small
    scale = 1 if tiny else 32
    out = []
    for _ in range(scale):
        out.append(_k2_params(ctx, rng, False))
        out.append(_reduce_params(ctx, rng, False))
        out.append(_moore_params(ctx, rng, False))
        for _ in range(3):
            out.append(_symbol_params(rng))
        for _ in range(4):
            out.append(_bezout_params(rng, False))
            out.append(_square_params(rng, False))
            out.append(_crt_params(rng, False))
    for base in ("ZZ", "F7") * (1 if tiny else 2):
        out.append(("simplicial_identities", {"base": base, "level": 3 if tiny else 4},
                    True, "simplicial", False, ""))
    out.append(("cli_selftest", {"seed": rng.randrange(2 ** 31)}, True, "cli", False, ""))
    p = rng.choice([3, 5, 7, 11, 13, 10007, 999999937])
    out.append(("tame_trivial", {"p": p, "g": rng.randint(2, min(p - 1, 10 ** 6))},
                False, "milnor", True, ""))
    out.append(_k2_params(ctx, rng, True))
    out.append(_reduce_params(ctx, rng, True))
    out.append(_bezout_params(rng, True))
    out.append(_square_params(rng, True))
    out.append(_moore_params(ctx, rng, True))
    out.append(_crt_params(rng, True))
    return out


WORKLOADS = {
    "relation-sweep": (setup_relation_sweep, round_relation_sweep),
    "patch-conjugation": (setup_patch_conjugation, round_patch_conjugation),
    "symbols-rings": (setup_symbols_rings, round_symbols_rings),
}


def tasks(workload, ctx, seed, rounds, tiny=False):
    """The tasks of a run, generated one round at a time: ``rounds``
    rounds, each shuffled by its own seeded generator, indexed in run
    order."""
    _, gen = WORKLOADS[workload]
    index = 0
    for rnd in range(rounds):
        rng = _rng(workload, seed, rnd)
        batch = gen(ctx, rng, tiny)
        rng.shuffle(batch)
        for check, params, expect, layer, control, defect in batch:
            yield Task(index, check, params, expect, layer, control, defect)
            index += 1
