"""steinberg-lab benchmark: seeded exact-check workloads, timed one call
at a time.

Usage, from the repository root:

    python3 perfbench/run.py --workload relation-sweep --seed 1 --seconds 30
    python3 perfbench/run.py --workload patch-conjugation --seed 1 --trace 1
    python3 perfbench/run.py --workload symbols-rings --seed 1 --trace 1 --profile
    python3 perfbench/run.py --workload relation-sweep --seed 1 --replay 17

One process, one thread, closed loop: each check is called only after the
previous one returned its verdict.  ``--seconds`` sets the amount of work:
a run is ``max(1, floor(seconds / ROUND_S[workload]))`` whole rounds,
where ``ROUND_S`` is a round's length on the reference machine (2 CPUs),
so every run of a workload does the same mix of tasks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones (see
perfbench/README.md).  Result records, spans and profiles are written
under ``.perfbench_out/``.
"""

import os

# One BLAS thread on every commit measured, set before numpy is imported,
# so the numpy sweep does not oversubscribe the cores.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# seconds one round takes on the reference machine (2 CPUs, Python 3.11)
ROUND_S = {"relation-sweep": 25.6, "patch-conjugation": 4.0, "symbols-rings": 0.93}
SETUP_REPEATS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one reduced round, for the smoke test")
    p.add_argument("--profile", action="store_true",
                   help="with --trace 1: also print the cProfile top 20")
    p.add_argument("--replay", type=int, metavar="INDEX",
                   help="run only task INDEX of this seed and print its outcome")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _declared():
    """End-to-end and per-layer metric (name, unit) lists of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def _import_library():
    sys.path.insert(0, str(SRC))
    import checks
    import workloads
    return checks, workloads


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(args):
    """Import the library and build the workload's objects in a fresh
    process; prints the seconds taken."""
    t0 = time.perf_counter()
    _, workloads = _import_library()
    workloads.WORKLOADS[args.workload][0](args.tiny)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(args):
    """Median set-up time over fresh processes, so every repeat pays the
    import and the representation caches are cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times), len(times)


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

class Pass:
    """Outcomes of one pass over a task list."""

    def __init__(self):
        self.durations = []
        self.identities = 0
        self.controls = 0
        self.failed = []          # tasks whose verdict differs or that raised
        self.digest = hashlib.sha256()


def run_tasks(checks, ctx, task_list, args, tracer=None, quiet=False):
    res = Pass()
    for task in task_list:
        fn = checks.CHECKS[task.check]
        if tracer is not None:
            tracer.task = task.index
        error = None
        start = time.perf_counter()
        try:
            out = fn(ctx, **task.params)
        except Exception as exc:  # a crash is a failed task, not a dead run
            out, error = None, exc
        res.durations.append(time.perf_counter() - start)
        # outside the timed span: bookkeeping, digest, witnesses
        res.controls += task.control
        if out is None:
            record = (task.index, task.check, "raised", type(error).__name__, str(error))
        else:
            res.identities += out.identities
            record = (task.index, task.check, out.holds, out.exact)
        res.digest.update(repr(record).encode())
        if out is None or out.holds != task.expect:
            res.failed.append(task)
            if not quiet:
                _witness(args, task, out, error)
    return res


def _witness(args, task, out, error):
    w = {"workload": args.workload, "seed": args.seed, "task": task.index,
         "check": task.check, "expected": "holds" if task.expect else "refuted",
         "got": "raised" if out is None else ("holds" if out.holds else "refuted"),
         "control": task.control, "params": task.params}
    if out is not None:
        w.update(out.witness)
    else:
        w["error"] = f"{type(error).__name__}: {error}"
    if task.known_defect:
        w["known_defect"] = task.known_defect
    w["replay"] = (f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed {args.seed} --seconds {args.seconds:g} --replay {task.index}"
                   + (" --tiny" if args.tiny else ""))
    print("witness " + json.dumps(w, default=str), file=sys.stderr)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment():
    import numpy
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_sha": sha, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: every order statistic
    weighted by the Beta((n+1)q, (n+1)(1-q)) mass over its slot (by the
    midpoint rule).  Task times cluster by configuration, so a single
    order statistic jumps between clusters from run to run; the weighted
    estimate does not."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _result_line(correct, attempted, failed, metrics, units):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                   for k in units}})


def _write(name, data):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(data, indent=1, default=str) + "\n", encoding="utf-8")


def report_header(args, res):
    """Prints the verdict counts; returns ``correct``: no task failed
    other than the known defects listed in workloads.py."""
    n = len(res.durations)
    known = sum(1 for t in res.failed if t.known_defect)
    missed = sum(1 for t in res.failed if t.control)
    print(f"workload {args.workload}  seed {args.seed}  rounds {args.rounds}  tasks {n}  "
          f"controls {res.controls} (refuted {res.controls - missed})  "
          f"failed {len(res.failed)} (known defect {known}, "
          f"unexpected {len(res.failed) - known})")
    print(f"failed_frac        {len(res.failed) / n:.6f} ratio  (n={n})")
    print(f"digest             sha256:{res.digest.hexdigest()}")
    return known == len(res.failed)


def main_e2e(args, checks, ctx, task_list, setup_s, setup_n, env):
    e2e, _ = _declared()
    res = run_tasks(checks, ctx, task_list, args)
    n = len(res.durations)
    timed = sum(res.durations)
    metrics = {
        "setup_s": setup_s,
        "identities_per_s": res.identities / timed,
        "task_s.p50": quantile(res.durations, 0.5),
        "task_s.p90": quantile(res.durations, 0.9),
        "ok_frac": (n - len(res.failed)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = dict(e2e)
    if set(metrics) != set(units):
        raise SystemExit(f"metric names differ from BENCHMARK.json: {sorted(metrics)}")
    correct = report_header(args, res)
    beyond = n - int(0.9 * n)
    notes = {"setup_s": f"median of {setup_n} fresh-process set-ups",
             "identities_per_s": f"n={n} tasks, {res.identities} identities, {timed:.3f} s timed",
             "task_s.p50": f"n={n}", "task_s.p90": f"n={n}, {beyond} beyond",
             "ok_frac": f"1 - failed_frac, n={n}",
             "peak_rss_mb": "ru_maxrss of this process"}
    for name, unit in e2e:
        print(f"{name:18s} {metrics[name]:.6g} {unit}  ({notes[name]})")
    print("env " + json.dumps(env))
    _write(f"{args.workload}-seed{args.seed}.json",
           {"workload": args.workload, "seed": args.seed, "env": env, "tasks": n,
            "rounds": args.rounds, "digest": res.digest.hexdigest(),
            "failed_frac": len(res.failed) / n, "metrics": metrics})
    print(_result_line(correct, n, len(res.failed), metrics, units))
    return 0


def main_trace(args, checks, workloads, ctx, task_list, tracer, env):
    """Half the run's tasks untraced, then the same tasks traced; the
    per-layer metrics come from the traced pass (and the set-up)."""
    import spans
    _, layer = _declared()
    task_list = list(task_list)
    sub = task_list[:max(1, (len(task_list) + 1) // 2)]
    tracer.uninstall()
    plain = run_tasks(checks, ctx, sub, args, quiet=True)
    spans.install(tracer)
    traced = run_tasks(checks, ctx, sub, args, tracer=tracer)
    tracer.uninstall()
    overhead = sum(traced.durations) / sum(plain.durations) - 1
    failures = {}
    for task in traced.failed:
        failures[task.layer] = failures.get(task.layer, 0) + 1
    metrics = spans.layer_metrics(tracer, failures, overhead, workloads.SWEEP_RINGS)
    units = dict(layer)
    if set(metrics) != set(units):
        missing = set(units) ^ set(metrics)
        raise SystemExit(f"per-layer names differ from BENCHMARK.json: {sorted(missing)}")
    correct = report_header(args, traced)
    for name, unit in layer:
        print(f"{name:36s} {metrics[name]:.6g} {unit}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(path)
    print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    if args.profile:
        profile(checks, ctx, sub, args)
    print("env " + json.dumps(env))
    _write(f"{args.workload}-seed{args.seed}-trace.json",
           {"workload": args.workload, "seed": args.seed, "env": env, "tasks": len(sub),
            "digest": traced.digest.hexdigest(), "metrics": metrics})
    print(_result_line(correct, len(sub), len(traced.failed), metrics, units))
    return 0


def profile(checks, ctx, task_list, args):
    import cProfile
    import io
    import pstats
    prof = cProfile.Profile()
    prof.enable()
    run_tasks(checks, ctx, task_list, args, quiet=True)
    prof.disable()
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats("cumulative").print_stats(20)
    path = OUT / f"profile-{args.workload}-seed{args.seed}.txt"
    path.write_text(buf.getvalue(), encoding="utf-8")
    print(buf.getvalue(), file=sys.stderr)
    print(f"profile top 20 written to {path.relative_to(ROOT)}")


def replay(args, checks, ctx, task_list):
    task = next(t for t in task_list if t.index == args.replay)
    out = checks.CHECKS[task.check](ctx, **task.params)
    print(json.dumps({"task": task.index, "check": task.check, "params": task.params,
                      "expected": "holds" if task.expect else "refuted",
                      "got": "holds" if out.holds else "refuted",
                      "witness": out.witness}, default=str))
    return 0 if out.holds == task.expect else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "steinberg_lab" / "__init__.py").is_file():
        print(f"steinberg_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    args.rounds = 1 if args.tiny else max(1, int(args.seconds / ROUND_S[args.workload]))
    setup_s, setup_n = None, 0
    if args.replay is None and not args.trace:
        setup_s, setup_n = measure_setup(args)

    checks, workloads = _import_library()
    tracer = None
    if args.trace:
        import spans
        labels = {r.describe(): k for k, r in workloads.sweep_rings().items()}
        tracer = spans.install(spans.Tracer(labels))
    ctx = workloads.WORKLOADS[args.workload][0](args.tiny)
    task_list = workloads.tasks(args.workload, ctx, args.seed, args.rounds, args.tiny)
    if args.replay is not None:
        return replay(args, checks, ctx, task_list)
    env = environment()
    if args.trace:
        return main_trace(args, checks, workloads, ctx, task_list, tracer, env)
    return main_e2e(args, checks, ctx, task_list, setup_s, setup_n, env)


if __name__ == "__main__":
    sys.exit(main())
