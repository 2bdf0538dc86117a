"""Smoke test of the benchmark at tiny sizes: it runs, prints every
declared metric with its unit, refutes every negative control, gives the
same digest for the same seed, and refuses to run without the library.
No timing is asserted."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seed=3, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(lines, result, declared):
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(re.match(rf"{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}\b", line)
                   for line in lines), m["name"]


def header(lines):
    head = next(line for line in lines if line.startswith("workload "))
    controls, refuted = map(int, re.search(r"controls (\d+) \(refuted (\d+)\)", head).groups())
    unexpected = int(re.search(r"unexpected (\d+)", head).group(1))
    digest = next(line for line in lines if line.startswith("digest")).split()[1]
    return controls, refuted, unexpected, digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    lines, result = parse(run(workload))
    check_metrics(lines, result, SPEC["end_to_end"])
    controls, refuted, unexpected, digest = header(lines)
    assert controls > 0 and refuted == controls
    assert unexpected == 0 and result["correct"] is True
    assert any(line.startswith("failed_frac") for line in lines)
    _, _, _, again = header(parse(run(workload))[0])
    assert again == digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    lines, result = parse(run(workload, trace=1))
    check_metrics(lines, result, SPEC["per_layer"])
    assert result["metrics"]["trace.spans"]["value"] > 0


def test_relation_sweep_shows_the_float_defect():
    lines, result = parse(run("relation-sweep"))
    assert result["failed"] > 0 and result["correct"] is True
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
