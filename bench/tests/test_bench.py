"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/tests

Each workload runs once untraced and once traced, one round each, in
fresh processes from the repository root.  Takes about a minute.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    return result


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def runs(request):
    return request.param, _run(request.param, 0), _run(request.param, 1)


def _outputs_line(result: dict) -> str:
    (line,) = [ln for ln in result["lines"] if ln.startswith("outputs sha256")]
    return line


def test_traced_outputs_equal_untraced(runs):
    _, plain, traced = runs
    # the traced run itself compares its traced and untraced rounds byte for byte
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0
    assert _outputs_line(plain) == _outputs_line(traced)


def test_reports_every_declared_metric(runs):
    _, plain, traced = runs
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(plain["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert set(traced["metrics"]) == set(spans.PER_LAYER)
    assert all(v["value"] > 0 for v in plain["metrics"].values())


def test_mapped_layer_metrics_are_nonzero(runs):
    name, _, traced = runs
    expected = [m for m, on in spans.EXERCISED_ON.items() if name in on]
    zero = [m for m in expected if not traced["metrics"][m]["value"] > 0]
    assert not zero, f"{name}: zero per-layer metrics {zero}"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first = workloads.build(workload, 11, tmp_path).inputs
    again = workloads.build(workload, 11, tmp_path).inputs
    other = workloads.build(workload, 12, tmp_path).inputs
    assert first == again
    seeded = {k for k in first if not k.startswith(("shape", "catalog"))}
    assert seeded and all(first[k] != other[k] for k in seeded)
