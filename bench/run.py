"""gpmod benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload grid-fp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gpmod is imported from ./src.
The load is a closed loop with one client: each op starts when the
previous one has finished.  Ops run in whole rounds until ``--seconds``
have passed (at least one round).  While they run, a timer interrupts
them to do fixed reference work (calibrate.py), whose time is taken out of
the ops' times; ``ops_per_s`` is scaled by the machine speed it measures.

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
the same rounds run once with span recording and once without, outputs
must match byte for byte, and the per-layer metrics are reported.  Lines
before the last give every metric by name and unit, the sha256 of every
input and of the outputs; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output checked out, 1 when one did not, and 2 when the run
could not start.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SETUP_SAMPLES = 5
SETUP_MIN_SAMPLES = 3
SETUP_BUDGET_S = 8.0
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def measure_setup(root: pathlib.Path, code: str) -> float:
    """Median wall time of fresh processes that import gpmod and do the
    workload's one-off set-up, from spawn to exit.  Takes SETUP_SAMPLES
    samples, or fewer (not under SETUP_MIN_SAMPLES) once SETUP_BUDGET_S
    has passed."""
    prog = f"import sys\nsys.path.insert(0, {str(root / 'src')!r})\n{code}"
    times = []
    start = perf_counter()
    while len(times) < SETUP_MIN_SAMPLES or (
            len(times) < SETUP_SAMPLES and perf_counter() - start < SETUP_BUDGET_S):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", prog], cwd=root, check=True,
                       stdin=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Phase:
    """Runs whole rounds of a workload and records each op."""

    def __init__(self, workload, tracer=None, calibrator=None):
        self.workload = workload
        self.tracer = tracer
        self.calibrator = calibrator
        self.kinds: list[str] = []
        self.latency: list[float] = []
        self.ok: list[bool] = []
        self.outputs: list[str] = []
        self.rounds = 0
        self.round0: list = []  # (op, output) of the first round

    def _call(self, op, arg):
        return op.call() if op.prepare is None else op.call(arg)

    def run_round(self) -> None:
        tracer = self.tracer
        cal = self.calibrator
        for op in self.workload.rounds(self.rounds):
            arg = op.prepare() if op.prepare is not None else None
            if tracer is not None:
                tracer.enabled = True
            t0 = perf_counter()
            paused = cal.spent if cal is not None else 0.0
            try:
                if tracer is not None:
                    out = tracer.run_op(self._call, op, arg)
                else:
                    out = self._call(op, arg)
            except Exception:  # an op that raises counts as failed
                out = "raised\n"
                sys.stderr.write(f"op {op.label} raised:\n{traceback.format_exc()}")
            elapsed = perf_counter() - t0
            if cal is not None:
                elapsed -= cal.spent - paused
            if tracer is not None:
                tracer.enabled = False
            good = out != "raised\n" and op.check(out)
            if not good:
                sys.stderr.write(f"op {op.label}: output failed its check\n")
            self.kinds.append(op.kind)
            self.latency.append(elapsed)
            self.ok.append(good)
            self.outputs.append(out)
            if self.rounds == 0:
                self.round0.append((op, out))
        self.rounds += 1

    def run(self, seconds: float = 0.0, rounds: int | None = None) -> "Phase":
        t0 = perf_counter()
        while self.rounds == 0 or (
                self.rounds < rounds if rounds is not None
                else perf_counter() - t0 < seconds):
            self.run_round()
        return self

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def round_digest(self) -> str:
        from workloads import sha256

        kinds = self.workload.digest_kinds
        return sha256("".join(out for op, out in self.round0
                              if kinds is None or op.kind in kinds))


def tail(latencies_ms: list[float]):
    """Highest percentile with at least ten samples beyond it, by nearest rank."""
    n = len(latencies_ms)
    ordered = sorted(latencies_ms)
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10:
            return q, ordered[max(0, math.ceil(q / 100.0 * n) - 1)], n
    return None


def end_to_end(phase: Phase, setup_s: float) -> tuple[dict, list[str]]:
    """The gated metrics, and the lines that print every metric.

    ``ops_per_s`` counts ops per reference second (see calibrate.py); its
    wall-clock form is printed beside it."""
    ms = [t * 1e3 for t in phase.latency]
    attempted = len(ms)
    speed = phase.calibrator.speed()
    passed_per_wall_s = (attempted - phase.failed) / sum(phase.latency)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (passed_per_wall_s / speed, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [f"metric {name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"metric ops_per_wall_s {passed_per_wall_s!r} 1/s")
    lines.append(f"metric machine_speed {speed!r} ratio "
                 f"({phase.calibrator.units} reference units)")
    lines.append(f"metric op_p50_ms {statistics.median(ms)!r} ms ({attempted} ops)")
    t = tail(ms)
    if t is not None:
        q, value, n = t
        lines.append(f"metric op_tail_ms {value!r} ms (p{q:g} of {n} ops)")
    else:
        lines.append(f"metric op_tail_ms omitted ms (only {attempted} ops)")
    for name, kinds in (("analyze_p50_ms", ("analyze", "report")),
                        ("present_p50_ms", ("present",))):
        sel = [t for t, k in zip(ms, phase.kinds) if k in kinds]
        if sel:
            lines.append(f"metric {name} {statistics.median(sel)!r} ms ({len(sel)} ops)")
    lines.append(f"metric fail_frac {phase.failed / attempted!r} ratio "
                 f"({phase.failed} of {attempted} ops)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd().resolve()
    src = root / "src"
    if not (src / "gpmod" / "__init__.py").is_file():
        sys.stderr.write(f"error: no gpmod sources under {src}; "
                         "run from the root of a gpmod checkout\n")
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import workloads as wl_mod

    if args.workload not in wl_mod.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"known: {', '.join(wl_mod.WORKLOADS)}\n")
        return 2
    setup_code = wl_mod.SETUP[args.workload]
    setup_s = measure_setup(root, setup_code) if not args.trace else None

    sys.path.insert(0, str(src))
    import gpmod

    if pathlib.Path(gpmod.__file__).resolve().parent != src / "gpmod":
        sys.stderr.write(f"error: imported gpmod from {gpmod.__file__}, not {src}\n")
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    exec(setup_code, {})
    if tracer is not None:
        tracer.enabled = False
    workload = wl_mod.build(args.workload, args.seed, root)

    lines = [f"input {name} sha256 {digest}" for name, digest in sorted(workload.inputs.items())]
    problems = list(workload.problems)
    if tracer is None:
        from calibrate import Calibrator

        with Calibrator() as cal:
            phase = Phase(workload, calibrator=cal).run(seconds=args.seconds)
        metrics, metric_lines = end_to_end(phase, setup_s)
        lines += metric_lines
        attempted, failed = len(phase.ok), phase.failed
    else:
        traced = Phase(workload, tracer).run(seconds=args.seconds / 2)
        tracer.uninstall()
        phase = Phase(workload).run(rounds=traced.rounds)
        if traced.outputs != phase.outputs:
            problems.append("traced outputs differ from untraced outputs")
        base = sum(phase.latency)
        values = tracer.metrics((sum(traced.latency) - base) / base)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        # one file per workload, so repeated traced runs do not pile up
        tracer.save(out_dir / f"spans-{args.workload}.npz")
        from spans import PER_LAYER

        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        lines += [f"metric {name} {values[name]!r} {unit}" for name, unit in PER_LAYER.items()]
        attempted = len(traced.ok) + len(phase.ok)
        failed = traced.failed + phase.failed

    if workload.work_dir is not None:
        shutil.rmtree(workload.work_dir, ignore_errors=True)
    digest = phase.round_digest()
    lines.append(f"outputs sha256 {digest} ({phase.rounds} rounds, "
                 f"{len(phase.ok)} ops)")
    if digest != workload.expected_round:
        problems.append(f"round outputs sha256 {digest} differs from the "
                        f"reference {workload.expected_round}")
    for problem in problems:
        sys.stderr.write(f"error: {problem}\n")
    correct = failed == 0 and not problems
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
