"""Record the reference outputs the benchmark checks every run against.

    python3 bench/record_reference.py

Run from the root of a gpmod checkout whose outputs are known to be
right.  For each grid workload it records the sha256 of every design
shape's text, of every op's output on the shapes as designed (the
benchmark runs re-coordinatized copies, whose outputs must be the same
bytes) and of one round's concatenated outputs; for the smash catalog, the
sha256 of the catalog ops' concatenated outputs.  Every output must pass
its certificate check.  Writes bench/reference.json.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent


def main() -> int:
    root = pathlib.Path.cwd().resolve()
    sys.path[:0] = [str(BENCH_DIR), str(root / "src")]
    import workloads as wl
    from run import Phase

    ref = {}
    for name in ("grid-fp", "grid-sparse", "smash-catalog"):
        workload = wl.build(name, 0, root, ref={}, recoordinate=False)
        phase = Phase(workload).run(rounds=1)
        if workload.work_dir is not None:
            shutil.rmtree(workload.work_dir)
        uncertified = [op.label for op, out in phase.round0 if not op.certify(out)]
        if uncertified:
            sys.stderr.write(f"error: {name}: outputs fail their certificates: "
                             f"{uncertified}\n")
            return 1
        if name == "smash-catalog":
            ref[name] = {"catalog": phase.round_digest()}
            continue
        shapes = sorted(k for k in workload.inputs if k.startswith("shape") and "." not in k)
        ref[name] = {"shapes": [workload.inputs[k] for k in shapes],
                     "outputs": {op.label: wl.sha256(out) for op, out in phase.round0},
                     "round": phase.round_digest()}
    wl.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
