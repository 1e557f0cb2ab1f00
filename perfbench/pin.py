"""Regenerate perfbench/pins.json, the correctness gate's reference outputs.

Run from the repository root:

    python3 perfbench/pin.py

For each workload it runs the CLI once per seed in SEEDS and records the
trace.csv row count, the report.json and plot.svg digests (which must not
depend on the seed) and one trace.csv digest per seed (which must differ
between seeds). A change that alters the CLI outputs on purpose re-runs this
script and commits the new pins as a benchmark change of its own.

The CLI runs pinned to one CPU, as in run.py: numpy's BLAS then uses one
thread, and the least-squares fit in the stiffness report.json does not
depend on how many CPUs the machine has.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUTPUTS, PINS, WORK, WORKLOADS, cli_argv, pin_cpu, scan, spawn, tail

SEEDS = range(10)


def pin_workload(workload: str) -> dict:
    out_dir = WORK / "pin" / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    entry: dict = {"trace.csv": {}}
    for seed in SEEDS:
        child = spawn([sys.executable, "-m", "tsea.cli",
                       *cli_argv(workload, seed, out_dir)], out_dir)
        if child.rc != 0:
            raise SystemExit(f"{workload} seed {seed}: exit code {child.rc}: {tail(out_dir)}")
        for name in OUTPUTS:
            digest, lines, _ = scan(out_dir / name)
            if name == "trace.csv":
                entry["trace.csv"][str(seed)] = digest
                if entry.setdefault("rows", lines - 1) != lines - 1:
                    raise SystemExit(f"{workload}: trace.csv row count depends on the seed")
            elif entry.setdefault(name, digest) != digest:
                raise SystemExit(f"{workload}: {name} depends on the seed")
        print(f"{workload} seed {seed}: {child.wall:.2f} s", flush=True)
    if len(set(entry["trace.csv"].values())) != len(SEEDS):
        raise SystemExit(f"{workload}: two seeds wrote the same trace.csv")
    return entry


def main() -> int:
    pin_cpu()
    pins = {workload: pin_workload(workload) for workload in WORKLOADS}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
