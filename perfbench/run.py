"""Outside-in benchmark of the tsea command line.

Run from the repository root:

    python3 perfbench/run.py --workload track --seed 1 --seconds 30 --trace 0

Each workload is one ``tsea <subcommand>`` run the way a user runs it: a fresh
interpreter (``python3 -m tsea.cli``) that writes trace.csv, report.json and
plot.svg. One client, closed loop: the next invocation starts when the last
one has exited, and only one child runs at a time. The workload seed goes to
``--noise --seed``, so it changes the logged theta_o column and the trace.csv
bytes, never the physics or the step counts.

``--trace 0`` measures set-up, then invokes the CLI for about ``--seconds``
and reports the end-to-end metrics as medians. ``--trace 1`` runs the same
untraced loop, then two traced in-process runs (perfbench/traced.py, with
seeds s and s+1) and reports the per-layer metrics. Every invocation passes
the correctness gate in check_outputs(); the traced runs must also agree on
every exact count. The last line of stdout is the JSON result. See
perfbench/README.md for why the workloads and metrics are what they are.

Times are scaled to a reference host speed. The shared host runs this
interpreter up to 1.7x slower for seconds to minutes at a time, so raw wall
times of the same code spread by a third between runs. Every child therefore
runs on the one CPU this process is pinned to, and spawn() stops it every
SLICE_S to time a fixed pure-Python kernel (ref_kernel) on that CPU. Each slice
of child time counts as slice * REF_S / (kernel time around it): seconds as
they would be on a host where the kernel takes REF_S. The raw wall times are
printed next to the scaled ones.

This process stays small on purpose: it imports neither numpy nor tsea and
hashes outputs in chunks. Linux reports a child's ru_maxrss as at least the
launcher's own high-water mark, so a big launcher would inflate peak_rss_mb.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
PINS = BENCH / "pins.json"

PRESET = "calibrated"
WORKLOADS = {
    "track": ("track",),
    "cycle": ("cycle", "--n", "324"),
    "stiffness": ("stiffness", "--mode", "sea"),
}
OUTPUTS = ("trace.csv", "report.json", "plot.svg")
SETUP_REPEATS = 9
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 150
CHUNK = 1 << 20
SLICE_S = 0.1
SETUP_SLICE_S = 0.02
REF_ITERATIONS = 3000
REF_S = 1.25e-3  # ref_kernel() on the quiet 2-vCPU Xeon host, Python 3.11.7


class ChildTimeout(Exception):
    pass


class Spawned(NamedTuple):
    rc: int          # exit code
    wall: float      # seconds the child ran, stops excluded
    norm: float      # the same seconds scaled to the reference host speed
    rss_mb: float    # child peak RSS


def ref_kernel() -> int:
    """Fixed pure-Python work (float arithmetic, formatting, a join) whose
    duration samples how fast the host runs this interpreter right now."""
    acc = 0.0
    parts = []
    for i in range(REF_ITERATIONS):
        acc += i * 0.37
        parts.append("%.6f" % acc)
    return len(",".join(parts))


def ref_time() -> float:
    t0 = time.perf_counter()
    ref_kernel()
    return time.perf_counter() - t0


def pin_cpu() -> None:
    """Pin this process, and so every child, to one CPU: the reference kernel
    must sample the CPU the child runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spawn(argv: list[str], log_dir: Path, slice_s: float = SLICE_S) -> Spawned:
    """Run argv to completion, stopping it every slice_s to time the reference
    kernel on the same CPU. Each slice of child time is scaled by REF_S over
    the mean of the reference times on either side of it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        ref_prev = ref_time()
        start = t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        wall = norm = 0.0
        try:
            while True:
                if poller.poll(slice_s * 1000):
                    _, status, usage = os.wait4(proc.pid, 0)
                else:
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                t1 = time.perf_counter()
                ref = ref_time()
                wall += t1 - t0
                norm += (t1 - t0) * 2 * REF_S / (ref_prev + ref)
                ref_prev = ref
                if not os.WIFSTOPPED(status):
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                if t1 - start > CHILD_TIMEOUT_S:
                    raise ChildTimeout(f"child still running after {CHILD_TIMEOUT_S} s")
                os.kill(proc.pid, signal.SIGCONT)
                t0 = time.perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
    return Spawned(proc.returncode, wall, norm, usage.ru_maxrss * 1024 / 1e6)


def tail(log_dir: Path) -> str:
    return (log_dir / "stderr.txt").read_text(errors="replace").strip()[-400:]


def scan(path: Path) -> tuple[str, int, bytes]:
    """sha256, newline count and last line of a file, read in chunks."""
    h = hashlib.sha256()
    lines = 0
    end = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(CHUNK):
            h.update(chunk)
            lines += chunk.count(b"\n")
            end = (end + chunk)[-256:]
    return h.hexdigest(), lines, end.rstrip(b"\n").rsplit(b"\n", 1)[-1]


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def check_outputs(out_dir: Path, pin: dict, seed: int, seen: dict) -> tuple[list[str], float]:
    """Correctness gate for one invocation; returns (errors, simulated seconds).

    report.json must be strict JSON; trace.csv must have the pinned row count;
    every digest must equal its pin (trace.csv is pinned per seed) or, for a
    seed without a pin, the digest of the first invocation seen in this run.
    """
    errors = []
    digests = {}
    sim_s = 0.0
    for name in OUTPUTS:
        path = out_dir / name
        if not path.is_file():
            errors.append(f"{name} missing")
            continue
        digests[name], lines, last = scan(path)
        if name == "trace.csv":
            if lines - 1 != pin["rows"]:
                errors.append(f"trace.csv has {lines - 1} rows, expected {pin['rows']}")
            try:
                sim_s = float(last.split(b",", 1)[0])
            except ValueError:
                errors.append(f"trace.csv last row unreadable: {last[:60]!r}")
        if name == "report.json":
            try:
                json.loads(path.read_text(), parse_constant=_reject_constant)
            except ValueError as exc:
                errors.append(f"report.json is not strict JSON: {exc}")
    for name, digest in digests.items():
        want = pin["trace.csv"].get(str(seed)) if name == "trace.csv" else pin[name]
        want = want or seen.setdefault((name, seed), digest)
        if digest != want:
            errors.append(f"{name} sha256 {digest[:12]} != expected {want[:12]} (seed {seed})")
    return errors, sim_s


def cli_argv(workload: str, seed: int, out_dir: Path) -> list[str]:
    return [*WORKLOADS[workload], "--preset", PRESET, "--noise", "--seed", str(seed),
            "--out", str(out_dir)]


def measure_setup(log_dir: Path) -> list[Spawned]:
    """Fresh interpreters that import tsea.cli and resolve the preset, spawn to
    exit; one untimed warm-up compiles the bytecode first."""
    code = f"import tsea.cli; tsea.cli.resolve_preset({PRESET!r})"
    log_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for i in range(SETUP_REPEATS + 1):
        child = spawn([sys.executable, "-c", code], log_dir, SETUP_SLICE_S)
        if child.rc != 0:
            raise SystemExit(f"set-up failed with exit code {child.rc}: {tail(log_dir)}")
        if i:
            runs.append(child)
    return runs


class Run:
    """Invocation bookkeeping for one benchmark run."""

    def __init__(self, workload: str, seed: int, pin: dict):
        self.workload, self.seed, self.pin = workload, seed, pin
        self.seen: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def gate(self, label: str, rc: int, out_dir: Path, seed: int) -> float:
        errors, sim_s = check_outputs(out_dir, self.pin, seed, self.seen)
        if rc != 0:
            errors.insert(0, f"exit code {rc}: {tail(out_dir)}")
        self.attempted += 1
        if errors:
            self.failed += 1
            self.problems += [f"{label}: {e}" for e in errors]
        return sim_s

    def untraced(self, seconds: float) -> tuple[list[Spawned], list[float]]:
        """Invoke the CLI at least MIN_INVOCATIONS times, and more while the
        next invocation should still end within `seconds`."""
        out_dir = WORK / self.workload / "cli"
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, "-m", "tsea.cli", *cli_argv(self.workload, self.seed, out_dir)]
        runs, sims = [], []
        start = time.perf_counter()
        while (len(runs) < MIN_INVOCATIONS
               or time.perf_counter() - start + runs[-1].wall < seconds):
            for name in OUTPUTS:
                (out_dir / name).unlink(missing_ok=True)
            child = spawn(argv, out_dir)
            sims.append(self.gate(f"cli #{len(runs)}", child.rc, out_dir, self.seed))
            runs.append(child)
        return runs, sims

    def traced(self, index: int) -> tuple[dict, dict, Spawned]:
        """One traced in-process run with seed + index."""
        seed = self.seed + index
        out_dir = WORK / self.workload / f"traced{index}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        stats = out_dir / "stats.json"
        argv = [sys.executable, str(BENCH / "traced.py"), "--stats", str(stats),
                "--spans", str(out_dir / "spans.json"), "--",
                *cli_argv(self.workload, seed, out_dir)]
        child = spawn(argv, out_dir)
        self.gate(f"traced seed {seed}", child.rc, out_dir, seed)
        if child.rc != 0 or not stats.is_file():
            return {}, {}, child
        doc = json.loads(stats.read_text())
        return doc["metrics"], doc["counts"], child


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def describe(name: str, values: list[float], unit: str) -> str:
    q1, q3 = quartiles(values)
    return (f"  {name}: median {statistics.median(values):.6g} {unit} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def end_to_end(run: Run, seconds: float, units: dict) -> dict:
    setup = measure_setup(WORK / run.workload)
    runs, sims = run.untraced(seconds)
    sim_s = statistics.median(sims)
    series = {
        "wall_norm_s": [r.norm for r in runs],
        "rtf_norm": [sim_s / r.norm for r in runs],
        "setup_s": [r.norm for r in setup],
        "peak_rss_mb": [r.rss_mb for r in runs],
    }
    print(f"{run.workload}: {len(runs)} untraced invocations, {sim_s:.4f} simulated s each")
    for name, values in series.items():
        print(describe(name, values, units[name]))
    print("  raw, not scaled to the reference speed:")
    print(describe("wall_s", [r.wall for r in runs], "s"))
    print(describe("rtf", [sim_s / r.wall for r in runs], "x"))
    print(describe("setup_wall_s", [r.wall for r in setup], "s"))
    print(describe("host_speed", [r.norm / r.wall for r in runs], "x reference"))
    print(f"  error_rate: {run.failed}/{run.attempted} = {run.failed / run.attempted:g}")
    harness_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if harness_mb >= min(series["peak_rss_mb"]):
        run.problems.append(f"launcher peak RSS {harness_mb:.1f} MB >= child "
                            f"{min(series['peak_rss_mb']):.1f} MB; peak_rss_mb would "
                            "measure the launcher")
    return {name: statistics.median(values) for name, values in series.items()}


def scale_to_reference(metrics: dict, units: dict, child: Spawned) -> dict:
    """Scale a traced run's timings by its host speed, as the end-to-end ones are."""
    speed = child.norm / child.wall
    power = {"s": 1, "us": 1, "MB/s": -1}
    return {name: value * speed ** power.get(units[name], 0)
            for name, value in metrics.items()}


def per_layer(run: Run, seconds: float, units: dict) -> dict:
    runs, _ = run.untraced(seconds)
    (m0, c0, t0), (m1, c1, t1) = run.traced(0), run.traced(1)
    if not (m0 and m1):
        run.problems.append("a traced run did not finish")
        return {}
    if c0 != c1:
        diff = {k: (c0.get(k), c1.get(k)) for k in c0.keys() | c1.keys() if c0.get(k) != c1.get(k)}
        run.problems.append(f"EXACT COUNTS DIFFER between traced runs: {diff}")
    if c0.get("io.write_trace_csv.rows") != run.pin["rows"]:
        run.problems.append(f"traced io.write_trace_csv.rows {c0.get('io.write_trace_csv.rows')}"
                            f" != pinned trace.csv rows {run.pin['rows']}")
    csv0 = scan(WORK / run.workload / "traced0" / "trace.csv")[0]
    csv1 = scan(WORK / run.workload / "traced1" / "trace.csv")[0]
    if csv0 == csv1:
        run.problems.append("seeds s and s+1 wrote the same trace.csv: the seed does not "
                            "reach the program")
    m0, m1 = scale_to_reference(m0, units, t0), scale_to_reference(m1, units, t1)
    metrics = {name: m0[name] if m0[name] == m1[name] else (m0[name] + m1[name]) / 2
               for name in m0}
    untraced_norm = statistics.median(r.norm for r in runs)
    metrics["trace_overhead_ratio"] = statistics.median([t0.norm, t1.norm]) / untraced_norm
    print(f"{run.workload}: traced {t0.norm:.3f} s / {t1.norm:.3f} s, untraced median "
          f"{untraced_norm:.3f} s over {len(runs)} invocations (at reference speed)")
    for name, value in metrics.items():
        print(f"  {name}: {value:.6g}")
    print("  exact counts (identical in both traced runs):", json.dumps(c0, sort_keys=True))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "tsea" / "cli.py").is_file():
        print(f"error: no tsea sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    pin = json.loads(PINS.read_text())[args.workload]

    pin_cpu()
    run = Run(args.workload, args.seed, pin)
    values = (per_layer if args.trace else end_to_end)(run, args.seconds, units)
    if values and set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    for problem in run.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
