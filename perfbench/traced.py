"""Traced run of one tsea CLI invocation, in process, with per-layer timers.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/traced.py --stats STATS.json --spans SPANS.json -- <tsea args>

The script wraps the public functions of each ``tsea`` module from the outside
(``src/`` is not touched), runs ``tsea.cli.main`` once, and writes:

* STATS.json: the per-layer metrics and the exact counts of the run;
* SPANS.json: one record per coarse span (CLI, preset, protocol loop, metric
  and output functions) as ``[name, start_s, end_s, parent_index]``.

Hot functions (``plant.step``, ``HubModel.torque``, the recorder, the selector
and the controller) are called up to millions of times per run, so they are
aggregated into call counts, total time and child time instead of one record
per call. Spans and counters stay in memory and are written when the run ends.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from tsea import cli, experiments, io, plant, spring_hub
from tsea.experiments import TraceRecorder

MODES = {plant.SeaState: "sea", plant.PeaState: "pea", plant.TransitionState: "trans"}
METRIC_FUNCTIONS = ("rms", "linear_fit", "hysteresis_area", "peak_deflection",
                    "settling_time", "crossing_times", "dominant_frequency")
PROTOCOLS = ("run_static_stiffness", "run_dynamic_switching", "run_disturbance",
             "run_switch_cycle", "run_hold")
WRAPPER_PROBE_CALLS = 200_000


class Tracer:
    """Per-name call counts, total and child time, plus coarse span records."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, child_s]
        self.extra: dict[str, float] = {}  # counts taken from return values
        self.spans: list[tuple[str, float, float, int]] = []
        self._child = [0.0]  # time covered by children of each open call
        self._open = [-1]    # span index of each open coarse span

    def wrap(self, name, fn, key=None, on_result=None, span=False):
        """Return fn timed under name (or under key(args) when given)."""
        perf = time.perf_counter
        child, stats, spans, opened = self._child, self.stats, self.spans, self._open
        stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if span:
                index = len(spans)
                spans.append(None)
                parent = opened[-1]
                opened.append(index)
            child.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                inner = child.pop()
                child[-1] += t1 - t0
                s = stats[key(args)] if key else stats[name]
                s[0] += 1
                s[1] += t1 - t0
                s[2] += inner
                if span:
                    opened.pop()
                    spans[index] = (name, t0, t1, parent)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def add(self, name: str, value: float) -> None:
        self.extra[name] = self.extra.get(name, 0) + value

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def total_s(self, name: str) -> float:
        return self.stats[name][1]

    def self_s(self, name: str) -> float:
        _, total, inner = self.stats[name]
        return total - inner


def install(tr: Tracer) -> None:
    """Wrap each layer's entry points where the CLI and protocols look them up."""
    tr.patch(cli, "main", "cli.main", span=True)
    tr.patch(cli, "resolve_preset", "params.resolve_preset", span=True)
    for fn in PROTOCOLS:
        tr.patch(experiments, fn, "experiments.loop", span=True)
    for fn in METRIC_FUNCTIONS:
        tr.patch(experiments, fn, "experiments.metrics", span=True)
    tr.patch(TraceRecorder, "trace", "experiments.trace", span=True,
             on_result=lambda args, trace: tr.add("rows_kept", len(trace)))
    tr.patch(TraceRecorder, "record", "experiments.record")
    tr.patch(TraceRecorder, "record_raw", "experiments.record")

    for mode in MODES.values():
        tr.stats[f"plant.step.{mode}"] = [0, 0.0, 0.0]
    tr.patch(plant, "step", "plant.step.sea",
             key=lambda args: "plant.step." + MODES[type(args[0])])
    tr.patch(spring_hub.HubModel, "torque", "spring_hub.torque")
    tr.patch(experiments, "request_switch", "selector.request_switch",
             on_result=lambda args, d: tr.add("switch_accepted", int(d.accepted)))
    tr.patch(experiments, "advance_selector", "selector.advance_selector")
    tr.patch(experiments, "p_position", "control.p_position")

    def csv_written(args, rows):
        tr.add("csv_rows", rows)
        tr.add("csv_bytes", os.path.getsize(args[1]))

    tr.patch(io, "write_trace_csv", "io.write_trace_csv", span=True, on_result=csv_written)
    for fn in ("apply_noise", "write_report_json", "emit_svg_plot", "mode_bands"):
        tr.patch(io, fn, f"io.{fn}", span=True)


def wrapper_cost_us() -> float:
    """Cost of one call through an empty hot-path wrapper, net of the bare call [µs]."""
    def noop():
        return None

    wrapped = Tracer().wrap("probe", noop)
    perf = time.perf_counter
    best_bare = best_wrapped = float("inf")
    for _ in range(3):
        t0 = perf()
        for _ in range(WRAPPER_PROBE_CALLS):
            noop()
        t1 = perf()
        for _ in range(WRAPPER_PROBE_CALLS):
            wrapped()
        t2 = perf()
        best_bare = min(best_bare, t1 - t0)
        best_wrapped = min(best_wrapped, t2 - t1)
    return (best_wrapped - best_bare) / WRAPPER_PROBE_CALLS * 1e6


def layer_metrics(tr: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics and the exact counts that must repeat between runs."""
    def us_per_call(name: str) -> float:
        n = tr.calls(name)
        return tr.total_s(name) / n * 1e6 if n else 0.0

    requests = tr.calls("selector.request_switch")
    accepted = tr.extra.get("switch_accepted", 0)
    csv_s = tr.total_s("io.write_trace_csv")
    csv_mb = tr.extra.get("csv_bytes", 0) / 1e6
    metrics = {
        **{f"plant.step.calls.{m}": tr.calls(f"plant.step.{m}") for m in MODES.values()},
        **{f"plant.step.us.{m}": us_per_call(f"plant.step.{m}") for m in MODES.values()},
        "plant.step.self_s": sum(tr.self_s(f"plant.step.{m}") for m in MODES.values()),
        "spring_hub.torque.calls": tr.calls("spring_hub.torque"),
        "spring_hub.torque.self_s": tr.self_s("spring_hub.torque"),
        "selector.request_switch.calls": requests,
        "selector.request_switch.accept_ratio": accepted / requests if requests else 0.0,
        "selector.advance_selector.calls": tr.calls("selector.advance_selector"),
        "selector.self_s": (tr.self_s("selector.request_switch")
                            + tr.self_s("selector.advance_selector")),
        "control.p_position.calls": tr.calls("control.p_position"),
        "control.self_s": tr.self_s("control.p_position"),
        "experiments.loop.self_s": tr.self_s("experiments.loop"),
        "experiments.record.calls": tr.calls("experiments.record"),
        "experiments.record.us": us_per_call("experiments.record"),
        "experiments.rows_kept": tr.extra.get("rows_kept", 0),
        "experiments.trace.self_s": tr.self_s("experiments.trace"),
        "experiments.metrics.self_s": tr.self_s("experiments.metrics"),
        "io.write_trace_csv.self_s": tr.self_s("io.write_trace_csv"),
        "io.write_trace_csv.rows": tr.extra.get("csv_rows", 0),
        "io.write_trace_csv.mb": csv_mb,
        "io.write_trace_csv.mb_per_s": csv_mb / csv_s if csv_s else 0.0,
        "io.write_report_json.self_s": tr.self_s("io.write_report_json"),
        "io.emit_svg_plot.self_s": tr.self_s("io.emit_svg_plot"),
        "io.mode_bands.self_s": tr.self_s("io.mode_bands"),
        "io.apply_noise.self_s": tr.self_s("io.apply_noise"),
        "params.resolve_preset.self_s": tr.self_s("params.resolve_preset"),
        "cli.main.self_s": tr.self_s("cli.main"),
    }
    counts = {name: metrics[name] for name in metrics
              if name.endswith(".calls") or ".calls." in name or name.endswith(".rows")
              or name == "experiments.rows_kept"}
    counts["selector.request_switch.accepted"] = accepted
    return metrics, counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, help="where to write metrics and counts")
    parser.add_argument("--spans", required=True, help="where to write the coarse spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the tsea arguments")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tr = Tracer()
    install(tr)
    rc = cli.main(cli_args)
    metrics, counts = layer_metrics(tr)
    metrics["trace.wrapper_us"] = wrapper_cost_us()
    with open(args.stats, "w") as fh:
        json.dump({"metrics": metrics, "counts": counts}, fh, indent=1)
    with open(args.spans, "w") as fh:
        json.dump(tr.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
