"""The per-layer benchmark run must still attach to the simulator.

perfbench/traced.py wraps tsea functions by name from outside src/. A
refactor that calls them some other way would leave its counters at zero
without failing, so these runs check that every hot layer is counted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_counts(tmp_path: Path, *tsea_args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stats = tmp_path / "stats.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), "--stats", str(stats),
         "--spans", str(tmp_path / "spans.json"), "--", *tsea_args,
         "--out", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(stats.read_text())["counts"]


def span_names(tmp_path: Path) -> list[str]:
    """The names of the coarse spans of the last traced_counts run."""
    return [name for name, *_ in json.loads((tmp_path / "spans.json").read_text())]


def test_traced_cycle_counts_every_layer(tmp_path):
    counts = traced_counts(tmp_path, "cycle", "--n", "3")
    steps = sum(v for k, v in counts.items() if k.startswith("plant.step.calls."))
    assert steps > 0
    assert counts["control.p_position.calls"] == steps
    # cycle logs at 1 kHz: the driver calls the recorder on kept rows only
    assert counts["experiments.record.calls"] == counts["experiments.rows_kept"] > 0
    assert counts["selector.request_switch.calls"] >= 3
    assert counts["selector.advance_selector.calls"] > 0


def test_traced_disturb_logs_every_step(tmp_path):
    counts = traced_counts(tmp_path, "disturb", "--mode", "pea", "--impacts", "1")
    steps = sum(v for k, v in counts.items() if k.startswith("plant.step.calls."))
    assert steps > 0
    # the disturbance driver logs a row before every step
    assert (counts["control.p_position.calls"] == steps == counts["experiments.record.calls"]
            == counts["experiments.rows_kept"])


def test_traced_track_counts_every_step(tmp_path):
    counts = traced_counts(tmp_path, "track", "--duration", "1", "--period", "0.5")
    steps = sum(v for k, v in counts.items() if k.startswith("plant.step.calls."))
    # the tracking phases log a row before every step, gated or not
    assert (counts["control.p_position.calls"] == steps == counts["experiments.record.calls"]
            == counts["experiments.rows_kept"] > 0)


def test_traced_stiffness_runs(tmp_path):
    counts = traced_counts(tmp_path, "stiffness", "--mode", "sea", "--cycles", "1",
                           "--preset", "paper-full-range")
    assert counts["io.write_trace_csv.rows"] == counts["experiments.rows_kept"]
    # the rig calls record_raw only on the rows it simulates, not on those it copies
    assert 0 < counts["experiments.record.calls"] <= counts["experiments.rows_kept"]
    assert "io.apply_noise" not in span_names(tmp_path)  # only --noise perturbs theta_o


def test_traced_noise_runs_once(tmp_path):
    traced_counts(tmp_path, "stiffness", "--mode", "sea", "--cycles", "1",
                  "--preset", "paper-full-range", "--noise", "--seed", "3")
    assert span_names(tmp_path).count("io.apply_noise") == 1
