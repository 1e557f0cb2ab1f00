import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from oracles import read_trace_csv, reference_mode_bands, reference_write_trace_csv

from tsea.experiments import MODE_NAMES, Trace, TraceRecorder, run_dynamic_switching
from tsea.io import (
    NoiseModel,
    apply_noise,
    emit_svg_plot,
    mode_bands,
    write_report_json,
    write_trace_csv,
)
from tsea.params import ActuatorParams
from tsea.plant import PeaState, SeaState
from tsea.selector import COMPLETED


def _synthetic_trace(n: int, dt: float = 1.25e-4) -> Trace:
    rec = TraceRecorder(dt)
    p = ActuatorParams(K_s=5.57, K_t=0.083)
    rng = np.random.default_rng(42)
    for i in range(n):
        t = i * dt
        if i % 3 == 2:
            state = PeaState(float(rng.normal()), 0.1, 0.0)
        else:
            state = SeaState(float(rng.normal()), -0.2, float(rng.normal()), 0.3, 0.0)
        rec.record(t, state, 0.5, 0.5, p)
    return rec.trace()


EDGE_VALUES = (-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, math.nan, -math.inf)
FLOAT_COLUMNS = ("t", "theta_m", "omega_m", "theta_o", "omega_o",
                 "tau_cmd", "tau_applied", "tau_spring", "i_q")


def _edge_trace(n: int = 64) -> Trace:
    """Every float column cycles through EDGE_VALUES (shifted per column); all mode codes."""
    base = np.array(EDGE_VALUES)
    cols = {name: base[(np.arange(n) + j) % len(base)] for j, name in enumerate(FLOAT_COLUMNS)}
    mode = (np.arange(n) % len(MODE_NAMES)).astype(np.int8)
    return Trace(dt=1.25e-4, mode=mode, **cols)


def _assert_same_as_reference(trace: Trace, tmp_path, decimate_to_hz=None) -> None:
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    rows = write_trace_csv(trace, new, decimate_to_hz=decimate_to_hz)
    assert rows == reference_write_trace_csv(trace, ref, decimate_to_hz=decimate_to_hz)
    assert new.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 5000])
def test_writer_matches_reference(n, tmp_path):
    _assert_same_as_reference(_synthetic_trace(n), tmp_path)


@pytest.mark.parametrize("n, hz", [(20000, 1000.0), (5000, 8000.0 / 3.0), (8000, 50.0)])
def test_writer_matches_reference_decimated(n, hz, tmp_path):
    trace = _synthetic_trace(n)
    k = round(1.0 / (trace.dt * hz))
    assert k > 1 and n % (k * 1024) != 0
    _assert_same_as_reference(trace, tmp_path, decimate_to_hz=hz)


def test_writer_matches_reference_edge_values(tmp_path):
    trace = _edge_trace()
    _assert_same_as_reference(trace, tmp_path)
    text = (tmp_path / "new.csv").read_text()
    for token in ("-0.0", "5e-324", "1e-05", "1e+16", "1.7976931348623157e+308", "nan", "-inf",
                  *MODE_NAMES):
        assert token in text, token


def test_empty_trace_header_only(tmp_path):
    trace = _synthetic_trace(0)
    path = tmp_path / "t.csv"
    assert write_trace_csv(trace, path) == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0] == "t,mode,theta_m,omega_m,theta_o,omega_o,tau_cmd,tau_applied,tau_spring,i_q"


def test_decimation_to_50hz(tmp_path):
    trace = _synthetic_trace(8000)  # one second at 8 kHz
    path = tmp_path / "t.csv"
    assert write_trace_csv(trace, path, decimate_to_hz=50.0) == 50


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "t.csv"
    for trace in (_synthetic_trace(500), _edge_trace()):
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        for name in FLOAT_COLUMNS:
            # byte comparison: tells -0.0 from 0.0 and matches nan with nan
            assert getattr(back, name).tobytes() == getattr(trace, name).tobytes(), name
        assert np.array_equal(back.mode, trace.mode)


def test_noise_disabled_is_identity():
    trace = _synthetic_trace(100)
    assert apply_noise(trace, NoiseModel(enabled=False)) is trace


def test_noise_pure_quantization():
    trace = _synthetic_trace(200)
    model = NoiseModel(enabled=True, sigma_deg=0.0)
    noisy = apply_noise(trace, model)
    q = math.radians(model.quantization_deg)
    counts = noisy.theta_o / q
    assert np.allclose(counts, np.round(counts), atol=1e-9)
    assert model.quantization_deg == pytest.approx(0.02197, abs=1e-5)


def test_noise_deterministic_and_motor_untouched():
    trace = _synthetic_trace(300)
    model = NoiseModel(enabled=True, seed=123)
    a = apply_noise(trace, model)
    b = apply_noise(trace, model)
    assert np.array_equal(a.theta_o, b.theta_o)
    assert not np.array_equal(a.theta_o, trace.theta_o)
    assert np.array_equal(a.theta_m, trace.theta_m)
    assert np.array_equal(a.omega_m, trace.omega_m)
    c = apply_noise(trace, NoiseModel(enabled=True, seed=124))
    assert not np.array_equal(a.theta_o, c.theta_o)


def test_noise_sigma_validation():
    with pytest.raises(ValueError):
        NoiseModel(sigma_deg=-0.1)


def test_svg_constant_series_valid_xml(tmp_path):
    path = tmp_path / "p.svg"
    t = np.linspace(0, 1, 50)
    emit_svg_plot(t, {"flat": np.full(50, 2.0)}, path, title="flat line")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert any(el.tag.endswith("polyline") for el in root.iter())


def test_svg_empty_series_rejected(tmp_path):
    with pytest.raises(ValueError, match="no series"):
        emit_svg_plot([0.0, 1.0], {}, tmp_path / "p.svg")


def test_svg_band_shading_matches_switches(tmp_path, calibrated):
    trace, rep = run_dynamic_switching(calibrated, duration=3.0, switch_period=1.0)
    bands = mode_bands(trace)
    engage_times = [r.engage_time for r in rep.switch_records if r.outcome == COMPLETED]
    starts = [b[0] for b in bands]
    for et in engage_times:
        assert min(abs(s - et) for s in starts) < 2 * trace.dt
    path = tmp_path / "p.svg"
    emit_svg_plot(trace.t, {"theta_m": trace.theta_m, "i_q": trace.i_q}, path, bands=bands)
    root = ET.parse(path).getroot()
    rects = [el for el in root.iter() if el.tag.endswith("rect") and el.get("opacity")]
    assert len(rects) == 2 * len(bands)  # one shading rect per band per panel
    assert bands == reference_mode_bands(trace)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1000])
def test_mode_bands_match_reference(n):
    trace = _synthetic_trace(n)  # every third row is PEA: many short bands
    assert mode_bands(trace) == reference_mode_bands(trace)


def test_report_json(tmp_path):
    path = tmp_path / "r.json"
    write_report_json({"a": 1.5, "b": [1, 2]}, path)
    import json

    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert doc["a"] == 1.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_report_json_rejects_non_finite(bad, tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        write_report_json({"ok": 1.0, "nested": {"bad": [bad]}}, path)
    assert not path.exists()
