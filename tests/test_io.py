import builtins
import math
import re
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from oracles import read_trace_csv, reference_mode_bands, reference_write_trace_csv

from tsea import io
from tsea.experiments import MODE_NAMES, Trace, TraceRecorder, run_dynamic_switching
from tsea.io import (
    CSV_BLOCK_ROWS,
    CSV_CHUNK_ROWS,
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


# the spread of theta_o that --noise logs on the locked stiffness rig (the
# default 0.033 deg sigma, in rad): about 14 % of its fields fall in
# 1e-9 <= |x| < 1e-4, which orjson does not print as repr does
LOCKED_NOISE_RAD = 5.8e-4


def _synthetic_trace(n: int, dt: float = 1.25e-4) -> Trace:
    """n recorded rows of both modes; theta_o is jitter around zero, as
    --noise logs it on the locked stiffness rig."""
    rec = TraceRecorder(dt)
    p = ActuatorParams(K_s=5.57, K_t=0.083)
    rng = np.random.default_rng(42)
    for i in range(n):
        if i % 3 == 2:
            state = PeaState(float(rng.normal()), 0.1, 0.0)
        else:
            state = SeaState(float(rng.normal()), -0.2, float(rng.normal()), 0.3, 0.0)
        rec.record(state, 0.5, 0.5, p)
    return replace(rec.trace(), theta_o=rng.normal(0.0, LOCKED_NOISE_RAD, n))


EDGE_VALUES = (-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, math.nan, -math.inf)
FLOAT_COLUMNS = ("t", "theta_m", "omega_m", "theta_o", "omega_o",
                 "tau_cmd", "tau_applied", "tau_spring", "i_q")


def _edge_trace(n: int = 64) -> Trace:
    """Every float column cycles through EDGE_VALUES (shifted per column); all mode codes."""
    base = np.array(EDGE_VALUES)
    cols = {name: base[(np.arange(n) + j) % len(base)] for j, name in enumerate(FLOAT_COLUMNS)}
    mode = (np.arange(n) % len(MODE_NAMES)).astype(np.int8)
    return Trace(dt=1.25e-4, mode=mode, **cols)


def _assert_same_as_reference(trace: Trace, tmp_path) -> None:
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    rows = write_trace_csv(trace, new)
    assert rows == reference_write_trace_csv(trace, ref) == len(trace)
    assert new.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("n", sorted({0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                       CSV_BLOCK_ROWS + 1, 1023, 1024, 1025, 5000,
                                       CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1}))
def test_writer_matches_reference(n, tmp_path):
    _assert_same_as_reference(_synthetic_trace(n), tmp_path)


def test_writer_formats_each_bit_pattern(tmp_path):
    # one block in which 0.0 sits next to -0.0, two NaN bit patterns, a value
    # repeated across rows and columns, and a constant column: the writer
    # formats each distinct bit pattern it hands to repr once and must still
    # match per field
    neg_nan = np.copysign(math.nan, -1.0)
    base = np.array([0.0, -0.0, math.nan, neg_nan, 0.1, 0.1, -2.5, 1e-05])
    assert len(set(base.view(np.int64).tolist())) == 7
    rows = np.arange(CSV_BLOCK_ROWS)
    cols = {name: base[(rows + j) % len(base)] for j, name in enumerate(FLOAT_COLUMNS)}
    cols["tau_spring"] = np.full(CSV_BLOCK_ROWS, 0.1)
    mode = (rows % len(MODE_NAMES)).astype(np.int8)
    trace = Trace(dt=1.25e-4, mode=mode, **cols)
    _assert_same_as_reference(trace, tmp_path)
    lines = (tmp_path / "new.csv").read_text().splitlines()
    assert lines[1] == "0.0,SEA,-0.0,nan,nan,0.1,0.1,-2.5,0.1,0.0"
    assert lines[2] == "-0.0,PEA,nan,nan,0.1,0.1,-2.5,1e-05,0.1,-0.0"


def test_writer_matches_reference_at_format_boundaries(tmp_path):
    # the writer takes orjson's text for 1e-4 <= |x| < 1e16, zeros and
    # |x| < 1e-9, rewrites it for 1e-9 <= |x| < 1e-5 (exponent) and
    # 1e-5 <= |x| < 1e-4 (positional), and hands |x| >= 1e16, NaN and inf to
    # repr: both sides of each bound and of each power of ten in the rewritten
    # band, one- and 17-digit mantissas there, zeros, subnormals, NaN, inf,
    # powers of two, the floats next to 2**53, random bit patterns, and
    # log-uniform magnitudes from the subnormals up and in the rewritten band
    edges = [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, math.inf),
             np.nextafter(1e16, 0.0), 1e16,
             np.nextafter(1e-9, 0.0), 1e-9, np.nextafter(1e-9, math.inf), 1e-10,
             *(np.nextafter(p, side) for p in (1e-5, 1e-6, 1e-7, 1e-8)
               for side in (0.0, math.inf))]
    band = [1e-5, 2e-5, 5e-6, 9e-9, 1.2345678901234568e-5, 9.876543210987654e-6,
            1.0000000000000002e-7, 3.3333333333333334e-9]
    special = [0.0, 5e-324, 2.2250738585072009e-308, 1e-310, math.nan, math.inf,
               *(2.0 ** e for e in range(-20, 61)), 2.0 ** 53 - 1, 2.0 ** 53 + 2]
    rng = np.random.default_rng(20240614)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 20_000,
                        dtype=np.int64, endpoint=True).view(np.float64)
    log_uniform = 10.0 ** rng.uniform(-320.0, 18.0, 20_000)
    band_log_uniform = 10.0 ** rng.uniform(-9.0, -4.0, 20_000)
    values = np.concatenate([edges, band, special, bits, log_uniform, band_log_uniform])
    values = np.concatenate([values, -values])
    n = -(-values.size // len(FLOAT_COLUMNS))
    values = np.resize(values, n * len(FLOAT_COLUMNS))
    cols = dict(zip(FLOAT_COLUMNS, values.reshape(len(FLOAT_COLUMNS), n)))
    mode = (np.arange(n) % len(MODE_NAMES)).astype(np.int8)
    _assert_same_as_reference(Trace(dt=1.25e-4, mode=mode, **cols), tmp_path)


def _count_repr_calls(monkeypatch, trace: Trace, tmp_path) -> list:
    seen = []

    def spy(x):
        seen.append(x)
        return builtins.repr(x)

    monkeypatch.setattr(io, "repr", spy, raising=False)
    _assert_same_as_reference(trace, tmp_path)
    return seen


def _constant_columns(values, n: int) -> Trace:
    cols = {name: np.full(n, v) for name, v in zip(FLOAT_COLUMNS, values)}
    return Trace(dt=1.25e-4, mode=(np.arange(n) % len(MODE_NAMES)).astype(np.int8), **cols)


def test_writer_calls_repr_only_for_slow_fields(monkeypatch, tmp_path):
    # every field in orjson's exact range: no repr call at all
    fast = (1e-12, 5e-324, -0.0, 1e-4, 0.5, -1e-10, 0.0, 3.0, np.nextafter(1e-9, 0.0))
    assert _count_repr_calls(monkeypatch, _constant_columns(fast, 2 * CSV_BLOCK_ROWS + 3),
                             tmp_path) == []
    # none for 1e-9 <= |x| < 1e-4 either, whose text comes from orjson's
    # digits, and one call per distinct |x| >= 1e16, NaN or inf bit pattern
    # per chunk: both NaN patterns, 1e16 and -inf in every row, one chunk of
    # three blocks
    neg_nan = np.copysign(math.nan, -1.0)
    slow = (0.5, 1e-05, 1e-9, 1e-05, math.nan, neg_nan, 1e16, -math.inf, 0.25)
    seen = _count_repr_calls(monkeypatch, _constant_columns(slow, 2 * CSV_BLOCK_ROWS + 3),
                             tmp_path)
    assert len(seen) == 4
    assert not any(1e-9 <= abs(x) < 1e-4 for x in seen)


def test_writer_peak_memory_is_per_chunk(tmp_path):
    # a trace the size of `tsea stiffness --mode sea`'s with its noisy
    # theta_o: the writer holds a chunk's slow fields and a block's text at a
    # time, never a copy or the text of the whole trace
    n = 245_284
    rng = np.random.default_rng(3)
    cols = {name: rng.normal(0.0, 1.0, n) for name in FLOAT_COLUMNS}
    cols["t"] = np.arange(n) * 5e-4
    cols["theta_o"] = rng.normal(0.0, LOCKED_NOISE_RAD, n)
    trace = Trace(dt=5e-4, mode=np.zeros(n, dtype=np.int8), **cols)
    tracemalloc.start()
    try:
        assert write_trace_csv(trace, tmp_path / "t.csv") == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


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


@pytest.mark.parametrize("field, value", [
    ("sigma_deg", -0.1), ("sigma_deg", math.inf), ("sigma_deg", math.nan),
    ("quantization_deg", 0.0), ("quantization_deg", -1.0), ("quantization_deg", math.nan),
    ("quantization_deg", math.inf),
])
def test_noise_model_validation(field, value):
    # each value would log theta_o as NaN or inf, quantize by a negative step or skip the jitter
    with pytest.raises(ValueError, match=field):
        NoiseModel(**{field: value})


def test_svg_constant_series_valid_xml(tmp_path):
    path = tmp_path / "p.svg"
    t = np.linspace(0, 1, 50)
    emit_svg_plot(t, {"flat": np.full(50, 2.0)}, path, title="flat line")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert any(el.tag.endswith("polyline") for el in root.iter())


@pytest.mark.parametrize("value", [1e300, -1e300, 2.0 ** 60])
def test_svg_constant_series_beyond_unit_spacing(value, tmp_path):
    # lo - 1.0 rounds back to lo here, so the axis must widen relative to |lo|
    path = tmp_path / "p.svg"
    emit_svg_plot(np.linspace(0, 1, 50), {"flat": np.full(50, value)}, path)
    root = ET.parse(path).getroot()
    (line,) = [el for el in root.iter() if el.tag.endswith("polyline")]
    ys = {float(pt.split(",")[1]) for pt in line.get("points").split()}
    assert ys == {28.0 + io.PANEL_HEIGHT / 2}  # mid-panel: the top margin plus half
    ticks = [float(el.get("y1")) for el in root.iter() if el.tag.endswith("}line")]
    assert len(ticks) == 3 and all(map(math.isfinite, ticks))


@pytest.mark.parametrize("values", [[-1e308, 1e308], [0.0, 1.79e308],
                                    [-sys.float_info.max, sys.float_info.max]],
                         ids=["span-overflows", "padding-overflows", "float-range"])
def test_svg_span_beyond_float_range(values, tmp_path):
    # hi - lo, or a padded bound, overflows: every coordinate and value label
    # is still finite, and the line stays inside its panel, between the labels.
    # A label is read as a Decimal: "1.8e+308", the float range rounded to
    # three digits, is a finite label beyond what a float holds
    path = tmp_path / "p.svg"
    emit_svg_plot([0.0, 1.0], {"y": values}, path)
    root = ET.parse(path).getroot()
    coords = [float(el.get(name)) for el in root.iter()
              for name in ("x", "y", "x1", "y1", "x2", "y2") if el.get(name) is not None]
    (line,) = [el for el in root.iter() if el.tag.endswith("polyline")]
    points = [float(v) for pt in line.get("points").split() for v in pt.split(",")]
    labels = [Decimal(el.text) for el in root.iter()
              if el.tag.endswith("text") and el.get("text-anchor") == "end"]
    assert len(labels) == 3
    assert all(map(math.isfinite, coords + points))
    assert all(label.is_finite() for label in labels)
    assert all(28.0 <= y <= 28.0 + io.PANEL_HEIGHT for y in points[1::2])
    assert labels[0] <= min(values) and max(values) <= labels[-1]


def test_svg_empty_series_rejected(tmp_path):
    with pytest.raises(ValueError, match="no series"):
        emit_svg_plot([0.0, 1.0], {}, tmp_path / "p.svg")


def test_svg_band_shading_matches_switches(tmp_path, calibrated):
    trace, rep = run_dynamic_switching(calibrated, duration=3.0, switch_period=1.0)
    bands = mode_bands(trace)
    engage_times = [r.engage_k * calibrated.params.dt
                    for r in rep.records if r.outcome == COMPLETED]
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
    # the message names the key path of the first non-finite value
    path = tmp_path / "r.json"
    report = {"ok": 1.0, "nested": {"fine": [2.0], "bad": [3.0, bad, -math.inf]}}
    with pytest.raises(ValueError, match=re.escape(
            f"report value nested.bad[1] is {bad!r}, which JSON cannot hold")):
        write_report_json(report, path)
    assert not path.exists()
