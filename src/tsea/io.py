"""Trace CSV writing, report/config JSON, measurement noise, SVG plots.

CSV fields are written with repr-level precision so a round trip reproduces
the trace bit-for-bit; output is locale-independent by construction. Angles
stay in radians on disk; degrees appear only in reports and plot labels.

trace.csv byte contract (the writer formats rows itself, so it must keep
exactly what csv.writer produced):

* the first line is CSV_HEADER joined with ",";
* each data row is the t field, the mode name from MODE_NAMES, then the other
  eight columns in CSV_HEADER order, every float written as repr(float(x))
  (so "-0.0", "5e-324", "1e-05", "1e+16", "nan", "-inf");
* fields are joined with "," and never quoted: no repr of a float and no
  mode name contains a comma, quote or line break;
* every line, the header included, ends with "\r\n" (csv.writer's default
  terminator), and the file is pure ASCII.

The writer formats CSV_BLOCK_ROWS rows at a time. Two orjson.dumps calls per
block give the text of every field: one for the t column, one for the other
eight columns as one list per row. orjson is trusted where it prints the same
text as repr: for 1e-4 <= |x| < 1e16 and zeros, where repr prints
positionally, and for |x| < 1e-9, where both print an exponent of two or more
digits. Every other field (1e-9 <= |x| < 1e-4, |x| >= 1e16, NaN and inf) is
formatted with repr, once per distinct bit pattern in the block; a field
repeats the text of its pattern, so the contract above holds unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import orjson

from .experiments import _FLOAT_COLS, MODE_NAMES, Trace, mode_runs

SCHEMA_VERSION = 1

CSV_HEADER = ("t", "mode", *_FLOAT_COLS)
CSV_TERMINATOR = b"\r\n"
_CSV_HEADER_LINE = ",".join(CSV_HEADER).encode() + CSV_TERMINATOR
# the mode field with the separators on either side, indexed by mode code
_MODE_FIELDS = np.array([b"," + name.encode() + b"," for name in MODE_NAMES], dtype=object)
# rows formatted per write; larger blocks share more repeated repr values
# (and make fewer orjson calls) but raise peak memory
CSV_BLOCK_ROWS = 512


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Output-encoder measurement noise: quantization plus Gaussian jitter.

    Defaults model a 14-bit absolute encoder (360/2^14 deg per count) with a
    sigma whose 3-sigma span matches a ±0.1 deg noise floor.
    """

    enabled: bool = False
    quantization_deg: float = 360.0 / 2 ** 14
    sigma_deg: float = 0.033
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.quantization_deg < math.inf:  # NaN fails too
            raise ValueError(
                f"quantization_deg must be positive and finite (got {self.quantization_deg})")
        if not 0.0 <= self.sigma_deg < math.inf:
            raise ValueError(f"sigma_deg must be finite and non-negative (got {self.sigma_deg})")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative (got {self.seed})")


def apply_noise(trace: Trace, model: NoiseModel) -> Trace:
    """Quantize then perturb the output angle column; motor side untouched.

    Deterministic for a fixed seed. A disabled model is the identity.
    """
    if not model.enabled:
        return trace
    q = math.radians(model.quantization_deg)
    theta_o = np.round(trace.theta_o / q) * q
    if model.sigma_deg > 0.0:
        rng = np.random.default_rng(model.seed)
        theta_o = theta_o + rng.normal(0.0, math.radians(model.sigma_deg), size=theta_o.shape)
    return replace(trace, theta_o=theta_o)


def _json_floats(values: np.ndarray) -> bytes:
    """orjson's JSON text of values, a fresh C-contiguous float64 array, with
    every field that orjson does not print as repr does printed by repr.

    repr and orjson print the same shortest round-trip digits, and the same
    text where both print them positionally (1e-4 <= |x| < 1e16 and zeros:
    "3.0", "-0.0") or both need a two-digit exponent (|x| < 1e-9: "1e-10",
    "5e-324"). Elsewhere the texts differ (1e-05 / 0.00001, 1e-09 / 1e-9,
    1e+16 / 1e16, nan / null): those fields go to repr, once per distinct
    bit pattern, and are printed as null until the repr replaces them.
    values[slow] lists them row-major, in the order they appear in the text.
    """
    mag = np.abs(values)
    slow = ((mag >= 1e-9) & (mag < 1e-4)) | ~(mag < 1e16)
    if not slow.any():
        return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    patterns, fills = np.unique(values[slow].view(np.int64), return_inverse=True)
    reprs = np.array([repr(x).encode() for x in patterns.view(np.float64).tolist()], dtype=object)
    values[slow] = math.nan
    pieces = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).split(b"null")
    parts = [b""] * (2 * len(pieces) - 1)
    parts[0::2] = pieces
    parts[1::2] = reprs[fills].tolist()
    return b"".join(parts)


def write_trace_csv(trace: Trace, path: str | Path) -> int:
    """Write every row of the trace; returns the number of data rows."""
    floats = [getattr(trace, name) for name in _FLOAT_COLS]
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER_LINE)
        for start in range(0, len(trace), CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            # the t column on its own, the other eight as one list per row,
            # so each row is its t text, its mode, the text of its other
            # fields and the terminator
            times = _json_floats(np.array(trace.t[block], dtype=np.float64))[1:-1].split(b",")
            rows = _json_floats(np.stack([c[block] for c in floats], axis=1, dtype=np.float64))
            parts = [CSV_TERMINATOR] * (4 * len(times))
            parts[0::4] = times
            parts[1::4] = _MODE_FIELDS[trace.mode[block]].tolist()
            parts[2::4] = rows[2:-2].split(b"],[")
            fh.write(b"".join(parts))
    return len(trace)


def _non_finite(value, where: str = "") -> tuple[str, float] | None:
    """The key path (as in segments[0].rms_iq_a) and value of the first
    non-finite float in a report value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (where, value)
    if isinstance(value, dict):
        items = ((f"{where}.{key}" if where else str(key), v) for key, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite(v, path) for path, v in items)), None)


def write_report_json(report_dict: dict, path: str | Path) -> None:
    """Write the report as strict JSON; a non-finite value raises ValueError
    naming its key path before anything is written."""
    doc = {"schema_version": SCHEMA_VERSION, **report_dict}
    bad = _non_finite(doc)
    if bad is not None:
        raise ValueError(f"report value {bad[0]} is {bad[1]!r}, which JSON cannot hold")
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# SVG time-series plot
# ---------------------------------------------------------------------------

_BAND_FILL = {"SEA": "#9ecae1", "PEA": "#fc9272", "TRANS": "#cccccc"}
_LINE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
PLOT_WIDTH = 900    # [px]
PANEL_HEIGHT = 180  # [px] per series


def emit_svg_plot(
    t,
    series: dict[str, "np.ndarray"],
    path: str | Path,
    bands: list[tuple[float, float, str]] | None = None,
    title: str = "",
) -> None:
    """Standalone SVG with one panel per series and optional mode shading.

    bands are (t_start, t_end, mode_name) spans drawn behind each panel.
    """
    if not series:
        raise ValueError("no series to plot")
    t = np.asarray(t, dtype=np.float64)
    if t.size == 0:
        raise ValueError("empty time axis")
    names = list(series)
    margin_l, margin_r, margin_t, margin_b = 65, 15, 28, 30
    panel_gap = 14
    height = margin_t + len(names) * (PANEL_HEIGHT + panel_gap) + margin_b
    plot_w = PLOT_WIDTH - margin_l - margin_r
    t0, t1 = float(t[0]), float(t[-1])
    tspan = (t1 - t0) or 1.0

    def x_of(tv: float) -> float:
        return margin_l + (tv - t0) / tspan * plot_w

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PLOT_WIDTH}" height="{height}" '
        f'viewBox="0 0 {PLOT_WIDTH} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{PLOT_WIDTH}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{PLOT_WIDTH / 2:.1f}" y="16" text-anchor="middle" '
                   f'font-size="13">{title}</text>')

    for pi, name in enumerate(names):
        y = np.asarray(series[name], dtype=np.float64)
        if y.size != t.size:
            raise ValueError(f"series {name!r} length {y.size} != time axis {t.size}")
        top = margin_t + pi * (PANEL_HEIGHT + panel_gap)
        bot = top + PANEL_HEIGHT
        lo, hi = float(np.min(y)), float(np.max(y))
        if hi == lo:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad

        def y_of(v: float) -> float:
            return bot - (v - lo) / (hi - lo) * PANEL_HEIGHT

        if bands:
            for b0, b1, mode_name in bands:
                x0, x1 = x_of(max(b0, t0)), x_of(min(b1, t1))
                if x1 <= x0:
                    continue
                fill = _BAND_FILL.get(mode_name, "#eeeeee")
                out.append(f'<rect x="{x0:.2f}" y="{top:.2f}" width="{x1 - x0:.2f}" '
                           f'height="{PANEL_HEIGHT}" fill="{fill}" opacity="0.35"/>')

        out.append(f'<rect x="{margin_l}" y="{top}" width="{plot_w}" '
                   f'height="{PANEL_HEIGHT}" fill="none" stroke="#444"/>')
        for frac in (0.0, 0.5, 1.0):
            val = lo + frac * (hi - lo)
            yy = y_of(val)
            out.append(f'<line x1="{margin_l - 4}" y1="{yy:.2f}" x2="{margin_l}" '
                       f'y2="{yy:.2f}" stroke="#444"/>')
            out.append(f'<text x="{margin_l - 7}" y="{yy + 3.5:.2f}" '
                       f'text-anchor="end">{val:.3g}</text>')

        step = max(1, t.size // (2 * plot_w))
        pts = " ".join(f"{x_of(float(tv)):.2f},{y_of(float(yv)):.2f}"
                       for tv, yv in zip(t[::step], y[::step]))
        color = _LINE_COLORS[pi % len(_LINE_COLORS)]
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        out.append(f'<text x="{margin_l + 6}" y="{top + 14}" fill="{color}">{name}</text>')

    axis_y = height - margin_b + 16
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tv = t0 + frac * tspan
        out.append(f'<text x="{x_of(tv):.1f}" y="{axis_y}" text-anchor="middle">{tv:.3g}</text>')
    out.append(f'<text x="{PLOT_WIDTH / 2:.1f}" y="{height - 6}" text-anchor="middle">t [s]</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out))


def mode_bands(trace: Trace) -> list[tuple[float, float, str]]:
    """Contiguous same-mode spans of a trace, for plot shading."""
    mode, t = trace.mode, trace.t
    last = len(trace) - 1  # a band ends where the next one starts, the last at t[-1]
    return [(float(t[a]), float(t[min(b, last)]), MODE_NAMES[mode[a]])
            for a, b in mode_runs(mode)]
