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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .experiments import MODE_NAMES, Trace, mode_runs

SCHEMA_VERSION = 1

CSV_HEADER = ("t", "mode", "theta_m", "omega_m", "theta_o", "omega_o",
              "tau_cmd", "tau_applied", "tau_spring", "i_q")
CSV_TERMINATOR = "\r\n"
# rows formatted per write; larger blocks save no time but raise peak memory
CSV_BLOCK_ROWS = 1024


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
        if self.sigma_deg < 0.0:
            raise ValueError(f"sigma_deg must be non-negative (got {self.sigma_deg})")


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


def write_trace_csv(trace: Trace, path: str | Path, decimate_to_hz: float | None = None) -> int:
    """Write the trace; returns the number of data rows.

    Decimation keeps every k-th row with k = round(sample_rate / target).
    """
    k = 1
    if decimate_to_hz is not None:
        if decimate_to_hz <= 0.0:
            raise ValueError("decimate_to_hz must be positive")
        k = max(1, round(1.0 / (trace.dt * decimate_to_hz)))
    n = len(trace)
    cols = (trace.theta_m, trace.omega_m, trace.theta_o, trace.omega_o,
            trace.tau_cmd, trace.tau_applied, trace.tau_spring, trace.i_q)
    span = k * CSV_BLOCK_ROWS
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + CSV_TERMINATOR)
        for start in range(0, n, span):
            block = slice(start, start + span, k)
            fields = (
                map(repr, trace.t[block].tolist()),
                map(MODE_NAMES.__getitem__, trace.mode[block].tolist()),
                *(map(repr, c[block].tolist()) for c in cols),
            )
            fh.write(CSV_TERMINATOR.join(map(",".join, zip(*fields))) + CSV_TERMINATOR)
    return len(range(0, n, k))


def write_report_json(report_dict: dict, path: str | Path) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **report_dict}
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# SVG time-series plot
# ---------------------------------------------------------------------------

_BAND_FILL = {"SEA": "#9ecae1", "PEA": "#fc9272", "TRANS": "#cccccc"}
_LINE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def emit_svg_plot(
    t,
    series: dict[str, "np.ndarray"],
    path: str | Path,
    bands: list[tuple[float, float, str]] | None = None,
    title: str = "",
    width: int = 900,
    height_per_panel: int = 180,
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
    height = margin_t + len(names) * (height_per_panel + panel_gap) + margin_b
    plot_w = width - margin_l - margin_r
    t0, t1 = float(t[0]), float(t[-1])
    tspan = (t1 - t0) or 1.0

    def x_of(tv: float) -> float:
        return margin_l + (tv - t0) / tspan * plot_w

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="16" text-anchor="middle" '
                   f'font-size="13">{title}</text>')

    for pi, name in enumerate(names):
        y = np.asarray(series[name], dtype=np.float64)
        if y.size != t.size:
            raise ValueError(f"series {name!r} length {y.size} != time axis {t.size}")
        top = margin_t + pi * (height_per_panel + panel_gap)
        bot = top + height_per_panel
        lo, hi = float(np.min(y)), float(np.max(y))
        if hi == lo:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad

        def y_of(v: float) -> float:
            return bot - (v - lo) / (hi - lo) * height_per_panel

        if bands:
            for b0, b1, mode_name in bands:
                x0, x1 = x_of(max(b0, t0)), x_of(min(b1, t1))
                if x1 <= x0:
                    continue
                fill = _BAND_FILL.get(mode_name, "#eeeeee")
                out.append(f'<rect x="{x0:.2f}" y="{top:.2f}" width="{x1 - x0:.2f}" '
                           f'height="{height_per_panel}" fill="{fill}" opacity="0.35"/>')

        out.append(f'<rect x="{margin_l}" y="{top}" width="{plot_w}" '
                   f'height="{height_per_panel}" fill="none" stroke="#444"/>')
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
    out.append(f'<text x="{width / 2:.1f}" y="{height - 6}" text-anchor="middle">t [s]</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out))


def mode_bands(trace: Trace) -> list[tuple[float, float, str]]:
    """Contiguous same-mode spans of a trace, for plot shading."""
    mode, t = trace.mode, trace.t
    last = len(trace) - 1  # a band ends where the next one starts, the last at t[-1]
    return [(float(t[a]), float(t[min(b, last)]), MODE_NAMES[mode[a]])
            for a, b in mode_runs(mode)]
