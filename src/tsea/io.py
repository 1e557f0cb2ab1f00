"""Trace CSV writing, report JSON, encoder noise, SVG plots.

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
eight columns as one list per row. orjson prints the same shortest
round-trip digits as repr, and the same text for 1e-4 <= |x| < 1e16 and
zeros, where both print positionally, and for |x| < 1e-9, where both print an
exponent of two or more digits. The other fields are found once per
CSV_CHUNK_ROWS rows, in t and the eight columns; the block dump prints each
as null, and the text built for it in its chunk takes the null's place:

* 1e-9 <= |x| < 1e-5, which orjson prints as "1.5e-6": one orjson dump of
  the chunk's such fields, with each exponent padded to repr's "1.5e-06";
* 1e-5 <= |x| < 1e-4, which orjson prints as "0.000015": one orjson dump,
  with each first significant digit moved before the point and "e-05"
  appended, as repr prints "1.5e-05" and "1e-05";
* |x| >= 1e16, NaN and inf: repr, once per distinct bit pattern in the chunk.

So the contract above holds as long as orjson prints those two shapes, which
the byte oracle checks at the lowest and the newest supported orjson.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
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
# rows formatted per write; larger blocks make fewer orjson calls but raise
# peak memory
CSV_BLOCK_ROWS = 512
# rows whose fields that orjson does not print as repr does are found and
# formatted together: fewer, longer numpy passes and orjson dumps than per
# block, for a column's chunk-sized arrays held at a time; longer chunks raise
# peak memory
CSV_CHUNK_ROWS = 16 * CSV_BLOCK_ROWS


# the output encoder: a 14-bit absolute count, then Gaussian jitter whose
# 3-sigma span matches a ±0.1 deg noise floor
ENCODER_COUNT_RAD = math.radians(360.0 / 2 ** 14)
ENCODER_SIGMA_RAD = math.radians(0.033)


def apply_noise(trace: Trace, seed: int) -> Trace:
    """Quantize the output angle column to whole encoder counts, then add the
    seed's jitter; motor side untouched. Deterministic for a fixed seed."""
    theta_o = np.round(trace.theta_o / ENCODER_COUNT_RAD) * ENCODER_COUNT_RAD
    rng = np.random.default_rng(seed)
    # the draws stay a temporary, which numpy adds into in place; a named
    # array would keep a third trace-length copy alive at the peak
    return replace(trace, theta_o=theta_o + rng.normal(0.0, ENCODER_SIGMA_RAD, theta_o.shape))


def _exponent_texts(values: np.ndarray) -> list[bytes]:
    """repr's texts of values, all 1e-9 <= |x| < 1e-5, from one orjson dump:
    orjson prints "1.5e-6" where repr pads the exponent to "1.5e-06"."""
    return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].replace(
        b"e-", b"e-0").split(b",")


def _positional_texts(values: np.ndarray) -> list[bytes]:
    """repr's texts of values, all 1e-5 <= |x| < 1e-4, from one orjson dump:
    orjson prints "-0.000015" and "0.00001" where repr prints "-1.5e-05" and
    "1e-05". Each field's only point is followed by four zeros and its first
    significant digit, which moves before the point in place of the zeros."""
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b","
    chars = np.frombuffer(text, dtype=np.uint8).copy()
    points = np.flatnonzero(chars == ord("."))
    chars[points + 4] = chars[points + 5]
    chars[points + 5] = ord(".")
    keep = np.ones(chars.size, dtype=bool)
    keep[points[:, None] + np.arange(-1, 4)] = False  # the "0.000" before them
    keep[points[chars[points + 6] == ord(",")] + 5] = False  # "1e-05", not "1.e-05"
    return chars[keep].tobytes().replace(b",", b"e-05,").split(b",")[:-1]


def _repr_texts(values: np.ndarray) -> np.ndarray:
    """repr's texts of values, formatted once per distinct bit pattern."""
    patterns, fills = np.unique(values.view(np.int64), return_inverse=True)
    reprs = [repr(x).encode() for x in patterns.view(np.float64).tolist()]
    return np.array(reprs, dtype=object)[fills]


def _slow_fields(columns: list[np.ndarray], chunk: slice) -> list[tuple[np.ndarray, list[bytes]]]:
    """For each block of CSV_BLOCK_ROWS rows of the table whose column j is
    columns[j][chunk], a chunk that starts at a block boundary, the fields
    that orjson does not print as repr does: their row-major indices in the
    block and repr's texts of them (see the module docstring).
    """
    keys, slow = [], []
    for j, column in enumerate(columns):
        values = np.asarray(column[chunk], dtype=np.float64)
        mag = np.abs(values)
        at = np.flatnonzero(((mag >= 1e-9) & (mag < 1e-4)) | ~(mag < 1e16))
        keys.append(at * len(columns) + j)
        slow.append(values[at])
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    keys, slow = keys[order], np.concatenate(slow)[order]
    mag = np.abs(slow)
    texts = np.empty(slow.size, dtype=object)
    for band, to_texts in ((mag < 1e-5, _exponent_texts),
                           ((mag >= 1e-5) & (mag < 1e-4), _positional_texts),
                           (~(mag < 1e-4), _repr_texts)):
        if band.any():
            texts[band] = to_texts(slow[band])
    block_fields = CSV_BLOCK_ROWS * len(columns)
    ends = range(0, (chunk.stop - chunk.start) * len(columns) + block_fields, block_fields)
    bounds = np.searchsorted(keys, ends).tolist()
    at, texts = keys % block_fields, texts.tolist()
    return [(at[a:b], texts[a:b]) for a, b in zip(bounds, bounds[1:])]


def _dump(values: np.ndarray, at: np.ndarray, texts: list[bytes]) -> bytes:
    """orjson's text of values, a fresh C-contiguous float64 array, with the
    field at each row-major index in at printed as the text in texts."""
    if not texts:
        return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    values.reshape(-1)[at] = math.nan
    pieces = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).split(b"null")
    parts = [b""] * (2 * len(pieces) - 1)
    parts[0::2] = pieces
    parts[1::2] = texts
    return b"".join(parts)


def write_trace_csv(trace: Trace, path: str | Path) -> int:
    """Write every row of the trace; returns the number of data rows."""
    floats = [getattr(trace, name) for name in _FLOAT_COLS]
    n = len(trace)
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER_LINE)
        for start in range(0, n, CSV_CHUNK_ROWS):
            chunk = slice(start, min(start + CSV_CHUNK_ROWS, n))
            blocks = zip(range(chunk.start, chunk.stop, CSV_BLOCK_ROWS),
                         _slow_fields([trace.t], chunk), _slow_fields(floats, chunk))
            for first, t_slow, slow in blocks:
                block = slice(first, first + CSV_BLOCK_ROWS)
                # the t column on its own, the other eight as one list per
                # row, so each row is its t text, its mode, the text of its
                # other fields and the terminator
                times = _dump(np.array(trace.t[block], dtype=np.float64),
                              *t_slow)[1:-1].split(b",")
                rows = _dump(np.stack([c[block] for c in floats], axis=1, dtype=np.float64),
                             *slow)
                parts = [CSV_TERMINATOR] * (4 * len(times))
                parts[0::4] = times
                parts[1::4] = _MODE_FIELDS[trace.mode[block]].tolist()
                parts[2::4] = rows[2:-2].split(b"],[")
                fh.write(b"".join(parts))
    return n


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
_FLOAT_MAX = sys.float_info.max


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
        if hi == lo:  # constant: widen by 1.0, or relative to |lo| where 1.0 rounds away
            widen = 1.0 if lo - 1.0 < lo + 1.0 else abs(lo) / 1024.0
            lo, hi = lo - widen, hi + widen
        # the panel maps s*v between the padded bounds at scale s: 1.0, or 0.5
        # where the padded span overflows, which halves both ends before
        # subtracting; the padding then stops at the float range
        pad = 0.05 * (hi - lo)
        s = 1.0 if math.isfinite((hi + pad) - (lo - pad)) else 0.5
        pad = 0.05 * (s * hi - s * lo)
        lo, hi = max(s * lo - pad, -s * _FLOAT_MAX), min(s * hi + pad, s * _FLOAT_MAX)

        def y_of(v: float) -> float:
            return bot - (s * v - lo) / (hi - lo) * PANEL_HEIGHT

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
            # the label's value; the second form stays within the float range
            val = (lo + frac * (hi - lo) if s == 1.0 else (1.0 - frac) * lo + frac * hi) / s
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
