"""Independent reference computations used to pin expected test values.

These deliberately avoid the closed-form torque expression in
tsea.spring_hub: torques come from explicit hook coordinates, per-spring
tension resolution and summed moments. The reference trace writer and
mode-band scan are the original row-by-row loops that the columnar versions
in tsea.io must match exactly.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from tsea.experiments import MODE_NAMES, Trace
from tsea.io import CSV_HEADER
from tsea.params import HubGeometry


def spring_force_torque(geometry: HubGeometry, beta: float) -> float:
    """Hub torque [Nm] from a per-spring force decomposition.

    For each of the four springs the hook positions are built in the plane,
    the tension follows from the working length (hook chord plus the constant
    assembly offset, matching the preloaded-assembly model), and its
    tangential component at the inner hook is multiplied by the hook radius.
    With a zero assembly offset (installed length equal to the chord at rest)
    this is the plain textbook decomposition with no shared assumptions.
    """
    k, l0, r1, r2 = geometry.k, geometry.l0, geometry.r1, geometry.r2
    l_p = geometry.l0 + geometry.preload_ext
    chord_rest = math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2)  # l(0)
    offset = l_p - chord_rest

    total_nmm = 0.0
    for i in range(4):
        phi = i * math.pi / 2.0
        # inner hook on the output plate, outer hook on the rotated plate
        p1x, p1y = r1 * math.cos(phi), r1 * math.sin(phi)
        p2x, p2y = r2 * math.cos(phi + beta), r2 * math.sin(phi + beta)
        dx, dy = p2x - p1x, p2y - p1y
        working = math.hypot(dx, dy) + offset
        tension = k * (working - l0)                      # [N]
        tx, ty = -math.sin(phi), math.cos(phi)            # tangent at the inner hook
        tangential = tension * (dx * tx + dy * ty) / working
        total_nmm += r1 * tangential                      # moment about the shaft [N·mm]
    return total_nmm * 1e-3


def exponential_band_crossing(amplitude: float, tau: float, band: float) -> float:
    """Time at which A*exp(-t/tau) decays into a band [same units as tau]."""
    return tau * math.log(amplitude / band)


def reference_write_trace_csv(trace: Trace, path: str | Path,
                              decimate_to_hz: float | None = None) -> int:
    """The original row-by-row csv.writer trace writer, kept as the byte reference."""
    k = 1
    if decimate_to_hz is not None:
        if decimate_to_hz <= 0.0:
            raise ValueError("decimate_to_hz must be positive")
        k = max(1, round(1.0 / (trace.dt * decimate_to_hz)))
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        cols = (trace.t, trace.theta_m, trace.omega_m, trace.theta_o, trace.omega_o,
                trace.tau_cmd, trace.tau_applied, trace.tau_spring, trace.i_q)
        for i in range(0, len(trace), k):
            writer.writerow((
                repr(float(cols[0][i])), MODE_NAMES[trace.mode[i]],
                *(repr(float(c[i])) for c in cols[1:]),
            ))
            rows += 1
    return rows


def reference_mode_bands(trace: Trace) -> list[tuple[float, float, str]]:
    """The original per-row scan for contiguous same-mode spans."""
    if len(trace) == 0:
        return []
    bands = []
    start = 0
    for i in range(1, len(trace)):
        if trace.mode[i] != trace.mode[start]:
            bands.append((float(trace.t[start]), float(trace.t[i]), MODE_NAMES[trace.mode[start]]))
            start = i
    bands.append((float(trace.t[start]), float(trace.t[-1]), MODE_NAMES[trace.mode[start]]))
    return bands
