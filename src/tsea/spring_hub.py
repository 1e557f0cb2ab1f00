"""Radial spring hub torque model.

Four extension springs at 90° intervals connect an inner plate (hook radius
r1) to an outer plate (hook radius r2). A relative plate rotation beta
stretches all four springs identically; the tangential components of the
spring forces produce the restoring torque.

The raw hook-to-hook chord at beta = 0 is r2 - r1, which is shorter than the
free length for the default geometry. The assembled device is preloaded, so
the model adds a constant assembly offset to the working spring length such
that the length at beta = 0 equals the installed length l_p = l0 +
preload_ext. With that offset the small-angle slope of the nonlinear torque
equals linearized_stiffness() exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # params validates a hub with this module's laws
    from .params import HubGeometry

_MM_NM = 1e-3  # N·mm -> Nm


def installed_length(geometry: HubGeometry) -> float:
    """Installed spring length l_p = l0 + preload_ext [mm]."""
    return geometry.l0 + geometry.preload_ext


def preload_offset(geometry: HubGeometry) -> float:
    """Constant assembly offset l_p - l(0) added to the raw chord [mm]."""
    return installed_length(geometry) - spring_length(geometry, 0.0)


def spring_length(geometry: HubGeometry, beta: float) -> float:
    """Hook-to-hook chord sqrt(r1² + r2² - 2 r1 r2 cos beta) [mm]. Even in beta."""
    r1, r2 = geometry.r1, geometry.r2
    return math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(beta))


def effective_length(geometry: HubGeometry, beta: float) -> float:
    """Working spring length: chord plus the constant assembly offset [mm]."""
    return spring_length(geometry, beta) + preload_offset(geometry)


def linearized_stiffness(geometry: HubGeometry) -> float:
    """Small-deflection hub stiffness 4 k r1 r2 (1 - l0/l_p) [Nm/rad]."""
    l_p = installed_length(geometry)
    if l_p <= geometry.l0:
        raise ValueError(
            f"non-positive stiffness: installed length {l_p} mm <= free length "
            f"{geometry.l0} mm (spring slack at equilibrium)"
        )
    return 4.0 * geometry.k * geometry.r1 * geometry.r2 * (1.0 - geometry.l0 / l_p) * _MM_NM


def hub_torque(geometry: HubGeometry, beta: float) -> float:
    """Nonlinear restoring torque of the four-spring hub [Nm]. Odd in beta."""
    l_eff = effective_length(geometry, beta)
    return (
        4.0 * geometry.k * geometry.r1 * geometry.r2
        * (1.0 - geometry.l0 / l_eff) * math.sin(beta) * _MM_NM
    )


@dataclass(frozen=True, slots=True)
class HubModel:
    """The nonlinear hub law on one geometry. The simulator never calls it (the
    plant drives K_s*beta); it stays because the benchmark wraps its torque."""

    geometry: HubGeometry

    def torque(self, beta: float) -> float:
        return hub_torque(self.geometry, beta)
