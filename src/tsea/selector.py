"""Topology-switching state machine.

Disengagement is gated on the torque currently transmitted through the
engaged path (the selector cannot pull loaded dog teeth apart); engagement
happens latency_steps(t_switch, dt) steps later, which the protocol driver
counts, at an arbitrary relative angle, capturing the spring as unloaded and
reconciling velocities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ActuatorParams
from .plant import (
    Mode,
    PeaState,
    PlantState,
    SeaState,
    TransitionState,
    spring_torque,
)

COMPLETED = "completed"
REJECTED = "rejected"


class SelectorError(RuntimeError):
    """Selector operation used in an invalid engagement state."""


@dataclass(frozen=True, slots=True)
class SwitchRecord:
    request_k: int               # steps taken at the gate test (a refusal's first)
    engage_k: int | None         # steps taken after engagement; None for rejected requests
    from_mode: Mode
    to_mode: Mode
    torque_at_request: float     # transmitted torque when the gate was tested [Nm]
    outcome: str                 # COMPLETED or REJECTED


@dataclass(frozen=True, slots=True)
class SwitchDecision:
    accepted: bool
    transition: TransitionState | None
    transmitted: float


def transmitted_torque(
    state: PlantState, tau_m: float, tau_ext: float, p: ActuatorParams
) -> float:
    """Torque carried by the engaged path [Nm].

    SEA: the spring torque. PEA: the inner-race reaction tau_m - J_m*alpha
    with alpha the acceleration plant.step's parallel body has at this state
    under the output torque tau_ext.
    """
    if type(state) is SeaState:
        return spring_torque(state, p)
    if type(state) is PeaState:
        if not (math.isfinite(tau_m) and math.isfinite(tau_ext)):
            raise ValueError(f"non-finite input torque: tau_m={tau_m}, tau_ext={tau_ext}")
        q, w, anchor = state
        K, b, tc, J = p.K_s, p.b_m + p.b_o, p.tau_c_pea, p.J_m + p.J_o
        # plant.step's parallel-body force in its order; 0.0*cos(q), the gravity
        # term with no load, stays because it fixes the sign of a zero
        alpha = (tau_m - K * (q - anchor) - (0.0 * math.cos(q) + tau_ext)
                 - b * w - tc * math.tanh(w / p.omega_eps)) / J
        return tau_m - p.J_m * alpha
    raise SelectorError("transmitted torque is undefined while the selector travels")


def request_switch(
    state: PlantState,
    tau_m: float,
    tau_ext: float,
    p: ActuatorParams,
) -> SwitchDecision:
    """Gate a switch to the other engaged mode on |transmitted torque| < tau_disengage.

    Rejection is a normal outcome. On acceptance the plant enters a freewheel
    transition carrying both coordinates (a parallel-mode state unpacks its
    single angle into both).
    """
    if type(state) is TransitionState:
        raise SelectorError("switch requested while a transition is already in progress")

    tau_tr = transmitted_torque(state, tau_m, tau_ext, p)
    if abs(tau_tr) >= p.tau_disengage:
        return SwitchDecision(False, None, tau_tr)

    if type(state) is SeaState:
        trans = TransitionState(state.theta_m, state.omega_m, state.theta_o, state.omega_o, Mode.PEA)
    else:
        trans = TransitionState(state.theta, state.omega, state.theta, state.omega, Mode.SEA)
    return SwitchDecision(True, trans, tau_tr)


def latency_steps(t_switch: float, dt: float) -> int:
    """Steps from an accepted request to engagement: t_switch / dt rounded to
    the nearest whole step (a half step to the even one), one at the least."""
    return max(1, round(t_switch / dt))


def advance_selector(state: TransitionState, p: ActuatorParams) -> PlantState:
    """Engage the selector at the end of its travel.

    Engagement captures the spring unloaded at the current configuration:
    parallel mode anchors at the output angle and merges velocities by
    angular-momentum conservation; series mode keeps both coordinates and
    zeroes the spring at the current relative angle.
    """
    qm, wm, qo, wo, target = state
    if target is Mode.PEA:
        omega = (p.J_m * wm + p.J_o * wo) / (p.J_m + p.J_o)
        return PeaState(qo, omega, qo)
    return SeaState(qm, wm, qo, wo, qm - qo)


def engagement_energy_loss(state: TransitionState, p: ActuatorParams) -> float:
    """Kinetic energy lost to the inelastic velocity merge at PEA engagement [J]."""
    if state.target_mode is not Mode.PEA:
        return 0.0
    dw = state.omega_m - state.omega_o
    return 0.5 * p.J_m * p.J_o / (p.J_m + p.J_o) * dw * dw

