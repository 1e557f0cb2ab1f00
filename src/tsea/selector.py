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
    body_accel,
    mode_of,
    pea_body,
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
        alpha = body_accel(state.theta, state.omega, tau_m, tau_ext, 0.0,
                           state.theta_anchor, *pea_body(p))
        return tau_m - p.J_m * alpha
    raise SelectorError("transmitted torque is undefined while the selector travels")


def request_switch(
    target: Mode,
    state: PlantState,
    tau_m: float,
    tau_ext: float,
    p: ActuatorParams,
) -> SwitchDecision:
    """Gate a switch to target on |transmitted torque| < tau_disengage.

    Rejection is a normal outcome. On acceptance the plant enters a freewheel
    transition carrying both coordinates (a parallel-mode state unpacks its
    single angle into both).
    """
    current = mode_of(state)
    if current is Mode.TRANS:
        raise SelectorError("switch requested while a transition is already in progress")
    if target is current:
        raise SelectorError(f"self-transition requested ({current.value} -> {current.value})")

    tau_tr = transmitted_torque(state, tau_m, tau_ext, p)
    if abs(tau_tr) >= p.tau_disengage:
        return SwitchDecision(False, None, tau_tr)

    if type(state) is SeaState:
        trans = TransitionState(state.theta_m, state.omega_m, state.theta_o, state.omega_o, target)
    else:
        trans = TransitionState(state.theta, state.omega, state.theta, state.omega, target)
    return SwitchDecision(True, trans, tau_tr)


def latency_steps(t_switch: float, dt: float) -> int:
    """Steps from an accepted request to engagement, one at the least:
    t_switch counted down by dt until no more than half a step is left.
    params.validate bounds t_switch / dt, so the count ends."""
    steps, remaining = 1, t_switch - dt
    while remaining > 0.5 * dt:
        steps, remaining = steps + 1, remaining - dt
    return steps


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

