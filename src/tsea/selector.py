"""Topology-switching state machine.

Disengagement is gated on the torque currently transmitted through the
engaged path (the selector cannot pull loaded dog teeth apart); engagement
happens a fixed latency later at an arbitrary relative angle, capturing the
spring as unloaded and reconciling velocities.
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
    mode_of,
    pea_rhs,
    spring_torque,
)

COMPLETED = "completed"
REJECTED = "rejected"


class SelectorError(RuntimeError):
    """Selector operation used in an invalid engagement state."""


@dataclass(frozen=True, slots=True)
class SwitchRecord:
    request_time: float          # [s]
    engage_time: float | None    # [s]; None for rejected requests
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
        _, alpha = pea_rhs(tau_m, tau_ext, p, state.theta_anchor)(state.theta, state.omega)
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
        trans = TransitionState(
            state.theta_m, state.omega_m, state.theta_o, state.omega_o,
            target, p.t_switch,
        )
    else:
        trans = TransitionState(
            state.theta, state.omega, state.theta, state.omega, target, p.t_switch,
        )
    return SwitchDecision(True, trans, tau_tr)


def advance_selector(state: TransitionState, dt: float, p: ActuatorParams) -> PlantState:
    """Consume dt of selector travel; finalize engagement when it runs out.

    Engagement captures the spring unloaded at the current configuration:
    parallel mode anchors at the output angle and merges velocities by
    angular-momentum conservation; series mode keeps both coordinates and
    zeroes the spring at the current relative angle.
    """
    remaining = state.t_remaining - dt
    if remaining > 0.5 * dt:  # half-step guard against float drift in the countdown
        return TransitionState(
            state.theta_m, state.omega_m, state.theta_o, state.omega_o,
            state.target_mode, remaining,
        )
    if state.target_mode is Mode.PEA:
        omega = (p.J_m * state.omega_m + p.J_o * state.omega_o) / (p.J_m + p.J_o)
        return PeaState(state.theta_o, omega, state.theta_o)
    return SeaState(
        state.theta_m, state.omega_m, state.theta_o, state.omega_o,
        state.theta_m - state.theta_o,
    )


def engagement_energy_loss(state: TransitionState, p: ActuatorParams) -> float:
    """Kinetic energy lost to the inelastic velocity merge at PEA engagement [J]."""
    if state.target_mode is not Mode.PEA:
        return 0.0
    dw = state.omega_m - state.omega_o
    return 0.5 * p.J_m * p.J_o / (p.J_m + p.J_o) * dw * dw

