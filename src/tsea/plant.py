"""Mode-dependent rigid-body dynamics and fixed-step RK4 integration.

Three engagement states share one integrator entry point:

* series (SEA): two inertias coupled by the hub spring; spring deflection is
  theta_m - theta_o - beta_offset, with beta_offset captured at engagement so
  the spring starts unloaded.
* parallel (PEA): motor and output rigidly coupled into one body at angle
  theta; the hub spring reacts against the housing from the anchor captured
  at engagement.
* transition: freewheel while the selector travels; no coupling torque.

The hub spring is the linear law K_s*beta in both engaged modes; the geometric
model in spring_hub characterizes the hub and does not enter the dynamics.

Friction model: the per-mode Coulomb magnitude (tau_c_sea / tau_c_pea) acts
on the motor-side body, where the hub plates and dog interfaces live, and is
off in transition, where no interface is engaged. The output bearing gets its
own (normally zero) magnitude tau_c_out, which acts in every state. All
Coulomb terms are tanh-regularized.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .params import ActuatorParams, LoadModel


class Mode(enum.Enum):
    SEA = "SEA"
    PEA = "PEA"
    TRANS = "TRANS"


class SimulationError(RuntimeError):
    """Simulation produced a non-finite state (blow-up)."""


@dataclass(frozen=True, slots=True)
class SeaState:
    theta_m: float       # motor angle [rad]
    omega_m: float       # motor velocity [rad/s]
    theta_o: float       # output angle [rad]
    omega_o: float       # output velocity [rad/s]
    beta_offset: float   # relative angle at which the spring is unloaded [rad]


@dataclass(frozen=True, slots=True)
class PeaState:
    theta: float         # common motor/output angle [rad]
    omega: float         # common velocity [rad/s]
    theta_anchor: float  # output angle at which the grounded spring is unloaded [rad]


@dataclass(frozen=True, slots=True)
class TransitionState:
    theta_m: float
    omega_m: float
    theta_o: float
    omega_o: float
    target_mode: Mode
    t_remaining: float   # selector travel time left [s]


PlantState = SeaState | PeaState | TransitionState


def mode_of(state: PlantState) -> Mode:
    if type(state) is SeaState:
        return Mode.SEA
    if type(state) is PeaState:
        return Mode.PEA
    return Mode.TRANS


def gravity_torque(theta: float, load: LoadModel) -> float:
    """Arm gravity torque mass*g*radius*cos(theta) [Nm]; theta = 0 horizontal."""
    return load.mass * load.g * load.radius * math.cos(theta)


def clamp_torque(tau: float, p: ActuatorParams) -> float:
    if tau > p.tau_max:
        return p.tau_max
    if tau < -p.tau_max:
        return -p.tau_max
    return tau


def pea_rhs(tau: float, tau_ext: float, p: ActuatorParams, anchor: float,
            mgr: float = 0.0):
    """Derivative g(q, w) -> (w, alpha) of the rigidly coupled parallel body.

    The motor torque tau is held; the output load mgr*cos(q) + tau_ext is
    re-evaluated at every call, so the default mgr = 0 holds tau_ext constant.
    """
    K, w_eps, J = p.K_s, p.omega_eps, p.J_m + p.J_o
    b, tc = p.b_m + p.b_o, p.tau_c_pea + p.tau_c_out
    tanh, cos = math.tanh, math.cos

    def g(q: float, w: float):
        a = (
            tau - K * (q - anchor) - (mgr * cos(q) + tau_ext)
            - b * w - tc * tanh(w / w_eps)
        ) / J
        return w, a

    return g


def spring_torque(state: PlantState, p: ActuatorParams) -> float:
    """Torque K_s*beta currently carried by the hub spring [Nm]; zero while freewheeling."""
    if type(state) is SeaState:
        return p.K_s * (state.theta_m - state.theta_o - state.beta_offset)
    if type(state) is PeaState:
        return p.K_s * (state.theta - state.theta_anchor)
    return 0.0


def rk4_body(f, q: float, w: float, dt: float) -> tuple[float, float]:
    """One classical RK4 step of a single body; f(q, w) returns (dq, dw)."""
    half = 0.5 * dt
    k1 = f(q, w)
    k2 = f(q + half * k1[0], w + half * k1[1])
    k3 = f(q + half * k2[0], w + half * k2[1])
    k4 = f(q + dt * k3[0], w + dt * k3[1])
    sixth = dt / 6.0
    return (
        q + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
        w + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
    )


def _rk4_pair(f, qm: float, wm: float, qo: float, wo: float, dt: float):
    """One classical RK4 step of two bodies; f returns (dqm, dwm, dqo, dwo)."""
    half = 0.5 * dt
    k1 = f(qm, wm, qo, wo)
    k2 = f(qm + half * k1[0], wm + half * k1[1], qo + half * k1[2], wo + half * k1[3])
    k3 = f(qm + half * k2[0], wm + half * k2[1], qo + half * k2[2], wo + half * k2[3])
    k4 = f(qm + dt * k3[0], wm + dt * k3[1], qo + dt * k3[2], wo + dt * k3[3])
    sixth = dt / 6.0
    return (
        qm + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
        wm + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
        qo + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]),
        wo + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3]),
    )


def step(
    state: PlantState,
    tau_m: float,
    p: ActuatorParams,
    load: LoadModel,
    tau_out_extra: float = 0.0,
) -> PlantState:
    """Advance one classical RK4 step of length p.dt.

    tau_m is clamped to ±tau_max before use and held over the step. The
    external output torque (gravity plus tau_out_extra, e.g. an impact pulse)
    is re-evaluated inside every RK4 stage. Raises SimulationError if the new
    state, or a stage angle the gravity term needs, is not finite.
    """
    tau = clamp_torque(tau_m, p)
    mgr = load.mass * load.g * load.radius
    cls = type(state)

    if cls is PeaState:
        anchor = state.theta_anchor
        try:
            q, w = rk4_body(pea_rhs(tau, tau_out_extra, p, anchor, mgr),
                            state.theta, state.omega, p.dt)
        except ValueError:  # math.cos of an infinite stage angle
            q = w = math.nan
        if math.isfinite(q) and math.isfinite(w):
            return PeaState(q, w, anchor)
        raise SimulationError("non-finite PEA state")

    K, w_eps = p.K_s, p.omega_eps
    tanh, cos = math.tanh, math.cos
    J_m, J_o = p.J_m, p.J_o
    b_m, b_o = p.b_m, p.b_o
    tc_o = p.tau_c_out
    if cls is SeaState:
        tc_m = p.tau_c_sea
        off = state.beta_offset

        def f(qm: float, wm: float, qo: float, wo: float):
            tau_s = K * (qm - qo - off)
            am = (tau - tau_s - b_m * wm - tc_m * tanh(wm / w_eps)) / J_m
            ao = (
                tau_s - (mgr * cos(qo) + tau_out_extra) - b_o * wo
                - tc_o * tanh(wo / w_eps)
            ) / J_o
            return wm, am, wo, ao
    else:
        def f(qm: float, wm: float, qo: float, wo: float):
            am = (tau - b_m * wm) / J_m
            ao = (
                -(mgr * cos(qo) + tau_out_extra) - b_o * wo
                - tc_o * tanh(wo / w_eps)
            ) / J_o
            return wm, am, wo, ao

    try:
        qm, wm, qo, wo = _rk4_pair(f, state.theta_m, state.omega_m,
                                   state.theta_o, state.omega_o, p.dt)
    except ValueError:  # math.cos of an infinite stage angle
        qm = wm = qo = wo = math.nan
    if not (math.isfinite(qm) and math.isfinite(wm)
            and math.isfinite(qo) and math.isfinite(wo)):
        raise SimulationError(f"non-finite {mode_of(state).value} state")
    if cls is SeaState:
        return SeaState(qm, wm, qo, wo, off)
    return TransitionState(qm, wm, qo, wo, state.target_mode, state.t_remaining)
