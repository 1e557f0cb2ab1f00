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

step() unpacks the state into floats and runs one RK4 kernel per body shape,
each with its four stages written out: pair_step for the motor/output pair
(series_accel engaged in SEA, freewheel_accel in transition) and body_step for
one rigid body (body_accel), which the parallel body and the locked-output
stiffness rig share. Each body's forces are written once, in its derivative.

The states are immutable NamedTuples. step(), the selector and the trace
recorder unpack them by position, so their field order is part of the contract.

Friction model: the per-mode Coulomb magnitude (tau_c_sea / tau_c_pea) acts
on the motor-side body, where the hub plates and dog interfaces live, and is
off in transition, where no interface is engaged. The output bearing gets its
own (normally zero) magnitude tau_c_out, which acts in every state. All
Coulomb terms are tanh-regularized.
"""

from __future__ import annotations

import enum
import math
from math import cos, isfinite, tanh
from typing import NamedTuple

from .params import ActuatorParams, LoadModel


class Mode(enum.Enum):
    SEA = "SEA"
    PEA = "PEA"
    TRANS = "TRANS"


class SimulationError(RuntimeError):
    """Simulation produced a non-finite state (blow-up)."""


class SeaState(NamedTuple):
    theta_m: float       # motor angle [rad]
    omega_m: float       # motor velocity [rad/s]
    theta_o: float       # output angle [rad]
    omega_o: float       # output velocity [rad/s]
    beta_offset: float   # relative angle at which the spring is unloaded [rad]


class PeaState(NamedTuple):
    theta: float         # common motor/output angle [rad]
    omega: float         # common velocity [rad/s]
    theta_anchor: float  # output angle at which the grounded spring is unloaded [rad]


class TransitionState(NamedTuple):
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


def spring_torque(state: PlantState, p: ActuatorParams) -> float:
    """Torque K_s*beta currently carried by the hub spring [Nm]; zero while freewheeling."""
    if type(state) is SeaState:
        return p.K_s * (state.theta_m - state.theta_o - state.beta_offset)
    if type(state) is PeaState:
        return p.K_s * (state.theta - state.theta_anchor)
    return 0.0


def body_accel(q: float, w: float, tau: float, tau_ext: float, mgr: float,
               anchor: float, K: float, b: float, tc: float, w_eps: float,
               J: float) -> float:
    """Acceleration of one rigid body on a grounded spring.

    The body at angle q, velocity w carries motor torque tau, the spring
    K*(q - anchor), the output load mgr*cos(q) + tau_ext, viscous damping b
    and Coulomb friction tc. The parallel body (pea_body) and the locked-output
    stiffness rig (anchor = mgr = tau_ext = 0) are both this body.
    """
    return (
        tau - K * (q - anchor) - (mgr * cos(q) + tau_ext)
        - b * w - tc * tanh(w / w_eps)
    ) / J


def pea_body(p: ActuatorParams) -> tuple[float, float, float, float, float]:
    """(K, b, tc, w_eps, J) of the rigidly coupled parallel body for body_accel."""
    return p.K_s, p.b_m + p.b_o, p.tau_c_pea + p.tau_c_out, p.omega_eps, p.J_m + p.J_o


def body_step(q: float, w: float, dt: float, tau: float, tau_ext: float,
              mgr: float, anchor: float, K: float, b: float, tc: float,
              w_eps: float, J: float) -> tuple[float, float]:
    """One classical RK4 step of body_accel's body; tau and tau_ext are held.

    Raises ValueError (from math.cos) if a stage angle is infinite.
    """
    half = 0.5 * dt
    a1 = body_accel(q, w, tau, tau_ext, mgr, anchor, K, b, tc, w_eps, J)
    w2 = w + half * a1
    a2 = body_accel(q + half * w, w2, tau, tau_ext, mgr, anchor, K, b, tc, w_eps, J)
    w3 = w + half * a2
    a3 = body_accel(q + half * w2, w3, tau, tau_ext, mgr, anchor, K, b, tc, w_eps, J)
    w4 = w + dt * a3
    a4 = body_accel(q + dt * w3, w4, tau, tau_ext, mgr, anchor, K, b, tc, w_eps, J)
    sixth = dt / 6.0
    return (
        q + sixth * (w + 2.0 * (w2 + w3) + w4),
        w + sixth * (a1 + 2.0 * (a2 + a3) + a4),
    )


def series_accel(qm: float, wm: float, qo: float, wo: float, tau: float,
                 tau_ext: float, mgr: float, off: float, K: float, tc_m: float,
                 b_m: float, J_m: float, b_o: float, tc_o: float, J_o: float,
                 w_eps: float) -> tuple[float, float]:
    """Motor and output accelerations of the pair coupled by the hub spring.

    The spring carries K*(qm - qo - off); the motor-side Coulomb magnitude is
    tc_m, the output bearing's tc_o. The output load is mgr*cos(qo) + tau_ext.
    """
    tau_s = K * (qm - qo - off)
    return (
        (tau - tau_s - b_m * wm - tc_m * tanh(wm / w_eps)) / J_m,
        (tau_s - (mgr * cos(qo) + tau_ext) - b_o * wo - tc_o * tanh(wo / w_eps)) / J_o,
    )


def freewheel_accel(qm: float, wm: float, qo: float, wo: float, tau: float,
                    tau_ext: float, mgr: float, off: float, K: float, tc_m: float,
                    b_m: float, J_m: float, b_o: float, tc_o: float, J_o: float,
                    w_eps: float) -> tuple[float, float]:
    """series_accel's pair while the selector travels: no spring and no
    motor-side Coulomb term, so off, K and tc_m are ignored."""
    return (
        (tau - b_m * wm) / J_m,
        (-(mgr * cos(qo) + tau_ext) - b_o * wo - tc_o * tanh(wo / w_eps)) / J_o,
    )


def pair_step(accel, qm: float, wm: float, qo: float, wo: float, dt: float,
              tau: float, tau_ext: float, mgr: float, off: float, K: float,
              tc_m: float, b_m: float, J_m: float, b_o: float, tc_o: float,
              J_o: float, w_eps: float) -> tuple[float, float, float, float]:
    """One classical RK4 step of the motor/output pair under accel
    (series_accel or freewheel_accel); tau and tau_ext are held.

    Raises ValueError (from math.cos) if a stage angle is infinite.
    """
    half = 0.5 * dt
    am1, ao1 = accel(qm, wm, qo, wo, tau, tau_ext, mgr, off, K, tc_m,
                     b_m, J_m, b_o, tc_o, J_o, w_eps)
    wm2 = wm + half * am1
    wo2 = wo + half * ao1
    am2, ao2 = accel(qm + half * wm, wm2, qo + half * wo, wo2, tau, tau_ext, mgr,
                     off, K, tc_m, b_m, J_m, b_o, tc_o, J_o, w_eps)
    wm3 = wm + half * am2
    wo3 = wo + half * ao2
    am3, ao3 = accel(qm + half * wm2, wm3, qo + half * wo2, wo3, tau, tau_ext, mgr,
                     off, K, tc_m, b_m, J_m, b_o, tc_o, J_o, w_eps)
    wm4 = wm + dt * am3
    wo4 = wo + dt * ao3
    am4, ao4 = accel(qm + dt * wm3, wm4, qo + dt * wo3, wo4, tau, tau_ext, mgr,
                     off, K, tc_m, b_m, J_m, b_o, tc_o, J_o, w_eps)
    sixth = dt / 6.0
    return (
        qm + sixth * (wm + 2.0 * (wm2 + wm3) + wm4),
        wm + sixth * (am1 + 2.0 * (am2 + am3) + am4),
        qo + sixth * (wo + 2.0 * (wo2 + wo3) + wo4),
        wo + sixth * (ao1 + 2.0 * (ao2 + ao3) + ao4),
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
        q, w, anchor = state
        K, b, tc, w_eps, J = pea_body(p)
        try:
            q, w = body_step(q, w, p.dt, tau, tau_out_extra,
                             mgr, anchor, K, b, tc, w_eps, J)
        except ValueError:  # math.cos of an infinite stage angle
            q = w = math.nan
        if isfinite(q) and isfinite(w):
            return PeaState(q, w, anchor)
        raise SimulationError("non-finite PEA state")

    if cls is SeaState:
        qm, wm, qo, wo, off = state
        accel, tc_m = series_accel, p.tau_c_sea
    else:
        qm, wm, qo, wo, target, rem = state
        accel, off, tc_m = freewheel_accel, 0.0, 0.0
    try:
        qm, wm, qo, wo = pair_step(
            accel, qm, wm, qo, wo,
            p.dt, tau, tau_out_extra, mgr, off, p.K_s, tc_m,
            p.b_m, p.J_m, p.b_o, p.tau_c_out, p.J_o, p.omega_eps)
    except ValueError:  # math.cos of an infinite stage angle
        qm = wm = qo = wo = math.nan
    if not (isfinite(qm) and isfinite(wm) and isfinite(qo) and isfinite(wo)):
        raise SimulationError(f"non-finite {mode_of(state).value} state")
    if cls is SeaState:
        return SeaState(qm, wm, qo, wo, off)
    return TransitionState(qm, wm, qo, wo, target, rem)
