"""Mode-dependent rigid-body dynamics and fixed-step RK4 integration.

Three engagement states share one integrator entry point:

* series (SEA): two inertias coupled by the hub spring; spring deflection is
  theta_m - theta_o - beta_offset, with beta_offset captured at engagement so
  the spring starts unloaded.
* parallel (PEA): motor and output rigidly coupled into one body at angle
  theta; the hub spring reacts against the housing from the anchor captured
  at engagement.
* transition: freewheel while the selector travels, a whole number of steps
  that the protocol driver counts; no coupling torque.

The hub spring is the linear law K_s*beta in both engaged modes; the geometric
model in spring_hub characterizes the hub and does not enter the dynamics.

step() unpacks the state into floats and writes one body shape's four RK4
stages and forces out inline in each branch: the spring-coupled pair (SEA),
the same pair while the selector travels, and the parallel body, whose force
selector.transmitted_torque also writes out, for the switch gate. The
locked-output stiffness rig (experiments) writes its own load-free step of the
same body inline.

The states are immutable NamedTuples. step(), the selector and the trace
recorder unpack them by position, so their field order is part of the contract.

Friction model: Coulomb friction acts only where an interface is engaged,
at the hub plates and dog interfaces: tau_c_sea on the motor in SEA and
tau_c_pea on the parallel body, tanh-regularized. While the selector travels
no interface is engaged and neither body rubs; viscous damping (b_m, b_o)
acts in every state.
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
    target_mode: Mode    # the engaged mode the selector travels to


PlantState = SeaState | PeaState | TransitionState

# _build(SeaState, (qm, wm, qo, wo, off)) is SeaState(qm, wm, qo, wo, off) without
# the NamedTuple's __new__, a Python function that costs about 0.45 µs per state
_build = tuple.__new__


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
    tau_max = p.tau_max  # clamp_torque, inline
    tau = tau_max if tau_m > tau_max else -tau_max if tau_m < -tau_max else tau_m
    mgr = load.mass * load.g * load.radius
    ext, dt, w_eps = tau_out_extra, p.dt, p.omega_eps
    half = 0.5 * dt
    sixth = dt / 6.0
    cls = type(state)

    if cls is PeaState:
        q, w, anchor = state
        K, b, tc, J = p.K_s, p.b_m + p.b_o, p.tau_c_pea, p.J_m + p.J_o
        try:  # the force selector.transmitted_torque writes, in each stage
            a1 = (tau - K * (q - anchor) - (mgr * cos(q) + ext) - b * w - tc * tanh(w / w_eps)) / J
            q2, w2 = q + half * w, w + half * a1
            a2 = (tau - K * (q2 - anchor) - (mgr * cos(q2) + ext) - b * w2 - tc * tanh(w2 / w_eps)) / J
            q3, w3 = q + half * w2, w + half * a2
            a3 = (tau - K * (q3 - anchor) - (mgr * cos(q3) + ext) - b * w3 - tc * tanh(w3 / w_eps)) / J
            q4, w4 = q + dt * w3, w + dt * a3
            a4 = (tau - K * (q4 - anchor) - (mgr * cos(q4) + ext) - b * w4 - tc * tanh(w4 / w_eps)) / J
            q, w = (q + sixth * (w + 2.0 * (w2 + w3) + w4),
                    w + sixth * (a1 + 2.0 * (a2 + a3) + a4))
        except ValueError:  # math.cos of an infinite stage angle
            q = w = math.nan
        if isfinite(q) and isfinite(w):
            return _build(PeaState, (q, w, anchor))
        raise SimulationError("non-finite PEA state")

    qm, wm, qo, wo, off = state  # off: SEA's beta_offset, TRANS's target_mode
    b_m, J_m, b_o, J_o = p.b_m, p.J_m, p.b_o, p.J_o
    try:
        if cls is SeaState:  # the pair on the hub spring K*(qm - qo - off)
            K, tc_m = p.K_s, p.tau_c_sea
            tau_s = K * (qm - qo - off)
            am1 = (tau - tau_s - b_m * wm - tc_m * tanh(wm / w_eps)) / J_m
            ao1 = (tau_s - (mgr * cos(qo) + ext) - b_o * wo) / J_o
            qo2, wm2, wo2 = qo + half * wo, wm + half * am1, wo + half * ao1
            tau_s = K * (qm + half * wm - qo2 - off)
            am2 = (tau - tau_s - b_m * wm2 - tc_m * tanh(wm2 / w_eps)) / J_m
            ao2 = (tau_s - (mgr * cos(qo2) + ext) - b_o * wo2) / J_o
            qo3, wm3, wo3 = qo + half * wo2, wm + half * am2, wo + half * ao2
            tau_s = K * (qm + half * wm2 - qo3 - off)
            am3 = (tau - tau_s - b_m * wm3 - tc_m * tanh(wm3 / w_eps)) / J_m
            ao3 = (tau_s - (mgr * cos(qo3) + ext) - b_o * wo3) / J_o
            qo4, wm4, wo4 = qo + dt * wo3, wm + dt * am3, wo + dt * ao3
            tau_s = K * (qm + dt * wm3 - qo4 - off)
            am4 = (tau - tau_s - b_m * wm4 - tc_m * tanh(wm4 / w_eps)) / J_m
            ao4 = (tau_s - (mgr * cos(qo4) + ext) - b_o * wo4) / J_o
        else:  # the selector travels: no spring and no Coulomb term
            am1 = (tau - b_m * wm) / J_m
            ao1 = (-(mgr * cos(qo) + ext) - b_o * wo) / J_o
            qo2, wm2, wo2 = qo + half * wo, wm + half * am1, wo + half * ao1
            am2 = (tau - b_m * wm2) / J_m
            ao2 = (-(mgr * cos(qo2) + ext) - b_o * wo2) / J_o
            qo3, wm3, wo3 = qo + half * wo2, wm + half * am2, wo + half * ao2
            am3 = (tau - b_m * wm3) / J_m
            ao3 = (-(mgr * cos(qo3) + ext) - b_o * wo3) / J_o
            qo4, wm4, wo4 = qo + dt * wo3, wm + dt * am3, wo + dt * ao3
            am4 = (tau - b_m * wm4) / J_m
            ao4 = (-(mgr * cos(qo4) + ext) - b_o * wo4) / J_o
        qm, wm, qo, wo = (qm + sixth * (wm + 2.0 * (wm2 + wm3) + wm4),
                          wm + sixth * (am1 + 2.0 * (am2 + am3) + am4),
                          qo + sixth * (wo + 2.0 * (wo2 + wo3) + wo4),
                          wo + sixth * (ao1 + 2.0 * (ao2 + ao3) + ao4))
    except ValueError:  # math.cos of an infinite stage angle
        qm = wm = qo = wo = math.nan
    if not (isfinite(qm) and isfinite(wm) and isfinite(qo) and isfinite(wo)):
        raise SimulationError(f"non-finite {mode_of(state).value} state")
    return _build(cls, (qm, wm, qo, wo, off))
