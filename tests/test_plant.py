import dataclasses
import math

import pytest

from conftest import without_friction
from tsea.params import ActuatorParams, LoadModel
from tsea.plant import (
    Mode,
    PeaState,
    SeaState,
    TransitionState,
    body_accel,
    clamp_torque,
    SimulationError,
    gravity_torque,
    mode_of,
    pea_body,
    spring_torque,
    step,
)
from tsea.selector import advance_selector, request_switch, transmitted_torque

ARM_LOAD = LoadModel()
NO_LOAD = LoadModel(mass=0.0)


def undamped_params(**kw) -> ActuatorParams:
    return ActuatorParams(b_m=0.0, b_o=0.0, tau_c_sea=0.0, tau_c_pea=0.0, tau_c_out=0.0, **kw)


def pea_alpha(q, w, tau, tau_ext, p, anchor=0.0, mgr=0.0):
    # the parallel body's acceleration, as plant.step and the switch gate evaluate it
    return body_accel(q, w, tau, tau_ext, mgr, anchor, *pea_body(p))


def test_gravity_torque_landmarks():
    assert gravity_torque(0.0, ARM_LOAD) == pytest.approx(2.347, abs=1e-3)
    assert gravity_torque(math.pi / 2, ARM_LOAD) == pytest.approx(0.0, abs=1e-12)
    assert gravity_torque(math.pi, ARM_LOAD) == pytest.approx(-2.347, abs=1e-3)


def test_sea_equilibrium():
    # a loaded spring held by equal motor and output torques stays at rest
    p = undamped_params()
    s = SeaState(0.1, 0.0, 0.0, 0.0, 0.0)
    tau_s = spring_torque(s, p)
    s2 = step(s, tau_s, p, NO_LOAD, tau_out_extra=tau_s)
    assert s2 == s


def test_sea_spring_coupling():
    # the wound-up spring pulls the motor back and the output forward, with
    # equal and opposite momentum
    p = undamped_params(K_s=5.57)
    s = SeaState(0.1, 0.0, 0.0, 0.0, 0.0)
    s2 = step(s, 0.0, p, NO_LOAD)
    assert s2.omega_m / p.dt == pytest.approx(-0.557 / p.J_m, rel=1e-3)
    assert s2.omega_o / p.dt == pytest.approx(+0.557 / p.J_o, rel=1e-3)
    assert p.J_m * s2.omega_m + p.J_o * s2.omega_o == pytest.approx(0.0, abs=1e-15)


def test_sea_offset_zeroes_spring():
    p = undamped_params()
    s = SeaState(0.375, 0.0, 0.125, 0.0, 0.25)  # dyadic angles: offset cancels exactly
    s2 = step(s, 0.0, p, NO_LOAD)
    assert s2 == s
    assert spring_torque(s, p) == 0.0


def test_pea_anchored_equilibrium():
    p = undamped_params()
    assert pea_alpha(0.25, 0.0, 1.5, 1.5, p, anchor=0.25) == 0.0


def test_pea_static_balance():
    # at rest the motor supplies the external load plus the parallel spring
    p = undamped_params(K_s=5.57)
    tau_ext = 0.8
    tau_m = tau_ext + p.K_s * 0.2
    alpha = pea_alpha(0.2, 0.0, tau_m, tau_ext, p)
    assert alpha == pytest.approx(0.0, abs=1e-12)


def test_pea_gravity_compensation():
    # spring tuned against the load: zero motor torque at rest
    p = undamped_params(K_s=5.57)
    theta = 0.3
    tau_ext = -p.K_s * theta  # load exactly cancelled by the grounded spring
    alpha = pea_alpha(theta, 0.0, 0.0, tau_ext, p)
    assert alpha == pytest.approx(0.0, abs=1e-12)
    # the same balance with the load as gravity, re-evaluated at the angle
    mgr = tau_ext / math.cos(theta)
    alpha = pea_alpha(theta, 0.0, 0.0, 0.0, p, mgr=mgr)
    assert alpha == pytest.approx(0.0, abs=1e-12)


def test_freewheel_decoupled():
    # no spring acts while the selector travels, however far apart the sides are
    p = undamped_params()
    s = TransitionState(0.3, 0.0, 0.0, 0.0, Mode.PEA)
    s2 = step(s, 0.0, p, NO_LOAD)
    assert s2 == s
    s2 = step(s, 0.0, p, NO_LOAD, tau_out_extra=2.347)
    assert s2.omega_m == 0.0
    assert s2.omega_o / p.dt == pytest.approx(-2.347 / p.J_o)
    s2 = step(s, 1.0, p, NO_LOAD)
    assert s2.omega_m / p.dt == pytest.approx(1.0 / p.J_m)
    assert s2.omega_o == 0.0


def test_output_bearing_rubs_in_transition():
    # tau_c_out acts on the output in every state; the motor-side Coulomb
    # terms need an engaged interface and stay off while the selector travels
    free = undamped_params()
    rub = dataclasses.replace(free, tau_c_sea=0.1, tau_c_pea=0.1, tau_c_out=0.05)
    for w in (2.0, -2.0):
        s = TransitionState(0.0, w, 0.0, w, Mode.SEA)
        a = step(s, 0.0, free, NO_LOAD)
        b = step(s, 0.0, rub, NO_LOAD)
        assert b.omega_m == a.omega_m == w
        assert a.omega_o == w
        assert abs(b.omega_o) < abs(w)
        assert (a.omega_o - b.omega_o) / rub.dt == pytest.approx(
            math.copysign(0.05, w) / rub.J_o, rel=1e-6)


def test_coulomb_friction_shape():
    # the parallel body's only force here is Coulomb friction: tau_c_pea plus
    # the output bearing's tau_c_out, tanh-regularized
    p = ActuatorParams(b_m=0.0, b_o=0.0, tau_c_pea=0.2, tau_c_out=0.1, omega_eps=1e-2)
    tc, J = p.tau_c_pea + p.tau_c_out, p.J_m + p.J_o

    def g(w):
        return pea_alpha(0.0, w, 0.0, 0.0, p)

    assert g(0.0) == 0.0
    assert -J * g(1.0) == pytest.approx(tc, rel=1e-9)
    assert -J * g(1e-2) == pytest.approx(tc * 0.7616, abs=1e-4)
    for w in (-2.0, -0.01, 0.003, 5.0):
        assert g(w) == -g(-w)
        # it opposes the motion, never above tc; strictly below until tanh saturates
        assert -g(w) * w > 0.0
        assert abs(g(w)) <= tc / J
    assert abs(g(0.05)) < tc / J


def test_non_finite_inputs_rejected():
    p = undamped_params()
    s = SeaState(0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(SimulationError, match="non-finite SEA state"):
        step(s, math.nan, p, NO_LOAD)
    with pytest.raises(ValueError, match="non-finite"):
        transmitted_torque(PeaState(0.0, 0.0, 0.0), 0.0, math.inf, p)
    with pytest.raises(ValueError, match="non-finite"):
        transmitted_torque(PeaState(0.0, 0.0, 0.0), math.nan, 0.0, p)


def test_step_fixed_point():
    p = undamped_params()
    s = SeaState(0.1, 0.0, 0.1, 0.0, 0.0)
    assert step(s, 0.0, p, NO_LOAD) == s


def test_step_clamps_torque():
    p = undamped_params()
    assert clamp_torque(99.0, p) == p.tau_max
    assert clamp_torque(-99.0, p) == -p.tau_max
    # a huge command accelerates exactly as the clamped torque would
    s = SeaState(0.0, 0.0, 0.0, 0.0, 0.0)
    a = step(s, 1e6, p, NO_LOAD)
    b = step(s, p.tau_max, p, NO_LOAD)
    assert a == b


def test_short_energy_conservation():
    # the 10 s / 1e-6 budget lives in the acceptance suite; this is the fast gate
    p = undamped_params()
    s = SeaState(0.1, 0.0, 0.0, 0.0, 0.0)
    e0 = 0.5 * p.K_s * 0.1 ** 2
    for _ in range(round(1.0 / p.dt)):
        s = step(s, 0.0, p, NO_LOAD)
        beta = s.theta_m - s.theta_o
        e = 0.5 * p.J_m * s.omega_m ** 2 + 0.5 * p.J_o * s.omega_o ** 2 + 0.5 * p.K_s * beta ** 2
        assert abs(e - e0) / e0 < 1e-7


def test_step_blowup_raises():
    p = undamped_params(dt=10.0)  # absurd step destabilizes RK4 on the spring mode
    s = SeaState(0.1, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(Exception):
        for _ in range(2000):
            s = step(s, 0.0, p, NO_LOAD)
            assert abs(s.omega_m) < 1e12


@pytest.mark.parametrize("state", [
    SeaState(0.1, 0.0, 0.0, 0.0, 0.0),
    PeaState(0.1, 0.0, 0.0),
    TransitionState(0.1, 0.0, 0.0, 0.0, Mode.SEA),
], ids=["sea", "pea", "trans"])
def test_infinite_stage_angle_is_a_simulation_error(state):
    # an impulse of 1e308 Nm drives a mid-step RK4 stage angle to -inf, where
    # math.cos raises ValueError; the step reports the blow-up instead
    with pytest.raises(SimulationError, match=f"^non-finite {mode_of(state).value} state$"):
        step(state, 0.0, undamped_params(), ARM_LOAD, 1e308)


@pytest.mark.parametrize("cls, fields", [
    (SeaState, ("theta_m", "omega_m", "theta_o", "omega_o", "beta_offset")),
    (PeaState, ("theta", "omega", "theta_anchor")),
    (TransitionState, ("theta_m", "omega_m", "theta_o", "omega_o", "target_mode")),
], ids=["sea", "pea", "trans"])
def test_state_field_order(cls, fields):
    # step() and the trace recorder unpack states by position
    assert cls._fields == fields


@pytest.mark.parametrize("state", [
    SeaState(0.1, 0.0, 0.0, 0.0, 0.0),
    PeaState(0.1, 0.0, 0.0),
    TransitionState(0.1, 0.0, 0.0, 0.0, Mode.SEA),
], ids=["sea", "pea", "trans"])
def test_states_are_immutable(state):
    with pytest.raises(AttributeError):
        setattr(state, state._fields[1], 1.0)
    with pytest.raises(AttributeError):
        state.__dict__
    assert hash(state) == hash(tuple(state))


def test_state_classes_through_a_switch():
    p = undamped_params()
    sea = SeaState(0.1, 0.0, 0.1, 0.0, 0.0)
    pea = PeaState(0.1, 0.0, 0.1)
    assert type(step(sea, 0.0, p, NO_LOAD)) is SeaState
    assert type(step(pea, 0.0, p, NO_LOAD)) is PeaState
    for src, dst in ((sea, Mode.PEA), (pea, Mode.SEA)):
        trans = request_switch(src, 0.0, 0.0, p).transition
        assert type(trans) is TransitionState
        trans = step(trans, 0.0, p, NO_LOAD)
        assert type(trans) is TransitionState
        engaged = advance_selector(trans, p)
        assert type(engaged) is {Mode.PEA: PeaState, Mode.SEA: SeaState}[dst]


def test_mode_of():
    assert mode_of(SeaState(0, 0, 0, 0, 0)) is Mode.SEA
    assert mode_of(PeaState(0, 0, 0)) is Mode.PEA
    assert mode_of(TransitionState(0, 0, 0, 0, Mode.SEA)) is Mode.TRANS


def test_pulse_torque_reaches_output_only_in_sea(calibrated):
    pre = without_friction(calibrated)
    p = pre.params
    s = SeaState(0.0, 0.0, 0.0, 0.0, 0.0)
    s2 = step(s, 0.0, p, NO_LOAD, tau_out_extra=1.0)
    assert s2.omega_o < 0.0  # pushed downward
    assert abs(s2.omega_m) < abs(s2.omega_o) * 1e-3  # motor only via the spring
