import pytest

from oracles import selector_countdown
from tsea.params import ActuatorParams
from tsea.plant import Mode, PeaState, SeaState, TransitionState, spring_torque
from tsea.selector import (
    SelectorError,
    advance_selector,
    engagement_energy_loss,
    latency_steps,
    request_switch,
    transmitted_torque,
)

P = ActuatorParams(b_m=0.0, b_o=0.0, tau_c_sea=0.0, tau_c_pea=0.0)


def test_transmitted_sea_unloaded():
    s = SeaState(0.4, 0.0, 0.2, 0.0, 0.2)
    assert transmitted_torque(s, 0.0, 0.0, P) == 0.0


def test_transmitted_sea_spring_law():
    s = SeaState(0.1, 0.0, 0.0, 0.0, 0.0)
    assert transmitted_torque(s, 0.0, 0.0, P) == pytest.approx(0.557)


def test_transmitted_pea_static():
    # balanced at rest: alpha = 0, so the rigid path carries exactly tau_m
    theta, tau_ext = 0.2, 0.8
    tau_m = tau_ext + P.K_s * theta
    s = PeaState(theta, 0.0, 0.0)
    assert transmitted_torque(s, tau_m, tau_ext, P) == pytest.approx(tau_m, abs=1e-12)


def test_transmitted_undefined_in_transition():
    s = TransitionState(0, 0, 0, 0, Mode.PEA)
    with pytest.raises(SelectorError):
        transmitted_torque(s, 0.0, 0.0, P)


def test_request_accepted_when_unloaded():
    s = SeaState(0.0, 0.0, 0.0, 0.0, 0.0)
    d = request_switch(s, 0.0, 0.0, P)
    assert d.accepted
    assert d.transition == TransitionState(0.0, 0.0, 0.0, 0.0, Mode.PEA)


def test_request_rejected_above_gate():
    s = SeaState(2.0 / P.K_s, 0.0, 0.0, 0.0, 0.0)  # 2.0 Nm through the spring
    d = request_switch(s, 0.0, 0.0, P)
    assert not d.accepted
    assert d.transition is None
    assert d.transmitted == pytest.approx(2.0)
    assert d.transmitted >= P.tau_disengage


def test_request_pea_lightly_loaded_accepted():
    s = PeaState(0.0, 0.0, 0.0)
    d = request_switch(s, 0.5, 0.5, P)
    assert d.accepted
    assert d.transmitted == pytest.approx(0.5, abs=1e-12)
    # the single coordinate unpacks into both transition coordinates
    assert d.transition.theta_m == d.transition.theta_o == 0.0


def test_request_during_transition_rejected():
    s = TransitionState(0, 0, 0, 0, Mode.PEA)
    with pytest.raises(SelectorError, match="in progress"):
        request_switch(s, 0.0, 0.0, P)


def test_latency_is_exactly_t_switch_in_steps():
    assert latency_steps(P.t_switch, P.dt) == round(P.t_switch / P.dt)


def test_latency_within_one_dt_for_non_multiple_switch_time():
    # travel time that is not an integer number of steps still engages on the
    # nearest step
    import dataclasses

    p = dataclasses.replace(P, t_switch=0.0299)  # 239.2 steps
    steps = latency_steps(p.t_switch, p.dt)
    assert abs(steps * p.dt - p.t_switch) <= p.dt


@pytest.mark.parametrize("t_switch", [0.0, 0.5 * P.dt, 1.5 * P.dt, 3.5 * P.dt, 0.0299, 0.03,
                                      0.1])
def test_latency_steps_counts_the_countdown(t_switch):
    assert latency_steps(t_switch, P.dt) == selector_countdown(t_switch, P.dt)


def test_pea_engagement_merges_velocities():
    s = TransitionState(0.1, 3.0, 0.2, 3.0, Mode.PEA)
    out = advance_selector(s, P)
    assert isinstance(out, PeaState)
    assert out.omega == 3.0  # equal velocities merge unchanged

    s = TransitionState(0.1, 1.0, 0.2, 0.0, Mode.PEA)
    out = advance_selector(s, P)
    assert out.omega == pytest.approx(P.J_m / (P.J_m + P.J_o))


def test_pea_engagement_momentum_exact():
    s = TransitionState(0.1, 0.731, 0.2, -0.214, Mode.PEA)
    out = advance_selector(s, P)
    assert out.omega == (P.J_m * 0.731 + P.J_o * -0.214) / (P.J_m + P.J_o)
    assert out.theta == out.theta_anchor == 0.2  # anchored unloaded at the output angle


def test_sea_engagement_keeps_coordinates():
    s = TransitionState(0.37, 0.5, 0.11, -0.2, Mode.SEA)
    out = advance_selector(s, P)
    assert isinstance(out, SeaState)
    assert (out.theta_m, out.omega_m, out.theta_o, out.omega_o) == (0.37, 0.5, 0.11, -0.2)
    assert out.beta_offset == 0.37 - 0.11
    assert spring_torque(out, P) == 0.0


def test_engagement_energy_loss():
    s = TransitionState(0.0, 1.0, 0.0, 0.0, Mode.PEA)
    expected = 0.5 * P.J_m * P.J_o / (P.J_m + P.J_o)
    assert engagement_energy_loss(s, P) == pytest.approx(expected)
    s_sea = TransitionState(0.0, 1.0, 0.0, 0.0, Mode.SEA)
    assert engagement_energy_loss(s_sea, P) == 0.0

