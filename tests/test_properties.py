"""Property tests of the hub torque law and the selector: latency, the
momentum merge at parallel engagement and the disengagement gate."""

import dataclasses
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from tsea.params import ActuatorParams, HubGeometry
from tsea.plant import Mode, PeaState, SeaState, TransitionState
from tsea.selector import advance_selector, latency_steps, request_switch, transmitted_torque
from tsea.spring_hub import hub_torque, linearized_stiffness


@st.composite
def geometries(draw) -> HubGeometry:
    r1 = draw(st.floats(5.0, 60.0))
    return HubGeometry(
        k=draw(st.floats(0.5, 50.0)),
        l0=draw(st.floats(5.0, 30.0)),
        r1=r1,
        r2=r1 + draw(st.floats(1.0, 40.0)),
        preload_ext=draw(st.floats(0.1, 5.0)),
    )


@settings(deadline=None)
@given(geometries(), st.floats(-3.0, 3.0))
def test_hub_torque_is_odd(geometry, beta):
    assert hub_torque(geometry, -beta) == -hub_torque(geometry, beta)


@settings(deadline=None)
@given(geometries())
def test_hub_small_angle_slope_is_linearized_stiffness(geometry):
    h = 1e-6
    slope = (hub_torque(geometry, h) - hub_torque(geometry, -h)) / (2.0 * h)
    assert slope == pytest.approx(linearized_stiffness(geometry), rel=1e-6)


@settings(deadline=None)
@given(st.integers(1, 400), st.floats(1e-5, 1e-2))
def test_latency_is_exact_for_whole_step_switch_times(n, dt):
    assert latency_steps(n * dt, dt) == n


EPS = sys.float_info.epsilon
angles = st.floats(-10.0, 10.0)
speeds = st.floats(-100.0, 100.0)
inertias = st.floats(1e-5, 1.0)


@settings(deadline=None)
@given(angles, speeds, angles, speeds, inertias, inertias)
def test_pea_engagement_merges_momentum_exactly(qm, wm, qo, wo, J_m, J_o):
    p = dataclasses.replace(ActuatorParams(), J_m=J_m, J_o=J_o)
    state = advance_selector(TransitionState(qm, wm, qo, wo, Mode.PEA), p)
    assert type(state) is PeaState
    # the common velocity is the momentum quotient itself, bit for bit, so
    # the momentum after engagement differs from before only by rounding
    assert state.omega == (J_m * wm + J_o * wo) / (J_m + J_o)
    scale = J_m * abs(wm) + J_o * abs(wo)
    assert abs((J_m + J_o) * state.omega - (J_m * wm + J_o * wo)) <= 8 * EPS * scale
    assert state.theta == state.theta_anchor == qo


@st.composite
def engaged_states(draw):
    if draw(st.booleans()):
        return SeaState(draw(angles), draw(speeds), draw(angles), draw(speeds), draw(angles))
    return PeaState(draw(angles), draw(speeds), draw(angles))


@settings(deadline=None)
@given(engaged_states(), st.floats(-3.0, 3.0), st.floats(-5.0, 5.0),
       st.floats(1e-3, 5.0))
def test_accepted_request_is_below_the_gate(state, tau_m, tau_ext, gate):
    p = dataclasses.replace(ActuatorParams(), tau_disengage=gate)
    target = Mode.PEA if type(state) is SeaState else Mode.SEA
    decision = request_switch(state, tau_m, tau_ext, p)
    assert decision.transmitted == transmitted_torque(state, tau_m, tau_ext, p)
    assert decision.accepted == (abs(decision.transmitted) < gate)
    if decision.accepted:
        assert abs(decision.transmitted) < p.tau_disengage
        assert decision.transition.target_mode is target
