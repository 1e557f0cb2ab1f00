"""Property tests of the hub torque law and the selector latency."""

import dataclasses

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from tsea.params import ActuatorParams, HubGeometry
from tsea.plant import Mode, TransitionState
from tsea.selector import advance_selector
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
    p = dataclasses.replace(ActuatorParams(), dt=dt, t_switch=n * dt)
    state = TransitionState(0.1, 0.0, 0.2, 0.0, Mode.PEA, p.t_switch)
    calls = 0
    while isinstance(state, TransitionState):
        state = advance_selector(state, p.dt, p)
        calls += 1
    assert calls == n
