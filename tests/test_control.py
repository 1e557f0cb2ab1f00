import math

import numpy as np
import pytest

from tsea import experiments
from tsea.experiments import (
    HANG_CENTER_RAD,
    TRACK_KP,
    TraceRecorder,
    p_position,
    run_dynamic_switching,
    run_static_stiffness,
)
from tsea.params import ActuatorParams
from tsea.plant import Mode, PeaState

VERTICES = (-1.0, 0.0, 1.0)


@pytest.fixture(scope="module")
def torque_cycles(calibrated) -> np.ndarray:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "DWELL_OMEGA_TOL", 1e-2)
        trace, _ = run_static_stiffness(Mode.SEA, calibrated, ramp_rate=5.0, cycles=2)
    return trace.tau_applied


def test_p_position_law():
    assert p_position(0.5, 0.5, 40.0) == 0.0
    assert p_position(0.1, 0.0, 40.0) == pytest.approx(4.0)
    assert p_position(0.0, math.radians(0.5), 30.0) == pytest.approx(-0.2618, abs=1e-4)


def test_p_position_linearity():
    base = p_position(0.2, 0.0, 25.0)
    assert p_position(0.2 + 0.05, 0.0, 25.0) - base == pytest.approx(25.0 * 0.05)


def test_torque_to_current():
    # the logged q-axis current is the applied torque over K_t (ideal motor)
    rec = TraceRecorder(1.25e-4)
    p = ActuatorParams(K_t=0.083)
    for tau in (0.083, 0.0, 2.347):
        rec.record(PeaState(0.0, 0.0, 0.0), tau, tau, p)
    i_q = rec.trace().i_q
    assert i_q[0] == pytest.approx(1.0)
    assert i_q[1] == 0.0
    # holding the horizontal arm through a rigid path stays inside the 36 A limit
    assert i_q[2] == pytest.approx(28.3, abs=0.1)


def test_sinusoid_target(calibrated):
    # tracking commands Kp*(center + 20 deg * sin(2*pi*t) - theta_m)
    trace, _ = run_dynamic_switching(calibrated, duration=0.5, switch_period=1.0)
    target = trace.tau_cmd / TRACK_KP + trace.theta_m
    assert target[0] == HANG_CENTER_RAD
    quarter = round(0.25 / calibrated.params.dt)
    assert target[quarter] == pytest.approx(HANG_CENTER_RAD + math.radians(20.0))
    expected = HANG_CENTER_RAD + math.radians(20.0) * np.sin(2.0 * math.pi * trace.t)
    assert np.allclose(target, expected, rtol=0.0, atol=1e-12)


def test_torque_cycle_vertices(torque_cycles):
    # each cycle ramps through 0, +1, 0, -1, 0 Nm and dwells on every vertex
    starts = np.r_[0, np.flatnonzero(np.diff(torque_cycles)) + 1]
    plateaus = torque_cycles[starts]
    visited = plateaus[np.isin(plateaus, VERTICES)]
    assert visited.tolist() == [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0]


def test_torque_cycle_extrema_exact(torque_cycles):
    assert torque_cycles.max() == 1.0
    assert torque_cycles.min() == -1.0
