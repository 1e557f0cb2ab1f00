import collections
import dataclasses
import functools
import itertools
import math
import re
from itertools import repeat

import numpy as np
import pytest

import tsea.experiments
import tsea.plant

from conftest import with_params, without_friction
from oracles import (
    exponential_band_crossing,
    reference_disturbance,
    reference_hold,
    reference_rig_rows,
    reference_stiffness_report,
    reference_switch_cycle,
    reference_track_driver,
    RIG_ROW,
)
from tsea.experiments import (
    CYCLE_RECORD_HZ,
    DISTURB_KP,
    HANG_CENTER_RAD,
    HOLD_KP,
    IMPACT_TORQUE_NM,
    MAX_RUN_STEPS,
    InvariantViolation,
    STIFFNESS_RECORD_HZ,
    TraceRecorder,
    _check_run_length,
    _Driver,
    _stride_for,
    crossing_times,
    dominant_frequency,
    hysteresis_area,
    initial_state,
    linear_fit,
    mode_runs,
    peak_deflection,
    rms,
    run_disturbance,
    run_dynamic_switching,
    run_hold,
    run_static_stiffness,
    run_switch_cycle,
    settling_time,
)
from tsea.params import load_named_preset
from tsea.plant import Mode, PeaState, SimulationError, TransitionState, clamp_torque, mode_of
from tsea.selector import COMPLETED, REJECTED, SwitchDecision, latency_steps


# --- pure metrics ---------------------------------------------------------

def test_linear_fit_exact_line():
    x = np.linspace(-0.2, 0.2, 50)
    slope = linear_fit(x, 5.57 * x)
    assert slope == pytest.approx(5.57, abs=1e-12)


def test_linear_fit_constant():
    x = np.linspace(0.0, 1.0, 20)
    slope = linear_fit(x, np.full_like(x, 2.5))
    assert slope == pytest.approx(0.0, abs=1e-14)


def test_linear_fit_symmetric_perturbation_keeps_slope():
    rng = np.random.default_rng(3)
    x = np.concatenate([np.linspace(-1, 1, 21)] * 2)
    y = 3.3 * x + 0.7
    slope0 = linear_fit(x, y)
    y2 = y.copy()
    # equal bumps at abscissae mirrored about the mean leave the slope alone
    y2[np.argmin(np.abs(x - 0.5))] += 0.31
    y2[np.argmin(np.abs(x + 0.5))] += 0.31
    slope1 = linear_fit(x, y2)
    assert slope1 == pytest.approx(slope0, abs=1e-12)


def test_linear_fit_degenerate_x():
    with pytest.raises(ValueError, match="degenerate"):
        linear_fit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="two"):
        linear_fit([1.0], [1.0])


def test_hysteresis_area_degenerate_line():
    x = np.concatenate([np.linspace(0, 1, 10), np.linspace(1, 0, 10)])
    assert hysteresis_area(x, 2.0 * x) == pytest.approx(0.0, abs=1e-15)


def test_hysteresis_area_unit_square():
    x = [0.0, 1.0, 1.0, 0.0]
    y = [0.0, 0.0, 1.0, 1.0]
    assert hysteresis_area(x, y) == pytest.approx(1.0)


def test_hysteresis_area_needs_points():
    with pytest.raises(ValueError, match="three"):
        hysteresis_area([0.0, 1.0], [0.0, 1.0])


def test_rms_values():
    assert rms([-2.0] * 7) == 2.0
    t = np.linspace(0.0, 1.0, 10000, endpoint=False)
    assert rms(np.sin(2 * np.pi * 3 * t)) == pytest.approx(1 / math.sqrt(2), abs=1e-3)
    assert rms([3.0, 4.0]) == pytest.approx(3.5355, abs=1e-4)
    with pytest.raises(ValueError):
        rms([])


def test_settling_time_in_band_throughout():
    t = np.linspace(0.0, 1.0, 100)
    y = np.full_like(t, 0.001)
    assert settling_time(t, y, reference=0.0) == 0.0


def test_settling_time_exponential_matches_oracle():
    band_rad = math.radians(0.5)
    amp, tau = 0.1, 0.3
    t = np.arange(0.0, 3.0, 1e-4)
    y = amp * np.exp(-t / tau)
    expected_ms = exponential_band_crossing(amp, tau, band_rad) * 1000.0
    measured = settling_time(t, y, reference=0.0)
    assert measured == pytest.approx(expected_ms, abs=0.11)  # within one sample


def test_settling_time_permanent_semantics():
    # re-exits the band once; settles only after the last exit
    t = np.linspace(0.0, 1.0, 1001)
    y = np.zeros_like(t)
    y[100:110] = 0.02   # excursion
    y[500:505] = -0.03  # late re-exit
    out = settling_time(t, y, reference=0.0)
    assert out == pytest.approx(t[505] * 1000.0, abs=1e-6)


def test_settling_time_sentinel():
    t = np.linspace(0.0, 1.0, 100)
    assert settling_time(t, np.full_like(t, 1.0), reference=0.0) is None


def test_peak_deflection():
    t = np.zeros(50) + 0.25
    assert peak_deflection(t, 0.25) == 0.0
    y = np.zeros(50)
    y[13] = 0.1
    assert peak_deflection(y, 0.0) == pytest.approx(5.73, abs=0.01)
    with pytest.raises(ValueError):
        peak_deflection([], 0.0)


def test_mode_runs():
    assert mode_runs(np.array([], dtype=np.int8)) == []
    assert mode_runs(np.array([1], dtype=np.int8)) == [(0, 1)]
    mode = np.array([0, 0, 2, 2, 2, 1, 0], dtype=np.int8)
    assert mode_runs(mode) == [(0, 2), (2, 5), (5, 6), (6, 7)]


def test_crossing_times_hysteresis_filter():
    t = np.linspace(0.0, 10.0, 10001)
    y = np.exp(-t / 2.0) * np.sin(2 * np.pi * 1.0 * t)
    raw = crossing_times(t, y)
    assert len(raw) >= 19
    big = crossing_times(t, y, min_excursion=0.05)
    assert 0 < len(big) < len(raw)
    f = dominant_frequency(t, y)
    assert f == pytest.approx(1.0, rel=1e-3)
    assert dominant_frequency(t, np.ones_like(t)) is None


# --- protocol smoke tests (fast variants) ---------------------------------

def test_static_stiffness_frictionless_quick(full_range):
    # undamped except a sliver of viscous drag: no dissipation mechanism
    # remains, so the loop encloses (almost) nothing
    pre = without_friction(full_range, b_m=0.003)
    trace, rep = run_static_stiffness(Mode.SEA, pre, cycles=1)
    assert rep.K_fit_nm_per_rad == pytest.approx(5.57, rel=0.01)
    assert rep.loop_area_nm_rad < 1e-4
    assert np.all(np.diff(trace.t) > 0)
    dts = np.diff(trace.t)
    assert np.allclose(dts, dts[0])


@pytest.mark.parametrize("method, hz, run", [
    ("record_raw", STIFFNESS_RECORD_HZ,
     lambda pre: run_static_stiffness(Mode.SEA, pre, cycles=1)),
    ("record", CYCLE_RECORD_HZ, lambda pre: run_switch_cycle(pre, n=3)),
], ids=["stiffness", "cycle"])
def test_records_only_kept_rows(method, hz, run, calibrated, monkeypatch):
    # the loop that counts the steps calls the recorder on the rows it keeps,
    # not on every step; the rest are copies: the stiffness rig copies the
    # rest of leg 3 once it meets leg 1's state negated, and its leg 4, the
    # mirror image of leg 2, and three switch cycles copy none
    calls, copied = [], []
    original, copy_rows = getattr(TraceRecorder, method), TraceRecorder.copy_rows

    def spy(self, *args):
        calls.append(args)
        original(self, *args)

    def copy_spy(self, start, stop, negate=False):
        copied.append(stop - start)
        copy_rows(self, start, stop, negate)

    monkeypatch.setattr(TraceRecorder, method, spy)
    monkeypatch.setattr(TraceRecorder, "copy_rows", copy_spy)
    p = calibrated.params
    stride = _stride_for(p.dt, hz)
    assert stride > 1
    trace, _ = run(calibrated)
    assert len(calls) + sum(copied) == len(trace) and len(calls) > 1
    assert bool(copied) == (method == "record_raw")
    assert np.allclose(np.diff(trace.t), p.dt * stride, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("mode, steps, recorded, n_rows", [
    (Mode.SEA, 198_588, 49_647, 245_284),
    (Mode.PEA, 144_392, 36_098, 164_914),
], ids=["sea", "pea"])
def test_stiffness_merges_at_default_rate(mode, steps, recorded, n_rows, calibrated,
                                          monkeypatch):
    # at the default 0.2 Nm/s, leg 3's ramp (0 -> -1 Nm) meets the negated
    # state of leg 1 (0 -> 1 Nm) 8,683 rows in (SEA) or 8,529 (PEA), so the
    # rig simulates its leading dwell, legs 1 and 2 and that much of leg 3;
    # leg 4 then starts at leg 2's mirror image, and every leg after it is copied
    tanh, record_raw = tsea.experiments.tanh, TraceRecorder.record_raw
    calls, recorded_rows = itertools.count(), itertools.count()

    def counted(x):
        next(calls)
        return tanh(x)

    def spy(self, *args):
        next(recorded_rows)
        record_raw(self, *args)

    monkeypatch.setattr(tsea.experiments, "tanh", counted)
    monkeypatch.setattr(TraceRecorder, "record_raw", spy)
    trace, _ = run_static_stiffness(mode, calibrated, ramp_rate=0.2)
    assert (next(calls), next(recorded_rows), len(trace)) == (4 * steps, recorded, n_rows)


@pytest.mark.parametrize("hz, run", [
    (CYCLE_RECORD_HZ, lambda pre: run_switch_cycle(pre, n=16)),
    (STIFFNESS_RECORD_HZ, lambda pre: run_static_stiffness(Mode.SEA, pre, cycles=1)),
], ids=["cycle", "stiffness"])
def test_time_column_is_the_step_clock(hz, run, calibrated, monkeypatch):
    # row r is step r*stride, and its time the product (r*stride)*dt that the
    # loops form; at dt = 1e-4 (strides 10 and 5) r*(stride*dt) differs on
    # some rows; both runs copy rows, the cycle run those of the cycles it
    # replays, the stiffness run the rest of its leg 3, from where it meets
    # leg 1's state negated, and the mirror image of its leg 2
    dt = 1e-4
    copies = []
    copy_rows = TraceRecorder.copy_rows

    def spy(self, start, stop, negate=False):
        copies.append((start, stop))
        copy_rows(self, start, stop, negate)

    monkeypatch.setattr(TraceRecorder, "copy_rows", spy)
    trace, _ = run(with_params(calibrated, dt=dt))
    stride = _stride_for(dt, hz)
    expected = np.array([k * dt for k in range(0, len(trace) * stride, stride)])
    assert trace.t.tobytes() == expected.tobytes()
    assert not np.array_equal(np.arange(len(trace)) * (stride * dt), expected)
    assert copies


def test_static_stiffness_dwell_timeout(calibrated, monkeypatch):
    # omega never drops below zero, so the leading dwell at 0 Nm runs its
    # 60 s out
    monkeypatch.setattr(tsea.experiments, "DWELL_OMEGA_TOL", 0.0)
    with pytest.raises(SimulationError) as err:
        run_static_stiffness(Mode.SEA, calibrated, cycles=1)
    assert str(err.value) == "rig did not settle below |omega| < 0.0 rad/s at tau=0.0 Nm"


@pytest.mark.parametrize("fail", [math.nan, math.inf])
def test_static_stiffness_blowup_names_time(fail, calibrated, monkeypatch):
    # a non-finite friction term in the first RK4 stage of the 1001st step
    # (t = 1000 dt; four tanh calls a step) stops the rig
    tanh = tsea.experiments.tanh
    index = itertools.count()

    def spy(x):
        return tanh(x) if next(index) < 4000 else fail

    monkeypatch.setattr(tsea.experiments, "tanh", spy)
    with pytest.raises(SimulationError) as err:
        run_static_stiffness(Mode.SEA, calibrated, cycles=1)
    assert str(err.value) == "stiffness rig blew up at t=0.125000 s"


def test_static_stiffness_one_step_ramps(full_range):
    # a rate too fast for one step still ramps each 1 Nm leg in one step
    trace, _ = run_static_stiffness(Mode.SEA, full_range, ramp_rate=1e300, cycles=1)
    assert set(trace.tau_applied.tolist()) == {0.0, 1.0, -1.0}


def test_static_stiffness_rejects_transition_mode(full_range):
    with pytest.raises(ValueError):
        run_static_stiffness(Mode.TRANS, full_range)


@pytest.mark.parametrize("run, kwargs", [
    (run_static_stiffness, {"ramp_rate": 0.0}),
    (run_static_stiffness, {"ramp_rate": math.nan}),
    (run_static_stiffness, {"ramp_rate": 5e-324}),
    (run_static_stiffness, {"cycles": 0}),
    (run_dynamic_switching, {"switch_period": 0.0}),
    (run_dynamic_switching, {"switch_period": math.inf}),
    (run_dynamic_switching, {"duration": 0.0}),
    (run_dynamic_switching, {"duration": -1.0}),
    (run_dynamic_switching, {"duration": math.nan}),
    (run_dynamic_switching, {"duration": 1e-5}),
    (run_dynamic_switching, {"duration": 1e308}),
    (run_disturbance, {"impact_torque": math.nan}),
    (run_disturbance, {"impact_torque": -math.inf}),
    (run_disturbance, {"impact_torque": 2.0**70}),
], ids=["ramp_rate-zero", "ramp_rate-nan", "ramp_rate-overflow", "cycles-zero",
        "switch_period-zero", "switch_period-inf", "duration-zero", "duration-negative",
        "duration-nan", "duration-substep", "duration-overflow", "impact_torque-nan",
        "impact_torque-inf", "impact_torque-over-bound"])
def test_protocols_reject_bad_arguments(run, kwargs, calibrated):
    args = (calibrated,) if run is run_dynamic_switching else (Mode.SEA, calibrated)
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"^{name} must be"):
        run(*args, **kwargs)


def spy_on_gate(monkeypatch) -> list:
    """Collect every decision request_switch returns while the test runs."""
    decisions = []
    gate = tsea.experiments.request_switch

    def spy(*args):
        decisions.append(gate(*args))
        return decisions[-1]

    monkeypatch.setattr(tsea.experiments, "request_switch", spy)
    return decisions


def test_dynamic_switching_short(calibrated):
    trace, rep = run_dynamic_switching(calibrated, duration=6.0, switch_period=2.0)
    assert len(rep.records) == 3  # floor(duration / period)
    dt = calibrated.params.dt
    latency = latency_steps(calibrated.params.t_switch, dt)
    assert latency * dt == pytest.approx(calibrated.params.t_switch, abs=dt)
    for r in rep.records:
        assert r.outcome == COMPLETED
        assert r.engage_k - r.request_k == latency
        assert abs(r.torque_at_request) < calibrated.params.tau_disengage
    # switches alternate modes
    for a, b in zip(rep.records, rep.records[1:]):
        assert a.to_mode is b.from_mode
    # parallel-mode rows log one coordinate for both angles
    pea = trace.mode == 1
    assert pea.any()
    assert np.array_equal(trace.theta_m[pea], trace.theta_o[pea])
    # saturation bound holds on every logged sample, and command differs from
    # applied torque only at the clamp
    assert np.max(np.abs(trace.tau_applied)) <= calibrated.params.tau_max
    differs = trace.tau_cmd != trace.tau_applied
    assert np.all(np.abs(trace.tau_cmd[differs]) > calibrated.params.tau_max)
    assert rep.per_mode.keys() == {"SEA", "PEA"}


def test_dynamic_switching_retries_until_gate_opens(calibrated, monkeypatch):
    # holding around the horizontal keeps the spring loaded near 2.3 Nm, so
    # requests are refused until the stroke unloads the path
    decisions = spy_on_gate(monkeypatch)
    monkeypatch.setattr(tsea.experiments, "HANG_CENTER_RAD", 0.0)
    trace, rep = run_dynamic_switching(calibrated, duration=4.0, switch_period=1.0)
    assert rep.retried_attempts > 0
    assert rep.retried_attempts == sum(1 for d in decisions if not d.accepted)
    for r in rep.records:
        assert abs(r.torque_at_request) < calibrated.params.tau_disengage


@pytest.mark.parametrize("duration, period, center, completed, retried", [
    (0.5, 0.01, HANG_CENTER_RAD, 7, 2320),  # requests fall due mid-travel
    (3.0, 0.7, 0.0, 4, 2825),               # refused requests, retried every step
    (2.0, 1.0, HANG_CENTER_RAD, 2, 0),      # the golden track case
    (0.1, 1e-5, HANG_CENTER_RAD, 1, 560),   # a period shorter than a step
], ids=["due-mid-travel", "refused", "golden", "period-below-dt"])
def test_phased_tracking_matches_per_step_loop(calibrated, duration, period, center,
                                               completed, retried, monkeypatch):
    monkeypatch.setattr(tsea.experiments, "HANG_CENTER_RAD", center)
    trace, rep = run_dynamic_switching(calibrated, duration, period)
    drv = reference_track_driver(calibrated, duration, period, center)
    ref = drv.rec.trace()
    for name in ("t", "mode", "theta_m", "omega_m", "theta_o", "omega_o",
                 "tau_cmd", "tau_applied", "tau_spring", "i_q"):
        assert getattr(trace, name).tobytes() == getattr(ref, name).tobytes(), name
    assert rep.records == drv.records
    assert [r.outcome for r in rep.records] == [COMPLETED] * completed
    assert rep.retried_attempts == drv.retried == retried


def test_tracking_stops_requesting_after_last_step(calibrated, monkeypatch):
    # 0.01 s in 1e-7 s periods is 100,000 requests for 80 steps; once the
    # driver has taken every step no request is left to run
    calls = itertools.count()
    run = _Driver.run

    def spy(self, *args, **kwargs):
        next(calls)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(_Driver, "run", spy)
    trace, _ = run_dynamic_switching(calibrated, duration=0.01, switch_period=1e-7)
    assert len(trace) == 80
    assert next(calls) <= 5  # the parent loop made 200,001 calls


def test_disturbance_zero_impulse(calibrated, monkeypatch):
    monkeypatch.setattr(tsea.experiments, "IMPACT_WINDOW_S", 2.0)
    trace, rep = run_disturbance(Mode.SEA, calibrated, n_impacts=1, impact_torque=0.0)
    assert rep.peaks_deg[0] < 0.02
    assert rep.settling_ms[0] == 0.0


def test_disturbance_motor_side_measurement_is_smaller(calibrated, monkeypatch):
    # the spring filters the impact before it reaches the motor, so the
    # motor-side deviation over the impact window is a fraction of the
    # output-side one the report measures
    settled = []  # rows logged when each hold returns; the first starts the impact
    hold = _Driver.hold

    def spy(self, *args, **kwargs):
        hold(self, *args, **kwargs)
        settled.append(self.rec.n_recorded)

    monkeypatch.setattr(_Driver, "hold", spy)
    monkeypatch.setattr(tsea.experiments, "IMPACT_WINDOW_S", 4.0)
    trace, rep = run_disturbance(Mode.SEA, calibrated, n_impacts=1)
    a = settled[0]
    b = a + round(4.0 / calibrated.params.dt)
    assert peak_deflection(trace.theta_o[a:b], trace.theta_o[a]) == rep.peaks_deg[0]
    assert peak_deflection(trace.theta_m[a:b], trace.theta_m[a]) < 0.5 * rep.peaks_deg[0]


def test_impact_pulse_is_a_whole_number_of_steps(calibrated, monkeypatch):
    # the second strike starts at step 31970, where the end-time test
    # t < t0 + 10 ms used to let the pulse last 81 steps instead of 80
    dt = calibrated.params.dt
    step = tsea.plant.step
    index = itertools.count()  # steps taken before this call
    pushed = []

    def spy(state, tau_m, p, load, tau_out_extra=0.0):
        i = next(index)
        if tau_out_extra != 0.0:
            pushed.append(i)
        return step(state, tau_m, p, load, tau_out_extra)

    monkeypatch.setattr(tsea.plant, "step", spy)
    monkeypatch.setattr(tsea.experiments, "IMPACT_WINDOW_S", 2.52375)
    run_disturbance(Mode.PEA, calibrated, n_impacts=2)
    starts = [i for i in pushed if i - 1 not in pushed]
    assert starts[1] == 31970
    assert sum(1 for i in range(31970, 32070) if i * dt < 31970 * dt + 0.010) == 81
    assert pushed == [i for start in starts for i in range(start, start + 80)]


def test_driver_clock_stays_exact(calibrated):
    drv = _Driver(calibrated, HOLD_KP, initial_state(Mode.PEA))
    for _ in range(1000):
        drv.run(repeat(0.0, 1))
    assert drv.k == 1000
    assert drv.t == 1000 * calibrated.params.dt  # product bookkeeping, no accumulation drift


def test_hold_timeout_stops_after_its_steps(calibrated):
    # no velocity is ever under a tolerance of 0, so the hold runs its 10 ms out
    drv = _Driver(calibrated, HOLD_KP, initial_state(Mode.PEA))
    with pytest.raises(SimulationError) as err:
        drv.hold(0.0, omega_tol=0.0, window_s=0.05, timeout_s=0.01)
    assert str(err.value) == "hold did not settle below |omega| < 0.0 rad/s within 0.01 s"
    assert drv.k == round(0.01 / calibrated.params.dt) == drv.rec.n_recorded


@pytest.mark.parametrize("kp, mode, stride, args", [
    (DISTURB_KP, Mode.SEA, 1, (0.0, 1e-4, 0.25, 40.0, 1.0)),
    (DISTURB_KP, Mode.PEA, 1, (0.0, 1e-4, 0.25, 40.0, 1.0)),
    (HOLD_KP, Mode.SEA, 8, (HANG_CENTER_RAD, 1e-3, 0.05, 20.0, 0.5)),
    (HOLD_KP, Mode.SEA, 1, (0.0, 1e-6, 0.05, 40.0)),
    (HOLD_KP, Mode.PEA, 1, (0.0, 1e-6, 0.05, 40.0)),
    (HOLD_KP, Mode.PEA, 1, (0.0, 0.0, 0.05, 0.01)),
], ids=["sea-pre-impact", "pea-pre-impact", "cycle-opening", "run-hold-sea", "run-hold-pea",
        "timeout"])
def test_hold_is_one_run_matching_per_step_loop(kp, mode, stride, args, calibrated):
    # the pre-impact holds of run_disturbance, the opening hold of
    # run_switch_cycle (at rest from its first step, so it stops on the first
    # step after min_hold_s), run_hold's holds and a hold that times out
    # leave what the original loop of one single-step run per period leaves;
    # each hold starts at rest at its target
    hold, ref = (_Driver(calibrated, kp, initial_state(mode, args[0]), stride) for _ in range(2))
    runs = itertools.count()
    run = hold.run

    def counted(*a, **kw):
        next(runs)
        return run(*a, **kw)

    hold.run = counted
    errors = []
    for call in (hold.hold, functools.partial(reference_hold, ref)):
        try:
            call(*args)
        except SimulationError as exc:
            errors.append(str(exc))
    assert next(runs) == 1
    assert _driver_bits(hold) == _driver_bits(ref)
    assert errors == ([] if args[1] else [
        "hold did not settle below |omega| < 0.0 rad/s within 0.01 s"] * 2)


def _driver_bits(drv: _Driver) -> tuple:
    """What a driver run leaves behind, floats as their exact bit patterns."""
    def bits(state):
        if state is None:
            return None
        return (type(state), *(v.hex() if isinstance(v, float) else v for v in state))

    trace = drv.rec.trace()
    columns = tuple(getattr(trace, name).tobytes() for name in
                    ("t", "mode", "theta_m", "omega_m", "theta_o", "omega_o",
                     "tau_cmd", "tau_applied", "tau_spring", "i_q"))
    return (columns, bits(drv.state), drv.k, drv.t.hex(), bits(drv.engaged_from),
            drv.records, drv.retried)


def test_driver_logs_the_clamped_torque(calibrated):
    # the driver clamps the logged torque inline: it must be clamp_torque's,
    # inside the clamp and on both sides of it
    drv = _Driver(calibrated, HOLD_KP, initial_state(Mode.SEA), 1)
    for target in (0.0, 1.0, -1.0):  # P law 0, then about +-30 Nm against tau_max = 3
        drv.run(repeat(target, 20))
    trace = drv.rec.trace()
    applied = [clamp_torque(tau, calibrated.params) for tau in trace.tau_cmd.tolist()]
    assert trace.tau_applied.tolist() == applied
    tau_max = calibrated.params.tau_max
    assert {0.0, tau_max, -tau_max} <= set(applied)


@pytest.mark.parametrize("stride", [1, 8])
def test_run_matches_single_steps(calibrated, stride, monkeypatch):
    # run(repeat(target, n)) must leave exactly what n calls of run(repeat(target, 1)) leave,
    # a run through the selector travel stops after the engagement step, and
    # a gated run retries the gate every step until it accepts
    dt = calibrated.params.dt
    latency = round(calibrated.params.t_switch / dt)

    def driver():
        drv = _Driver(calibrated, HOLD_KP, initial_state(Mode.SEA, HANG_CENTER_RAD), stride)
        drv.run(repeat(HANG_CENTER_RAD + 0.02, 3))  # off the row grid of stride 8
        return drv

    phase, single = driver(), driver()
    phase.run(repeat(HANG_CENTER_RAD, 997), 0.2)
    for _ in range(997):
        single.run(repeat(HANG_CENTER_RAD, 1), 0.2)
    assert _driver_bits(phase) == _driver_bits(single)

    for drv in (phase, single):
        assert drv.run(repeat(HANG_CENTER_RAD, 1), switch=True).accepted
    request_k = phase.k - 1
    phase.run(repeat(HANG_CENTER_RAD, 10 * latency))
    while single.engaged_from is None:
        single.run(repeat(HANG_CENTER_RAD, 1))
    assert phase.k == single.k == request_k + latency
    assert type(phase.engaged_from) is TransitionState
    assert phase.records[-1].outcome == COMPLETED
    assert phase.records[-1].engage_k == phase.k
    assert _driver_bits(phase) == _driver_bits(single)

    # in the engaged mode, then into a blow-up that must name the same step
    phase.run(repeat(HANG_CENTER_RAD, 501))
    for _ in range(501):
        single.run(repeat(HANG_CENTER_RAD, 1))
    assert _driver_bits(phase) == _driver_bits(single)

    # a gated phase whose gate refuses its first 3 tests, cut short mid-travel
    gate = tsea.experiments.request_switch
    tests = []

    def refuse_first_3(*args):
        decision = gate(*args)
        tests.append(decision)
        return SwitchDecision(False, None, decision.transmitted) if len(tests) <= 3 else decision

    monkeypatch.setattr(tsea.experiments, "request_switch", refuse_first_3)
    n = 3 + latency // 2
    assert phase.run(repeat(HANG_CENTER_RAD, n), switch=True).accepted
    tests.clear()
    pending = True
    for _ in range(n):
        decision = single.run(repeat(HANG_CENTER_RAD, 1), switch=pending)
        pending = pending and not decision.accepted
    assert not pending
    assert phase.retried == single.retried == 3
    assert type(phase.state) is TransitionState
    assert _driver_bits(phase) == _driver_bits(single)
    while phase.engaged_from is None:
        phase.run(repeat(HANG_CENTER_RAD, latency))
    while single.engaged_from is None:
        single.run(repeat(HANG_CENTER_RAD, 1))
    assert _driver_bits(phase) == _driver_bits(single)

    with pytest.raises(SimulationError) as phase_err:
        phase.run(repeat(HANG_CENTER_RAD, 50), 1e308)
    with pytest.raises(SimulationError) as single_err:
        for _ in range(50):
            single.run(repeat(HANG_CENTER_RAD, 1), 1e308)
    assert str(phase_err.value) == str(single_err.value)
    assert str(phase_err.value).endswith(f"after step {phase.k} (t={phase.t:.6f} s)")
    assert _driver_bits(phase) == _driver_bits(single)


def test_blowup_names_mode_step_and_time(calibrated, monkeypatch):
    # the impulse bound would refuse the pulse before any step
    monkeypatch.setattr(tsea.experiments, "_check_impulse", lambda impact_torque, p: None)
    with pytest.raises(SimulationError) as err:
        run_disturbance(Mode.SEA, calibrated, n_impacts=1, impact_torque=1e308)
    found = re.fullmatch(r"non-finite SEA state after step (\d+) \(t=(\S+) s\)",
                         str(err.value))
    assert found, str(err.value)
    k, dt = int(found[1]), calibrated.params.dt
    assert k >= round(1.0 / dt)  # the pulse starts after the one-second hold
    assert float(found[2]) == round(k * dt, 6)


def test_disturbance_validates_args(calibrated):
    with pytest.raises(ValueError):
        run_disturbance(Mode.SEA, calibrated, n_impacts=0)
    with pytest.raises(ValueError):
        run_disturbance(Mode.TRANS, calibrated)


@pytest.mark.parametrize("mode", [Mode.SEA, Mode.PEA], ids=lambda m: m.value)
def test_saturated_hold_fails(mode, calibrated):
    # 50 kg on the arm is 127 Nm of gravity against a 3 Nm motor: the hold
    # settles with the arm hanging and the P law asking for ten times tau_max
    # (test_cli::test_saturated_hold_exits_2 runs the disturbance protocol's hold)
    heavy = dataclasses.replace(calibrated, load=dataclasses.replace(calibrated.load, mass=50.0))
    with pytest.raises(SimulationError, match=r"^the hold at 0° saturates the motor: the P "
                       r"law asks for \d+\.\d+ Nm against tau_max = 3 Nm with the output "
                       r"at -8\d\.\d\d°$"):
        run_hold(mode, heavy)


def test_switch_cycle_small(calibrated):
    trace, rep = run_switch_cycle(calibrated, n=3)
    assert rep.completed == 3
    assert rep.rejected == 0
    assert rep.max_latency_error_s == 0.0
    assert rep.max_ke_loss_j >= 0.0
    assert len(rep.records) == 3


@pytest.mark.parametrize("t_switch, latency", [
    (lambda dt: 0.0, 1), (lambda dt: 1.5 * dt, 2), (lambda dt: 3.5 * dt, 4), (lambda dt: 0.03, 240),
], ids=["0", "1.5dt", "3.5dt", "0.03s"])
def test_switch_cycle_latency_rounds_t_switch(t_switch, latency, calibrated):
    # the selector engages after round(t_switch / dt) steps, a half step
    # rounded to the even one, and after one step at the least
    dt = calibrated.params.dt
    pre = with_params(calibrated, t_switch=t_switch(dt))
    _, rep = run_switch_cycle(pre, n=2)
    assert rep.completed == 2
    assert latency_steps(pre.params.t_switch, dt) == latency
    for r in rep.records:
        assert r.engage_k - r.request_k == latency


@pytest.mark.parametrize("t_switch", [lambda dt: 0.03, lambda dt: 0.0299, lambda dt: 1.5 * dt],
                         ids=["0.03s", "0.0299s", "1.5dt"])
@pytest.mark.parametrize("protocol", ["track", "cycle"])
def test_selector_engages_once_per_switch(protocol, t_switch, calibrated, monkeypatch):
    # the driver counts the travel in whole steps and calls the selector only
    # to engage: once per completed switch, latency_steps after the request
    dt = calibrated.params.dt
    pre = with_params(calibrated, t_switch=t_switch(dt))
    engaged = []
    engage = tsea.experiments.advance_selector

    def spy(*args):
        engaged.append(args[0])
        return engage(*args)

    monkeypatch.setattr(tsea.experiments, "advance_selector", spy)
    if protocol == "track":
        records = run_dynamic_switching(pre, duration=3.0, switch_period=1.0)[1].records
    else:
        records = run_switch_cycle(pre, n=4)[1].records  # too few cycles to replay one
    completed = [r for r in records if r.outcome == COMPLETED]
    assert len(engaged) == len(completed) >= 3
    latency = latency_steps(pre.params.t_switch, dt)
    for r in completed:
        assert r.engage_k == r.request_k + latency


def test_switch_cycle_gate_forced_closed(calibrated, monkeypatch):
    # a vanishing disengagement limit with the arm held off the gravity
    # neutral keeps every request loaded: nothing completes
    pre = with_params(calibrated, tau_disengage=1e-12)
    monkeypatch.setattr(tsea.experiments, "HANG_CENTER_RAD", HANG_CENTER_RAD + 0.25)
    monkeypatch.setattr(tsea.experiments, "RETRY_WINDOW_S", 0.02)
    trace, rep = run_switch_cycle(pre, n=3)
    assert rep.completed == 0
    assert rep.rejected == 3
    assert all(r.outcome == REJECTED and r.engage_k is None for r in rep.records)


def test_switch_cycle_counts_every_refusal(calibrated, monkeypatch):
    # the gate is forced closed as above: each of the 3 requests is refused
    # on all 160 steps of its 0.02 s retry window, the first refusal included
    decisions = spy_on_gate(monkeypatch)
    pre = with_params(calibrated, tau_disengage=1e-12)
    monkeypatch.setattr(tsea.experiments, "HANG_CENTER_RAD", HANG_CENTER_RAD + 0.25)
    monkeypatch.setattr(tsea.experiments, "RETRY_WINDOW_S", 0.02)
    _, rep = run_switch_cycle(pre, n=3)
    assert rep.retried_attempts == 3 * 160
    assert sum(1 for d in decisions if not d.accepted) == rep.retried_attempts


def _counted_run(monkeypatch, run, *args, **kwargs):
    """run(*args, **kwargs) with its plant steps counted. Returns its trace, its
    report, the driver it ran and the number of plant.step calls."""
    drivers, steps = [], itertools.count()
    step = tsea.plant.step

    class Kept(_Driver):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            drivers.append(self)

    def counted(*a):
        next(steps)
        return step(*a)

    monkeypatch.setattr(tsea.experiments, "_Driver", Kept)
    monkeypatch.setattr(tsea.plant, "step", counted)
    trace, report = run(*args, **kwargs)
    (drv,) = drivers
    return trace, report, drv, next(steps)


def _assert_same_run(trace, report, drv, ref_trace, ref_report, ref_drv):
    """Trace columns (floats as int64 bits), records, report and the driver's
    final clock and state, as a full simulation leaves them."""
    for name in ("t", "theta_m", "omega_m", "theta_o", "omega_o", "tau_cmd",
                 "tau_applied", "tau_spring", "i_q"):
        assert np.array_equal(getattr(trace, name).view(np.int64),
                              getattr(ref_trace, name).view(np.int64)), name
    assert np.array_equal(trace.mode, ref_trace.mode)
    assert _driver_bits(drv) == _driver_bits(ref_drv)
    # repr keeps every float's bits, -0.0 apart from 0.0
    assert [repr(r) for r in drv.records] == [repr(r) for r in ref_drv.records]
    assert repr(report.as_dict()) == repr(ref_report.as_dict())


def _refusing(preset):
    return with_params(preset, tau_disengage=1e-26)


@pytest.mark.parametrize("preset, n, replayed", [
    ("calibrated", 1, False), ("calibrated", 13, False), ("calibrated", 14, False),
    ("calibrated", 15, True), ("calibrated", 16, True), ("calibrated", 41, True),
    ("full_range", 16, True), ("refusing", 41, True),
])
def test_switch_cycle_replay_matches_full_simulation(preset, n, replayed, request,
                                                     monkeypatch):
    # on these presets cycle 14 starts where cycle 12 did, bit for bit; with
    # the refusing gate cycle 29 starts where cycle 5 did, and cycles 5..28
    # hold refused requests, gate retries and REJECTED records
    pre = (_refusing(request.getfixturevalue("calibrated")) if preset == "refusing"
           else request.getfixturevalue(preset))
    ref = reference_switch_cycle(pre, n, HANG_CENTER_RAD)
    trace, report, drv, steps = _counted_run(monkeypatch, run_switch_cycle, pre, n=n)
    _assert_same_run(trace, report, drv, *ref)
    # the rows imply at least this many steps, which a full simulation takes
    implied = (len(trace) - 1) * drv.stride + 1
    assert (steps < implied) is replayed
    # records count steps as ints, copies included, not floats that happen to be whole
    assert all(type(r.request_k) is int and (r.engage_k is None or type(r.engage_k) is int)
               for r in drv.records)
    if preset == "refusing":
        outcomes = [r.outcome for r in report.records]
        assert REJECTED in outcomes[29:] and report.retried_attempts > 0


def test_switch_cycle_replays_at_default_count(calibrated, monkeypatch):
    # the default 324 switches simulate the opening hold and cycles 0..13;
    # cycle 14 starts where cycle 12 did, so it and every cycle after it are copies
    steps = collections.Counter()
    step = tsea.plant.step

    def counted(state, *args):
        steps[mode_of(state)] += 1
        return step(state, *args)

    monkeypatch.setattr(tsea.plant, "step", counted)
    trace, report = run_switch_cycle(calibrated)
    assert steps == {Mode.SEA: 10_721, Mode.PEA: 6_720, Mode.TRANS: 3_360}
    assert (len(trace), report.completed, report.rejected) == (49_101, 324, 0)


def test_replayed_cycles_are_checked(calibrated, monkeypatch):
    # cycle 20 is a copy of cycle 12; its invariants are checked all the same
    checked = itertools.count()
    spring = tsea.experiments.spring_torque

    def loaded_at_cycle_20(state, p):
        return 1.0 if next(checked) == 20 else spring(state, p)

    monkeypatch.setattr(tsea.experiments, "spring_torque", loaded_at_cycle_20)
    with pytest.raises(InvariantViolation,
                       match=r"^cycle 20: spring not unloaded after engagement \(tau=1.0 Nm\)$"):
        run_switch_cycle(calibrated, n=30)


@pytest.mark.parametrize("mode, n_impacts", [(Mode.PEA, 3), (Mode.SEA, 5)])
def test_disturbance_replay_matches_full_simulation(mode, n_impacts, calibrated,
                                                    monkeypatch):
    # PEA impact 2 starts where impact 1 did, SEA impact 4 where impact 3 did
    ref = reference_disturbance(mode, calibrated, n_impacts, IMPACT_TORQUE_NM)
    trace, report, drv, steps = _counted_run(monkeypatch, run_disturbance, mode, calibrated,
                                             n_impacts=n_impacts)
    _assert_same_run(trace, report, drv, *ref)
    assert steps < len(trace)  # every step logs a row


@functools.lru_cache(maxsize=1)  # the cycle count varies fastest among the cases
def _reference_rig(preset: str, mode: Mode, rate: float):
    """Five reference cycles, whose leg starts cut out the runs of fewer."""
    return reference_rig_rows(mode, load_named_preset(preset), rate, cycles=5)


@pytest.mark.parametrize("cycles", [1, 2, 3, 5])
@pytest.mark.parametrize("rate", [1.0, 5.0, 1e300])
@pytest.mark.parametrize("mode", [Mode.SEA, Mode.PEA])
@pytest.mark.parametrize("preset", ["calibrated", "paper-linear-window"])
def test_stiffness_replay_matches_full_simulation(preset, mode, rate, cycles, monkeypatch):
    # a leg starts where an earlier leg of the same script did, bit for bit
    # (leg 6 where leg 2 did, leg 8 where leg 4 did), or where the mirror image
    # of an earlier leg did, its script and state negated (leg 4, 5 or 6 where
    # leg 2, 3 or 4 did); the legs from there on repeat, the mirrored ones
    # negated; by leg 8 every case has repeated a leg, and in one cycle only
    # calibrated SEA at 1 Nm/s has. Before that, a leg's ramp can meet the
    # state of the earliest earlier leg of its script or its mirror image, at
    # the same phase, on a kept row at the same offset into the leg, or its
    # negation (calibrated SEA leg 3 meets leg 1's, negated); the rest of the
    # leg is then that leg's rest, and the next leg starts under a repeated key
    all_rows, all_legs = _reference_rig(preset, mode, rate)
    legs = all_legs[:4 * cycles + 2]  # the leading dwell, the cycles' legs, the end
    rows = all_rows[:legs[-1][1]]
    pre = load_named_preset(preset)
    stride = _stride_for(pre.params.dt, STIFFNESS_RECORD_HZ)
    n_ramp = max(1, round(1.0 / rate / pre.params.dt))
    simulated = 0  # the legs' steps up to the first leg that repeats one, a merged leg's
    # up to its merge
    mirrored = False  # whether a merge or that leg repeats a mirror image
    seen, first = set(), {}
    for leg, ((k, row, theta, omega), (k_end, row_end, _, _)) in enumerate(zip(legs, legs[1:])):
        # scripts 0..3 ramp 0 -> 1, 1 -> 0, 0 -> -1, -1 -> 0 Nm; s + 2 mirrors s
        script, mirror = ("dwell", "dwell") if leg == 0 else ((leg - 1) % 4, (leg + 1) % 4)
        key = (script, k % stride, theta.hex(), omega.hex())
        if key in seen or (mirror, k % stride, (-theta).hex(), (-omega).hex()) in seen:
            mirrored |= key not in seen
            break
        seen.add(key)
        simulated += k_end - k
        sources = [(first[s, k % stride], s == mirror) for s in (script, mirror)
                   if (s, k % stride) in first]
        first.setdefault((script, k % stride), leg)
        if leg == 0 or not sources:
            continue
        src, negated = min(sources)
        src_row = legs[src][1]
        ramp_rows = range(row, min(row_end, -(-(k + n_ramp) // stride)))  # steps < k + n_ramp
        for r in ramp_rows:
            state = rows["theta_m"][r], rows["omega_m"][r]
            source = rows["theta_m"][src_row + r - row], rows["omega_m"][src_row + r - row]
            if all(state) and [x.hex() for x in state] == [
                    (-x if negated else x).hex() for x in source]:
                simulated -= k_end - r * stride  # the rest of the leg is copied
                mirrored |= negated
                break

    tanh, copy_rows = tsea.experiments.tanh, TraceRecorder.copy_rows
    calls, copies = itertools.count(), []

    def counted(x):
        next(calls)
        return tanh(x)

    def spy(self, start, stop, negate=False):
        copies.append(negate)
        copy_rows(self, start, stop, negate)

    monkeypatch.setattr(tsea.experiments, "tanh", counted)
    monkeypatch.setattr(TraceRecorder, "copy_rows", spy)
    trace, report = run_static_stiffness(mode, pre, ramp_rate=rate, cycles=cycles)
    # every column by its bits: a copy that writes -0.0 for 0.0 or negates the
    # locked output's 0.0 differs
    for name in RIG_ROW.names:
        assert getattr(trace, name).tobytes() == rows[name].tobytes(), name
    assert repr(report.as_dict()) == repr(reference_stiffness_report(mode, rows, legs).as_dict())
    assert next(calls) == 4 * simulated  # four tanh calls a step
    assert (simulated < legs[-1][0]) == bool(copies)
    assert bool(copies) or cycles == 1
    assert any(copies) == mirrored  # a mirrored merge or leg copies its rows negated


def test_replay_keys_state_bits_and_row_phase(calibrated):
    drv = _Driver(calibrated, HOLD_KP, PeaState(0.0, 0.0, 0.0), stride=8)
    units = drv.replay(5)
    assert next(units) is None
    drv.state = PeaState(-0.0, 0.0, 0.0)  # equal to unit 0's as floats, not as bits
    assert next(units) is None
    drv.state, drv.k = PeaState(0.0, 0.0, 0.0), 9  # unit 0's state, another row phase
    assert next(units) is None
    drv.k = 16  # unit 0's state and row phase: units 0..2 repeat from here on
    assert list(units) == [0, 1]
    assert repr(drv.state) == repr(PeaState(0.0, 0.0, 0.0)) and drv.k == 16 + 9
    assert drv.t == drv.k * calibrated.params.dt


def test_run_length_ceiling():
    _check_run_length("a run", MAX_RUN_STEPS)
    with pytest.raises(ValueError, match=f"^a run could take more than {MAX_RUN_STEPS} steps"):
        _check_run_length("a run", MAX_RUN_STEPS + 1)


@pytest.mark.parametrize("run, kwargs", [
    (run_static_stiffness, {"cycles": 100}),
    (run_dynamic_switching, {"duration": 6251.0}),
    (run_disturbance, {"n_impacts": 200}),
    (run_switch_cycle, {"n": 20_000}),
], ids=["stiffness-cycles", "track-duration", "disturb-window", "cycle-n"])
def test_protocols_reject_runs_over_the_ceiling(run, kwargs, calibrated):
    args = (Mode.SEA, calibrated) if run in (run_static_stiffness, run_disturbance) \
        else (calibrated,)
    with pytest.raises(ValueError, match=f"more than {MAX_RUN_STEPS} steps"):
        run(*args, **kwargs)


def test_metrics_are_pure(calibrated):
    trace, _ = run_dynamic_switching(calibrated, duration=1.0, switch_period=0.5)
    a = rms(trace.i_q)
    b = rms(trace.i_q)
    assert a == b
