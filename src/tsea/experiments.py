"""Scripted experiment protocols and derived metrics.

Four protocols: quasi-static stiffness characterization with the output
locked, dynamic switching during sinusoidal tracking, impulse disturbance
rejection under position hold, and a switching endurance run. Each protocol
returns (Trace, report). A report is a dataclass whose fields, in order, are
its report.json keys, written by Report.as_dict; the switch records of the
tracking and endurance runs stay in memory, in a records field that is not
written. All metric functions are pure. The three protocols that move the
actuator script their phases on one driver loop (_Driver); the stiffness rig
steps its locked motor, one body on a grounded spring with no load, with an
RK4 step written inline in its own loop. Both log a row every stride steps
from step 0, so row r's time is (r*stride)*dt.

The endurance and disturbance units and the stiffness rig's legs that repeat
an earlier one are copied, not simulated again (_Driver.replay and
run_static_stiffness tell how, and why the bytes cannot change). Before it
simulates, every protocol bounds its step count, replayed steps included, by
MAX_RUN_STEPS.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from itertools import islice, repeat
from math import isfinite, tanh

import numpy as np

from . import plant
from .control import p_position
from .params import MAX_RUN_STEPS, ActuatorParams, Preset
from .plant import (
    Mode,
    PeaState,
    PlantState,
    SeaState,
    SimulationError,
    TransitionState,
    clamp_torque,
    gravity_torque,
    mode_of,
    spring_torque,
)
from .selector import (
    COMPLETED,
    REJECTED,
    SwitchDecision,
    SwitchRecord,
    advance_selector,
    engagement_energy_loss,
    latency_steps,
    request_switch,
)

MODE_NAMES = tuple(mode.value for mode in Mode)  # indexed by a trace's mode code
MODE_CODE = {mode: code for code, mode in enumerate(Mode)}

# Protocol constants; gains are per-protocol, impact size is calibrated once
# against the series-mode peak-deflection target and reused unchanged.
TRACK_KP = 40.0
DISTURB_KP = 30.0
HOLD_KP = 30.0
IMPACT_TORQUE_NM = 7.0
IMPACT_DURATION_S = 0.010
SETTLE_BAND_DEG = 0.5
HANG_CENTER_RAD = -math.pi / 2.0  # arm hanging straight down: zero gravity torque
# trace row rates of the two long runs; the others log every step
CYCLE_RECORD_HZ = 1000.0
STIFFNESS_RECORD_HZ = 2000.0


class InvariantViolation(RuntimeError):
    """A selector or protocol invariant failed during a run."""


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trace:
    """Uniformly sampled simulation log. A recorded trace's eight float
    columns are strided views of the recorder's one packed row buffer."""

    dt: float            # sample spacing [s]
    t: np.ndarray        # [s]
    mode: np.ndarray     # int8 codes into MODE_NAMES
    theta_m: np.ndarray  # [rad]
    omega_m: np.ndarray  # [rad/s]
    theta_o: np.ndarray  # [rad]
    omega_o: np.ndarray  # [rad/s]
    tau_cmd: np.ndarray      # commanded motor torque [Nm]
    tau_applied: np.ndarray  # saturated motor torque [Nm]
    tau_spring: np.ndarray   # hub spring torque [Nm]
    i_q: np.ndarray          # q-axis current [A]

    def __len__(self) -> int:
        return len(self.t)


_FLOAT_COLS = tuple(f.name for f in fields(Trace))[3:]  # the fields after dt, t and mode
# the columns, by number in _FLOAT_COLS, a mirror image of the locked rig negates
_ODD_COLS = [0, 1, 4, 5, 6, 7]
_pack_row = struct.Struct("8d").pack


class TraceRecorder:
    """Append-only row store for a caller that appends a row every stride
    steps of dt from step 0, so row r's time is (r*stride)*dt. Each row's
    eight floats are packed in _FLOAT_COLS order into one row-major buffer,
    next to an array of mode codes; the trace's columns are views of it."""

    def __init__(self, dt: float, stride: int = 1):
        self.dt = dt
        self.stride = stride
        self._rows = array("d")
        self._mode = array("b")

    @property
    def n_recorded(self) -> int:
        return len(self._mode)

    def record(self, state: PlantState, tau_cmd: float, tau_applied: float,
               p: ActuatorParams) -> None:
        cls = type(state)
        if cls is SeaState:
            qm, wm, qo, wo, off = state
            code, tau_s = 0, p.K_s * (qm - qo - off)  # plant.spring_torque's
        elif cls is PeaState:
            qm, wm, anchor = state
            code, qo, wo, tau_s = 1, qm, wm, p.K_s * (qm - anchor)
        else:
            qm, wm, qo, wo, _ = state
            code, tau_s = 2, 0.0
        self._rows.frombytes(_pack_row(qm, wm, qo, wo, tau_cmd, tau_applied, tau_s,
                                       tau_applied / p.K_t))
        self._mode.append(code)

    def record_raw(self, code: int, qm: float, wm: float, qo: float, wo: float,
                   tau_cmd: float, tau_applied: float, tau_spring: float,
                   i_q: float) -> None:
        self._rows.frombytes(_pack_row(qm, wm, qo, wo, tau_cmd, tau_applied, tau_spring, i_q))
        self._mode.append(code)

    def copy_rows(self, start: int, stop: int, negate: bool = False) -> None:
        """Append a copy of rows [start, stop), or with negate set its mirror
        image on the locked stiffness rig: the _ODD_COLS as 0.0 - x (0.0,
        never -0.0, as the rig writes), the output's 0.0s and the mode as
        they are."""
        rows = self._rows
        block = rows[8 * start:8 * stop]  # a copy: the view below is of it, so rows can grow
        if negate:
            cols = np.frombuffer(block).reshape(-1, 8)
            cols[:, _ODD_COLS] = 0.0 - cols[:, _ODD_COLS]
        rows.extend(block)
        self._mode.extend(self._mode[start:stop])

    def trace(self) -> Trace:
        t = np.arange(0, self.n_recorded * self.stride, self.stride, dtype=np.float64)
        t *= self.dt  # the products k*dt its caller forms, not r*(stride*dt)
        rows = np.frombuffer(self._rows, np.float64).reshape(-1, 8)
        return Trace(dt=self.dt * self.stride, t=t,
                     mode=np.asarray(self._mode, dtype=np.int8),
                     **dict(zip(_FLOAT_COLS, rows.T)))


def _stride_for(dt: float, hz: float) -> int:
    """Steps of dt per trace row for a row rate of hz."""
    return max(1, round(1.0 / (dt * hz)))


def mode_runs(mode: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) row spans of the maximal runs of one mode code."""
    if len(mode) == 0:
        return []
    edges = (np.flatnonzero(mode[1:] != mode[:-1]) + 1).tolist()
    return list(zip([0, *edges], [*edges, len(mode)]))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def rms(series) -> float:
    """Root mean square of a non-empty series; inf, silently, when a square
    overflows (write_report_json names the field)."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("rms of empty series")
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean(arr * arr)))


def linear_fit(x, y) -> float:
    """Slope of the ordinary least-squares line through (x, y).

    Requires at least two paired samples with distinct x values.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two paired samples")
    dx = x - x.mean()
    sxx = float(dx @ dx)
    if sxx <= 0.0:
        raise ValueError("degenerate x spread: all abscissae identical")
    return float(dx @ (y - y.mean())) / sxx


def hysteresis_area(theta, tau) -> float:
    """Absolute shoelace area of a closed torque-deflection loop [Nm·rad].

    The polyline is closed by appending the first point if needed.
    """
    x = np.asarray(theta, dtype=np.float64)
    y = np.asarray(tau, dtype=np.float64)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least three loop points")
    if x[0] != x[-1] or y[0] != y[-1]:
        x = np.append(x, x[0])
        y = np.append(y, y[0])
    return float(0.5 * abs(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])))


def peak_deflection(angles, reference: float) -> float:
    """Max |angle - reference| over a segment, in degrees."""
    arr = np.asarray(angles, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty segment")
    return math.degrees(float(np.max(np.abs(arr - reference))))


def settling_time(t, angles, reference: float) -> float | None:
    """Time [ms] from segment start until the angle permanently stays in
    reference ± SETTLE_BAND_DEG. None if the segment never settles (sentinel).

    The segment is assumed to start at the impact instant.
    """
    t = np.asarray(t, dtype=np.float64)
    err = np.abs(np.asarray(angles, dtype=np.float64) - reference)
    band = math.radians(SETTLE_BAND_DEG)
    outside = np.nonzero(err > band)[0]
    if outside.size == 0:
        return 0.0
    last_out = int(outside[-1])
    if last_out == len(t) - 1:
        return None
    return float((t[last_out + 1] - t[0]) * 1000.0)


def crossing_times(t, y, min_excursion: float = 0.0) -> list[float]:
    """Zero-crossing instants of y(t), linearly interpolated.

    With min_excursion > 0, a crossing only counts when the signal reaches at
    least that magnitude on both sides of it, which suppresses in-band
    micro-oscillation at the tail of a decay.
    """
    t = np.asarray(t, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    idx = np.nonzero(np.sign(y[:-1]) * np.sign(y[1:]) < 0)[0]
    if idx.size == 0:
        return []
    cross_t = t[idx] - y[idx] * (t[idx + 1] - t[idx]) / (y[idx + 1] - y[idx])
    bounds = [0, *list(idx + 1), len(y)]
    seg_peak = [float(np.max(np.abs(y[bounds[k]:bounds[k + 1]]))) for k in range(len(bounds) - 1)]
    kept = [float(cross_t[k]) for k in range(len(idx))
            if seg_peak[k] >= min_excursion and seg_peak[k + 1] >= min_excursion]
    return kept


def dominant_frequency(t, y, min_excursion: float = 0.0) -> float | None:
    """Oscillation frequency [Hz] estimated from zero-crossing spacing."""
    times = crossing_times(t, y, min_excursion)
    if len(times) < 2:
        return None
    return (len(times) - 1) / (2.0 * (times[-1] - times[0]))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class Report:
    """A report whose dataclass fields, in order, are its report.json keys.
    A field declared with field(repr=False) stays in memory only."""

    def as_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self) if f.repr}


def _plain(value):
    """A report value as report.json holds it: a nested report as its dict."""
    if isinstance(value, Report):
        return value.as_dict()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class StiffnessReport(Report):
    mode: str
    K_fit_nm_per_rad: float       # mean per-cycle OLS slope
    K_stderr_nm_per_rad: float    # spread of per-cycle slopes
    loop_area_nm_rad: float       # mean per-cycle hysteresis area
    k_per_cycle: list[float]
    area_per_cycle: list[float]


@dataclass(frozen=True)
class DisturbanceReport(Report):
    mode: str
    impact_torque_nm: float
    impact_duration_s: float
    peaks_deg: list[float]
    settling_ms: list[float | None]
    zero_crossings: list[int]
    dominant_freq_hz: list[float | None]
    mean_peak_deg: float
    mean_settling_ms: float | None


@dataclass(frozen=True)
class SegmentStats(Report):
    mode: str
    t_start: float
    t_end: float
    rms_error_rad: float
    rms_iq_a: float
    peak_iq_a: float


@dataclass(frozen=True)
class TrackingReport(Report):
    segments: list[SegmentStats]
    per_mode: dict[str, dict[str, float]]  # _tracking_stats pooled per engaged mode
    switches_completed: int
    retried_attempts: int
    switch_records: list[dict]  # the records as _record_dict writes them
    records: list[SwitchRecord] = field(repr=False)


@dataclass(frozen=True)
class CycleReport(Report):
    completed: int
    rejected: int
    retried_attempts: int
    max_ke_loss_j: float
    records: list[SwitchRecord] = field(repr=False)
    # the latency invariant aborts the run unless every engagement takes
    # exactly latency_steps(t_switch, dt) steps, so the error is 0 by construction
    max_latency_error_s: float = 0.0


def _record_dict(r: SwitchRecord, dt: float) -> dict:
    """A switch record with its steps as times k*dt, as the driver's clock forms them."""
    return {
        "request_time": r.request_k * dt,
        "engage_time": None if r.engage_k is None else r.engage_k * dt,
        "from_mode": r.from_mode.value,
        "to_mode": r.to_mode.value,
        "torque_at_request": r.torque_at_request,
        "outcome": r.outcome,
    }


# ---------------------------------------------------------------------------
# Shared harness pieces
# ---------------------------------------------------------------------------

def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite (got {value})")


def _whole_steps(name: str, value: float, dt: float) -> int:
    """round(value / dt) for a duration that must span at least one step."""
    _check_positive(name, value)
    if not 0.5 < value / dt < math.inf:
        raise ValueError(f"{name} must be longer than half a step of {dt} s and span "
                         f"finitely many steps (got {value})")
    return round(value / dt)


def _check_run_length(what: str, steps: int) -> None:
    """Reject a run whose step count, or a bound on it, is over MAX_RUN_STEPS."""
    if steps > MAX_RUN_STEPS:
        raise ValueError(f"{what} could take more than {MAX_RUN_STEPS} steps, "
                         f"the most a run may take")


def _other_mode(mode: Mode) -> Mode:
    """The engaged mode a switch from mode heads for."""
    return Mode.PEA if mode is Mode.SEA else Mode.SEA


def initial_state(mode: Mode, theta: float = 0.0) -> PlantState:
    """Engaged at rest with the spring unloaded at the given angle."""
    if mode is Mode.SEA:
        return SeaState(theta, 0.0, theta, 0.0, 0.0)
    if mode is Mode.PEA:
        return PeaState(theta, 0.0, theta)
    raise ValueError("initial state must be an engaged mode")


class _Driver:
    """The actuator loop every moving protocol runs: the motor-side P
    controller, the selector gate, the trace recorder and the plant.

    Protocols script their phases as calls to run() and hold(), a switch
    request included (a hold is one run under a stop rule); the driver owns
    the state, the step count k (the time is k*dt), the recorder and the
    switch bookkeeping (the selector travel in steps, completed records,
    refused gate tests) in between.
    """

    def __init__(self, preset: Preset, kp: float, state: PlantState, stride: int = 1):
        self.p, self.load = preset.params, preset.load
        self.rec = TraceRecorder(self.p.dt, stride)
        self.stride = stride  # one trace row every stride steps
        self.kp = kp
        self.state = state
        self.k = 0  # steps taken
        self.latency = latency_steps(self.p.t_switch, self.p.dt)  # steps of selector travel
        self._engage_k = 0  # k after the step the last accepted switch engages on
        # the transition state the last run's engagement consumed, else None
        self.engaged_from: TransitionState | None = None
        self.records: list[SwitchRecord] = []  # one per engagement, in order
        self.retried = 0  # gate tests that refused a request
        # request step, from and to modes and torque of the switch in flight
        self._request: tuple[int, Mode, Mode, float] | None = None

    @property
    def t(self) -> float:
        """k*dt, a product so that it cannot drift."""
        return self.k * self.p.dt

    def run(self, targets: Iterable[float], extra: float = 0.0, switch: bool = False,
            settle: tuple[float, int, int] | None = None) -> SwitchDecision | bool | None:
        """One control period per item of targets (repeat(target, n) for a
        constant phase), each in this order: the P law on the motor angle;
        when switch is set, the switch gate to the other engaged mode, retried
        every period until it accepts (which enters the transition before the
        row is logged); the trace row on every stride-th step; one RK4 step
        with extra output torque. The driver counts the selector travel in
        whole steps: latency steps after the gate accepts, the selector
        engages, the engagement appends its COMPLETED record and the run
        stops; an iterator keeps the targets not taken. settle is hold()'s stop
        rule (tol, window, earliest): the run stops on the first step k > earliest
        that ends window steps in a row with every velocity under tol.

        Returns True if settle stopped the run, else the gate's last decision
        (None when no switch was requested).
        """
        p = self.p
        load = self.load
        kp = self.kp
        stride = self.stride
        tau_max = p.tau_max
        state = self.state
        k = self.k
        engage_k = self._engage_k
        decision = engaged = None
        tol, window, earliest = settle or (None, 0, 0)
        quiet = 0
        # looked up once per call, by the names that wrappers and spies patch
        p_law, record, step = p_position, self.rec.record, plant.step
        try:
            for target in targets:
                tau_cmd = p_law(target, state[0], kp)  # field 0: the motor angle
                if switch:  # the gate tests every step until it accepts
                    src = mode_of(state)
                    dst = _other_mode(src)
                    tau_ext = gravity_torque(
                        state.theta if type(state) is PeaState else state.theta_o, load)
                    decision = request_switch(dst, state, clamp_torque(tau_cmd, p), tau_ext, p)
                    if decision.accepted:
                        switch = False
                        state = decision.transition
                        self._engage_k = engage_k = k + self.latency
                        self._request = (k, src, dst, decision.transmitted)
                    else:
                        self.retried += 1
                if k % stride == 0:  # the applied torque is clamp_torque's
                    record(state, tau_cmd, tau_max if tau_cmd > tau_max else
                           -tau_max if tau_cmd < -tau_max else tau_cmd, p)
                state = step(state, tau_cmd, p, load, extra)
                k += 1
                if k == engage_k:
                    engaged = state
                    state = advance_selector(state, p)
                    request_k, src, dst, torque = self._request
                    self.records.append(SwitchRecord(request_k, k, src, dst, torque, COMPLETED))
                    break
                if tol is not None:  # the velocities are fields 1 and 3, one field in PEA
                    still = abs(state[1]) < tol and (type(state) is PeaState or abs(state[3]) < tol)
                    quiet = quiet + 1 if still else 0
                    if quiet >= window and k > earliest:
                        decision = True
                        break
        except SimulationError as exc:
            self.state, self.k = state, k
            raise SimulationError(f"{exc} after step {k} (t={self.t:.6f} s)") from exc
        self.state = state
        self.k = k
        self.engaged_from = engaged
        return decision

    def hold(self, target: float, omega_tol: float, window_s: float,
             timeout_s: float, min_hold_s: float = 0.0) -> None:
        """Hold target in one run until both velocities stay under omega_tol
        for window_s consecutive seconds (checked after min_hold_s). Start it
        with no switch in flight: an engagement stops the run. Raises
        SimulationError if the hold does not settle within timeout_s, or if
        the P law at the settled state asks the motor for tau_max or more:
        the arm then hangs rather than holds, and whatever a protocol
        measures from there is not the hold."""
        dt = self.p.dt
        settle = (omega_tol, max(1, round(window_s / dt)), self.k + round(min_hold_s / dt))
        if not self.run(repeat(target, round(timeout_s / dt)), settle=settle):
            raise SimulationError(
                f"hold did not settle below |omega| < {omega_tol} rad/s within {timeout_s} s")
        s = self.state
        tau = self.kp * (target - s[0])  # p_position's law, not a counted control call
        if abs(tau) >= self.p.tau_max:
            theta_o = s.theta if type(s) is PeaState else s.theta_o
            raise SimulationError(
                f"the hold at {math.degrees(target):g}° saturates the motor: the P law asks "
                f"for {tau:.4g} Nm against tau_max = {self.p.tau_max:g} Nm with the output "
                f"at {math.degrees(theta_o):.2f}°"
            )

    def replay(self, n: int) -> Iterator[int | None]:
        """Drive n units of a protocol that scripts the same unit n times, and
        copy the units a simulation would repeat instead of simulating them.

        Yields once per unit, in order. Each unit starts in an engaged mode and
        is keyed at its start by its state's type, the exact bits of its floats
        (-0.0 is not 0.0) and k % stride, which fixes the steps that log rows;
        a unit's script reads nothing else (k itself only stamps switch
        records). Under a new key the driver yields None: the caller simulates
        the unit now with run() and hold(). Under the key of an earlier unit s
        the unit would take unit s's steps again, bit for bit, so the driver
        copies unit s from its start to unit s+1's instead and yields s, so the
        caller can check its records and find its rows. The copy appends unit
        s's rows in one call (shifted by a multiple of stride, they stay on the
        row grid), its switch records with their steps shifted by the same
        count, and its refused gate tests, and leaves the state and k that
        simulating the unit would leave. The next unit then starts under unit
        s+1's key and is copied from unit s+1 in turn.
        """
        seen: dict[tuple, int] = {}
        marks = []  # (k, rows, records, refusals, state) at each unit's start
        records = self.records
        for i in range(n):
            state = self.state
            marks.append((self.k, self.rec.n_recorded, len(records), self.retried, state))
            # no mirror key: gravity breaks the mirror symmetry
            src = seen.setdefault(
                (type(state), self.k % self.stride, struct.pack(f"{len(state)}d", *state)), i)
            if src == i:
                yield None
                continue
            k0, r0, n0, retried0, _ = marks[src]
            k1, r1, n1, retried1, state = marks[src + 1]
            shift = self.k - k0  # a multiple of stride, so the rows stay on the grid
            self.rec.copy_rows(r0, r1)
            for r in records[n0:n1]:
                records.append(replace(
                    r, request_k=r.request_k + shift,
                    engage_k=None if r.engage_k is None else r.engage_k + shift))
            self.retried += retried1 - retried0
            self.k += k1 - k0
            self.state = state
            yield src


def run_hold(mode: Mode, preset: Preset) -> tuple[Trace, PlantState]:
    """Hold the horizontal under gravity until the plant is numerically at
    rest (|omega| < 1e-6 rad/s). Used for the steady-state torque identities.
    Raises SimulationError if the settled hold saturates the motor.
    """
    drv = _Driver(preset, HOLD_KP, initial_state(mode))
    drv.hold(0.0, 1e-6, window_s=0.05, timeout_s=40.0)
    return drv.rec.trace(), drv.state


# ---------------------------------------------------------------------------
# Static stiffness protocol (locked output)
# ---------------------------------------------------------------------------

def run_static_stiffness(
    mode: Mode,
    preset: Preset,
    ramp_rate: float = 0.2,
    cycles: int = 3,
    settle_omega: float = 1e-4,
) -> tuple[Trace, StiffnessReport]:
    """Quasi-static torque cycles against the locked output.

    The output shaft is frozen by the fixture (gravity excluded: the fixture
    carries the load), so the motor works against K_s in series mode and
    against K_s + K_struct through the rigid path in parallel mode. The
    torque command ramps linearly between the cycle vertices 0, +1, 0, -1, 0
    Nm and dwells at each vertex until |omega_m| < settle_omega for 0.05 s
    (at most 60 s); the fit and loop area use the continuously sampled trace.

    Each leg is the leading dwell, or a ramp of n steps and its dwell. Its sign
    s is -1.0 when tau_from + tau_to < 0 (the two legs that ramp to or from -1
    Nm) and 1.0 otherwise. Its script key is (s*tau_from, s*tau_to, n,
    step_i % stride), and its start key adds the exact bits of s*theta and
    s*omega. So a leg and its mirror image, script and state negated, share
    one key. Each key maps to the earliest leg under it and that leg's s; a
    leg whose s differs from its source's is the source negated.

    The start key fixes every step, row and exit of a leg: a leg under an
    earlier leg's start key repeats it, negated for a mirror, since with no
    gravity term, an odd force law, and IEEE rounding and tanh odd too, each
    value is the source's negated up to the sign of a zero (the rig writes 0.0
    where negation gives -0.0, as a negated copy does). The state is never
    -0.0 (it starts at 0.0; a sum is -0.0 only when both terms are), so a leg
    that starts at a zero shares its start key with no mirror. A leg under a
    new start key is simulated, and merges with the leg under its script key
    once s*theta and s*omega, both nonzero, equal that leg's row at the same
    offset times its s on a logged ramp step: the ramp torque depends only on
    the script and the step into it, and no dwell count has started. A repeat
    is such a merge at the first row. Either way the rig copies leg src's rows
    from there to leg src+1's start, negated for a mirror, and takes leg src's
    step count and end state: the values the simulation would compute again.
    """
    if mode not in (Mode.SEA, Mode.PEA):
        raise ValueError("stiffness protocol characterizes an engaged mode")
    _check_positive("ramp_rate", ramp_rate)
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1 (got {cycles})")
    p = preset.params
    K_rig = p.K_s if mode is Mode.SEA else p.K_s + p.K_struct
    tau_c = p.tau_c_sea if mode is Mode.SEA else p.tau_c_pea
    code = MODE_CODE[mode]
    dt = p.dt
    leg_steps = 1.0 / ramp_rate / dt  # every leg moves the torque by 1 Nm
    if not leg_steps < math.inf:
        raise ValueError(f"ramp_rate must be large enough to ramp 1 Nm in finitely many "
                         f"steps of {dt} s (got {ramp_rate})")
    n_ramp = max(1, round(leg_steps))
    timeout_steps = round(60.0 / dt)  # of every dwell
    # the leading dwell, then four legs a cycle: each a ramp and a dwell
    _check_run_length(f"{cycles} cycles at ramp_rate {ramp_rate}",
                      timeout_steps + 4 * cycles * (n_ramp + timeout_steps))
    stride = _stride_for(dt, STIFFNESS_RECORD_HZ)
    rec = TraceRecorder(dt, stride)  # the rig calls it on kept steps only
    window_steps = max(1, round(0.05 / dt))

    J, b, w_eps, K_t = p.J_m, p.b_m, p.omega_eps, p.K_t
    half, sixth = 0.5 * dt, dt / 6.0
    record = rec.record_raw
    # (tau_from, tau_to, ramp steps): the leading dwell at 0 Nm, then four legs a cycle
    legs = [(0.0, 0.0, 0)] + [(0.0, 1.0, n_ramp), (1.0, 0.0, n_ramp),
                              (0.0, -1.0, n_ramp), (-1.0, 0.0, n_ramp)] * cycles

    theta = 0.0
    omega = 0.0
    step_i = 0
    seen: dict[tuple, tuple[int, float]] = {}  # start key: (earliest leg, its s)
    first: dict[tuple, tuple[int, float]] = {}  # script key: (earliest leg, its s)
    marks = []  # (step_i, rows, theta, omega) at the start of every leg
    rows = rec._rows  # each row's theta and omega are its first two floats
    for leg, (tau_from, tau_to, n) in enumerate(legs):
        s = -1.0 if tau_from + tau_to < 0 else 1.0
        key = (s * tau_from, s * tau_to, n, step_i % stride)
        marks.append((step_i, rec.n_recorded, theta, omega))
        # the leg this one repeats, else the leg its ramp may merge with
        src, s_src = seen.setdefault(key + (struct.pack("2d", s * theta, s * omega),), (leg, s))
        copy = src < leg
        if not copy:
            src, s_src = first.setdefault(key, (leg, s))
        negated = s_src != s
        r = 8 * marks[src][1]  # the source's row at this leg's offset, as rows indexes it
        if not copy:
            until = n if src < leg else 0  # the last step that may merge: ramp steps only
            quiet = 0
            for j in range(1, n + timeout_steps + 1):
                tau = tau_from + (tau_to - tau_from) * j / n if j <= n else tau_to
                if step_i % stride == 0:
                    if (j <= until and s * theta == s_src * rows[r]
                            and s * omega == s_src * rows[r + 1] and theta and omega):
                        # the source's state, or its negation, at the same step of the
                        # same script: the rest of the leg is the rest of the source's
                        copy = True
                        break
                    r += 8
                    record(code, theta, omega, 0.0, 0.0, tau, tau, K_rig * theta, tau / K_t)
                # one RK4 step of the locked motor, one body on the grounded spring
                # K_rig: no output load (so no cos to fail) and no call per step
                a1 = (tau - K_rig * theta - b * omega - tau_c * tanh(omega / w_eps)) / J
                w2 = omega + half * a1
                a2 = (tau - K_rig * (theta + half * omega) - b * w2 - tau_c * tanh(w2 / w_eps)) / J
                w3 = omega + half * a2
                a3 = (tau - K_rig * (theta + half * w2) - b * w3 - tau_c * tanh(w3 / w_eps)) / J
                w4 = omega + dt * a3
                a4 = (tau - K_rig * (theta + dt * w3) - b * w4 - tau_c * tanh(w4 / w_eps)) / J
                theta += sixth * (omega + 2.0 * (w2 + w3) + w4)
                omega += sixth * (a1 + 2.0 * (a2 + a3) + a4)
                if not (isfinite(theta) and isfinite(omega)):
                    raise SimulationError(f"stiffness rig blew up at t={step_i * dt:.6f} s")
                step_i += 1
                if j > n:
                    quiet = quiet + 1 if abs(omega) < settle_omega else 0
                    if quiet >= window_steps:
                        break
            else:
                raise SimulationError(
                    f"rig did not settle below |omega| < {settle_omega} rad/s at tau={tau_to} Nm"
                )
        if copy:  # leg src from row r on, to leg src + 1's start
            rec.copy_rows(r // 8, marks[src + 1][1], negated)
            k1, _, theta, omega = marks[src + 1]
            step_i = marks[leg][0] + k1 - marks[src][0]
            if negated:
                theta, omega = 0.0 - theta, 0.0 - omega
    # legs 1, 5, 9, ..., then the row count at the end
    cycle_starts = [m[1] for m in marks[1::4]] + [rec.n_recorded]

    trace = rec.trace()
    slopes, areas = [], []
    for a, bnd in zip(cycle_starts, cycle_starts[1:]):
        th = trace.theta_m[a:bnd]
        ta = trace.tau_applied[a:bnd]
        slopes.append(linear_fit(th, ta))
        areas.append(hysteresis_area(th, ta))
    return trace, StiffnessReport(mode.value, float(np.mean(slopes)), float(np.std(slopes)),
                                  float(np.mean(areas)), slopes, areas)


# ---------------------------------------------------------------------------
# Dynamic switching protocol
# ---------------------------------------------------------------------------

def run_dynamic_switching(
    preset: Preset,
    duration: float = 30.0,
    switch_period: float = 5.0,
    center: float = HANG_CENTER_RAD,
) -> tuple[Trace, TrackingReport]:
    """Sinusoidal tracking (±20° at 1 Hz) with a switch requested every period.

    The motion is centered on the hanging position so the transmitted torque
    crosses below the disengagement gate once per stroke; rejected requests
    are retried every following step until accepted.
    """
    dt = preset.params.dt
    n_steps = _whole_steps("duration", duration, dt)
    _check_run_length(f"duration {duration}", n_steps)
    _check_positive("switch_period", switch_period)
    drv = _Driver(preset, TRACK_KP, initial_state(Mode.SEA, center))
    amp = math.radians(20.0)
    two_pi_f = 2.0 * math.pi  # 1 Hz
    # the target at step k, with t = k*dt formed as the driver's clock forms it
    targets = (center + amp * math.sin(two_pi_f * (k * dt)) for k in range(n_steps))

    n_requests = duration // switch_period  # inf when the quotient overflows
    i = 0
    while i < n_requests and drv.k < n_steps:
        # request i is due at its step once the last switch has engaged; the
        # gated run retries until the gate accepts and stops at the engagement
        drv.run(islice(targets, max(0, round(i * switch_period / dt) - drv.k)))
        drv.run(targets, switch=True)
        i += 1
    drv.run(targets)

    trace = drv.rec.trace()
    err_all = center + amp * np.sin(two_pi_f * trace.t) - trace.theta_m
    segments = []
    for start, stop in mode_runs(trace.mode):
        name = MODE_NAMES[trace.mode[start]]
        if name != "TRANS":
            segments.append(SegmentStats(
                name, float(trace.t[start]), float(trace.t[stop - 1]),
                **_tracking_stats(err_all[start:stop], trace.i_q[start:stop])))
    per_mode = {}
    for code, name in enumerate(MODE_NAMES[:2]):  # the engaged modes, rows in trace order
        rows = trace.mode == code
        if rows.any():
            per_mode[name] = _tracking_stats(err_all[rows], trace.i_q[rows])
    records = drv.records
    completed = sum(1 for r in records if r.outcome == COMPLETED)
    return trace, TrackingReport(segments, per_mode, completed, drv.retried,
                                 [_record_dict(r, dt) for r in records], records)


def _tracking_stats(err: np.ndarray, iq: np.ndarray) -> dict[str, float]:
    """The tracking error and q-axis current statistics of a set of rows, as
    each segments entry and each per_mode entry reports them."""
    return dict(rms_error_rad=rms(err), rms_iq_a=rms(iq), peak_iq_a=float(np.max(np.abs(iq))))


# ---------------------------------------------------------------------------
# Disturbance rejection protocol
# ---------------------------------------------------------------------------

def run_disturbance(
    mode: Mode,
    preset: Preset,
    n_impacts: int | None = None,
    impact_torque: float = IMPACT_TORQUE_NM,
    post_window_s: float = 8.0,
) -> tuple[Trace, DisturbanceReport]:
    """Impulse response under position hold at the horizontal.

    A rectangular torque pulse of round(IMPACT_DURATION_S / dt) steps strikes
    the output side; peak deflection and settling into the ±0.5° band over
    post_window_s are measured on the impacted (output-side) angle relative
    to its pre-impact rest value (in parallel mode the motor and output
    angles are one coordinate). A hold that saturates the motor raises
    SimulationError rather than measuring impacts on a hanging arm.
    """
    if mode not in (Mode.SEA, Mode.PEA):
        raise ValueError("disturbance protocol characterizes an engaged mode")
    if n_impacts is None:
        n_impacts = 6 if mode is Mode.SEA else 5
    if n_impacts < 1:
        raise ValueError("n_impacts must be >= 1")
    if not math.isfinite(impact_torque):  # zero and negative pulses are legal
        raise ValueError(f"impact_torque must be finite (got {impact_torque})")
    _check_impulse(impact_torque, preset.params)
    dt = preset.params.dt
    post_steps = _whole_steps("post_window_s", post_window_s, dt)
    # a whole number of steps, so the impulse does not depend on the start time
    pulse_steps = min(round(IMPACT_DURATION_S / dt), post_steps)

    timeout_s = 40.0  # of every hold
    hold_steps = round(timeout_s / dt)
    _check_run_length(f"{n_impacts} impacts", hold_steps + n_impacts * (post_steps + hold_steps))

    drv = _Driver(preset, DISTURB_KP, initial_state(mode))
    # settle into the pre-impact hold
    drv.hold(0.0, omega_tol=1e-4, window_s=0.25, timeout_s=timeout_s, min_hold_s=1.0)
    # every step logs a row, so an impact's window is the post_steps rows from
    # its first row, and each impact's rows start where the last one's ended
    starts = [drv.rec.n_recorded]
    for src in drv.replay(n_impacts):
        if src is None:
            drv.run(repeat(0.0, pulse_steps), impact_torque)
            drv.run(repeat(0.0, post_steps - pulse_steps))
            # re-settle before the next strike
            drv.hold(0.0, omega_tol=1e-4, window_s=0.25, timeout_s=timeout_s)
        starts.append(drv.rec.n_recorded)  # after a simulated or copied impact

    trace = drv.rec.trace()
    windows = [(start, start + post_steps) for start in starts[:-1]]
    return trace, _disturbance_report(mode, trace, windows, impact_torque)


def _check_impulse(impact_torque: float, p: ActuatorParams) -> None:
    """Reject a pulse whose output velocity kick, |impact_torque|*IMPACT_DURATION_S/J_o,
    would move the output half a turn or more in one step of dt."""
    limit = math.pi * p.J_o / (IMPACT_DURATION_S * p.dt)
    if not abs(impact_torque) < limit:
        raise ValueError(f"impact_torque must be below {limit!r} Nm, the pulse that kicks "
                         f"the output half a turn in one step (got {impact_torque})")


def _disturbance_report(mode: Mode, trace: Trace, windows: list[tuple[int, int]],
                       impact_torque: float) -> DisturbanceReport:
    """Per-impact metrics of run_disturbance's trace, each impact's post-strike
    window given as its [start, stop) rows."""
    angles = trace.theta_o  # a parallel-mode row logs its one angle in both columns
    half_band = math.radians(SETTLE_BAND_DEG) / 2.0
    peaks, settles, crossings, freqs = [], [], [], []
    for a, b in windows:
        seg_t, seg_y = trace.t[a:b], angles[a:b]
        reference = seg_y[0]  # every step is a row holding the state before it
        err = seg_y - reference
        peaks.append(peak_deflection(seg_y, reference))
        settles.append(settling_time(seg_t, seg_y, reference))
        crossings.append(len(crossing_times(seg_t, err, half_band)))
        freqs.append(dominant_frequency(seg_t, err, half_band))

    settled = [s for s in settles if s is not None]
    return DisturbanceReport(
        mode=mode.value,
        impact_torque_nm=impact_torque,
        impact_duration_s=IMPACT_DURATION_S,
        peaks_deg=peaks,
        settling_ms=settles,
        zero_crossings=crossings,
        dominant_freq_hz=freqs,
        mean_peak_deg=float(np.mean(peaks)),
        mean_settling_ms=float(np.mean(settled)) if len(settled) == len(settles) else None,
    )


# ---------------------------------------------------------------------------
# Switching endurance protocol
# ---------------------------------------------------------------------------

def run_switch_cycle(
    preset: Preset,
    n: int = 324,
    hold: float = HANG_CENTER_RAD,
    retry_window_s: float = 0.25,
) -> tuple[Trace, CycleReport]:
    """n alternating topology switches under gravity with a position hold.

    The arm hangs at the gravity-neutral position so the controller keeps the
    transmitted torque near zero. Every selector invariant (gate soundness,
    latency, momentum conservation, unloaded engagement, mode alternation) is
    asserted after each switch; a violation aborts with diagnostics.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = preset.params
    retry_steps = max(1, round(retry_window_s / p.dt))
    dwell_steps = round(0.12 / p.dt)
    timeout_s = 20.0  # of the opening hold
    drv = _Driver(preset, HOLD_KP, initial_state(Mode.SEA, hold),
                  _stride_for(p.dt, CYCLE_RECORD_HZ))
    latency = drv.latency
    # a request is refused after retry_steps, or accepted by then and engaged
    # latency steps after its acceptance
    _check_run_length(f"{n} switches",
                      round(timeout_s / p.dt) + n * (retry_steps + latency + dwell_steps))
    drv.hold(hold, omega_tol=1e-3, window_s=0.05, timeout_s=timeout_s, min_hold_s=0.5)

    max_ke_loss = 0.0
    records = drv.records
    # per cycle: the transition state its engagement consumed and the engaged
    # state, or None for a refused request
    engagements = []
    for i, src in enumerate(drv.replay(n)):
        if src is None:
            first_k = drv.k
            # one gated run: retries every step of the window, then the travel
            decision = drv.run(repeat(hold, retry_steps), switch=True)
            if decision.accepted:
                if drv.engaged_from is None:  # run out a travel the window cut short
                    drv.run(repeat(hold, latency))
                engagements.append((drv.engaged_from, drv.state))
            else:
                current = mode_of(drv.state)
                records.append(SwitchRecord(
                    first_k, None, current, _other_mode(current), decision.transmitted,
                    REJECTED,
                ))
                engagements.append(None)
        else:  # cycle src was just copied, records included: check them again
            engagements.append(engagements[src])
        if engagements[i] is None:
            continue
        pre_engage, state = engagements[i]

        # --- invariants ---
        record = records[-1]
        if abs(record.torque_at_request) >= p.tau_disengage:
            raise InvariantViolation(
                f"cycle {i}: gate unsound, accepted at {record.torque_at_request:.4f} Nm"
            )
        steps_taken = record.engage_k - record.request_k
        if steps_taken != latency:
            raise InvariantViolation(
                f"cycle {i}: latency {steps_taken} steps != t_switch ({latency} steps)"
            )
        tau_spring = spring_torque(state, p)
        if tau_spring != 0.0:
            raise InvariantViolation(
                f"cycle {i}: spring not unloaded after engagement (tau={tau_spring!r} Nm)"
            )
        if type(state) is PeaState:
            merged = (p.J_m * pre_engage.omega_m + p.J_o * pre_engage.omega_o) / (p.J_m + p.J_o)
            if state.omega != merged:
                raise InvariantViolation(
                    f"cycle {i}: momentum not conserved ({state.omega!r} != {merged!r})"
                )
            max_ke_loss = max(max_ke_loss, engagement_energy_loss(pre_engage, p))
        if len(records) >= 2 and records[-2].outcome == COMPLETED:
            if record.from_mode is not records[-2].to_mode:
                raise InvariantViolation(f"cycle {i}: switch records do not alternate")

        if src is None:
            drv.run(repeat(hold, dwell_steps))

    completed = sum(1 for r in records if r.outcome == COMPLETED)
    return drv.rec.trace(), CycleReport(completed, len(records) - completed, drv.retried,
                                        max_ke_loss, records)
