"""Independent reference computations used to pin expected test values.

These deliberately avoid the closed-form torque expression in
tsea.spring_hub: torques come from explicit hook coordinates, per-spring
tension resolution and summed moments. The reference trace writer and
mode-band scan are the original row-by-row loops that the columnar versions
in tsea.io must match exactly; the trace reader parses what the writer wrote
back into a Trace for the bit-exact round trip. The closure-based RK4 steps
are the original integrators that plant.step, which holds the stages of each
body shape, and the stiffness rig's inline step must match bit for bit, and
the tracking loop is the original one-step-per-call driver loop that
run_dynamic_switching's phases must match, as the hold loop is the one that
_Driver.hold's single run must match. The selector countdown is the original
float count of the travel, which selector.latency_steps must match on whole-step
and random travel times (on exact half steps the countdown rounds down, where
latency_steps rounds to the even step). The switch-cycle and disturbance
loops and the stiffness rig simulate every unit (every leg, for the rig),
where the protocols replay the units that repeat an earlier one.
"""

from __future__ import annotations

import csv
import math
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from tsea.experiments import (
    CYCLE_RECORD_HZ,
    DISTURB_KP,
    HOLD_KP,
    IMPACT_DURATION_S,
    MODE_NAMES,
    STIFFNESS_RECORD_HZ,
    TRACK_KP,
    CycleReport,
    DisturbanceReport,
    StiffnessReport,
    Trace,
    _disturbance_report,
    _Driver,
    _other_mode,
    _stride_for,
    hysteresis_area,
    initial_state,
    linear_fit,
)
from tsea.io import CSV_HEADER
from tsea.params import ActuatorParams, HubGeometry, LoadModel
from tsea.plant import (
    Mode,
    PeaState,
    PlantState,
    SeaState,
    SimulationError,
    TransitionState,
    clamp_torque,
    mode_of,
)
from tsea.selector import (
    COMPLETED,
    REJECTED,
    SwitchRecord,
    engagement_energy_loss,
    latency_steps,
)


def spring_force_torque(geometry: HubGeometry, beta: float) -> float:
    """Hub torque [Nm] from a per-spring force decomposition.

    For each of the four springs the hook positions are built in the plane,
    the tension follows from the working length (hook chord plus the constant
    assembly offset, matching the preloaded-assembly model), and its
    tangential component at the inner hook is multiplied by the hook radius.
    With a zero assembly offset (installed length equal to the chord at rest)
    this is the plain textbook decomposition with no shared assumptions.
    """
    k, l0, r1, r2 = geometry.k, geometry.l0, geometry.r1, geometry.r2
    l_p = geometry.l0 + geometry.preload_ext
    chord_rest = math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2)  # l(0)
    offset = l_p - chord_rest

    total_nmm = 0.0
    for i in range(4):
        phi = i * math.pi / 2.0
        # inner hook on the output plate, outer hook on the rotated plate
        p1x, p1y = r1 * math.cos(phi), r1 * math.sin(phi)
        p2x, p2y = r2 * math.cos(phi + beta), r2 * math.sin(phi + beta)
        dx, dy = p2x - p1x, p2y - p1y
        working = math.hypot(dx, dy) + offset
        tension = k * (working - l0)                      # [N]
        tx, ty = -math.sin(phi), math.cos(phi)            # tangent at the inner hook
        tangential = tension * (dx * tx + dy * ty) / working
        total_nmm += r1 * tangential                      # moment about the shaft [N·mm]
    return total_nmm * 1e-3


def exponential_band_crossing(amplitude: float, tau: float, band: float) -> float:
    """Time at which A*exp(-t/tau) decays into a band [same units as tau]."""
    return tau * math.log(amplitude / band)


def reference_write_trace_csv(trace: Trace, path: str | Path) -> int:
    """The original row-by-row csv.writer trace writer, kept as the byte reference."""
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        cols = (trace.t, trace.theta_m, trace.omega_m, trace.theta_o, trace.omega_o,
                trace.tau_cmd, trace.tau_applied, trace.tau_spring, trace.i_q)
        for i in range(len(trace)):
            writer.writerow((
                repr(float(cols[0][i])), MODE_NAMES[trace.mode[i]],
                *(repr(float(c[i])) for c in cols[1:]),
            ))
            rows += 1
    return rows


def read_trace_csv(path: str | Path) -> Trace:
    """Parse a trace written by write_trace_csv."""
    code = {name: i for i, name in enumerate(MODE_NAMES)}
    cols: dict[str, list] = {name: [] for name in CSV_HEADER}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for row in reader:
            for name, value in zip(CSV_HEADER, row):
                cols[name].append(code[value] if name == "mode" else float(value))
    # Trace's fields are the CSV columns, in order
    return Trace(**{name: np.asarray(values, dtype=np.int8 if name == "mode" else np.float64)
                    for name, values in cols.items()})


def reference_mode_bands(trace: Trace) -> list[tuple[float, float, str]]:
    """The original per-row scan for contiguous same-mode spans."""
    if len(trace) == 0:
        return []
    bands = []
    start = 0
    for i in range(1, len(trace)):
        if trace.mode[i] != trace.mode[start]:
            bands.append((float(trace.t[start]), float(trace.t[i]), MODE_NAMES[trace.mode[start]]))
            start = i
    bands.append((float(trace.t[start]), float(trace.t[-1]), MODE_NAMES[trace.mode[start]]))
    return bands


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


def rk4_pair(f, qm: float, wm: float, qo: float, wo: float, dt: float):
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


def pea_rhs(tau: float, tau_ext: float, p: ActuatorParams, anchor: float,
            mgr: float = 0.0):
    """Derivative g(q, w) -> (w, alpha) of the rigidly coupled parallel body."""
    K, w_eps, J = p.K_s, p.omega_eps, p.J_m + p.J_o
    b, tc = p.b_m + p.b_o, p.tau_c_pea
    tanh, cos = math.tanh, math.cos

    def g(q: float, w: float):
        a = (
            tau - K * (q - anchor) - (mgr * cos(q) + tau_ext)
            - b * w - tc * tanh(w / w_eps)
        ) / J
        return w, a

    return g


def reference_step(state: PlantState, tau_m: float, p: ActuatorParams,
                   load: LoadModel, tau_out_extra: float = 0.0) -> PlantState:
    """The original plant.step: derivative closures integrated by rk4_body/rk4_pair."""
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
    if cls is SeaState:
        tc_m = p.tau_c_sea
        off = state.beta_offset

        def f(qm: float, wm: float, qo: float, wo: float):
            tau_s = K * (qm - qo - off)
            am = (tau - tau_s - b_m * wm - tc_m * tanh(wm / w_eps)) / J_m
            ao = (tau_s - (mgr * cos(qo) + tau_out_extra) - b_o * wo) / J_o
            return wm, am, wo, ao
    else:
        def f(qm: float, wm: float, qo: float, wo: float):
            am = (tau - b_m * wm) / J_m
            ao = (-(mgr * cos(qo) + tau_out_extra) - b_o * wo) / J_o
            return wm, am, wo, ao

    try:
        qm, wm, qo, wo = rk4_pair(f, state.theta_m, state.omega_m,
                                  state.theta_o, state.omega_o, p.dt)
    except ValueError:  # math.cos of an infinite stage angle
        qm = wm = qo = wo = math.nan
    if not (math.isfinite(qm) and math.isfinite(wm)
            and math.isfinite(qo) and math.isfinite(wo)):
        raise SimulationError(f"non-finite {mode_of(state).value} state")
    if cls is SeaState:
        return SeaState(qm, wm, qo, wo, off)
    return TransitionState(qm, wm, qo, wo, state.target_mode)


def selector_countdown(t_switch: float, dt: float) -> int:
    """Steps of selector travel as the original selector counted them: the
    time left started at t_switch and went down by dt after every transition
    step, and the selector engaged once no more than half a step was left
    (a half-step guard against float drift in the countdown)."""
    steps, remaining = 0, t_switch
    while True:
        steps += 1
        remaining -= dt
        if not remaining > 0.5 * dt:
            return steps


def reference_rig_step(theta: float, omega: float, tau: float, K_rig: float,
                       tau_c: float, p: ActuatorParams) -> tuple[float, float]:
    """One step of the original stiffness rig: the locked motor as one body,
    integrated through its own derivative closure."""
    J, b, w_eps = p.J_m, p.b_m, p.omega_eps
    tanh = math.tanh

    def f(q: float, w: float) -> tuple[float, float]:
        return w, (tau - K_rig * q - b * w - tau_c * tanh(w / w_eps)) / J

    return rk4_body(f, theta, omega, p.dt)


# a full trace row, its fields named as Trace's columns
RIG_ROW = np.dtype([("mode", np.int8)] + [(name, np.float64) for name in (
    "theta_m", "omega_m", "theta_o", "omega_o", "tau_cmd", "tau_applied", "tau_spring", "i_q")])
LegStart = tuple[int, int, float, float]   # (step, row, theta, omega)


def reference_rig_rows(mode: Mode, preset, ramp_rate: float, cycles: int,
                       settle_omega: float = 1e-4) -> tuple[np.ndarray, list[LegStart]]:
    """The kept rows of the original stiffness rig, and where its legs start.

    The torque ramps between the cycle vertices 0, +1, 0, -1, 0 Nm and dwells
    at each (and at 0 Nm before the first cycle) until |omega| < settle_omega
    for 0.05 s; every step is one reference_rig_step, and every stride-th
    step's state before the step is kept with the step's torque as a full
    trace row (a RIG_ROW record): the output locked at 0.0, the torque
    commanded and applied, the spring torque K_rig*theta and the current
    torque/K_t. A leg is a ramp and its dwell, or the leading dwell; the leg
    starts hold one entry at the start of each leg and one at the end of the
    run."""
    p = preset.params
    K_rig = p.K_s if mode is Mode.SEA else p.K_s + p.K_struct
    tau_c = p.tau_c_sea if mode is Mode.SEA else p.tau_c_pea
    code = MODE_NAMES.index(mode.value)
    dt = p.dt
    stride = max(1, round(1.0 / (dt * STIFFNESS_RECORD_HZ)))
    window = max(1, round(0.05 / dt))
    n_ramp = max(1, round(1.0 / ramp_rate / dt))
    dwell_steps = round(60.0 / dt)
    vertices = [(0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0)] * cycles
    rows = []
    legs: list[LegStart] = []
    theta = omega = 0.0
    k = 0
    # the leading dwell ramps over no steps
    for a, b, n in [(0.0, 0.0, 0)] + [(a, b, n_ramp) for a, b in vertices]:
        legs.append((k, len(rows), theta, omega))
        ramp = (a + (b - a) * j / n for j in range(1, n + 1))
        quiet = 0
        for i, tau in enumerate(chain(ramp, repeat(b, dwell_steps))):
            if k % stride == 0:
                rows.append((code, theta, omega, 0.0, 0.0, tau, tau, K_rig * theta, tau / p.K_t))
            theta, omega = reference_rig_step(theta, omega, tau, K_rig, tau_c, p)
            k += 1
            if i >= n:  # dwelling
                quiet = quiet + 1 if abs(omega) < settle_omega else 0
                if quiet >= window:
                    break
        else:
            raise AssertionError(f"reference rig did not settle at tau={b} Nm")
    legs.append((k, len(rows), theta, omega))
    return np.array(rows, dtype=RIG_ROW), legs


def reference_stiffness_report(mode: Mode, rows: np.ndarray,
                               legs: list[LegStart]) -> StiffnessReport:
    """The stiffness report over reference_rig_rows: the OLS slope and loop
    area of torque over angle on each cycle's rows (legs 1..4, 5..8, ...)."""
    # contiguous, as the trace's columns are: numpy sums a strided view in
    # other blocks, which can round differently
    theta, tau = (np.ascontiguousarray(rows[name]) for name in ("theta_m", "tau_applied"))
    starts = [row for _, row, _, _ in legs[1::4]]  # legs 1, 5, 9, ..., then the end
    slopes = [linear_fit(theta[a:b], tau[a:b]) for a, b in zip(starts, starts[1:])]
    areas = [hysteresis_area(theta[a:b], tau[a:b]) for a, b in zip(starts, starts[1:])]
    return StiffnessReport(mode=mode.value, K_fit_nm_per_rad=float(np.mean(slopes)),
                           K_stderr_nm_per_rad=float(np.std(slopes)),
                           loop_area_nm_rad=float(np.mean(areas)),
                           k_per_cycle=slopes, area_per_cycle=areas)


def reference_track_driver(preset, duration: float, switch_period: float,
                           center: float) -> _Driver:
    """The original run_dynamic_switching loop: one single-step driver run per
    control period, gated on every step a request is due and the selector is
    not travelling. Returns the driver it ran."""
    dt = preset.params.dt
    n_steps = round(duration / dt)
    drv = _Driver(preset, TRACK_KP, initial_state(Mode.SEA, center))
    n_switches = int(duration // switch_period)
    request_steps = [round(k * switch_period / dt) for k in range(n_switches)]
    amp = math.radians(20.0)
    two_pi_f = 2.0 * math.pi  # 1 Hz

    for k in range(n_steps):
        # a request is due once its step comes and the last switch has engaged
        done = len(drv.records)
        switch = (done < n_switches and k >= request_steps[done]
                  and type(drv.state) is not TransitionState)
        drv.run((center + amp * math.sin(two_pi_f * drv.t),), switch=switch)
    return drv


def reference_hold(drv: _Driver, target: float, omega_tol: float, window_s: float,
                   timeout_s: float, min_hold_s: float = 0.0) -> None:
    """The original _Driver.hold loop: one single-step driver run per control
    period until both velocities have stayed under omega_tol for window_s
    consecutive seconds, tested from the step that ends min_hold_s on. It
    does not check the settled hold for saturation."""
    dt = drv.p.dt
    window_steps = max(1, round(window_s / dt))
    min_steps = round(min_hold_s / dt)
    quiet = 0
    for k in range(round(timeout_s / dt)):
        drv.run((target,))
        s = drv.state
        if type(s) is PeaState:
            still = abs(s.omega) < omega_tol
        else:
            still = abs(s.omega_m) < omega_tol and abs(s.omega_o) < omega_tol
        quiet = quiet + 1 if still else 0
        if k >= min_steps and quiet >= window_steps:
            return
    raise SimulationError(
        f"hold did not settle below |omega| < {omega_tol} rad/s within {timeout_s} s"
    )


def reference_switch_cycle(preset, n: int, hold: float, retry_window_s: float = 0.25
                           ) -> tuple[Trace, CycleReport, _Driver]:
    """The switch-cycle loop that simulates every one of its n cycles, without
    the invariant checks or the saturation check of its hold. Returns its
    trace, its report and the driver it ran."""
    p = preset.params
    drv = _Driver(preset, HOLD_KP, initial_state(Mode.SEA, hold),
                  _stride_for(p.dt, CYCLE_RECORD_HZ))
    reference_hold(drv, hold, omega_tol=1e-3, window_s=0.05, timeout_s=20.0, min_hold_s=0.5)
    max_ke_loss = 0.0
    retry_steps = max(1, round(retry_window_s / p.dt))
    latency = latency_steps(p.t_switch, p.dt)
    records = drv.records
    for _ in range(n):
        first_k = drv.k
        decision = drv.run(repeat(hold, retry_steps), switch=True)
        if not decision.accepted:
            current = mode_of(drv.state)
            records.append(SwitchRecord(
                first_k, None, current, _other_mode(current), decision.transmitted, REJECTED,
            ))
            continue
        while drv.engaged_from is None:
            drv.run(repeat(hold, latency))
        if type(drv.state) is PeaState:
            max_ke_loss = max(max_ke_loss, engagement_energy_loss(drv.engaged_from, p))
        drv.run(repeat(hold, round(0.12 / p.dt)))
    completed = sum(1 for r in records if r.outcome == COMPLETED)
    report = CycleReport(completed, len(records) - completed, drv.retried, max_ke_loss,
                         records)
    return drv.rec.trace(), report, drv


def reference_disturbance(mode: Mode, preset, n_impacts: int, impact_torque: float
                          ) -> tuple[Trace, DisturbanceReport, _Driver]:
    """The disturbance loop that simulates every one of its n_impacts impacts
    and re-settles, over 8 s post-impact windows measured on the output angle,
    without the saturation check of its holds.
    Returns its trace, its report and the driver it ran."""
    dt = preset.params.dt
    post_steps = round(8.0 / dt)
    pulse_steps = min(round(IMPACT_DURATION_S / dt), post_steps)
    drv = _Driver(preset, DISTURB_KP, initial_state(mode))
    reference_hold(drv, 0.0, omega_tol=1e-4, window_s=0.25, timeout_s=40.0, min_hold_s=1.0)
    windows = []
    for _ in range(n_impacts):
        start = drv.rec.n_recorded
        drv.run(repeat(0.0, pulse_steps), impact_torque)
        drv.run(repeat(0.0, post_steps - pulse_steps))
        windows.append((start, drv.rec.n_recorded))
        reference_hold(drv, 0.0, omega_tol=1e-4, window_s=0.25, timeout_s=40.0)
    trace = drv.rec.trace()
    return trace, _disturbance_report(mode, trace, windows, impact_torque), drv
