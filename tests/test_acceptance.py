"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with the measured values next to their tolerance windows.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import without_friction
from oracles import spring_force_torque
from tsea.control import p_position
from tsea.experiments import (
    run_disturbance,
    run_dynamic_switching,
    run_hold,
    run_static_stiffness,
    run_switch_cycle,
)
from tsea.params import HubGeometry, load_named_preset
from tsea.plant import Mode, SeaState, gravity_torque, step
from tsea.spring_hub import hub_torque, linearized_stiffness

PRESET_NAMES = ("calibrated", "paper-full-range", "paper-linear-window")


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_hub_stiffness():
    t0 = time.perf_counter()
    geom = HubGeometry()
    k_lin = linearized_stiffness(geom)
    h = 1e-6
    fd = (hub_torque(geom, h) - hub_torque(geom, -h)) / (2 * h)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(k_lin - 5.86) < 0.005
        and abs(k_lin / 5.8 - 1.0) < 0.02
        and abs(fd / k_lin - 1.0) < 1e-4
        and elapsed < 1.0
    )
    _report(1, ok, f"K_lin={k_lin:.4f} Nm/rad (5.86, within 2% of 5.8), "
                   f"fd slope rel err={abs(fd / k_lin - 1):.2e} (<1e-4), {elapsed:.3f} s")


def test_criterion_2_static_stiffness_self_consistency():
    results = {}
    for name in ("paper-full-range", "paper-linear-window"):
        preset = without_friction(load_named_preset(name))
        for mode in (Mode.SEA, Mode.PEA):
            t0 = time.perf_counter()
            _, rep = run_static_stiffness(mode, preset)
            wall = time.perf_counter() - t0
            expected = (preset.params.K_s if mode is Mode.SEA
                        else preset.params.K_s + preset.params.K_struct)
            results[(name, mode)] = (rep.K_fit_nm_per_rad, expected, wall)

    ok = all(abs(k / exp - 1.0) < 0.01 and wall < 30.0
             for k, exp, wall in results.values())
    k_sea, _, _ = results[("paper-full-range", Mode.SEA)]
    k_pea, _, _ = results[("paper-full-range", Mode.PEA)]
    ratio_full = k_pea / k_sea
    ok &= abs(k_sea / 5.57 - 1.0) < 0.01 and abs(k_pea / 8.54 - 1.0) < 0.01
    ok &= abs(ratio_full / 1.53 - 1.0) < 0.01
    k_sea_lw, _, _ = results[("paper-linear-window", Mode.SEA)]
    k_pea_lw, _, _ = results[("paper-linear-window", Mode.PEA)]
    ratio_lw = k_pea_lw / k_sea_lw
    ok &= abs(ratio_lw / 2.08 - 1.0) < 0.02
    walls = ", ".join(f"{w:.1f}" for _, _, w in results.values())
    _report(2, ok, f"full-range K_sea={k_sea:.3f} (5.57±1%), K_pea={k_pea:.3f} (8.54±1%), "
                   f"ratio={ratio_full:.3f} (1.53); linear-window ratio={ratio_lw:.3f} "
                   f"(2.08±2%); walls [{walls}] s (<30 each)")


def test_criterion_3_hysteresis_calibration():
    preset = load_named_preset("calibrated")
    _, sea = run_static_stiffness(Mode.SEA, preset)
    _, pea = run_static_stiffness(Mode.PEA, preset)
    reduction = (sea.loop_area_nm_rad - pea.loop_area_nm_rad) / sea.loop_area_nm_rad * 100.0
    ok = (
        abs(sea.loop_area_nm_rad / 0.073 - 1.0) < 0.20
        and abs(pea.loop_area_nm_rad / 0.024 - 1.0) < 0.20
        and abs(reduction - 67.7) < 10.0
    )
    _report(3, ok, f"SEA loop={sea.loop_area_nm_rad:.4f} (0.073±20%), "
                   f"PEA loop={pea.loop_area_nm_rad:.4f} (0.024±20%), "
                   f"reduction={reduction:.1f}% (67.7±10 pp)")


def test_criterion_4_disturbance_rejection():
    preset = load_named_preset("calibrated")
    _, sea = run_disturbance(Mode.SEA, preset)   # 6 impacts
    _, pea = run_disturbance(Mode.PEA, preset)   # 5 impacts
    ok = (
        abs(sea.mean_peak_deg / 5.2 - 1.0) < 0.15
        and abs(pea.mean_peak_deg / 2.3 - 1.0) < 0.15
        and sea.mean_settling_ms is not None
        and pea.mean_settling_ms is not None
        and abs(sea.mean_settling_ms / 1380.0 - 1.0) < 0.25
        and abs(pea.mean_settling_ms / 400.0 - 1.0) < 0.25
    )
    detail = (f"calibrated: SEA peak={sea.mean_peak_deg:.2f}° (5.2±15%), "
              f"settle={sea.mean_settling_ms:.0f} ms (1380±25%); "
              f"PEA peak={pea.mean_peak_deg:.2f}° (2.3±15%), "
              f"settle={pea.mean_settling_ms:.0f} ms (400±25%)")

    # ordering + oscillatory signature must hold for every preset in the repo
    for name in PRESET_NAMES:
        pre = load_named_preset(name)
        if name == "calibrated":
            rs, rp = sea, pea
        else:
            _, rs = run_disturbance(Mode.SEA, pre, n_impacts=2)
            _, rp = run_disturbance(Mode.PEA, pre, n_impacts=2)
        ordering = (
            rs.mean_peak_deg > rp.mean_peak_deg
            and rs.mean_settling_ms is not None and rp.mean_settling_ms is not None
            and rs.mean_settling_ms > rp.mean_settling_ms
            and min(rs.zero_crossings) >= 3
        )
        ok &= ordering
        detail += (f"; {name}: SEA>{''if ordering else '!'}PEA "
                   f"({rs.mean_peak_deg:.2f}>{rp.mean_peak_deg:.2f}°, "
                   f"{rs.mean_settling_ms:.0f}>{rp.mean_settling_ms:.0f} ms, "
                   f"crossings≥{min(rs.zero_crossings)})")
    _report(4, ok, detail)


def test_criterion_5_steady_state_identities():
    preset = load_named_preset("calibrated")
    p = preset.params

    _, s = run_hold(Mode.SEA, preset)
    tau_m = p_position(0.0, s.theta_m, 30.0)
    tau_ext = gravity_torque(s.theta_o, preset.load)
    sea_resid = abs(tau_m - tau_ext)

    _, s = run_hold(Mode.PEA, preset)
    tau_m = p_position(0.0, s.theta, 30.0)
    tau_ext = gravity_torque(s.theta, preset.load)
    pea_resid = abs(tau_m - tau_ext - p.K_s * (s.theta - s.theta_anchor))

    ok = sea_resid < 1e-3 and pea_resid < 1e-3
    _report(5, ok, f"SEA |tau_m - tau_ext|={sea_resid:.2e} (<1e-3 Nm), "
                   f"PEA |tau_m - tau_ext - K_s(theta - anchor)|={pea_resid:.2e} (<1e-3 Nm)")


def test_criterion_6_switching_endurance():
    preset = load_named_preset("calibrated")
    p = preset.params
    t0 = time.perf_counter()
    _, rep = run_switch_cycle(preset, n=324)  # raises on any invariant violation
    wall = time.perf_counter() - t0
    ok = (
        rep.completed == 324
        and rep.rejected == 0
        and rep.max_latency_error_s <= p.dt
        and p.t_switch <= 0.03333
        and wall < 60.0
    )
    _report(6, ok, f"{rep.completed}/324 completed, 0 gate/latency/momentum violations, "
                   f"latency err={rep.max_latency_error_s:.1e} s (≤dt), "
                   f"t_switch={p.t_switch * 1000:.1f} ms (≤33.33), wall={wall:.1f} s (<60)")


def test_criterion_7_numerical_integrity():
    preset = load_named_preset("calibrated")
    p = dataclasses.replace(preset.params, b_m=0.0, b_o=0.0,
                            tau_c_sea=0.0, tau_c_pea=0.0, tau_c_out=0.0)
    load0 = dataclasses.replace(preset.load, mass=0.0)

    s = SeaState(0.1, 0.0, 0.0, 0.0, 0.0)
    e0 = 0.5 * p.K_s * 0.1 ** 2
    drift = 0.0
    crossings = []
    prev_beta = 0.1
    for k in range(1, round(10.0 / p.dt) + 1):
        s = step(s, 0.0, p, load0)
        beta = s.theta_m - s.theta_o
        e = (0.5 * p.J_m * s.omega_m ** 2 + 0.5 * p.J_o * s.omega_o ** 2
             + 0.5 * p.K_s * beta ** 2)
        drift = max(drift, abs(e - e0) / e0)
        if prev_beta > 0.0 >= beta or prev_beta < 0.0 <= beta:
            crossings.append(k * p.dt - p.dt * beta / (beta - prev_beta))
        prev_beta = beta
    f_meas = (len(crossings) - 1) / (2.0 * (crossings[-1] - crossings[0]))
    f_analytic = math.sqrt(p.K_s * (p.J_m + p.J_o) / (p.J_m * p.J_o)) / (2 * math.pi)

    tr1, _ = run_dynamic_switching(preset, duration=3.0, switch_period=1.0)
    tr2, _ = run_dynamic_switching(preset, duration=3.0, switch_period=1.0)
    identical = all(
        np.array_equal(getattr(tr1, col), getattr(tr2, col))
        for col in ("t", "mode", "theta_m", "omega_m", "theta_o", "omega_o",
                    "tau_cmd", "tau_applied", "tau_spring", "i_q")
    )

    ok = drift < 1e-6 and abs(f_meas / f_analytic - 1.0) < 0.01 and identical
    _report(7, ok, f"energy drift={drift:.2e} (<1e-6 over 10 s), "
                   f"f={f_meas:.3f} Hz vs analytic {f_analytic:.3f} (±1%), "
                   f"bit-identical traces={identical}")


def test_criterion_8_oracle_equivalence():
    geom = HubGeometry()
    rng = np.random.default_rng(112358)
    worst = max(
        abs(hub_torque(geom, float(b)) - spring_force_torque(geom, float(b)))
        for b in rng.uniform(-1.0, 1.0, size=1000)
    )
    ok = worst < 1e-9
    _report(8, ok, f"max |closed form - force decomposition|={worst:.2e} Nm "
                   f"(<1e-9 over 1000 random deflections)")


def test_reported_current_ordering_not_an_acceptance_target():
    # per-mode current statistics are reported; during off-anchor tracking the
    # rigid-path mode must show the higher peak current
    preset = load_named_preset("calibrated")
    _, rep = run_dynamic_switching(preset, duration=10.0, switch_period=5.0)
    sea = rep.per_mode["SEA"]
    pea = rep.per_mode["PEA"]
    assert pea["peak_iq_a"] > sea["peak_iq_a"]
    assert pea["rms_error_rad"] > sea["rms_error_rad"]
    print(f"[reporting] PEA peak i_q={pea['peak_iq_a']:.1f} A > "
          f"SEA peak i_q={sea['peak_iq_a']:.1f} A; tracking RMS "
          f"PEA={pea['rms_error_rad']:.4f} > SEA={sea['rms_error_rad']:.4f} rad")
