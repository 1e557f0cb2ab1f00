import functools
import json
import re

import numpy as np
import pytest
from oracles import read_trace_csv

import tsea.experiments
from tsea.cli import main
from tsea.io import apply_noise


def test_stiffness_subcommand(tmp_path, capsys):
    code = main(["stiffness", "--mode", "sea", "--preset", "paper-full-range",
                 "--cycles", "1", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "K_fit" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["K_fit_nm_per_rad"] == pytest.approx(5.57, rel=0.01)
    for name in ("trace.csv", "report.json", "plot.svg"):
        assert (tmp_path / name).exists()


def test_cycle_subcommand(tmp_path, capsys):
    code = main(["cycle", "--n", "5", "--out", str(tmp_path)])
    assert code == 0
    assert "5 completed, 0 rejected" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["completed"] == 5


STATS_KEYS = ["rms_error_rad", "rms_iq_a", "peak_iq_a"]
REPORT_KEYS = {
    "stiffness": ["schema_version", "mode", "K_fit_nm_per_rad", "K_stderr_nm_per_rad",
                  "loop_area_nm_rad", "k_per_cycle", "area_per_cycle"],
    "track": ["schema_version", "segments", "per_mode", "switches_completed",
              "retried_attempts", "switch_records"],
    "disturb": ["schema_version", "mode", "impact_torque_nm", "impact_duration_s", "peaks_deg",
                "settling_ms", "zero_crossings", "dominant_freq_hz", "mean_peak_deg",
                "mean_settling_ms"],
    "cycle": ["schema_version", "completed", "rejected", "retried_attempts", "max_ke_loss_j",
              "max_latency_error_s"],
}


@pytest.mark.parametrize("argv", [
    ["stiffness", "--mode", "sea", "--cycles", "1", "--rate", "5"],
    ["track", "--duration", "2", "--period", "1"],
    ["disturb", "--mode", "pea", "--impacts", "1"],
    ["cycle", "--n", "2"],
], ids=lambda argv: argv[0])
def test_report_keys_and_order(argv, tmp_path):
    # the report dataclasses' fields are the schema: a renamed or reordered
    # field changes report.json, and the in-memory switch records stay out
    assert main([*argv, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "report.json").read_text()
    report = json.loads(text)
    assert list(report) == REPORT_KEYS[argv[0]]
    assert '"records"' not in text
    if argv[0] == "track":
        assert report["switches_completed"] == len(report["switch_records"]) == 2
        assert len(report["segments"]) == 2
        for segment in report["segments"]:
            assert list(segment) == ["mode", "t_start", "t_end", *STATS_KEYS]
        assert {mode: list(s) for mode, s in report["per_mode"].items()} == {
            "SEA": STATS_KEYS, "PEA": STATS_KEYS}
        for record in report["switch_records"]:
            assert list(record) == ["request_time", "engage_time", "from_mode", "to_mode",
                                    "torque_at_request", "outcome"]


def test_disturb_subcommand(tmp_path, capsys):
    code = main(["disturb", "--mode", "pea", "--impacts", "1", "--out", str(tmp_path)])
    assert code == 0
    assert "mean peak" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mode"] == "PEA"
    assert len(report["peaks_deg"]) == 1


def test_missing_mode_is_usage_error(tmp_path, capsys):
    assert main(["stiffness", "--out", str(tmp_path)]) == 1
    assert "usage" in capsys.readouterr().err


def test_mode_flag_forbidden_for_track(tmp_path, capsys):
    assert main(["track", "--mode", "sea", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "--mode" in err


def test_unknown_flag_rejected(tmp_path):
    assert main(["cycle", "--frobnicate", "--out", str(tmp_path)]) == 1


def test_unknown_preset(tmp_path, capsys):
    assert main(["cycle", "--preset", "no-such", "--out", str(tmp_path)]) == 1
    assert "no-such" in capsys.readouterr().err


def test_track_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["track", "--duration", "2", "--period", "1", "--out", str(a)]) == 0
    assert main(["track", "--duration", "2", "--period", "1", "--out", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "plot.svg").read_bytes() == (b / "plot.svg").read_bytes()


def test_track_period_below_smallest_normal_finishes(tmp_path, capsys):
    # duration // 5e-324 overflows to inf requests; the run must still end
    # once the driver has taken every step, not raise on int(inf)
    assert main(["track", "--duration", "1", "--period", "5e-324",
                 "--out", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "trace.csv").exists()


def test_noise_flag_and_seed(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((a, "1"), (b, "1"), (c, "2")):
        assert main(["track", "--duration", "1", "--period", "1", "--noise",
                     "--seed", seed, "--out", str(out)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "trace.csv").read_bytes() != (c / "trace.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["stiffness", "--mode", "sea", "--cycles", "1", "--rate", "5"],
    ["track", "--duration", "1", "--period", "1"],
    ["disturb", "--mode", "pea", "--impacts", "1"],
    ["cycle", "--n", "2"],
], ids=lambda argv: argv[0])
def test_noise_only_under_the_flag(argv, tmp_path):
    # without --noise the simulated theta_o is logged as is, whatever --seed
    # says; with it, the logged trace is apply_noise of that one, no more
    clean, seeded, noisy = tmp_path / "clean", tmp_path / "seeded", tmp_path / "noisy"
    assert main([*argv, "--out", str(clean)]) == 0
    assert main([*argv, "--seed", "5", "--out", str(seeded)]) == 0
    assert main([*argv, "--noise", "--seed", "5", "--out", str(noisy)]) == 0
    assert (clean / "trace.csv").read_bytes() == (seeded / "trace.csv").read_bytes()
    assert (clean / "report.json").read_bytes() == (noisy / "report.json").read_bytes()
    expected = apply_noise(read_trace_csv(clean / "trace.csv"), 5)
    logged = read_trace_csv(noisy / "trace.csv")
    for name in ("t", "theta_m", "omega_m", "theta_o", "omega_o", "tau_cmd",
                 "tau_applied", "tau_spring", "i_q"):
        assert getattr(logged, name).tobytes() == getattr(expected, name).tobytes(), name
    assert np.array_equal(logged.mode, expected.mode)


def test_hub_curve(tmp_path, capsys):
    code = main(["hub-curve", "--range", "0.5", "--steps", "501", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "beta,tau_hub,l_eff"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows.shape == (501, 3)
    mid = 250
    assert rows[mid, 0] == 0.0
    assert rows[mid, 1] == 0.0
    # torque column is odd-symmetric about the middle row
    assert np.allclose(rows[:, 1], -rows[::-1, 1], atol=1e-15)
    # first-difference slope near zero matches the linearized stiffness
    slope = (rows[mid + 1, 1] - rows[mid - 1, 1]) / (rows[mid + 1, 0] - rows[mid - 1, 0])
    assert slope == pytest.approx(5.86, abs=0.01)


def test_hub_curve_plots_a_constant_length_of_1e300(tmp_path, capsys):
    # l_eff is 1e300 at every point, where widening its axis by ±1.0 rounds away
    from tsea.params import load_named_preset, preset_to_dict

    doc = preset_to_dict(load_named_preset("calibrated"))
    doc["hub"]["preload_ext"] = 1e300
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["hub-curve", "--preset", str(preset), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    svg = (out / "plot.svg").read_text()
    coords = re.findall(r'\b(?:x|y|x1|y1|x2|y2|points)="([^"]*)"', svg)
    values = [float(v) for c in coords for v in re.split(r"[ ,]", c)]
    assert len(values) > 400 and all(np.isfinite(values))


def test_hub_curve_steps_validation(tmp_path, capsys):
    assert main(["hub-curve", "--steps", "1", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("flags", [["--noise"], ["--seed", "5"]], ids=["noise", "seed"])
def test_hub_curve_rejects_noise_flags(flags, tmp_path, capsys):
    # hub-curve logs no encoder angle, so the noise flags would do nothing
    out = tmp_path / "out"
    assert main(["hub-curve", *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: unrecognized arguments: {' '.join(flags)} (usage: ")
    assert "usage: tsea hub-curve" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_flag_before_subcommand_gets_top_level_usage(tmp_path, capsys):
    # cycle does take --noise, so its usage line must not be the one quoted
    out = tmp_path / "out"
    assert main(["--noise", "cycle", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unrecognized arguments: --noise (usage: tsea [-h] ")
    assert "tsea cycle" not in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_simulation_blowup_exits_2(tmp_path, capsys, monkeypatch):
    # an absurd impulse drives a mid-step RK4 stage angle to infinity, where
    # math.cos raises; the run must fail with one line naming mode, step and
    # time and exit 2, not report a bad argument or write outputs. The impulse
    # bound would refuse the pulse before any step, so it is lifted here
    monkeypatch.setattr(tsea.experiments, "_check_impulse", lambda impact_torque, p: None)
    out = tmp_path / "out"
    code = main(["disturb", "--mode", "pea", "--impacts", "1", "--impulse", "1e308",
                 "--out", str(out)])
    assert code == 2
    assert re.fullmatch(r"simulation error: non-finite PEA state after step \d+ "
                        r"\(t=\S+ s\)\n", capsys.readouterr().err)
    assert not out.exists()


def test_saturated_hold_exits_2(tmp_path, capsys):
    # a hold that asks the motor for more than tau_max leaves the arm hanging;
    # the run fails rather than reporting impacts on it
    from tsea.params import load_named_preset, preset_to_dict

    doc = preset_to_dict(load_named_preset("calibrated"))
    doc["load"]["mass"] = 50
    heavy = tmp_path / "heavy.json"
    heavy.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["disturb", "--mode", "pea", "--impacts", "1", "--preset", str(heavy),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "simulation error: the hold at 0° saturates the motor: the P law asks for 44.47 Nm "
        "against tau_max = 3 Nm with the output at -84.94°\n")
    assert not out.exists()


def test_saturated_cycle_hold_exits_2(tmp_path, capsys, monkeypatch):
    # every hold is checked, the switch cycle's opening hold too: 50 kg held
    # at the horizontal hangs the arm with the P law at ten times tau_max
    from tsea.params import load_named_preset, preset_to_dict

    doc = preset_to_dict(load_named_preset("calibrated"))
    doc["load"]["mass"] = 50
    heavy = tmp_path / "heavy.json"
    heavy.write_text(json.dumps(doc))
    monkeypatch.setattr(tsea.experiments, "run_switch_cycle",
                        functools.partial(tsea.experiments.run_switch_cycle, hold=0.0))
    out = tmp_path / "out"
    assert main(["cycle", "--n", "1", "--preset", str(heavy), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "simulation error: the hold at 0° saturates the motor: the P law asks for 30.26 Nm "
        "against tau_max = 3 Nm with the output at -88.65°\n")
    assert not out.exists()


@pytest.mark.parametrize("edit, field", [
    (("params", "K_t", 1e-320), "segments[0].rms_iq_a is inf"),
    (("load", "radius", 1e200), "segments[0].rms_error_rad is inf"),
], ids=["K_t", "radius"])
@pytest.mark.filterwarnings("error")  # a numpy warning would print lines of its own
def test_non_finite_report_value_is_named(edit, field, tmp_path, capsys, monkeypatch):
    # a report value that overflows fails with one line naming the value, no
    # warning or traceback, and no report. validate refuses such presets when
    # they load, so the protocol is handed one past it
    from dataclasses import replace

    section, key, value = edit
    run = tsea.experiments.run_dynamic_switching
    monkeypatch.setattr(tsea.experiments, "run_dynamic_switching", lambda preset, **kw: run(
        replace(preset, **{section: replace(getattr(preset, section), **{key: value})}), **kw))
    out = tmp_path / "out"
    code = main(["track", "--duration", "0.5", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: report value {field}, which JSON cannot hold\n"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["track", "--period", "0"], "switch_period must be positive and finite (got 0.0)"),
    (["track", "--period", "inf"], "switch_period must be positive and finite (got inf)"),
    (["track", "--duration", "-1"], "duration must be positive and finite (got -1.0)"),
    (["track", "--duration", "nan"], "duration must be positive and finite (got nan)"),
    (["track", "--duration", "1e-5"],
     "duration must be longer than half a step of 0.000125 s and span finitely many steps "
     "(got 1e-05)"),
    (["stiffness", "--mode", "sea", "--rate", "0"],
     "ramp_rate must be positive and finite (got 0.0)"),
    (["stiffness", "--mode", "sea", "--rate", "5e-324"],
     "ramp_rate must be large enough to ramp 1 Nm in finitely many steps of 0.000125 s "
     "(got 5e-324)"),
    (["stiffness", "--mode", "sea", "--cycles", "0", "--rate", "5"],
     "cycles must be >= 1 (got 0)"),
    (["hub-curve", "--range", "nan"], "--range must be finite (got nan)"),
    (["hub-curve", "--range", "0"], "--range must be positive (got 0.0)"),
    (["hub-curve", "--range", "1e308"], "--range must span a finite interval (got 1e+308)"),
    (["hub-curve", "--steps", "1000000000000000"],
     "--steps must be between 2 and 1000000 (got 1000000000000000)"),
    (["hub-curve", "--steps", "1000001"], "--steps must be between 2 and 1000000 (got 1000001)"),
    (["disturb", "--mode", "sea", "--impulse", "nan"], "impact_torque must be finite (got nan)"),
    (["disturb", "--mode", "pea", "--impulse=-inf"],
     "impact_torque must be finite (got -inf)"),
    (["disturb", "--mode", "pea", "--impulse", "1180591620717411303424"],
     "impact_torque must be below 156305.5442496451 Nm, the pulse that kicks the output "
     "half a turn in one step (got 1.1805916207174113e+21)"),
    (["disturb", "--mode", "pea", "--impacts", "1", "--noise", "--seed", "-1"],
     "seed must be non-negative (got -1)"),
    (["stiffness", "--mode", "sea", "--seed", "-1"], "seed must be non-negative (got -1)"),
    (["track", "--noise", "--seed", "-1"], "seed must be non-negative (got -1)"),
    (["cycle", "--seed", "-1"], "seed must be non-negative (got -1)"),
    # runs over the step ceiling, replayed steps counted like simulated ones
    (["track", "--duration", "1e9"],
     "duration 1000000000.0 could take more than 50000000 steps, the most a run may take"),
    (["stiffness", "--mode", "sea", "--rate", "1e-300"],
     "3 cycles at ramp_rate 1e-300 could take more than 50000000 steps, "
     "the most a run may take"),
    (["stiffness", "--mode", "pea", "--cycles", "100"],
     "100 cycles at ramp_rate 0.2 could take more than 50000000 steps, "
     "the most a run may take"),
    (["cycle", "--n", "1000000000000"],
     "1000000000000 switches could take more than 50000000 steps, the most a run may take"),
    (["disturb", "--mode", "sea", "--impacts", "1000"],
     "1000 impacts could take more than 50000000 steps, the most a run may take"),
], ids=["period-zero", "period-inf", "duration-negative", "duration-nan", "duration-substep",
        "rate-zero", "rate-overflow",
        "cycles-zero", "range-nan", "range-zero", "range-span-overflow", "steps-ceiling",
        "steps-over-sweep-ceiling",
        "impulse-nan", "impulse-inf", "impulse-over-bound",
        "seed-negative", "seed-negative-stiffness", "seed-negative-track",
        "seed-negative-cycle", "duration-ceiling", "rate-ceiling", "cycles-ceiling", "n-ceiling",
        "impacts-ceiling"])
def test_bad_numbers_fail_fast(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def _param(field, value):
    """A preset edit that sets one actuator parameter."""
    return lambda doc: doc["params"].update({field: value})


@pytest.mark.parametrize("edit, message", [
    (_param("omega_eps", 1e-4), "invalid preset 'calibrated': (b + tau_c/omega_eps)*dt/J = "
                                "272.6 for the motor in SEA must be < 2.785"),
    (_param("dt", 5e-3), "invalid preset 'calibrated': (b + tau_c/omega_eps)*dt/J = 56.5 "
                         "for the motor in SEA must be < 2.785"),
    (_param("K_s", "5.57"), "invalid preset 'calibrated': K_s must be a number (got '5.57')"),
    (_param("t_switch", 1e300), "invalid preset 'calibrated': t_switch = 1e+300 s spans more "
                                "than 50000000 steps of dt = 0.000125 s, the most a run may take"),
    (lambda doc: doc.update(name=5), "invalid preset 5: name must be a string (got 5)"),
    # presets whose report would overflow after the whole run: every i_q is
    # inf, and the gravity mode breaks the RK4 bound of the spring modes
    (_param("K_t", 1e-320), "invalid preset 'calibrated': K_t = 1e-320 makes the largest "
                            "current tau_max/K_t = inf A, whose square is not finite"),
    (lambda doc: doc["load"].update(radius=1e200),
     "invalid preset 'calibrated': dt*omega = 1.506e+97 for the gravity mode "
     "(load.mass*load.g*load.radius/J_o) must be < 2.828 (RK4 stability bound)"),
    # hub laws hub-curve could not sweep: slack springs, an infinite slope and
    # length, radii so close that the chord² at rest rounds below zero
    (lambda doc: doc["hub"].update(preload_ext=0),
     "invalid preset 'calibrated': hub.preload_ext = 0 mm: non-positive stiffness"),
    (lambda doc: doc["hub"].update(r2=1e308),
     "invalid preset 'calibrated': hub.k, hub.r1 and hub.r2 give a linearized stiffness of "
     "inf Nm/rad; it must be positive and finite; hub.r1, hub.r2, hub.l0 and "
     "hub.preload_ext must give a finite spring length over a full turn (got nan mm at "
     "beta = pi)"),
    (lambda doc: doc["hub"].update(r1=1.2485677453194244, r2=1.2485677453194257),
     "invalid preset 'calibrated': hub.r1, hub.r2, hub.l0 and hub.preload_ext must give a "
     "finite spring length over a full turn (got nan mm at beta = pi)\n"),
    # r2 so far above r1 that the chord at rest absorbs the preload: the
    # hub law's length is 0.0 mm at every angle, found by test_cli_fuzz
    (lambda doc: doc["hub"].update(r2=2**70),
     "invalid preset 'calibrated': hub.r1, hub.r2, hub.l0 and hub.preload_ext must give a "
     "spring length at rest above hub.l0 = 12.8 mm (got 0.0 mm)\n"),
    # file contents in place of an edit: named in the message, which json or
    # the UTF-8 codec gave without the file
    (b'{"a":\n', "preset file '{bad}' is not UTF-8 JSON: Expecting value: line 2 column 1 "
                 "(char 6)"),
    (b"\xff\xfe", "preset file '{bad}' is not UTF-8 JSON: 'utf-8' codec can't decode byte "
                  "0xff in position 0: invalid start byte"),
    # keys the model does not hold: refused by the dataclass, whose TypeError
    # is worded differently across Python versions, so only the quoted key is
    # matched
    (_param("teeth_inner", 16), re.compile(
        r"error: malformed preset config: .*unexpected keyword argument 'teeth_inner'\n")),
    (_param("teeth_outer", 32), re.compile(
        r"error: malformed preset config: .*unexpected keyword argument 'teeth_outer'\n")),
    (lambda doc: doc["load"].update(theta_zero_horizontal=True), re.compile(
        r"error: malformed preset config: .*unexpected keyword argument "
        r"'theta_zero_horizontal'\n")),
], ids=["omega_eps-tiny", "dt-large", "K_s-string", "t_switch-ceiling", "name-number",
        "K_t-tiny", "radius-huge", "hub-slack", "hub-r2-huge", "hub-radii-close",
        "hub-r2-eats-preload", "truncated-json", "not-utf8",
        "teeth_inner-removed", "teeth_outer-removed", "theta_zero_horizontal-removed"])
def test_bad_preset_fails_at_load(edit, message, tmp_path, capsys):
    from tsea.params import load_named_preset, preset_to_dict

    bad = tmp_path / "bad.json"
    if isinstance(edit, bytes):
        bad.write_bytes(edit)
    else:
        doc = preset_to_dict(load_named_preset("calibrated"))
        edit(doc)
        bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for command in (["cycle"], ["hub-curve"], ["track", "--duration", "0.5"]):
        assert main([*command, "--preset", str(bad), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        if isinstance(message, re.Pattern):
            assert message.fullmatch(captured.err)
        else:
            assert captured.err.startswith("error: " + message.replace("{bad}", str(bad)))
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [1, 2], "not a JSON object (got list)"),
    (lambda doc: {**doc, "params": [1, 2]}, "'params' is not a JSON object (got list)"),
    (lambda doc: {**doc, "hub": 12.7}, "'hub' is not a JSON object (got float)"),
    (lambda doc: {**doc, "load": "arm"}, "'load' is not a JSON object (got str)"),
], ids=["top-level-array", "params-array", "hub-number", "load-string"])
def test_preset_not_an_object_fails_at_load(edit, message, tmp_path, capsys):
    from tsea.params import load_named_preset, preset_to_dict

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(preset_to_dict(load_named_preset("calibrated")))))
    out = tmp_path / "out"
    assert main(["cycle", "--preset", str(bad), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: malformed preset config: {message}\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_unreadable_preset_fails_at_load(tmp_path, capsys):
    folder = tmp_path / "preset.json"
    folder.mkdir()
    out = tmp_path / "out"
    assert main(["cycle", "--preset", str(folder), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot read preset file {str(folder)!r}: Is a directory\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", [["cycle"], ["hub-curve"]])
@pytest.mark.parametrize("case", ["file", "under-file", "dangling-link", "name-too-long"])
def test_bad_out_fails_before_simulating(command, case, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    if case == "dangling-link":
        blocker.symlink_to(tmp_path / "missing")
    else:
        blocker.write_text("kept\n")
    out = {"under-file": blocker / "sub" / "out",
           "name-too-long": tmp_path / ("o" * 5000)}.get(case, blocker)
    assert main([*command, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    reason = ("File name too long" if case == "name-too-long"
              else f"{str(blocker)!r} exists and is not a directory")
    assert captured.err == f"error: --out {str(out)!r}: {reason}\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [blocker]
    if case != "dangling-link":
        assert blocker.read_text() == "kept\n"
