import dataclasses
import json
import math

import pytest

from tsea.params import (
    MAX_RUN_STEPS,
    ActuatorParams,
    HubGeometry,
    NAMED_PRESETS,
    Preset,
    load_named_preset,
    load_preset,
    preset_from_dict,
    preset_to_dict,
    resolve_preset,
    save_preset,
    validate,
)


def test_named_presets_validate():
    for name in NAMED_PRESETS:
        assert validate(load_named_preset(name)) == []


def test_zero_stiffness_rejected():
    preset = Preset("bad", params=dataclasses.replace(ActuatorParams(), K_s=0.0))
    errors = validate(preset)
    assert any("K_s" in e and "positive" in e for e in errors)


def test_degenerate_hook_radii_rejected():
    preset = Preset("bad", hub=HubGeometry(r1=30.0, r2=30.0))
    errors = validate(preset)
    assert any("r1 < r2" in e for e in errors)


def test_validate_reports_every_violation():
    preset = Preset(
        "bad",
        params=dataclasses.replace(ActuatorParams(), J_m=-1.0, dt=0.0, b_m=-0.1),
        hub=HubGeometry(k=-5.0),
    )
    errors = validate(preset)
    assert len(errors) >= 4
    for needle in ("J_m", "dt", "b_m", "hub.k"):
        assert any(needle in e for e in errors)


@pytest.mark.parametrize("field, value, bodies", [
    ("omega_eps", 1e-4, ["motor in SEA", "motor in the locked-output PEA rig"]),
    ("dt", 5e-3, ["motor in SEA", "motor in the locked-output PEA rig"]),
    ("tau_c_pea", 0.3, ["motor in the locked-output PEA rig"]),
    ("tau_c_out", 30.0, ["output in SEA and in transition"]),
])
def test_rk4_stability_bounds_rejected(field, value, bodies):
    preset = load_named_preset("calibrated")
    preset = dataclasses.replace(
        preset, params=dataclasses.replace(preset.params, **{field: value}))
    errors = validate(preset)
    assert len(errors) == len(bodies)
    for error, body in zip(errors, bodies):
        assert f"for the {body} must be < 2.785" in error


def test_switch_travel_over_the_run_ceiling_rejected():
    # selector.latency_steps counts the travel one step at a time, so a travel
    # longer than any run may take is refused before a driver counts it
    preset = load_named_preset("calibrated")
    dt = preset.params.dt
    for t_switch in (2.0 * MAX_RUN_STEPS * dt, 1e300):
        bad = dataclasses.replace(
            preset, params=dataclasses.replace(preset.params, t_switch=t_switch))
        assert validate(bad) == [f"t_switch = {t_switch} s spans more than {MAX_RUN_STEPS} "
                                 f"steps of dt = {dt} s, the most a run may take"]
    ok = dataclasses.replace(
        preset, params=dataclasses.replace(preset.params, t_switch=0.5 * MAX_RUN_STEPS * dt))
    assert validate(ok) == []


SEA_PAIR = "for the SEA spring pair must be < 2.828 (RK4 stability bound)"
PEA_RIG = "for the locked-output PEA rig must be < 2.828 (RK4 stability bound)"


@pytest.mark.parametrize("fields, messages", [
    # K_s*(1/J_m + 1/J_o) crosses the bound while (K_s + K_struct)/J_m stays under it
    ({"K_s": 2.55e5}, [f"dt*omega = 2.834 {SEA_PAIR}"]),
    ({"K_struct": 3e5}, [f"dt*omega = 3.062 {PEA_RIG}"]),
    # an undamped motor passes the damping bounds at any step
    ({"dt": 0.05, "b_m": 0.0, "tau_c_sea": 0.0, "tau_c_pea": 0.0},
     [f"dt*omega = 5.298 {SEA_PAIR}", f"dt*omega = 6.535 {PEA_RIG}"]),
], ids=["sea-pair", "pea-rig", "undamped-large-step"])
def test_rk4_spring_bounds_rejected(fields, messages):
    preset = load_named_preset("calibrated")
    preset = dataclasses.replace(
        preset, params=dataclasses.replace(preset.params, **fields))
    assert validate(preset) == messages


GRAVITY = ("for the gravity mode (load.mass*load.g*load.radius/J_o) must be < 2.828 "
           "(RK4 stability bound)")


@pytest.mark.parametrize("section, fields, messages", [
    ("load", {"radius": 1e200}, [f"dt*omega = 1.506e+97 {GRAVITY}"]),
    # mass*g overflows to inf and inf*0.0 is NaN, which no bound passes
    ("load", {"mass": 1e300, "g": 1e300, "radius": 0.0}, [f"dt*omega = nan {GRAVITY}"]),
    ("load", {"mass": 50.0}, []),  # 0.0057: the hold saturates, but RK4 is stable
    ("params", {"K_t": 1e-320}, ["K_t = 1e-320 makes the largest current tau_max/K_t = inf A, "
                                 "whose square is not finite"]),
    ("params", {"K_t": 2e-154}, ["K_t = 2e-154 makes the largest current tau_max/K_t = "
                                 "1.5e+154 A, whose square is not finite"]),
    ("params", {"K_t": 3e-154}, []),  # 1e154 A, whose square 1e308 is finite
], ids=["radius-huge", "gravity-nan", "mass-50", "K_t-subnormal", "K_t-square-overflows",
        "K_t-square-finite"])
def test_load_and_current_bounds(section, fields, messages):
    # presets whose tracking report would overflow are refused when they load
    preset = load_named_preset("calibrated")
    preset = dataclasses.replace(
        preset, **{section: dataclasses.replace(getattr(preset, section), **fields)})
    assert validate(preset) == messages


@pytest.mark.parametrize("section, field, value, message", [
    ("params", "K_s", "5.57", "K_s must be a number (got '5.57')"),
    ("params", "dt", None, "dt must be a number (got None)"),
    ("hub", "k", True, "hub.k must be a number (got True)"),
])
def test_field_types_rejected(section, field, value, message, tmp_path):
    doc = preset_to_dict(load_named_preset("calibrated"))
    doc[section][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_preset(path)
    assert str(err.value) == f"invalid preset 'calibrated': {message}"


def test_output_inertia_is_the_point_mass_arm():
    # J_o = mass*radius² to rounding: 0.062192 is one ulp off the float product
    for name in NAMED_PRESETS:
        preset = load_named_preset(name)
        assert preset.params.J_o == pytest.approx(preset.load.mass * preset.load.radius**2,
                                                  rel=1e-12), name


def test_preset_stiffness_sums_match_measured():
    # parallel-mode target stiffness K_s + K_struct against the measured values
    lin = load_named_preset("paper-linear-window")
    assert lin.params.K_s == 4.09
    assert abs(lin.params.K_s + lin.params.K_struct - 8.49) < 0.01
    full = load_named_preset("paper-full-range")
    assert full.params.K_s == 5.57
    assert abs(full.params.K_s + full.params.K_struct - 8.54) < 0.01


def test_shipped_switch_latency_bound():
    for name in NAMED_PRESETS:
        assert load_named_preset(name).params.t_switch <= 0.03333


def test_round_trip_identity(tmp_path):
    for name in NAMED_PRESETS:
        preset = load_named_preset(name)
        path = tmp_path / f"{name}.json"
        save_preset(preset, path)
        assert load_preset(path) == preset


def test_round_trip_of_modified_preset(tmp_path):
    preset = load_named_preset("calibrated")
    preset = dataclasses.replace(
        preset,
        name="tweaked",
        params=dataclasses.replace(preset.params, J_m=1.234e-3, b_o=0.0777),
        hub=dataclasses.replace(preset.hub, preload_ext=1.9),
    )
    path = tmp_path / "tweaked.json"
    save_preset(preset, path)
    assert load_preset(path) == preset


def test_dict_round_trip_preserves_fields():
    preset = load_named_preset("paper-full-range")
    assert preset_from_dict(preset_to_dict(preset)) == preset


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        load_named_preset("nope")
    with pytest.raises(ValueError, match="neither"):
        resolve_preset("nope")


def test_resolve_accepts_paths(tmp_path):
    preset = load_named_preset("calibrated")
    path = tmp_path / "c.json"
    save_preset(preset, path)
    assert resolve_preset(str(path)) == preset


def test_unreadable_path_rejected(tmp_path):
    with pytest.raises(ValueError, match="cannot read preset file .*: Is a directory"):
        resolve_preset(str(tmp_path))
    with pytest.raises(ValueError, match="cannot read preset file .*: File name too long"):
        resolve_preset("p" * 5000)


def test_bad_schema_version_rejected():
    doc = preset_to_dict(load_named_preset("calibrated"))
    doc["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version"):
        preset_from_dict(doc)


def test_hub_constants_match_datasheet():
    hub = HubGeometry()
    assert hub.k == 12.701  # spring rate carried at the finer-grained quote
    assert (hub.l0, hub.r1, hub.r2) == (12.8, 25.32, 37.87)
    assert math.isclose(hub.preload_ext, 1.75)
