"""Physical and protocol parameters, named presets, validation, JSON config I/O.

All quantities are SI (rad, Nm, kg·m², s) except spring-hub geometry, which
keeps the datasheet units (N/mm, mm).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .spring_hub import effective_length, linearized_stiffness

SCHEMA_VERSION = 1

# Names that must resolve via load_named_preset(); one JSON file each under
# tsea/presets/.
NAMED_PRESETS = ("paper-linear-window", "paper-full-range", "calibrated")

# Classical RK4 is stable for a decaying mode x' = -a*x only while a*dt < this.
RK4_REAL_AXIS_LIMIT = 2.785
# ... and for an undamped oscillation at omega only while omega*dt < this.
RK4_IMAG_AXIS_LIMIT = 2.0 * math.sqrt(2.0)
# Most steps a protocol may take, counted before it starts, whether it simulates
# them or replays them: 6250 s at 8 kHz, 7.4x the stiffness rig's default bound.
# validate() holds the selector travel to it too.
MAX_RUN_STEPS = 50_000_000


@dataclass(frozen=True, slots=True)
class HubGeometry:
    """Radial spring hub: four extension springs between two plates."""

    k: float = 12.701          # spring rate per spring [N/mm]
    l0: float = 12.8           # free length [mm]
    r1: float = 25.32          # inner hook radius [mm]
    r2: float = 37.87          # outer hook radius [mm]
    preload_ext: float = 1.75  # assembly extension beyond free length [mm]


@dataclass(frozen=True, slots=True)
class ActuatorParams:
    J_m: float = 5e-4            # motor-side inertia [kg·m²]
    J_o: float = 0.062192        # output-side inertia [kg·m²] (point-mass arm)
    K_s: float = 5.57            # hub torsional stiffness used by the dynamics [Nm/rad]
    K_struct: float = 2.97       # structural stiffness, locked-output rigid-path test [Nm/rad]
    b_m: float = 0.20            # motor-side viscous damping [Nm·s/rad]
    b_o: float = 0.145           # output-side viscous damping [Nm·s/rad]
    tau_c_sea: float = 0.109     # Coulomb friction magnitude, spring path engaged [Nm]
    tau_c_pea: float = 0.058     # Coulomb friction magnitude, rigid path engaged [Nm]
    tau_c_out: float = 0.0       # output-bearing Coulomb friction, every state [Nm]
    K_t: float = 0.083           # torque constant [Nm/A]
    tau_max: float = 3.0         # motor torque saturation [Nm]
    tau_disengage: float = 1.0   # max transmitted torque permitting disengagement [Nm]
    t_switch: float = 0.03       # selector travel latency [s]
    dt: float = 1.25e-4          # fixed integration step [s] (8 kHz loop rate)
    # Friction regularization scale. validate() keeps
    # (b + tau_c/omega_eps)*dt/J of each body under RK4_REAL_AXIS_LIMIT, or
    # the stick phase chatters instead of settling.
    omega_eps: float = 0.02      # [rad/s]


@dataclass(frozen=True, slots=True)
class LoadModel:
    """Point mass on a rigid arm; theta = 0 means the arm is horizontal."""

    mass: float = 0.920   # [kg]
    radius: float = 0.26  # [m]
    g: float = 9.81       # [m/s²]


@dataclass(frozen=True, slots=True)
class Preset:
    name: str
    params: ActuatorParams = field(default_factory=ActuatorParams)
    hub: HubGeometry = field(default_factory=HubGeometry)
    load: LoadModel = field(default_factory=LoadModel)


def _type_errors(preset: Preset) -> list[str]:
    """A message for every field whose value is not a JSON number (bool is not one)."""
    errors = []
    if not isinstance(preset.name, str):
        errors.append(f"name must be a string (got {preset.name!r})")
    for prefix, section in (("hub.", preset.hub), ("", preset.params), ("load.", preset.load)):
        for f in dataclasses.fields(section):
            value = getattr(section, f.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{prefix}{f.name} must be a number (got {value!r})")
    return errors


def validate(preset: Preset) -> list[str]:
    """Return every violated invariant as a message; empty list means ok."""
    errors = _type_errors(preset)
    if errors:  # the range checks below compare numbers
        return errors
    h, p, load = preset.hub, preset.params, preset.load

    def positive(name: str, value: float) -> None:
        if not (value > 0.0) or not math.isfinite(value):
            errors.append(f"{name} must be positive (got {value})")

    def non_negative(name: str, value: float) -> None:
        if value < 0.0 or not math.isfinite(value):
            errors.append(f"{name} must be non-negative (got {value})")

    positive("hub.k", h.k)
    positive("hub.l0", h.l0)
    positive("hub.r1", h.r1)
    if not (h.r1 < h.r2):
        errors.append(f"r1 < r2 required (got r1={h.r1}, r2={h.r2})")
    non_negative("hub.preload_ext", h.preload_ext)

    positive("J_m", p.J_m)
    positive("J_o", p.J_o)
    positive("K_s", p.K_s)
    positive("K_struct", p.K_struct)
    positive("K_t", p.K_t)
    positive("dt", p.dt)
    non_negative("b_m", p.b_m)
    non_negative("b_o", p.b_o)
    non_negative("tau_c_sea", p.tau_c_sea)
    non_negative("tau_c_pea", p.tau_c_pea)
    non_negative("tau_c_out", p.tau_c_out)
    positive("tau_max", p.tau_max)
    positive("tau_disengage", p.tau_disengage)
    non_negative("t_switch", p.t_switch)
    positive("omega_eps", p.omega_eps)

    non_negative("load.mass", load.mass)
    non_negative("load.radius", load.radius)
    positive("load.g", load.g)

    if not errors:  # (b + tau_c/omega_eps)/J: damping rate of each body RK4 moves
        for body, b, tau_c, J in (
            ("motor in SEA", p.b_m, p.tau_c_sea, p.J_m),
            ("motor in the locked-output PEA rig", p.b_m, p.tau_c_pea, p.J_m),
            ("output in SEA and in transition", p.b_o, p.tau_c_out, p.J_o),
        ):
            ratio = (b + tau_c / p.omega_eps) * p.dt / J
            if ratio >= RK4_REAL_AXIS_LIMIT:
                errors.append(f"(b + tau_c/omega_eps)*dt/J = {ratio:.4g} for the {body} "
                              f"must be < {RK4_REAL_AXIS_LIMIT} (RK4 stability bound)")
        for rig, omega_sq in (  # the free SEA pair, the locked PEA rig, the hanging load
            ("SEA spring pair", p.K_s * (1.0 / p.J_m + 1.0 / p.J_o)),
            ("locked-output PEA rig", (p.K_s + p.K_struct) / p.J_m),
            ("gravity mode (load.mass*load.g*load.radius/J_o)",
             load.mass * load.g * load.radius / p.J_o),
        ):
            ratio = p.dt * math.sqrt(omega_sq)
            if not ratio < RK4_IMAG_AXIS_LIMIT:  # NaN too, where mass*g overflows and radius is 0
                errors.append(f"dt*omega = {ratio:.4g} for the {rig} "
                              f"must be < {RK4_IMAG_AXIS_LIMIT:.4g} (RK4 stability bound)")
        i_max = p.tau_max / p.K_t  # the largest q-axis current; rms squares it
        if not math.isfinite(i_max * i_max):
            errors.append(f"K_t = {p.K_t} makes the largest current tau_max/K_t = {i_max:.4g} A, "
                          f"whose square is not finite")
        if p.t_switch / p.dt > MAX_RUN_STEPS:  # selector.latency_steps counts them one by one
            errors.append(f"t_switch = {p.t_switch} s spans more than {MAX_RUN_STEPS} steps "
                          f"of dt = {p.dt} s, the most a run may take")
        # the hub law hub-curve sweeps: a positive finite slope, and finite
        # lengths over a full turn (the longest is at beta = pi)
        try:
            k_lin = linearized_stiffness(h)
        except ValueError as exc:  # the springs are slack at rest
            errors.append(f"hub.preload_ext = {h.preload_ext} mm: {exc}")
        else:
            if not 0.0 < k_lin < math.inf:
                errors.append(f"hub.k, hub.r1 and hub.r2 give a linearized stiffness of "
                              f"{k_lin} Nm/rad; it must be positive and finite")
        try:
            l_rest, l_max = effective_length(h, 0.0), effective_length(h, math.pi)
        except ValueError:  # math.sqrt of a chord² rounded below zero (r1 within ulps of r2)
            l_rest = l_max = math.nan
        if not math.isfinite(l_max):
            errors.append(f"hub.r1, hub.r2, hub.l0 and hub.preload_ext must give a finite "
                          f"spring length over a full turn (got {l_max} mm at beta = pi)")
        elif not l_rest > h.l0:  # the chord's rounding ate the preload (r2 >> r1)
            errors.append(f"hub.r1, hub.r2, hub.l0 and hub.preload_ext must give a spring "
                          f"length at rest above hub.l0 = {h.l0} mm (got {l_rest} mm)")

    return errors


def validate_or_raise(preset: Preset) -> Preset:
    errors = validate(preset)
    if errors:
        raise ValueError(f"invalid preset {preset.name!r}: " + "; ".join(errors))
    return preset


# ---------------------------------------------------------------------------
# JSON config format
# ---------------------------------------------------------------------------

def preset_to_dict(preset: Preset) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": preset.name,
        "params": dataclasses.asdict(preset.params),
        "hub": dataclasses.asdict(preset.hub),
        "load": dataclasses.asdict(preset.load),
    }


def preset_from_dict(data: dict) -> Preset:
    if not isinstance(data, dict):
        raise ValueError(f"malformed preset config: not a JSON object (got {type(data).__name__})")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported preset schema_version {version!r}")
    for section in ("params", "hub", "load"):
        if section in data and not isinstance(data[section], dict):
            raise ValueError(f"malformed preset config: {section!r} is not a JSON object "
                             f"(got {type(data[section]).__name__})")
    try:
        return Preset(
            name=data["name"],
            params=ActuatorParams(**data["params"]),
            hub=HubGeometry(**data["hub"]),
            load=LoadModel(**data["load"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed preset config: {exc}") from exc


def save_preset(preset: Preset, path: str | Path) -> None:
    Path(path).write_text(json.dumps(preset_to_dict(preset), indent=2) + "\n")


def _unreadable(path: str | Path, exc: OSError) -> ValueError:
    return ValueError(f"cannot read preset file {str(path)!r}: {exc.strerror or exc}")


def load_preset(path: str | Path) -> Preset:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # a directory, no permission, a name too long
        raise _unreadable(path, exc) from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"preset file {str(path)!r} is not UTF-8 JSON: {exc}") from exc
    return validate_or_raise(preset_from_dict(data))


def load_named_preset(name: str) -> Preset:
    if name not in NAMED_PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(NAMED_PRESETS)}")
    text = resources.files("tsea").joinpath(f"presets/{name}.json").read_text()
    return validate_or_raise(preset_from_dict(json.loads(text)))


def resolve_preset(name_or_path: str) -> Preset:
    """Accept either a named preset or a path to a preset JSON file."""
    if name_or_path in NAMED_PRESETS:
        return load_named_preset(name_or_path)
    path = Path(name_or_path)
    try:
        exists = path.exists()
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    if exists:
        return load_preset(path)
    raise ValueError(f"preset {name_or_path!r} is neither a known name nor an existing file")
