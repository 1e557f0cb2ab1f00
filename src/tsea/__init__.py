"""Deterministic simulator and experiment harness for an elastic actuator
that switches between series and parallel spring topologies at runtime."""

from .params import (
    ActuatorParams,
    HubGeometry,
    LoadModel,
    Preset,
    default_output_inertia,
    load_named_preset,
    load_preset,
    resolve_preset,
    save_preset,
    validate,
)
from .plant import (
    Mode,
    PeaState,
    SeaState,
    SimulationError,
    TransitionState,
    coulomb_friction,
    gravity_torque,
    step,
)
from .spring_hub import (
    HubModel,
    LINEARIZED,
    NONLINEAR,
    effective_length,
    hub_torque,
    linear_hub,
    linearized_stiffness,
    preload_force,
    spring_length,
)

__all__ = [
    "ActuatorParams", "HubGeometry", "LoadModel", "Preset",
    "default_output_inertia", "load_named_preset", "load_preset",
    "resolve_preset", "save_preset", "validate",
    "Mode", "PeaState", "SeaState", "SimulationError",
    "TransitionState", "coulomb_friction", "gravity_torque", "step",
    "HubModel", "LINEARIZED", "NONLINEAR", "effective_length", "hub_torque",
    "linear_hub", "linearized_stiffness", "preload_force", "spring_length",
]

__version__ = "0.1.0"
