import math

import numpy as np
import pytest

from oracles import spring_force_torque
from tsea.params import HubGeometry
from tsea.spring_hub import (
    effective_length,
    hub_torque,
    installed_length,
    linearized_stiffness,
    preload_offset,
    spring_length,
)

GEOM = HubGeometry()  # datasheet geometry


def test_spring_length_landmarks():
    assert spring_length(GEOM, 0.0) == pytest.approx(12.55, abs=1e-9)
    assert spring_length(GEOM, math.pi) == pytest.approx(63.19, abs=1e-9)
    assert spring_length(GEOM, math.pi / 2) == pytest.approx(45.55, abs=5e-3)


def test_spring_length_even_and_monotone():
    grid = np.linspace(0.0, math.pi, 400)
    lengths = [spring_length(GEOM, float(b)) for b in grid]
    assert all(b2 > b1 for b1, b2 in zip(lengths, lengths[1:]))
    for b in grid[::37]:
        assert spring_length(GEOM, -float(b)) == spring_length(GEOM, float(b))


def test_effective_length_at_rest_is_installed_length():
    assert installed_length(GEOM) == pytest.approx(14.55)
    assert effective_length(GEOM, 0.0) == installed_length(GEOM)
    assert effective_length(GEOM, math.pi) == pytest.approx(63.19 + 2.0, abs=1e-9)


def test_effective_length_identity_without_offset():
    l_rest = spring_length(GEOM, 0.0)
    geom = HubGeometry(l0=l_rest, preload_ext=0.0)
    for b in (0.0, 0.3, 1.2, -0.7):
        assert effective_length(geom, b) == spring_length(geom, b)


def test_torque_zero_at_rest():
    assert hub_torque(GEOM, 0.0) == 0.0


def test_small_angle_torque_matches_linearization():
    k_lin = linearized_stiffness(GEOM)
    assert hub_torque(GEOM, 0.01) == pytest.approx(k_lin * 0.01, rel=0.01)


def test_torque_matches_force_decomposition_oracle():
    assert hub_torque(GEOM, 0.5) == pytest.approx(spring_force_torque(GEOM, 0.5), abs=1e-9)


def test_oracle_sweep_default_geometry():
    rng = np.random.default_rng(20260809)
    for b in rng.uniform(-1.0, 1.0, size=1000):
        assert abs(hub_torque(GEOM, float(b)) - spring_force_torque(GEOM, float(b))) < 1e-9


def test_oracle_sweep_zero_offset_geometry():
    # installed length equals the rest chord: the decomposition carries no
    # assembly-offset assumption at all here
    geom = HubGeometry(l0=spring_length(GEOM, 0.0), preload_ext=0.0)
    rng = np.random.default_rng(7)
    for b in rng.uniform(-1.0, 1.0, size=200):
        assert abs(hub_torque(geom, float(b)) - spring_force_torque(geom, float(b))) < 1e-9


def test_odd_symmetry_both_modes():
    for b in np.linspace(-math.pi, math.pi, 101):
        b = float(b)
        assert hub_torque(GEOM, -b) == -hub_torque(GEOM, b)


def test_linearized_stiffness_value():
    k_lin = linearized_stiffness(GEOM)
    assert k_lin == pytest.approx(5.86, abs=5e-3)
    assert abs(k_lin / 5.8 - 1.0) < 0.02  # matches the analytic quote


def test_linearized_stiffness_asymptote():
    geom = HubGeometry(preload_ext=1e9)
    limit = 4.0 * geom.k * geom.r1 * geom.r2 * 1e-3
    assert linearized_stiffness(geom) == pytest.approx(limit, rel=1e-6)


def test_zero_preload_stiffness_rejected():
    with pytest.raises(ValueError, match="slack"):
        linearized_stiffness(HubGeometry(preload_ext=0.0))


def test_finite_difference_slope_matches_linearization():
    h = 1e-6
    slope = (hub_torque(GEOM, h) - hub_torque(GEOM, -h)) / (2 * h)
    assert slope == pytest.approx(linearized_stiffness(GEOM), rel=1e-4)


def test_preload_offset_value():
    assert preload_offset(GEOM) == pytest.approx(2.0, abs=1e-9)

