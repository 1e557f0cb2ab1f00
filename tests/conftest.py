import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

from tsea.params import Preset, load_named_preset


@pytest.fixture(scope="session")
def calibrated() -> Preset:
    return load_named_preset("calibrated")


@pytest.fixture(scope="session")
def full_range() -> Preset:
    return load_named_preset("paper-full-range")


@pytest.fixture(scope="session")
def linear_window() -> Preset:
    return load_named_preset("paper-linear-window")


def without_friction(preset: Preset, **extra) -> Preset:
    params = dataclasses.replace(
        preset.params, tau_c_sea=0.0, tau_c_pea=0.0, **extra
    )
    return dataclasses.replace(preset, params=params)


def with_params(preset: Preset, **kw) -> Preset:
    return dataclasses.replace(preset, params=dataclasses.replace(preset.params, **kw))
