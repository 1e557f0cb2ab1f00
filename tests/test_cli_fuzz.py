"""Bad-input fuzz test of the command line: presets with one or two fields
mutated, run in process through cli.main."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from tsea.cli import main
from tsea.params import load_named_preset, preset_to_dict

BASE = preset_to_dict(load_named_preset("calibrated"))
# every field, and each section as a whole (for wrong shapes)
PATHS = [("name",)] + [(section,) for section in ("params", "hub", "load")] + [
    (section, key) for section in ("params", "hub", "load") for key in BASE[section]]
NEGATE, DELETE = object(), object()
VALUES = [NEGATE, DELETE, 0, 0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308,
          1e300, -1e300, 2**70, 1e-308, -1e-308, 1e-320, True, None, "1", [], [1.0], {},
          {"a": 1}]
COMMANDS = [["cycle", "--n", "1"], ["track", "--duration", "0.01"],
            ["hub-curve", "--steps", "3"]]


def _mutate(doc: dict, path: tuple, value) -> None:
    *parents, key = path
    for part in parents:
        doc = doc.get(part)
        if not isinstance(doc, dict):  # an earlier mutation replaced or deleted the section
            return
    if value is DELETE:
        doc.pop(key, None)
    elif value is NEGATE:
        if isinstance(doc.get(key), (int, float)):
            doc[key] = -doc[key]
    else:
        doc[key] = copy.deepcopy(value)  # a list or object of its own


def _strict(constant: str):
    raise ValueError(f"report.json holds {constant}")


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PATHS), st.sampled_from(VALUES)),
                min_size=1, max_size=2))
def test_mutated_preset_fails_in_one_line(mutations):
    # every run exits 0, 1 or 2 without an exception escaping main; a failure
    # prints one line, a success writes strict JSON, and exit 1 writes nothing
    doc = copy.deepcopy(BASE)
    for path, value in mutations:
        _mutate(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        preset = Path(tmp) / "preset.json"
        preset.write_text(json.dumps(doc))
        for i, command in enumerate(COMMANDS):
            out = Path(tmp) / f"out{i}"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*command, "--preset", str(preset), "--out", str(out)])
            assert code in (0, 1, 2), command
            if code:
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            else:
                json.loads((out / "report.json").read_text(), parse_constant=_strict)
            if code == 1:
                assert not out.exists() or not any(out.rglob("*")), command
