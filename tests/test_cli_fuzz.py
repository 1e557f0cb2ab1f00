"""Bad-input fuzz tests of the command line, run in process through cli.main:
presets with one or two fields mutated, and short runs with one numeric flag
set to an odd token."""

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
# a short run of every subcommand; every valid token below keeps it short
# (track --duration 1e3 would be valid, and take minutes)
RUNS = {
    "stiffness": ["stiffness", "--mode", "pea", "--cycles", "1", "--rate", "1e300"],
    "track": ["track", "--duration", "0.01", "--noise"],
    "disturb": ["disturb", "--mode", "pea", "--impacts", "1"],
    "cycle": ["cycle", "--n", "1"],
    "hub-curve": ["hub-curve", "--steps", "3"],
}
# the numeric flags, one set per run
FLAGS = [("stiffness", "--rate"), ("stiffness", "--cycles"), ("track", "--duration"),
         ("track", "--period"), ("track", "--seed"), ("cycle", "--n"),
         ("disturb", "--impacts"), ("disturb", "--impulse"), ("hub-curve", "--range"),
         ("hub-curve", "--steps")]
# int() and float() read "1_0" as 10 and "\u0663" (Arabic-Indic digit three) as 3
TOKENS = ["nan", "inf", "-inf", "-0", "0", "-1", "1e-320", "5e-324", "-5e-324", "1e308",
          "1e400", str(2**70), str(-2**70), "abc", "", "0x10", "1_0", "\u0663", "1.5", " 2 "]


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


def _check_run(argv: list[str], out: Path) -> None:
    """Run argv with --out out through main: it exits 0, 1 or 2 without an
    exception escaping main; a failure prints one line, a success writes
    strict JSON, and exit 1 writes nothing."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    assert code in (0, 1, 2), argv
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
    else:
        json.loads((out / "report.json").read_text(), parse_constant=_strict)
    if code == 1:
        assert not out.exists() or not any(out.rglob("*")), argv


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PATHS), st.sampled_from(VALUES)),
                min_size=1, max_size=2))
def test_mutated_preset_fails_in_one_line(mutations):
    doc = copy.deepcopy(BASE)
    for path, value in mutations:
        _mutate(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        preset = Path(tmp) / "preset.json"
        preset.write_text(json.dumps(doc))
        for i, command in enumerate(COMMANDS):
            _check_run([*command, "--preset", str(preset)], Path(tmp) / f"out{i}")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(FLAGS), st.sampled_from(TOKENS))
def test_odd_flag_value_fails_in_one_line(flag, token):
    # the token as the flag's value, in one argument so that argparse cannot
    # take "-inf" for an option; the last value of a flag given twice wins
    command, name = flag
    with tempfile.TemporaryDirectory() as tmp:
        _check_run([*RUNS[command], f"{name}={token}"], Path(tmp) / "out")
