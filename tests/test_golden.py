"""Golden reports: the CLI's JSON and text output on small fixed inputs.

The inputs and expected outputs live in ``tests/golden``. JSON reports are
compared key by key: strings, ints, bools and nulls exactly, floats to 1e-9
relative (with a 1e-12 absolute floor for values at rounding level, such as
the weight of an instrument orthogonal to the treatment), so that BLAS
builds that round differently still agree. The text form of each stored
report must render byte for byte as stored.

Regenerate the expected outputs, after a deliberate change to the reports,
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import math
import os

import pytest
from click.testing import CliRunner

from faskit.cli import main, render_estimate_text, render_oracle_text, render_simulate_text

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_ESTIMATE = ["estimate", "--data", "estimate.csv", "--outcome", "y", "--treatment", "x"]

# name -> CLI arguments, run from inside tests/golden. The estimate CSV has
# n=80 and z3 = z1, and z2 is orthogonal to (1, w, x): its specs cover the
# selected, low-F, degenerate and zero-first-stage statuses, a failed 2SLS
# and failed pairwise fits.
CASES = {
    "estimate_edges": _ESTIMATE + ["--instruments", "z1,z2,z3", "--controls", "w", "--pairwise"],
    "estimate_hc0": _ESTIMATE + ["--instruments", "z1,z2", "--controls", "w", "--robust", "hc0"],
    "oracle": ["oracle", "--model", "mixed.model", "--grid", "7"],
    "oracle_empty": ["oracle", "--model", "irrelevant.model"],
    "simulate_reps": ["simulate", "--model", "mixed.model", "--n", "60", "--seed", "7", "--reps", "3"],
}

RENDERERS = {
    "estimate": render_estimate_text,
    "oracle": render_oracle_text,
    "simulate": render_simulate_text,
}


def _invoke(args):
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        res = CliRunner().invoke(main, args)
    finally:
        os.chdir(cwd)
    assert res.exit_code == 0, res.output
    return res.output


def _read(name):
    with open(os.path.join(GOLDEN, name)) as handle:
        return handle.read()


def _mismatches(got, want, path="$"):
    """Paths at which ``got`` differs from ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path}: keys {list(got) if isinstance(got, dict) else got!r} != {list(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        if math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


@pytest.mark.parametrize("name", list(CASES))
def test_json_report_matches_its_golden_copy(name):
    got = json.loads(_invoke(CASES[name] + ["--emit", "json"]))
    assert _mismatches(got, json.loads(_read(f"{name}.json"))) == []


@pytest.mark.parametrize("name", list(CASES))
def test_text_report_renders_from_its_golden_json(name):
    report = json.loads(_read(f"{name}.json"))
    assert RENDERERS[report["command"]](report) == _read(f"{name}.txt")


def test_golden_estimate_covers_every_spec_status():
    statuses = {row["status"] for row in json.loads(_read("estimate_edges.json"))["specs"]}
    assert statuses == {"selected", "low-F", "degenerate", "zero-first-stage"}
    assert json.loads(_read("oracle_empty.json"))["modes"]["general"]["interval"] is None


if __name__ == "__main__":
    for case, args in CASES.items():
        for emit, suffix in (("json", "json"), ("text", "txt")):
            with open(os.path.join(GOLDEN, f"{case}.{suffix}"), "w") as out:
                out.write(_invoke(args + ["--emit", emit]))
