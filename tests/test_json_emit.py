"""``--emit json`` writes exactly the bytes of ``json.dumps(report, indent=2)``.

The CLI writes JSON through its own block writer, which hands containers
without nested containers to json's C encoder. These tests hold it to the
standard library's output: on drawn trees, on every golden report, on a large
oracle report, and when the reader closes the pipe early.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import faskit
from faskit import Frontier, Mode
from faskit import fas as fas_module
from faskit import jsontext
from faskit.cli import _ESTIMATES, _ID_FIELDS, FrontierRows, SpecRows, main
from faskit.jsontext import indented_chunks
from test_golden import CASES, _invoke

_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\b\t\n é \U0001f600'), st.characters()))
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e16, 1e-7, 1.5e300, math.inf, -math.inf, math.nan]),
)
_SCALARS = st.one_of(
    _TEXT, _FLOATS, st.integers(), st.integers(-(10**300), 10**300), st.booleans(), st.none(),
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(_TEXT, children, max_size=5),
    max_leaves=20,
)


def _text(value):
    return "".join(indented_chunks(value))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_TREES)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}, [[{}]]]})
@example([{"": {"\ud800": []}}, [1, [2.5, [None, [True, [{}]]]]]])
@example({"delta": [0.0, -0.0, math.nan, math.inf, -math.inf, 1e16], "ok": False})
def test_writer_matches_json_dumps_indent_2(value):
    assert _text(value) == json.dumps(value, indent=2)


def test_writer_coerces_keys_and_tuples_as_json_does():
    value = {1: (2, 3), None: {2.5: [True]}, True: [(), {}], "s": [1, (2, [3])]}
    assert _text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    object(), [1, object()], {"a": [{"b": {1, 2}}]}, [np.zeros(2), [np.ones(1), object()]],
    np.zeros(2), {"d": np.zeros(0)},
])
def test_writer_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _text(value)


_STATUSES = ("selected", "low-F", "degenerate", "zero-first-stage", "insufficient-observations")


@st.composite
def spec_rows(draw):
    """A SpecRows of either report's layout: any sorted subset of a
    lattice's ids, or the union of some modes' families (at k_z=1, the one
    spec all modes share), with float columns drawn from _FLOATS."""
    k = draw(st.integers(1, 6))
    count = k << (k - 1)
    if draw(st.booleans()):
        ids = sorted(draw(st.sets(st.integers(1, count), max_size=min(count, 40))))
    else:
        modes = draw(st.lists(st.sampled_from(list(Mode)), min_size=1, max_size=3, unique=True))
        ids = fas_module._mode_views(modes, k)[0].tolist()
    ids = np.array(ids, dtype=np.int64)
    m = len(ids)

    def floats():
        return np.array(draw(st.lists(_FLOATS, min_size=m, max_size=m)), dtype=np.float64)

    if draw(st.booleans()):
        columns = [(name, "float?", floats()) for name in _ESTIMATES]
        columns.append(("f_stat", "float", floats()))
        statuses = draw(st.lists(st.sampled_from(_STATUSES), min_size=m, max_size=m))
        columns.append(("status", "str", np.array(statuses, dtype=object)))
        return SpecRows(k, ids, tuple(_ID_FIELDS), columns)
    relevant = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    columns = [
        ("pi", "float", floats()), ("psi", "float", floats()), ("ratio", "float?", floats()),
        ("relevant", "bool", relevant),
    ]
    return SpecRows(k, ids, ("spec_id", "label"), columns)


# floats that json spells in its own way or whose repr is not plain
EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 1.5e300]


@st.composite
def frontier_rows(draw, counts=st.integers(0, 6)):
    """A FrontierRows of 1 to 8 components and ``counts`` points, over a
    Frontier whose columns and moments mix EDGES with normal draws, so that
    its b, intervals and deltas hold every spelling. Its deltas overflow or
    meet ``inf - inf``, so form them under ``np.errstate(all="ignore")``."""
    width, count = draw(st.integers(1, 8)), draw(counts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def floats(size):
        normal = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
        return np.where(rng.random(size) < 0.3, rng.choice(EDGES, size), normal)

    empty, on = rng.random(count) < 0.3, rng.random(count) < 0.5
    frontier = Frontier(floats(count), floats(count), floats(count), empty, on, floats(width), floats(width))
    return FrontierRows(frontier)


_EMPTY_ROWS = SpecRows(3, np.zeros(0, dtype=np.int64), tuple(_ID_FIELDS), [
    *((name, "float?", np.zeros(0)) for name in _ESTIMATES),
    ("f_stat", "float", np.zeros(0)), ("status", "str", np.zeros(0, dtype=object)),
])


@pytest.mark.parametrize("block", [2, 7, None], ids=["2-rows", "7-rows", "default"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=spec_rows() | frontier_rows(), depth=st.integers(0, 3))
@example(rows=_EMPTY_ROWS, depth=0)
@example(rows=_EMPTY_ROWS, depth=2)
def test_spec_rows_are_written_as_json_dumps_writes_their_list(block, rows, depth):
    with np.errstate(all="ignore"):
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(jsontext, "ROWS_PER_BLOCK", block)
            text = "".join(indented_chunks(rows, depth))
            listed = list(rows)
        # in a report, as the oracle holds them
        report = _text({"modes": {"general": {"specs": rows, "frontier": []}}})
    assert len(listed) == len(rows)
    assert text == json.dumps(listed, indent=2).replace("\n", "\n" + "  " * depth)
    assert report == json.dumps({"modes": {"general": {"specs": listed, "frontier": []}}}, indent=2)


def _assert_standard_layout(stdout):
    assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n"


@pytest.mark.parametrize("name", list(CASES))
def test_golden_json_reports_are_json_dumps_output(name):
    _assert_standard_layout(_invoke(CASES[name] + ["--emit", "json"]))


_K6_MODEL = """beta = 1.0
pi = 0.9, 0.6, 0.7, 0.5, 0.8, 0.02
gamma = 0, 0.4, 0, 0, 0.2, 0
alpha = 0, 0, 0.3, 0, 0, 0.1
"""

_K8_MODEL = """beta = 1.0
pi = 0.9, 0.6, 0.7, 0.5, 0.8, 0.4, 0.6, 0.02
gamma = 0, 0.4, 0, 0, 0.2, 0, 0, 0
alpha = 0, 0, 0.3, 0, 0, 0, 0.1, 0
"""


def test_large_oracle_report_is_json_dumps_output(tmp_path):
    path = tmp_path / "k6.model"
    path.write_text(_K6_MODEL)
    res = CliRunner().invoke(
        main, ["oracle", "--model", str(path), "--mode", "all", "--grid", "201", "--emit", "json"]
    )
    assert res.exit_code == 0, res.output
    _assert_standard_layout(res.output)
    # the frontier delta vectors went through the C encoder
    assert len(json.loads(res.output)["modes"]["general"]["frontier"][0]["delta"]) == 6 * 2**5


def test_oracle_report_written_beside_a_worker_is_json_dumps_output(tmp_path, monkeypatch):
    # 209k deltas: one worker formats delta rows from the last one back
    # while the CLI writes from the first, reading the worker's records as
    # they land
    from faskit import floattext

    monkeypatch.setattr(floattext, "_cpus", lambda: 2)
    path = tmp_path / "k8.model"
    path.write_text(_K8_MODEL)
    res = CliRunner().invoke(
        main, ["oracle", "--model", str(path), "--mode", "all", "--grid", "201", "--emit", "json"]
    )
    assert res.exit_code == 0, res.output
    _assert_standard_layout(res.output)


# a k=8 report in mode all is several MB, far more than a pipe holds, so the
# reader closes it mid-report; the small one finds the pipe closed at once.
# stdout is block-buffered, as in a shell, so the bytes of the failed write
# stay buffered until the interpreter exits. The k=8 report's 209k deltas
# start float-formatting workers on a box with more than one CPU; the last
# case starts one whatever the box, and it is still formatting when the
# pipe closes. The CLI leads its own session, so its process group holds it
# and its workers: once it has exited, no process of the group may remain.
_RUN_CLI = [sys.executable, "-m", "faskit.cli"]
_RUN_CLI_WITH_A_WORKER = [
    sys.executable, "-c",
    "import sys; from faskit import floattext; floattext._cpus = lambda: 2; "
    "from faskit.cli import entry; entry()",
]


@pytest.mark.parametrize("cli, args, read", [
    (_RUN_CLI, ["--mode", "all", "--grid", "201"], 1),
    (_RUN_CLI, ["--mode", "excl", "--grid", "2"], 0),
    (_RUN_CLI_WITH_A_WORKER, ["--mode", "all", "--grid", "201"], 1),
], ids=["args0-1", "args1-0", "worker"])
def test_closed_pipe_ends_quietly_with_exit_0(tmp_path, cli, args, read):
    path = tmp_path / "k8.model"
    path.write_text(_K8_MODEL)
    src = os.path.dirname(os.path.dirname(faskit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(
        [*cli, "oracle", "--model", str(path), *args, "--emit", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True,
    ) as proc:
        assert proc.stdout.read(read) == b"{"[:read]
        proc.stdout.close()
        stderr = proc.stderr.read()
        returncode = proc.wait(timeout=120)
    assert (returncode, stderr) == (0, b"")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
