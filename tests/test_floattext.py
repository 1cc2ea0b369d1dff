"""Float rows formatted by a worker process give the bytes of formatting
them in process, on every path: with or without a worker, a worker that
cannot start or fails, and an early exit, which leaves no worker running."""

import csv
import io
import json
import math
import signal
import sys
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faskit import Dataset, Frontier, floattext, write_csv
from faskit.cli import FrontierRows
from faskit.jsontext import ROWS_PER_BLOCK, indented_chunks
from test_json_emit import EDGES, frontier_rows


@contextmanager
def _workers(cpus):
    """Calls made inside see ``cpus`` CPUs and start a worker whatever their
    size when ``cpus`` is above 1. The caller reads the worker's records only
    after it exits, so every job is served from its records. Yields the
    started workers and the jobs served from them."""
    seen = SimpleNamespace(started=[], served=[])
    init, frontier, text = floattext._Worker.__init__, floattext._Worker.frontier, floattext._Worker.text

    def start(self, *args):
        init(self, *args)
        seen.started.append(self)

    def finished_frontier(self):
        if self.process is not None:
            self.process.wait()
        return frontier(self)

    def served(self, job):
        seen.served.append(job)
        return text(self, job)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(floattext, "MIN_VALUES", 0)
        patch.setattr(floattext, "_cpus", lambda: cpus)
        patch.setattr(floattext._Worker, "__init__", start)
        patch.setattr(floattext._Worker, "frontier", finished_frontier)
        patch.setattr(floattext._Worker, "text", served)
        yield seen


# a point at each edge float, each with the edge floats' magnitudes as its deltas
_EDGE_ROWS = FrontierRows(Frontier(
    np.array(EDGES), np.zeros(9), np.zeros(9), np.zeros(9, dtype=bool), np.ones(9, dtype=bool),
    np.zeros(9), np.array(EDGES),
))


# a third CPU still gives one worker
@pytest.mark.parametrize("cpus", [1, 2, 3])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(frontier_rows(st.integers(0, 4) | st.sampled_from(
    [ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1]
)))
@example(_EDGE_ROWS)
def test_json_text_is_json_dumps_with_and_without_a_worker(cpus, rows):
    report = {"modes": {"general": {"specs": [], "frontier": rows}}}
    with _workers(cpus) as seen, np.errstate(all="ignore"):
        text = "".join(indented_chunks(report))
        listed = list(rows)
    assert text == json.dumps({"modes": {"general": {"specs": [], "frontier": listed}}}, indent=2)
    if cpus > 1 and len(rows):
        assert len(seen.started) == 1 and sorted(seen.served) == list(range(len(rows)))
    else:
        assert not seen.started and not seen.served


def _dataset_with_nonfinite_cells(n=3000):
    rng = np.random.default_rng(3)
    data = Dataset(
        y=rng.standard_normal(n), x=rng.standard_normal(n), Z=rng.standard_normal((n, 2)),
        z_names=("Z1", "Z2"), controls=rng.standard_normal((n, 1)), control_names=("w",),
    )
    # the dataset holds only finite values; the writer must still spell these
    data.Z[5, 0], data.Z[2500, 1], data.controls[1800, 0] = math.nan, math.inf, -math.inf
    data.y[7] = -0.0
    return data


def test_csv_bytes_are_those_of_csv_writer_with_and_without_a_worker(tmp_path):
    data = _dataset_with_nonfinite_cells()
    table = np.column_stack([data.y, data.x, data.Z, data.controls])
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([["y", "x", "Z1", "Z2", "w"]] + table.tolist())
    for cpus in (1, 2):
        path = tmp_path / f"cpus{cpus}.csv"
        with _workers(cpus) as seen:
            write_csv(data, str(path))
        assert path.read_bytes() == expected.getvalue().encode("ascii")
        # 3000 rows are three blocks of 1024 rows
        assert len(seen.served) == (3 if cpus > 1 else 0)


def _texts(matrix, rows_per_job, style, json=False):
    """A RowTexts over the rows of ``matrix``, a 2-D float64 array."""
    count, width = matrix.shape
    return floattext.RowTexts(lambda start, stop: matrix[start:stop], count, width, rows_per_job, style, json)


def _text_of(matrix):
    with _texts(matrix, 1, ("[", ", ", "]"), json=True) as texts:
        return "".join(texts)


_ROWS = np.random.default_rng(11).standard_normal((6, 300))


def test_a_worker_that_cannot_start_leaves_its_rows_to_the_caller(monkeypatch, tmp_path, capfd):
    expected = _text_of(_ROWS)
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-such-python"))
    with _workers(2) as seen:
        assert _text_of(_ROWS) == expected
    assert [w.process for w in seen.started] == [None] and not seen.served
    assert capfd.readouterr().err == ""


def test_a_worker_that_fails_leaves_its_rows_to_the_caller(monkeypatch, tmp_path, capfd):
    expected = _text_of(_ROWS)
    script = tmp_path / "fails.py"
    script.write_text(
        "import sys\n"
        "sys.stdout.buffer.write(b'\\x07\\x00\\x00')\n"
        "sys.stderr.write('worker failed\\n')\n"
        "sys.exit(3)\n"
    )
    monkeypatch.setattr(floattext, "__file__", str(script))
    with _workers(2) as seen:
        assert _text_of(_ROWS) == expected
    assert [w.process.returncode for w in seen.started] == [3] and not seen.served
    assert capfd.readouterr().err == ""


def test_an_early_exit_kills_and_reaps_the_worker(monkeypatch):
    # many CPUs still start one worker
    monkeypatch.setattr(floattext, "_cpus", lambda: 8)
    # 2^16 jobs of 6 values: the caller formats its first at once, while the
    # worker, with all the others to do, still runs
    matrix = np.random.default_rng(2).standard_normal((2**16, 6))
    texts = _texts(matrix, 1, ("", ",", "\n"))
    with pytest.raises(KeyboardInterrupt):
        with texts:
            process = texts._worker.process
            for _ in texts:
                raise KeyboardInterrupt
    assert process.returncode == -signal.SIGKILL
    assert texts._worker is None


def test_a_small_call_starts_no_worker(monkeypatch):
    monkeypatch.setattr(floattext, "_cpus", lambda: 8)
    with _texts(np.ones((floattext.MIN_VALUES - 1, 1)), 1, ("", "", "\n")) as texts:
        assert texts._worker is None


_TABLE = np.random.default_rng(4).standard_normal((8, 6))


# the matrix a call's row function slices, and the call's own arguments; the
# blocks of a function that does not slice one matrix are checked by the next
# test but one
@pytest.mark.parametrize("matrix, count, width, rows_per_job, style", [
    (_TABLE.ravel(), 8, 6, 1, ("", ",", "\n")),
    (_TABLE.astype(np.float32), 8, 6, 1, ("", ",", "\n")),
    (_TABLE.astype(">f8"), 8, 6, 1, ("", ",", "\n")),
    (np.ones((8, 6), dtype=np.int64), 8, 6, 1, ("", ",", "\n")),
    (np.hstack([_TABLE, _TABLE])[:, ::2], 8, 6, 1, ("", ",", "\n")),
    (np.asfortranarray(_TABLE), 8, 6, 1, ("", ",", "\n")),
    (np.ones((8, 0)), 8, 0, 1, ("", ",", "\n")),
    (_TABLE, -1, 6, 1, ("", ",", "\n")),
    (_TABLE, 8, 6, 0, ("", ",", "\n")),
    (_TABLE, 8, 6, -2, ("", ",", "\n")),
    (_TABLE, 8, 6, 1, ("", "\u00b7", "\n")),
    (_TABLE, 8, 6, 1, ("", "\0", "\n")),
], ids=[
    "1-D", "float32", "big-endian", "int64", "strided", "Fortran", "no-columns",
    "negative-count", "0-rows-per-job", "negative-rows-per-job", "non-ASCII-style", "NUL-style",
])
def test_a_matrix_it_cannot_take_raises_before_any_worker_starts(matrix, count, width, rows_per_job, style):
    with _workers(2) as seen, pytest.raises(ValueError):
        with floattext.RowTexts(lambda start, stop: matrix[start:stop], count, width, rows_per_job, style) as texts:
            list(texts)
    assert not seen.started


@pytest.mark.parametrize("rows_per_job", [1, 3, 8, 9])
@pytest.mark.parametrize("cpus", [1, 2])
def test_jobs_are_runs_of_rows_and_the_last_may_be_shorter(cpus, rows_per_job):
    style = ("<", ";", ">\n")
    rows = ["<" + ";".join(map(repr, row)) + ">\n" for row in _TABLE.tolist()]
    expected = ["".join(rows[i : i + rows_per_job]) for i in range(0, 8, rows_per_job)]
    with _workers(cpus) as seen:
        with _texts(_TABLE, rows_per_job, style) as texts:
            assert list(texts) == expected
        with _texts(np.ones((0, 6)), rows_per_job, style) as texts:
            assert list(texts) == []
    assert len(seen.served) == (len(expected) if cpus > 1 else 0)


def test_csv_bytes_stay_the_same_while_a_worker_writes(tmp_path, monkeypatch):
    # no waiting here: this process reads the worker's records while it
    # still writes them, and the two meet wherever their timing puts them
    rng = np.random.default_rng(5)
    n = 40_000
    data = Dataset(y=rng.standard_normal(n), x=rng.standard_normal(n), Z=rng.standard_normal((n, 3)), z_names=("a", "b", "c"))
    monkeypatch.setattr(floattext, "_cpus", lambda: 1)
    write_csv(data, str(tmp_path / "alone.csv"))
    monkeypatch.setattr(floattext, "_cpus", lambda: 2)
    started = []
    init = floattext._Worker.__init__
    monkeypatch.setattr(floattext._Worker, "__init__", lambda self, *a: (init(self, *a), started.append(self))[0])
    write_csv(data, str(tmp_path / "worker.csv"))
    assert len(started) == 1 and started[0].process is not None
    assert (tmp_path / "worker.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


# 100k values: 2500 rows of 40, with json's non-finite spellings among them
_LONG = np.random.default_rng(6).standard_normal((2500, 40))
_LONG[[3, 1200, 2499], [0, 17, 39]] = math.nan, math.inf, -math.inf


@pytest.mark.parametrize("rows_per_job", [1, 3, 1024])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_row_source_gives_the_bytes_of_its_matrix(cpus, rows_per_job):
    rows = [json.dumps(row) + "\n" for row in _LONG.tolist()]
    expected = ["".join(rows[i : i + rows_per_job]) for i in range(0, len(rows), rows_per_job)]
    asked = []

    def source(start, stop):
        asked.append((start, stop))
        return _LONG[start:stop].copy()

    with _workers(cpus) as seen:
        with floattext.RowTexts(source, 2500, 40, rows_per_job, ("[", ", ", "]\n"), json=True) as texts:
            assert list(texts) == expected
    if cpus > 1:
        # the worker's input was written a block of rows at a time, and the
        # worker, which finished first, served every job
        step = floattext.BLOCK_VALUES // 40
        assert asked == [(start, min(start + step, 2500)) for start in range(0, 2500, step)]
        assert len(seen.started) == 1 and sorted(seen.served) == list(range(len(expected)))
    else:
        assert asked == [(start, min(start + rows_per_job, 2500)) for start in range(0, 2500, rows_per_job)]
        assert not seen.started


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("block, width", [
    (lambda start, stop: _TABLE[start:stop].ravel(), 6),
    (lambda start, stop: _TABLE[start:stop].astype(np.float32), 6),
    (lambda start, stop: _TABLE[start:stop].astype(">f8"), 6),
    (lambda start, stop: np.ones((stop - start, 6), dtype=np.int64), 6),
    (lambda start, stop: np.hstack([_TABLE, _TABLE])[start:stop, ::2], 6),
    (lambda start, stop: np.asfortranarray(_TABLE[start:stop]), 6),
    (lambda start, stop: _TABLE[start:stop], 5),
    (lambda start, stop: _TABLE[start : stop - 1], 6),
    (lambda start, stop: np.ones((stop - start, 0)), 0),
], ids=[
    "1-D", "float32", "big-endian", "int64", "strided", "Fortran", "other-width", "other-rows",
    "no-columns",
])
def test_a_block_it_cannot_take_raises_before_any_worker_starts(cpus, block, width):
    # one job of all 8 rows, so that every block the function gives is its whole table
    with _workers(cpus) as seen, pytest.raises(ValueError):
        with floattext.RowTexts(block, 8, width, 8, ("", ",", "\n")) as texts:
            list(texts)
    assert not seen.started
