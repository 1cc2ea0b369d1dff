"""Working memory of the n-side stages, of the CSV writer and of the
oracle's JSON frontier, pinned with tracemalloc.

Each n-side bound is a multiple of the instrument block's bytes,
``n * k * 8``, on a draw of n = 100,000 rows and k = 3 instruments read back
from its CSV. tracemalloc sees every numpy array, but not LAPACK's own work
buffers, so a bound counts the arrays a stage makes. The figures in the
comments were taken with numpy 2.4.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import example1_model, random_model
from faskit import (
    Frontier, SimulationConfig, estimate_specs, floattext, load_csv, partial_out, simulate, tsls,
    tsls_pairwise_report, write_csv,
)
from faskit.cli import oracle_report
from faskit.dgp import ErrorLaw
from faskit.jsontext import indented_chunks

N, K = 100_000, 3
BLOCK = N * K * 8


def _traced(call, *args):
    """``call(*args)``, with the peak and the held bytes it added, in blocks."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - base) / BLOCK, (held - base) / BLOCK


@pytest.fixture(scope="module")
def draw_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("memory") / "draw.csv")
    write_csv(simulate(SimulationConfig(example1_model(), N, 5)), path)
    return path


def test_load_csv_holds_one_table(draw_csv):
    (data, _), peak, held = _traced(load_csv, draw_csv, "y", "x", ["Z1", "Z2", "Z3"])
    table = (K + 2) / K  # y, x and Z in one n-row table
    # y, x and Z are views of the parsed table: 1.67 blocks held, against
    # 2.67 when Z was a copy; the peak, 2.05, is the parser growing its
    # table, against 2.82 with the copy
    assert data.Z.base is not None and data.y.base is data.x.base is data.Z.base
    assert held <= 1.05 * table
    assert peak <= 1.5 * table


def test_partial_out_allocates_no_more_than_its_outputs(draw_csv):
    data, _ = load_csv(draw_csv, "y", "x", ["Z1", "Z2", "Z3"])
    part, peak, held = _traced(partial_out, data)
    outputs = (K + 2) / K
    # an intercept-only dataset is centred: 1.72 blocks at the peak, the
    # outputs and numpy's fixed-size ufunc buffers, against 3.36 when it
    # was projected on a QR of a column of ones
    assert held <= outputs + 0.01
    assert peak <= outputs + 0.1
    assert part.n_absorbed == 1


def test_partial_out_in_place_holds_no_new_copy(draw_csv):
    data, _ = load_csv(draw_csv, "y", "x", ["Z1", "Z2", "Z3"])
    part, peak, held = _traced(partial_out, data, True)
    # 0.0004 blocks held and 0.083 at the peak, numpy's fixed-size ufunc
    # buffers: the residuals overwrite the parsed table, against the 1.67
    # blocks of outputs that the copying mode holds
    assert part.Z.base is data.Z.base and np.shares_memory(part.y, data.y)
    assert held <= 0.01
    assert peak <= 0.15


def test_2sls_and_the_pairwise_report_hold_no_copy_of_the_instruments(draw_csv):
    data, _ = load_csv(draw_csv, "y", "x", ["Z1", "Z2", "Z3"])
    part = partial_out(data)
    # 0.41 blocks each, a few row blocks' temporaries: each report takes
    # one R of [Z | x | y] from a QR over 8192-row blocks, and each fit sums
    # its meats in the same blocks; 0.41 and 0.33 when each pairwise fit
    # made its own QR of [Z A | x | y], 2.0 each when a QR of the whole
    # block copied it and formed its Q, and 4.0 and 3.0 when 2SLS also
    # copied Z, kept Q to the end and formed n-row scores for each meat
    _, peak, _ = _traced(tsls, part)
    assert peak <= 0.5
    _, peak, _ = _traced(tsls_pairwise_report, part)
    assert peak <= 0.5


def test_the_sweep_holds_no_copy_of_the_instruments(draw_csv):
    data, _ = load_csv(draw_csv, "y", "x", ["Z1", "Z2", "Z3"])
    part = partial_out(data)
    table, peak, _ = _traced(estimate_specs, part, np.arange(1, 13))
    # 0.20 blocks: the robust variances' two buffers of 3 specs by 8193
    # rows, beside the R of a QR over 8192-row blocks; 0.33 when they held
    # one spec of 2^15 rows, and 1.0 when a QR of the whole instrument block
    # copied it (the buffers then spanned all n rows, 0.67 blocks)
    assert table.estimated.all()
    assert peak <= 0.5


@pytest.mark.parametrize("law", list(ErrorLaw), ids=lambda law: law.value)
def test_a_draw_holds_its_outputs_and_a_few_row_blocks(law):
    data, peak, held = _traced(simulate, SimulationConfig(example1_model(), N, 5, law))
    outputs = (K + 2) / K  # y, x and Z
    # 1.72 blocks at the peak under the Gaussian law and 1.81 under the
    # scaled chi-square one: the outputs and temporaries of a few 8192-row
    # blocks; 2.67 under the latter when each shock, the row means and the
    # scale were formed over all n rows
    assert held <= outputs + 0.01
    assert peak <= outputs + 0.25


@pytest.mark.parametrize("cpus", [1, 2])
def test_write_csv_holds_no_whole_sample_table(cpus, tmp_path, monkeypatch):
    n = 200_000
    data = simulate(SimulationConfig(example1_model(), n, 4))
    table = n * (K + 2) * 8  # y, x and Z as one 8 MB table
    started, init = [], floattext._Worker.__init__
    monkeypatch.setattr(
        floattext._Worker, "__init__", lambda self, *a: (init(self, *a), started.append(self))[0]
    )
    monkeypatch.setattr(floattext, "_cpus", lambda: cpus)
    _, peak, _ = _traced(write_csv, data, str(tmp_path / "draw.csv"))
    # 0.64 MB on one CPU and 1.07 MB beside a worker: a block of rows and
    # its text; 8.6 and 9.0 MB when the writer stacked the whole sample
    assert peak * BLOCK < table / 4
    assert [w.process is not None for w in started] == [True] * (cpus > 1)


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_json_frontier_holds_no_delta_matrix(cpus, monkeypatch):
    # k = 10 and 201 grid points: the general frontier's deltas are a
    # 201 x 5120 matrix of 8.2 MB
    report = oracle_report(random_model(np.random.default_rng(10), 10), mode="general", frontier_grid=201)
    width = len(report["modes"]["general"]["frontier"].frontier.pi)
    matrix = 201 * width * 8
    calls, started = [], []
    deltas, init = Frontier.deltas, floattext._Worker.__init__
    monkeypatch.setattr(Frontier, "deltas", lambda self, *a: (calls.append(a), deltas(self, *a))[1])
    monkeypatch.setattr(
        floattext._Worker, "__init__", lambda self, *a: (init(self, *a), started.append(self))[0]
    )
    monkeypatch.setattr(floattext, "_cpus", lambda: cpus)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        size = sum(map(len, indented_chunks(report)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 0.81 MB on one CPU and 0.82 MB beside a worker: one row's texts, or
    # a block of the worker's input; 9.0 MB each when the writer formed the
    # whole matrix, in one call, for the worker and for itself
    assert peak < matrix / 8
    assert size > 201 * width * 10
    # every call forms one row, or one block of at most 2^15 deltas
    assert calls and all((stop - start) * width <= max(width, 1 << 15) for start, stop in calls)
    assert [w.process is not None for w in started] == [True] * (cpus > 1)
