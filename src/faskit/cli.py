"""Command line interface and report construction.

Three subcommands: ``estimate`` (CSV in, FAS report out), ``oracle``
(population model in, population FAS and falsification frontier out), and
``simulate`` (model in, synthetic CSV and/or Monte Carlo summary out).
Reports are built once as dictionaries whose ``specs`` blocks are
:class:`SpecRows` and whose ``frontier`` blocks are :class:`FrontierRows`:
rows kept as columns, which :mod:`faskit.jsontext` writes a block of rows
at a time and which yield their rows as plain dictionaries when iterated.
The text and JSON emitters render the same in-memory numbers.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread per CLI process. The sweep makes thousands of small BLAS
# calls, and each wakes OpenBLAS's thread pool, whose idle threads then spin:
# on a 2-core box they raised a k=10 sweep's CPU time by about 75% and saved
# no wall time, and they split long sums across threads, so the last digits
# of a report depended on the CPU count. OpenBLAS reads its thread count
# once, when numpy loads it, from the first of these variables that is set.
# A caller's own setting wins, and a process that loaded numpy before this
# module (a library caller, a test) keeps what it has.
if "numpy" not in sys.modules and not any(
    os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import functools
from collections.abc import Iterator

import click
import numpy as np

from .data import Dataset, load_csv, write_csv
from .dgp import ErrorLaw, SimulationConfig, _model_setup, derive_seed, simulate
from .errors import DimensionMismatchError, FaskitError, ParseError
from .estimators import TSLS_FAILURES, tsls, tsls_pairwise_report
from .fas import (
    DEFAULT_CUTOFF,
    FasResult,
    Frontier,
    Mode,
    PopulationModel,
    _check_cutoff,
    _fas_by_draw,
    fas_by_mode,
    fas_frontier,
    population_fas_by_mode,
)
from .jsontext import Rows, indented_chunks
from .linalg import _BLOCK_ELEMENTS, partial_out
from .specs import spec_fields

SCHEMA_VERSION = 1

# Sample values, n·(k_z + 2) a draw, that one chunk of Monte Carlo draws may
# hold: two blocks of the sweep's W, 10 draws at n=1000, k_z=4. 21 draws cut
# 10% more CPU but added 1.2 MiB of peak RSS, not 0.5 (2-core box).
_CHUNK_ELEMENTS = 2 * _BLOCK_ELEMENTS

_MODE_CHOICES = ("excl", "exo", "general", "all")


def _modes(mode: str) -> list[Mode]:
    """The FAS modes to report: all three for ``"all"``."""
    return list(Mode) if mode == "all" else [Mode(mode)]


# ---------------------------------------------------------------------------
# population model files

_MODEL_KEYS = {"beta", "pi", "gamma", "alpha", "sigma_z", "var_u", "var_v", "rho_uv"}


def _parse_vector(text: str, key: str) -> np.ndarray:
    tokens = [tok.strip() for tok in text.split(",")]
    if not any(tokens):
        return np.zeros(0)
    if not all(tokens):
        raise ParseError(f"model key '{key}': blank entry in vector {text!r}")
    try:
        return np.array([float(tok) for tok in tokens])
    except ValueError:
        raise ParseError(f"model key '{key}': cannot parse vector {text!r}") from None


def load_model(path: str) -> tuple[PopulationModel, dict]:
    """Read a population model from a flat key-value file.

    Lines are ``key = value`` with ``#`` comments. Vectors are comma lists,
    with no blank entry unless all are blank (an empty vector); ``sigma_z``
    rows are separated by semicolons. ``beta`` and ``pi`` are required;
    ``gamma`` and ``alpha`` default to zero vectors, ``sigma_z`` to the
    identity, ``var_u`` and ``var_v`` to 1.

    Returns the model and a dict of simulation extras (``rho_uv`` when
    present in the file).
    """
    raw: dict[str, str] = {}
    try:
        handle = open(path)
    except OSError as exc:
        raise FileNotFoundError(f"cannot open model file: {path}") from exc
    with handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ParseError(f"{path}:{line_number}: expected 'key = value'")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in _MODEL_KEYS:
                raise ParseError(
                    f"{path}:{line_number}: unknown key '{key}' "
                    f"(known: {', '.join(sorted(_MODEL_KEYS))})"
                )
            if key in raw:
                raise ParseError(f"{path}:{line_number}: duplicate key '{key}'")
            raw[key] = value

    for required in ("beta", "pi"):
        if required not in raw:
            raise ParseError(f"{path}: missing required key '{required}'")

    try:
        beta = float(raw["beta"])
        var_u = float(raw.get("var_u", "1"))
        var_v = float(raw.get("var_v", "1"))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    try:
        pi = _parse_vector(raw["pi"], "pi")
        k = pi.shape[0]
        gamma = _parse_vector(raw["gamma"], "gamma") if "gamma" in raw else np.zeros(k)
        alpha = _parse_vector(raw["alpha"], "alpha") if "alpha" in raw else np.zeros(k)
        if "sigma_z" in raw:
            rows = [_parse_vector(row, "sigma_z") for row in raw["sigma_z"].split(";")]
            width = max(len(row) for row in rows)
            for number, row in enumerate(rows, start=1):
                if len(row) < width:
                    raise ParseError(
                        f"model key 'sigma_z': row {number} has {len(row)} values, "
                        f"another row has {width}"
                    )
            sigma = np.vstack(rows)
        else:
            sigma = np.eye(k)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None

    model = PopulationModel(
        beta=beta, gamma=gamma, alpha=alpha, pi=pi,
        sigma_z=sigma, var_v=var_v, var_u=var_u,
    )
    extras: dict = {}
    if "rho_uv" in raw:
        try:
            extras["rho_uv"] = float(raw["rho_uv"])
        except ValueError:
            raise ParseError(f"{path}: cannot parse rho_uv {raw['rho_uv']!r}") from None
    return model, extras


# ---------------------------------------------------------------------------
# report construction

def _interval_json(interval: tuple[float, float] | None):
    if interval is None:
        return None
    return [float(interval[0]), float(interval[1])]


# The members a report row takes from its spec_id, with their kinds.
_ID_FIELDS = {
    "spec_id": "int", "label": "str", "instrument_index": "int", "control_subset": "ints",
}


class SpecRows(Rows):
    """The rows of a report's ``specs`` block, kept as columns.

    Each row leads with the ``id_keys`` members of its spec, some of
    "spec_id", "label", "instrument_index" and "control_subset" in that
    order, decoded from ``spec_ids`` only for the block of rows being
    written or iterated. Then come ``columns``, ``(key, kind, array)`` each,
    with :class:`faskit.jsontext.Rows` kinds.
    """

    def __init__(self, k_z: int, spec_ids: np.ndarray, id_keys: tuple[str, ...], columns: list):
        self.k_z, self.spec_ids, self.id_keys, self.columns = k_z, spec_ids, id_keys, columns
        self.fields = tuple((key, _ID_FIELDS[key]) for key in id_keys) + tuple(
            (key, kind) for key, kind, _ in columns
        )

    def __len__(self) -> int:
        return len(self.spec_ids)

    def block(self, start: int, stop: int) -> list:
        ids = self.spec_ids[start:stop]
        instrument, controls, labels = spec_fields(self.k_z, ids)
        decoded = {
            "spec_id": ids, "label": labels, "instrument_index": instrument,
            "control_subset": controls,
        }
        return [decoded[key] for key in self.id_keys] + [
            values[start:stop] for _, _, values in self.columns
        ]


class FrontierRows(Rows):
    """The rows of a mode's ``frontier`` block, kept as the columns of its
    :class:`~faskit.fas.Frontier`. Its deltas come from
    :meth:`Frontier.deltas <faskit.fas.Frontier.deltas>` for only the rows
    asked of :meth:`floats`: the JSON writer asks for one point's, or a
    bounded block of points' for a float-formatting worker, at a time, and
    iterating asks for one point's. ``interval`` is None where empty."""

    fields = (("b", "float"), ("delta", "floats"), ("interval", "interval"), ("on_frontier", "bool"))

    def __init__(self, frontier: Frontier):
        self.frontier = frontier

    def __len__(self) -> int:
        return len(self.frontier)

    def block(self, start: int, stop: int) -> list:
        f = self.frontier
        interval = np.column_stack([f.lo[start:stop], f.hi[start:stop]])
        interval[f.empty[start:stop]] = np.nan
        return [f.b[start:stop], None, interval, f.on_frontier[start:stop]]

    def floats(self, start: int, stop: int) -> np.ndarray:
        return self.frontier.deltas(start, stop)


_ESTIMATES = ("beta_hat", "se", "pi_hat", "psi_hat")


def _estimate_rows(results: dict[Mode, FasResult], k_z: int) -> SpecRows:
    """The ``specs`` rows of an estimate report: the rows of the widest
    result, in spec_id order. The modes come one at a time or all three,
    and Excl's and Exo's families nest in General's, so the widest result
    holds every requested spec. A spec has the same row and status in each
    mode, from the one sweep."""
    result = max(results.values(), key=lambda r: len(r.table.spec_ids))
    t = result.table
    columns = [(name, "float?", getattr(t, name)) for name in _ESTIMATES]
    columns.append(("f_stat", "float", t.f_stat))
    columns.append(("status", "str", result.status))
    return SpecRows(k_z, t.spec_ids, tuple(_ID_FIELDS), columns)


def _fas_section(result: FasResult) -> dict:
    selected = result.table.spec_ids[result.selected].tolist()
    return {
        "interval": _interval_json(result.interval),
        "selected": selected,
        "n_selected": len(selected),
        "n_specs": len(result.table.spec_ids),
    }


def _fit_json(result) -> dict:
    return {
        "beta_2sls": float(result.beta_2sls),
        "se": float(result.se),
        "first_stage_f": float(result.first_stage_f),
        "j_stat": float(result.j_stat),
        "j_pvalue": None if result.j_pvalue is None else float(result.j_pvalue),
        "j_dof": int(result.j_dof),
    }


def _tsls_section(dataset: Dataset, robust_flavor: str) -> dict:
    """The full-instrument 2SLS block with its weights, or only its failure
    code when the fit raised one of the recorded errors."""
    try:
        result = tsls(dataset, robust_flavor=robust_flavor)
    except tuple(TSLS_FAILURES) as exc:
        return {"failure": TSLS_FAILURES[type(exc)]}
    weights = [
        {"instrument": f"Z{i + 1}", "name": dataset.z_names[i], "weight": float(w)}
        for i, w in enumerate(result.weights)
    ]
    return {**_fit_json(result), "weights": weights}


def _pairwise_json(row) -> dict:
    fit = {"failure": row.failure} if row.result is None else _fit_json(row.result)
    return {"pair": list(row.pair), "variant": row.variant, "labels": list(row.labels), **fit}


def run(
    dataset: Dataset,
    *,
    mode: str = "all",
    cutoff: float = DEFAULT_CUTOFF,
    robust_flavor: str = "hc1",
    pairwise: bool = False,
    dropped_rows: int = 0,
    in_place: bool = False,
) -> dict:
    """Estimate the requested FAS mode(s) and build the full report dict.

    The report carries the full-instrument 2SLS fit with its weight
    decomposition and overidentification test, the per-spec table with
    selection status, and one interval per requested mode. A 2SLS fit that
    fails (rank-deficient instruments, a first stage orthogonal to them, too
    few rows) is recorded as its failure code, and the rest of the report
    stands.

    ``report["specs"]`` is a :class:`SpecRows`, which yields the row dicts
    when iterated. The report serializes through :mod:`faskit.jsontext`;
    plain ``json.dumps`` needs ``list(report["specs"])`` in its place.

    With ``in_place`` the dataset is partialled in its own arrays (see
    :func:`~faskit.linalg.partial_out`), for a caller that holds the only
    reference to them; the report still takes its intercept and control
    names from ``dataset``.
    """
    partialled = partial_out(dataset, in_place=in_place)
    results = fas_by_mode(partialled, _modes(mode), cutoff, robust_flavor)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "estimate",
        "provenance": dataset.provenance,
        "n": dataset.n,
        "dropped_rows": int(dropped_rows),
        "k_z": dataset.k_z,
        "instruments": list(dataset.z_names),
        "controls": list(dataset.control_names),
        "intercept": bool(dataset.intercept),
        "mode": mode,
        "cutoff": float(cutoff),
        "robust": robust_flavor,
        "tsls": _tsls_section(partialled, robust_flavor),
        "specs": _estimate_rows(results, dataset.k_z),
        "fas": {each.value: _fas_section(result) for each, result in results.items()},
    }
    if pairwise:
        rows = tsls_pairwise_report(partialled, robust_flavor)
        report["pairwise"] = [_pairwise_json(row) for row in rows]
    return report


def oracle_report(
    model: PopulationModel, *, mode: str = "all", frontier_grid: int = 201, model_path: str = ""
) -> dict:
    """Population FAS and frontier for the requested mode(s).

    A mode with no relevant spec has an empty FAS: its interval is None and
    its frontier is an empty list. A ``frontier_grid`` below 2 raises
    ``ValueError`` before any work.

    Each mode's ``"specs"`` is a :class:`SpecRows` and its ``"frontier"``
    a :class:`FrontierRows`, which holds no delta: the JSON writer forms
    each point's deltas as it writes that point (a float-formatting worker's
    input is written a bounded block of points at a time), so no mode's
    delta matrix is ever held whole, and the text report, which prints
    none, never forms one. The report serializes through
    :mod:`faskit.jsontext`, which writes a Rows as the list of its rows;
    plain ``json.dumps`` needs each Rows as its ``list()``.
    """
    if frontier_grid < 2:
        raise ValueError(f"frontier grid needs at least 2 points, got {frontier_grid}")
    sections: dict[str, dict] = {}
    for each, result in population_fas_by_mode(model, _modes(mode)).items():
        t = result.table
        columns = [
            ("pi", "float", t.pi_hat), ("psi", "float", t.psi_hat),
            ("ratio", "float?", t.beta_hat), ("relevant", "bool", result.selected),
        ]
        sections[each.value] = {
            "interval": _interval_json(result.interval),
            "specs": SpecRows(model.k_z, t.spec_ids, ("spec_id", "label"), columns),
            "frontier": [] if result.interval is None
            else FrontierRows(fas_frontier(result, frontier_grid)),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "oracle",
        "model_path": model_path,
        "k_z": model.k_z,
        "beta": float(model.beta),
        "grid_points": frontier_grid,
        "modes": sections,
    }


def simulate_report(
    model: PopulationModel,
    n: int,
    seed: int,
    *,
    mode: str = "all",
    cutoff: float = DEFAULT_CUTOFF,
    replications: int = 1,
    rho_uv: float = 0.5,
    error_law: ErrorLaw = ErrorLaw.GAUSSIAN,
    csv_path: str | None = None,
) -> dict:
    """Draw data, estimate the requested FAS modes, and summarize against population.

    Draws are swept in chunks of at most :data:`_CHUNK_ELEMENTS` sample
    values (or one draw) by :func:`faskit.fas._fas_by_draw`, which gives
    each the intervals of ``fas_by_mode`` on it alone. ``replications`` below
    1, or a ``csv_path`` that names a directory or whose directory does not
    exist, fails before any population work or draw."""
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    _check_cutoff(cutoff)
    if csv_path is not None:
        if os.path.isdir(csv_path):
            raise IsADirectoryError(f"cannot write the CSV to {csv_path}: it is a directory")
        folder = os.path.dirname(csv_path) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"cannot write the CSV to {csv_path}: no directory {folder}")
    modes = _modes(mode)
    population = {
        each.value: _interval_json(result.interval)
        for each, result in population_fas_by_mode(model, modes).items()
    }
    # each config checks n, rho_uv and its seed before the model's setup runs
    seeds = [seed] if replications == 1 else [derive_seed(seed, r) for r in range(replications)]
    configs = [SimulationConfig(model, n, each, error_law, rho_uv) for each in seeds]
    setup = _model_setup(model)
    endpoint_samples: dict[str, list[tuple[float, float] | None]] = {
        each.value: [] for each in modes
    }
    per_chunk = max(1, _CHUNK_ELEMENTS // (n * (model.k_z + 2)))
    for first in range(0, replications, per_chunk):
        draws = []
        for config in configs[first : first + per_chunk]:
            draws.append(simulate(config, setup))
            if csv_path is not None and config is configs[0]:
                write_csv(draws[-1], csv_path)
            draws[-1] = partial_out(draws[-1], in_place=True)  # no other reference holds it
        for results in _fas_by_draw(draws, modes, cutoff):
            for each, result in results.items():
                endpoint_samples[each.value].append(result.interval)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "n": int(n),
        "seed": int(seed),
        "replications": int(replications),
        "error_law": error_law.value,
        "rho_uv": float(rho_uv),
        "cutoff": float(cutoff),
        "population": population,
        "csv_path": csv_path,
    }
    if replications == 1:
        report["estimates"] = {
            name: _interval_json(samples[0]) for name, samples in endpoint_samples.items()
        }
    else:
        summary = {}
        for name, samples in endpoint_samples.items():
            kept = [s for s in samples if s is not None]
            if kept:
                lo = np.array([s[0] for s in kept])
                hi = np.array([s[1] for s in kept])
                summary[name] = {
                    "n_nonempty": len(kept),
                    "lo_mean": float(lo.mean()),
                    "lo_sd": float(lo.std(ddof=1)) if len(kept) > 1 else 0.0,
                    "hi_mean": float(hi.mean()),
                    "hi_sd": float(hi.std(ddof=1)) if len(kept) > 1 else 0.0,
                }
            else:
                summary[name] = {"n_nonempty": 0}
        report["replication_summary"] = summary
    return report


# ---------------------------------------------------------------------------
# text rendering

def _fmt(value, width: int = 0) -> str:
    if value is None:
        text = "."
    elif isinstance(value, bool):
        text = "yes" if value else "no"
    elif isinstance(value, float):
        text = f"{value:.4g}"
    else:
        text = str(value)
    return text.rjust(width) if width else text


def _fmt_interval(interval) -> str:
    if interval is None:
        return "(empty: no relevant specification)"
    lo, hi = interval
    if lo == hi:
        return f"{_fmt(float(lo))} (point)"
    return f"[{_fmt(float(lo))}, {_fmt(float(hi))}]"


def _table(header: list[str], rows) -> Iterator[str]:
    """The lines of a table with left-aligned columns, right-stripped.

    ``rows`` is a function that returns an iterable of the rows' cells. It
    is called twice, for the column widths and then for the lines, so no
    row's cells are held beyond its line."""
    widths = [len(h) for h in header]
    for row in rows():
        widths = list(map(max, widths, map(len, row)))
    yield "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()
    for row in rows():
        yield "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()


_FAS_TITLES = {"excl": "FAS_excl", "exo": "FAS_exo", "general": "FAS"}


def _text(lines: Iterator[str]) -> str:
    return "\n".join(lines) + "\n"


def render_estimate_text(report: dict) -> str:
    return _text(_estimate_lines(report))


def _estimate_lines(report: dict) -> Iterator[str]:
    yield f"data: {report['provenance']} (n={report['n']}, dropped={report['dropped_rows']})"
    yield "instruments: " + ", ".join(
        f"Z{i + 1}={name}" for i, name in enumerate(report["instruments"])
    )
    if report["controls"]:
        yield "controls: " + ", ".join(report["controls"])
    yield (
        f"intercept: {'yes' if report['intercept'] else 'no'}   "
        f"robust: {report['robust']}   cutoff: {_fmt(report['cutoff'])}"
    )
    yield ""

    t = report["tsls"]
    if "failure" in t:
        yield f"2SLS (all instruments): not computed ({t['failure']})"
    else:
        j_text = f"J={_fmt(t['j_stat'])}"
        if t["j_pvalue"] is not None:
            j_text += f" (p={_fmt(t['j_pvalue'])}, dof={t['j_dof']})"
        else:
            j_text += " (just identified)"
        yield (
            f"2SLS (all instruments): beta={_fmt(t['beta_2sls'])}  se={_fmt(t['se'])}  "
            f"F={_fmt(t['first_stage_f'])}  {j_text}"
        )
        yield "weights: " + "  ".join(
            f"{w['instrument']}={_fmt(w['weight'])}" for w in t["weights"]
        )
    yield ""

    def spec_cells():
        for s in report["specs"]:
            yield [
                str(s["spec_id"]), s["label"], *(_fmt(s[key]) for key in _ESTIMATES),
                _fmt(s["f_stat"]), s["status"],
            ]

    yield from _table(["id", "spec", "beta", "se", "pi", "psi", "F", "status"], spec_cells)
    yield ""
    for name in ("excl", "exo", "general"):
        if name in report["fas"]:
            section = report["fas"][name]
            yield (
                f"{_FAS_TITLES[name]}: {_fmt_interval(section['interval'])} "
                f"({section['n_selected']} of {section['n_specs']} specs selected)"
            )
    if "pairwise" in report:
        yield ""
        yield "pairwise 2SLS:"
        rows = [
            ["{" + row["labels"][0] + ", " + row["labels"][1] + "}"]
            + [_fmt(row.get(key)) for key in ("beta_2sls", "se", "first_stage_f", "j_stat", "j_pvalue")]
            + ([f"not computed ({row['failure']})"] if "failure" in row else [""])
            for row in report["pairwise"]
        ]
        yield from _table(["pair", "beta", "se", "F", "J", "p", ""], lambda: rows)


def render_oracle_text(report: dict) -> str:
    return _text(_oracle_lines(report))


def _oracle_lines(report: dict) -> Iterator[str]:
    yield f"model: {report['model_path']} (k_z={report['k_z']}, beta={_fmt(report['beta'])})"
    for name, section in report["modes"].items():
        yield ""
        yield f"{_FAS_TITLES[name]}: {_fmt_interval(section['interval'])}"

        def spec_cells(specs=section["specs"]):
            for s in specs:
                yield [
                    s["label"], _fmt(s["pi"]), _fmt(s["psi"]), _fmt(s["ratio"]),
                    "yes" if s["relevant"] else "no",
                ]

        yield from _table(["spec", "pi", "psi", "ratio", "relevant"], spec_cells)
        points = section["frontier"]
        if isinstance(points, FrontierRows):
            # read two columns, so that no delta is formed
            b, on = points.frontier.b.tolist(), points.frontier.on_frontier.tolist()
        else:
            b, on = [p["b"] for p in points], [p["on_frontier"] for p in points]
        if b:
            yield (
                f"frontier: {len(b)} grid points on [{_fmt(b[0])}, {_fmt(b[-1])}]"
                + (f", {sum(on)} on the frontier" if any(on) else "")
            )


def render_simulate_text(report: dict) -> str:
    return _text(_simulate_lines(report))


def _simulate_lines(report: dict) -> Iterator[str]:
    yield (
        f"simulated n={report['n']} seed={report['seed']} "
        f"law={report['error_law']} replications={report['replications']}"
    )
    if report.get("csv_path"):
        yield f"wrote: {report['csv_path']}"
    yield ""
    if "estimates" in report:
        rows = [
            [
                _FAS_TITLES[name],
                _fmt_interval(report["population"][name]),
                _fmt_interval(report["estimates"][name]),
            ]
            for name in report["population"]
        ]
        yield from _table(["mode", "population", "estimated"], lambda: rows)
    else:
        rows = []
        for name in report["population"]:
            s = report["replication_summary"][name]
            if s.get("n_nonempty"):
                rows.append(
                    [
                        _FAS_TITLES[name],
                        _fmt_interval(report["population"][name]),
                        f"[{_fmt(s['lo_mean'])} (sd {_fmt(s['lo_sd'])}), "
                        f"{_fmt(s['hi_mean'])} (sd {_fmt(s['hi_sd'])})]",
                        str(s["n_nonempty"]),
                    ]
                )
            else:
                rows.append([_FAS_TITLES[name], _fmt_interval(report["population"][name]), "(all empty)", "0"])
        yield from _table(["mode", "population", "estimated mean (sd)", "nonempty"], lambda: rows)


# Characters per write to stdout: pieces of a report are joined up to this
# size, and a larger piece is written alone. A write per piece costs more:
# click's stdout stream is line-buffered, so each piece would be a system call.
_BLOCK = 1 << 16


def _emit(report: dict, emit: str, lines) -> None:
    """Write the report to stdout as ``json.dumps(report, indent=2)`` plus a
    newline, or as the text whose lines ``lines(report)`` yields, in blocks
    of about ``_BLOCK`` characters.

    JSON blocks go straight to click's text stdout stream, flushed once at
    the end: json escapes the ESC character that starts an ANSI sequence,
    so the stripping and the flush that ``click.echo`` does per call would
    change nothing. Text blocks hold whole lines and go through
    ``click.echo``, whose stripping of ANSI sequences then acts as on the
    whole text. The generator is closed on any way out, which stops the
    float-formatting worker the JSON writer may have started."""
    stdout = click.get_text_stream("stdout")
    if emit == "json":
        pieces, write, end = indented_chunks(report), stdout.write, "\n"
    else:
        pieces = (line + "\n" for line in lines(report))
        write, end = functools.partial(click.echo, nl=False), ""
    pending: list[str] = []
    size = 0
    try:
        for piece in pieces:
            if size + len(piece) > _BLOCK:
                write("".join(pending))
                pending, size = [], 0
            pending.append(piece)
            size += len(piece)
        pending.append(end)
        write("".join(pending))
        stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``): stop, and end with
        # exit code 0 and nothing on stderr. Left to click, the error would
        # exit with code 1. The bytes of the failed write stay in stdout's
        # buffer, so point stdout at /dev/null, or the flush at exit fails
        # again and prints a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        pieces.close()


# ---------------------------------------------------------------------------
# commands

@click.group()
def main() -> None:
    """Falsification adaptive sets for linear IV models."""


_cutoff_option = click.option(
    "--cutoff", type=float, default=DEFAULT_CUTOFF, show_default=True,
    help="First-stage F relevance cutoff.",
)


def _common_options(command):
    command = click.option(
        "--mode", type=click.Choice(_MODE_CHOICES), default="all", show_default=True,
        help="Which FAS to report.",
    )(command)
    command = click.option(
        "--emit", type=click.Choice(["text", "json"]), default="text", show_default=True,
        help="Output format.",
    )(command)
    return command


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path(), help="CSV file.")
@click.option("--outcome", required=True, help="Outcome column.")
@click.option("--treatment", required=True, help="Treatment column.")
@click.option("--instruments", required=True, help="Comma-separated instrument columns.")
@click.option("--controls", default="", help="Comma-separated control columns.")
@click.option("--no-intercept", is_flag=True, help="Drop the intercept.")
@click.option(
    "--robust", type=click.Choice(["hc0", "hc1"]), default="hc1", show_default=True,
    help="Sandwich covariance flavor.",
)
@click.option("--pairwise", is_flag=True, help="Add the pairwise 2SLS/J table.")
@_cutoff_option
@_common_options
def estimate(
    data_path, outcome, treatment, instruments, controls, no_intercept,
    robust, pairwise, cutoff, mode, emit,
):
    """Estimate falsification adaptive sets from a CSV file."""
    _check_cutoff(cutoff)
    instrument_names = [s.strip() for s in instruments.split(",") if s.strip()]
    if pairwise and len(instrument_names) < 2:
        raise DimensionMismatchError("pairwise report needs at least two instruments")
    control_names = [s.strip() for s in controls.split(",") if s.strip()]
    dataset, dropped = load_csv(
        data_path, outcome, treatment, instrument_names,
        control_names, intercept=not no_intercept,
    )
    report = run(
        dataset, mode=mode, cutoff=cutoff, robust_flavor=robust, pairwise=pairwise,
        dropped_rows=dropped, in_place=True,
    )
    _emit(report, emit, _estimate_lines)


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(), help="Model file.")
@click.option("--grid", type=int, default=201, show_default=True, help="Frontier grid points.")
@_common_options
def oracle(model_path, grid, mode, emit):
    """Population FAS and falsification frontier of a model file."""
    model, _ = load_model(model_path)
    report = oracle_report(model, mode=mode, frontier_grid=grid, model_path=model_path)
    _emit(report, emit, _oracle_lines)


@main.command("simulate")
@click.option("--model", "model_path", required=True, type=click.Path(), help="Model file.")
@click.option("--n", type=int, required=True, help="Sample size.")
@click.option("--seed", type=click.IntRange(min=0), required=True, help="RNG seed.")
@click.option("--out", "out_path", type=click.Path(), default=None, help="Write the draw as CSV.")
@click.option(
    "--reps", type=click.IntRange(min=1), default=1, show_default=True,
    help="Replications to summarize.",
)
@click.option(
    "--law", type=click.Choice([law.value for law in ErrorLaw]),
    default=ErrorLaw.GAUSSIAN.value, show_default=True, help="Error shock law.",
)
@_cutoff_option
@_common_options
def simulate_command(model_path, n, seed, out_path, reps, law, cutoff, mode, emit):
    """Draw synthetic data from a model file; summarize FAS estimates."""
    model, extras = load_model(model_path)
    report = simulate_report(
        model, n, seed,
        mode=mode,
        cutoff=cutoff,
        replications=reps,
        rho_uv=extras.get("rho_uv", 0.5),
        error_law=ErrorLaw(law),
        csv_path=out_path,
    )
    _emit(report, emit, _simulate_lines)


def entry() -> None:
    """Console entry point with one-line diagnostics and exit code 1 on error."""
    try:
        main(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(1)
    except (FaskitError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    entry()
