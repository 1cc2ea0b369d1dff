"""Command line interface and report construction.

Three subcommands: ``estimate`` (CSV in, FAS report out), ``oracle``
(population model in, population FAS and falsification frontier out), and
``simulate`` (model in, synthetic CSV and/or Monte Carlo summary out).
Reports are built once as plain dictionaries; the text and JSON emitters
render the same in-memory numbers.
"""

from __future__ import annotations

import math
import os
import sys

import click
import numpy as np

from .data import Dataset, load_csv, write_csv
from .dgp import ErrorLaw, SimulationConfig, derive_seed, simulate
from .errors import FaskitError, ParseError
from .estimators import TSLS_FAILURES, tsls, tsls_pairwise_report
from .fas import (
    DEFAULT_CUTOFF,
    FasResult,
    Mode,
    PopulationModel,
    fas_by_mode,
    fas_frontier,
    population_fas_by_mode,
)
from .jsontext import indented_chunks
from .linalg import partial_out

SCHEMA_VERSION = 1

_MODE_CHOICES = ("excl", "exo", "general", "all")


def _modes(mode: str) -> list[Mode]:
    """The FAS modes to report: all three for ``"all"``."""
    return list(Mode) if mode == "all" else [Mode(mode)]


# ---------------------------------------------------------------------------
# population model files

_MODEL_KEYS = {"beta", "pi", "gamma", "alpha", "sigma_z", "var_u", "var_v", "rho_uv"}


def _parse_vector(text: str, key: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError:
        raise ParseError(f"model key '{key}': cannot parse vector {text!r}") from None


def load_model(path: str) -> tuple[PopulationModel, dict]:
    """Read a population model from a flat key-value file.

    Lines are ``key = value`` with ``#`` comments. Vectors are comma lists;
    ``sigma_z`` rows are separated by semicolons. ``beta`` and ``pi`` are
    required; ``gamma`` and ``alpha`` default to zero vectors, ``sigma_z``
    to the identity, ``var_u`` and ``var_v`` to 1.

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


def _nullable(column: np.ndarray) -> list:
    """A float column as a list, with NaN (no estimate) as None."""
    return [None if math.isnan(v) else v for v in column.tolist()]


_ESTIMATES = ("beta_hat", "se", "pi_hat", "psi_hat")


def _spec_rows(result: FasResult) -> dict[int, dict]:
    """The report row of each spec in the result's table, by spec_id."""
    t = result.table
    numbers = zip(*(_nullable(getattr(t, c)) for c in _ESTIMATES), t.f_stat.tolist())
    return {
        spec.spec_id: {
            "spec_id": spec.spec_id,
            "label": spec.label,
            "instrument_index": spec.instrument_index,
            "control_subset": list(spec.control_subset),
            **dict(zip(_ESTIMATES + ("f_stat",), values)),
            "status": status,
        }
        for spec, values, status in zip(t.specs, numbers, result.status.tolist())
    }


def _fas_section(result: FasResult) -> dict:
    selected = [spec.spec_id for spec, keep in zip(result.table.specs, result.selected) if keep]
    return {
        "interval": _interval_json(result.interval),
        "selected": selected,
        "n_selected": len(selected),
        "n_specs": len(result.table.specs),
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
) -> dict:
    """Estimate the requested FAS mode(s) and build the full report dict.

    The report carries the full-instrument 2SLS fit with its weight
    decomposition and overidentification test, the per-spec table with
    selection status, and one interval per requested mode. A 2SLS fit that
    fails (rank-deficient instruments, a first stage orthogonal to them, too
    few rows) is recorded as its failure code, and the rest of the report
    stands. Everything in it is JSON-serializable.
    """
    partialled = partial_out(dataset)
    results = fas_by_mode(partialled, _modes(mode), cutoff, robust_flavor)
    spec_rows = {}
    for result in results.values():
        spec_rows.update(_spec_rows(result))

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
        "specs": [spec_rows[spec_id] for spec_id in sorted(spec_rows)],
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

    Each frontier point's ``"delta"`` is a float64 row view of its mode's
    (grid x specs) delta matrix, not a list, so that no Python float is made
    for a delta that is never written (the text report prints none). The
    report serializes through :mod:`faskit.jsontext`, which writes an array
    as its ``tolist()``; plain ``json.dumps`` needs the rows as ``.tolist()``.
    """
    if frontier_grid < 2:
        raise ValueError(f"frontier grid needs at least 2 points, got {frontier_grid}")
    sections: dict[str, dict] = {}
    for each, result in population_fas_by_mode(model, _modes(mode)).items():
        points = [] if result.interval is None else fas_frontier(result, frontier_grid)
        t = result.table
        columns = zip(
            t.specs, t.pi_hat.tolist(), t.psi_hat.tolist(), _nullable(t.beta_hat),
            result.selected.tolist(),
        )
        sections[each.value] = {
            "interval": _interval_json(result.interval),
            "specs": [
                {
                    "spec_id": spec.spec_id,
                    "label": spec.label,
                    "pi": pi,
                    "psi": psi,
                    "ratio": ratio,
                    "relevant": relevant,
                }
                for spec, pi, psi, ratio, relevant in columns
            ],
            "frontier": [
                {
                    "b": float(p.b),
                    "delta": p.delta,
                    "interval": _interval_json(p.identified_set),
                    "on_frontier": bool(p.on_frontier),
                }
                for p in points
            ],
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
    """Draw data, estimate the requested FAS modes, and summarize against population."""
    modes = _modes(mode)
    population = {
        each.value: _interval_json(result.interval)
        for each, result in population_fas_by_mode(model, modes).items()
    }
    endpoint_samples: dict[str, list[tuple[float, float] | None]] = {
        each.value: [] for each in modes
    }
    first_dataset: Dataset | None = None
    for rep in range(replications):
        rep_seed = seed if replications == 1 else derive_seed(seed, rep)
        dataset = simulate(
            SimulationConfig(model=model, n=n, seed=rep_seed, error_law=error_law, rho_uv=rho_uv)
        )
        if first_dataset is None:
            first_dataset = dataset
        for each, result in fas_by_mode(dataset, modes, cutoff).items():
            endpoint_samples[each.value].append(result.interval)

    if csv_path is not None and first_dataset is not None:
        write_csv(first_dataset, csv_path)

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


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return lines


_FAS_TITLES = {"excl": "FAS_excl", "exo": "FAS_exo", "general": "FAS"}


def render_estimate_text(report: dict) -> str:
    lines = [
        f"data: {report['provenance']} "
        f"(n={report['n']}, dropped={report['dropped_rows']})",
        "instruments: "
        + ", ".join(
            f"Z{i + 1}={name}" for i, name in enumerate(report["instruments"])
        ),
    ]
    if report["controls"]:
        lines.append("controls: " + ", ".join(report["controls"]))
    lines.append(
        f"intercept: {'yes' if report['intercept'] else 'no'}   "
        f"robust: {report['robust']}   cutoff: {_fmt(report['cutoff'])}"
    )
    lines.append("")

    t = report["tsls"]
    if "failure" in t:
        lines.append(f"2SLS (all instruments): not computed ({t['failure']})")
    else:
        j_text = f"J={_fmt(t['j_stat'])}"
        if t["j_pvalue"] is not None:
            j_text += f" (p={_fmt(t['j_pvalue'])}, dof={t['j_dof']})"
        else:
            j_text += " (just identified)"
        lines.append(
            f"2SLS (all instruments): beta={_fmt(t['beta_2sls'])}  se={_fmt(t['se'])}  "
            f"F={_fmt(t['first_stage_f'])}  {j_text}"
        )
        lines.append(
            "weights: "
            + "  ".join(f"{w['instrument']}={_fmt(w['weight'])}" for w in t["weights"])
        )
    lines.append("")

    rows = [
        [
            str(s["spec_id"]),
            s["label"],
            _fmt(s["beta_hat"]),
            _fmt(s["se"]),
            _fmt(s["pi_hat"]),
            _fmt(s["psi_hat"]),
            _fmt(s["f_stat"]),
            s["status"],
        ]
        for s in report["specs"]
    ]
    lines += _table(
        ["id", "spec", "beta", "se", "pi", "psi", "F", "status"], rows
    )
    lines.append("")
    for name in ("excl", "exo", "general"):
        if name in report["fas"]:
            section = report["fas"][name]
            lines.append(
                f"{_FAS_TITLES[name]}: {_fmt_interval(section['interval'])} "
                f"({section['n_selected']} of {section['n_specs']} specs selected)"
            )
    if "pairwise" in report:
        lines.append("")
        lines.append("pairwise 2SLS:")
        rows = [
            ["{" + row["labels"][0] + ", " + row["labels"][1] + "}"]
            + [_fmt(row.get(key)) for key in ("beta_2sls", "se", "first_stage_f", "j_stat", "j_pvalue")]
            + ([f"not computed ({row['failure']})"] if "failure" in row else [""])
            for row in report["pairwise"]
        ]
        lines += _table(["pair", "beta", "se", "F", "J", "p", ""], rows)
    return "\n".join(lines) + "\n"


def render_oracle_text(report: dict) -> str:
    lines = [
        f"model: {report['model_path']} (k_z={report['k_z']}, beta={_fmt(report['beta'])})",
        "",
    ]
    for name, section in report["modes"].items():
        lines.append(f"{_FAS_TITLES[name]}: {_fmt_interval(section['interval'])}")
        rows = [
            [
                s["label"],
                _fmt(s["pi"]),
                _fmt(s["psi"]),
                _fmt(s["ratio"]),
                "yes" if s["relevant"] else "no",
            ]
            for s in section["specs"]
        ]
        lines += _table(["spec", "pi", "psi", "ratio", "relevant"], rows)
        points = section["frontier"]
        on = [p for p in points if p["on_frontier"]]
        if points:
            lines.append(
                f"frontier: {len(points)} grid points on "
                f"[{_fmt(points[0]['b'])}, {_fmt(points[-1]['b'])}]"
                + (f", {len(on)} on the frontier" if on else "")
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_simulate_text(report: dict) -> str:
    lines = [
        f"simulated n={report['n']} seed={report['seed']} "
        f"law={report['error_law']} replications={report['replications']}",
    ]
    if report.get("csv_path"):
        lines.append(f"wrote: {report['csv_path']}")
    lines.append("")
    if "estimates" in report:
        rows = [
            [
                _FAS_TITLES[name],
                _fmt_interval(report["population"][name]),
                _fmt_interval(report["estimates"][name]),
            ]
            for name in report["population"]
        ]
        lines += _table(["mode", "population", "estimated"], rows)
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
        lines += _table(["mode", "population", "estimated mean (sd)", "nonempty"], rows)
    return "\n".join(lines) + "\n"


# Characters per write to stdout: pieces of JSON are joined up to this size,
# and a larger piece is written alone. A write per piece costs more: click's
# stdout stream is line-buffered, so each piece would be a system call.
_BLOCK = 1 << 16


def _emit(report: dict, emit: str, renderer) -> None:
    """Write the report to stdout as text, or as ``json.dumps(report,
    indent=2)`` plus a newline, in blocks of about ``_BLOCK`` characters.

    JSON blocks go straight to click's text stdout stream, flushed once at
    the end: json escapes the ESC character that starts an ANSI sequence,
    so the stripping and the flush that ``click.echo`` does per call would
    change nothing. The writer's generator is closed on any way out, which stops
    the float-formatting worker it may have started."""
    if emit != "json":
        click.echo(renderer(report), nl=False)
        return
    stdout = click.get_text_stream("stdout")
    chunks = indented_chunks(report)
    pending: list[str] = []
    size = 0
    try:
        for chunk in chunks:
            if size + len(chunk) > _BLOCK:
                stdout.write("".join(pending))
                pending, size = [], 0
            pending.append(chunk)
            size += len(chunk)
        pending.append("\n")
        stdout.write("".join(pending))
        stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``): stop, and end with
        # exit code 0 and nothing on stderr. Left to click, the error would
        # exit with code 1. The bytes of the failed write stay in stdout's
        # buffer, so point stdout at /dev/null, or the flush at exit fails
        # again and prints a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        chunks.close()


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
    instrument_names = [s.strip() for s in instruments.split(",") if s.strip()]
    control_names = [s.strip() for s in controls.split(",") if s.strip()]
    dataset, dropped = load_csv(
        data_path, outcome, treatment, instrument_names,
        control_names, intercept=not no_intercept,
    )
    report = run(
        dataset, mode=mode, cutoff=cutoff, robust_flavor=robust, pairwise=pairwise,
        dropped_rows=dropped,
    )
    _emit(report, emit, render_estimate_text)


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(), help="Model file.")
@click.option("--grid", type=int, default=201, show_default=True, help="Frontier grid points.")
@_common_options
def oracle(model_path, grid, mode, emit):
    """Population FAS and falsification frontier of a model file."""
    model, _ = load_model(model_path)
    report = oracle_report(model, mode=mode, frontier_grid=grid, model_path=model_path)
    _emit(report, emit, render_oracle_text)


@main.command("simulate")
@click.option("--model", "model_path", required=True, type=click.Path(), help="Model file.")
@click.option("--n", type=int, required=True, help="Sample size.")
@click.option("--seed", type=int, required=True, help="RNG seed.")
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
    _emit(report, emit, render_simulate_text)


def entry() -> None:
    """Console entry point with one-line diagnostics and exit code 1 on error."""
    try:
        main(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(1)
    except (FaskitError, FileNotFoundError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    entry()
