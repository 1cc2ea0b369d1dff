"""Output checks: faskit's reports against the numpy reference in
``reference.py`` and against properties the method must have.

Each check returns a list of failure messages; an empty list means the op
passed. Tolerances are stated once here and in README.md.
"""

from __future__ import annotations

import numpy as np

import reference

# faskit's default relevance cutoff, which every op uses. Reports are judged
# against this value, not against the cutoff they echo.
CUTOFF = 10.0
# Relative tolerance for sample quantities (beta, pi, psi, se, F) and 2SLS.
RTOL = 1e-8
# Absolute floor, for quantities whose true value is near zero.
ATOL = 1e-11
# Relative tolerance for population quantities (a few small solves each).
POP_RTOL = 1e-9
# A spec whose reference F lies within this share of the cutoff may take
# either status.
CUTOFF_BAND = 1e-6
# beta * pi = psi and "the 2SLS weights sum to one", relative.
IDENTITY_RTOL = 1e-10
# J p-values, relative: a relative error e in J moves the p-value by about
# e * J / 2 relative, and J reaches the thousands.
PVALUE_RTOL = 1e-4


def close(a, b, rtol=RTOL, atol=ATOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b)) + atol))


def ambiguous(f_ref: float) -> bool:
    return abs(f_ref - CUTOFF) <= CUTOFF_BAND * CUTOFF


def nested(inner, outer, slack: float = 0.0) -> bool:
    """inner ⊆ outer for [lo, hi] intervals; an empty inner is nested."""
    if inner is None:
        return True
    if outer is None:
        return False
    return outer[0] - slack <= inner[0] and inner[1] <= outer[1] + slack


def _key(row: dict) -> tuple:
    return (row["instrument_index"], tuple(row["control_subset"]))


def _in_mode(key: tuple, k: int, mode: str) -> bool:
    return bool(reference.mode_keys(k, mode, [key]))


def check_estimate(report: dict, table: dict, k: int, tsls_ref=None, pairwise_ref=None) -> list[str]:
    """An ``estimate --emit json`` report against the reference spec table.

    ``tsls_ref``/``pairwise_ref`` are reference 2SLS results; when None only
    the weights-sum-to-one property of the 2SLS block is checked.
    """
    if report["cutoff"] != CUTOFF:
        return [f"cutoff {report['cutoff']}, expected faskit's default {CUTOFF}"]
    errors = []
    rows = report["specs"]
    keys = [_key(row) for row in rows]
    if sorted(keys) != sorted(table):
        return [f"spec set differs: {len(rows)} rows, {len(table)} expected"]

    for key, row in zip(keys, rows):
        ref = table[key]
        label = row["label"]
        if "failure" in ref:
            if row["status"] != ref["failure"]:
                errors.append(f"{label}: status {row['status']}, expected {ref['failure']}")
            continue
        for field, ref_field in (("beta_hat", "beta"), ("pi_hat", "pi"), ("psi_hat", "psi"), ("se", "se"), ("f_stat", "F")):
            if row[field] is None or not close(row[field], ref[ref_field]):
                errors.append(f"{label}: {field}={row[field]} vs reference {ref[ref_field]}")
        if row["beta_hat"] is not None and row["pi_hat"] is not None:
            lhs = row["beta_hat"] * row["pi_hat"]
            if not close(lhs, row["psi_hat"], IDENTITY_RTOL, 0.0):
                errors.append(f"{label}: beta*pi={lhs} != psi={row['psi_hat']}")
        if (row["status"] == "selected") != (row["f_stat"] >= CUTOFF):
            errors.append(f"{label}: status {row['status']} with F={row['f_stat']}")
        if not ambiguous(ref["F"]) and (row["status"] == "selected") != (ref["F"] >= CUTOFF):
            errors.append(f"{label}: status {row['status']}, reference F={ref['F']}")

    intervals = {}
    for mode, section in report["fas"].items():
        family = [(key, row) for key, row in zip(keys, rows) if _in_mode(key, k, mode)]
        selected = [row for _, row in family if row["status"] == "selected"]
        if sorted(section["selected"]) != sorted(row["spec_id"] for row in selected):
            errors.append(f"FAS {mode}: selected ids disagree with the spec table")
        if section["n_specs"] != len(family) or section["n_selected"] != len(selected):
            errors.append(f"FAS {mode}: counts {section['n_selected']}/{section['n_specs']}")
        betas = [row["beta_hat"] for row in selected]
        expected = [min(betas), max(betas)] if betas else None
        if section["interval"] != expected:
            errors.append(f"FAS {mode}: interval {section['interval']} != [min, max] {expected}")
        intervals[mode] = section["interval"]
    errors += _nesting(intervals, "FAS")

    weights = sum(w["weight"] for w in report["tsls"]["weights"])
    if not close(weights, 1.0, IDENTITY_RTOL, 0.0):
        errors.append(f"2SLS weights sum to {weights}")
    if tsls_ref is not None:
        errors += _check_tsls("2SLS", report["tsls"], tsls_ref)
        got_weights = [w["weight"] for w in report["tsls"]["weights"]]
        if not close(got_weights, tsls_ref["weights"]):
            errors.append(f"2SLS weights {got_weights} vs reference {list(tsls_ref['weights'])}")
    if pairwise_ref is not None:
        got = {(tuple(row["pair"]), row["variant"]): row for row in report.get("pairwise", [])}
        if sorted(got) != sorted(pairwise_ref):
            errors.append(f"pairwise rows {sorted(got)} != {sorted(pairwise_ref)}")
        else:
            for key, ref in pairwise_ref.items():
                errors += _check_tsls(f"pairwise {key}", got[key], ref)
    return errors


def _check_tsls(name: str, got: dict, ref: dict) -> list[str]:
    errors = []
    if not close(got["beta_2sls"], ref["beta"]):
        errors.append(f"{name}: beta {got['beta_2sls']} vs reference {ref['beta']}")
    if not close(got["j_stat"], ref["J"], RTOL, RTOL):
        errors.append(f"{name}: J {got['j_stat']} vs reference {ref['J']}")
    if got["j_dof"] != ref["dof"]:
        errors.append(f"{name}: J dof {got['j_dof']} vs {ref['dof']}")
    if ref["p"] is not None and (got["j_pvalue"] is None or not close(got["j_pvalue"], ref["p"], PVALUE_RTOL, 1e-300)):
        errors.append(f"{name}: J p-value {got['j_pvalue']} vs reference {ref['p']}")
    return errors


def _nesting(intervals: dict, what: str, slack: float = 0.0) -> list[str]:
    general = intervals.get("general")
    return [
        f"{what}: {mode} {intervals[mode]} not inside general {general}"
        for mode in ("excl", "exo")
        if mode in intervals and "general" in intervals and not nested(intervals[mode], general, slack)
    ]


def check_oracle(report: dict, model: dict, moments: dict, grid: int) -> list[str]:
    """An ``oracle --emit json`` report against reference population moments;
    ``grid`` is the ``--grid`` the op passed."""
    errors = []
    k = report["k_z"]
    expected = reference.population_intervals(moments, k)
    if sorted(report["modes"]) != sorted(expected):
        return [f"modes {sorted(report['modes'])}, expected {sorted(expected)}"]
    intervals = {}
    for mode, section in report["modes"].items():
        before = len(errors)
        ref = expected[mode]
        by_key = {key: pos for pos, key in enumerate(ref["keys"])}
        rows = section["specs"]
        if len(rows) != len(ref["keys"]):
            errors.append(f"{mode}: {len(rows)} specs, expected {len(ref['keys'])}")
            continue
        pos = []
        for row in rows:
            label = row["label"]
            ell, _, rest = label[1:].partition("|")
            key = (int(ell), tuple(int(c) for c in rest.split(",")) if rest else ())
            if key not in by_key:
                errors.append(f"{mode}: unexpected spec {label}")
                continue
            pos.append(by_key[key])
            j = by_key[key]
            if not close([row["pi"], row["psi"]], [ref["pi"][j], ref["psi"][j]], POP_RTOL, 1e-14):
                errors.append(f"{mode} {label}: (pi, psi)=({row['pi']}, {row['psi']}) vs ({ref['pi'][j]}, {ref['psi'][j]})")
            if row["relevant"] != bool(ref["relevant"][j]):
                errors.append(f"{mode} {label}: relevant={row['relevant']}")
            elif row["relevant"] and row["ratio"] != row["psi"] / row["pi"]:
                errors.append(f"{mode} {label}: ratio {row['ratio']} != psi/pi")
        if len(errors) > before:
            continue
        ratios = [row["ratio"] for row in rows if row["relevant"]]
        interval = section["interval"]
        if interval != ([min(ratios), max(ratios)] if ratios else None):
            errors.append(f"{mode}: interval {interval} != [min, max] of relevant ratios")
        elif interval is not None and not close(interval, ref["interval"], POP_RTOL, 1e-14):
            errors.append(f"{mode}: interval {interval} vs reference {ref['interval']}")
        intervals[mode] = interval
        errors += _check_frontier(mode, section["frontier"], grid, ref["pi"][pos], ref["psi"][pos], ref["relevant"][pos])
    errors += _nesting(intervals, "population FAS")
    has_valid = np.any((model["gamma"] == 0.0) & (model["alpha"] == 0.0))
    disjoint = np.all(model["gamma"] * model["alpha"] == 0.0)
    if has_valid and disjoint and not nested([model["beta"]] * 2, intervals.get("general"), 1e-9):
        errors.append(f"general population FAS {intervals.get('general')} misses beta={model['beta']}")
    return errors


def _check_frontier(mode: str, points: list[dict], grid: int, pi: np.ndarray, psi: np.ndarray, relevant: np.ndarray) -> list[str]:
    errors = []
    b = np.array([p["b"] for p in points])
    ratios = psi[relevant] / pi[relevant]
    span = (ratios.min(), ratios.max())
    slack = POP_RTOL * max(1.0, abs(span[0]), abs(span[1]))
    # an even grid of `grid` points from the smallest to the largest relevant
    # ratio; a degenerate span gives a single point
    grids = [np.linspace(span[0], span[1], grid)]
    if span[1] - span[0] <= slack:
        grids.append(np.array([span[0]]))
    if not any(b.shape == g.shape and np.all(np.abs(b - g) <= slack) for g in grids):
        return [f"{mode}: frontier has {len(b)} points, not {grid} evenly spaced over [{span[0]}, {span[1]}]"]
    delta = np.array([p["delta"] for p in points])
    expected = np.abs(psi[None, :] - b[:, None] * pi[None, :])
    scale = np.abs(psi)[None, :] + np.abs(b[:, None] * pi[None, :])
    if delta.shape != expected.shape or np.any(np.abs(delta - expected) > POP_RTOL * scale + 1e-14):
        errors.append(f"{mode}: frontier delta differs from |psi - b pi|")
    inside = (b >= span[0] - slack) & (b <= span[1] + slack)
    if [p["on_frontier"] for p in points] != inside.tolist():
        errors.append(f"{mode}: on_frontier flags disagree with the span of the ratios")
    for p in points:
        if not p["on_frontier"]:
            continue
        got = p["interval"]
        tol = POP_RTOL * max(1.0, abs(p["b"]))
        if got is None or abs(got[0] - p["b"]) > tol or abs(got[1] - p["b"]) > tol:
            errors.append(f"{mode}: identified set at b={p['b']} is {got}, not {{b}}")
            break
    return errors


def check_population_section(population: dict, moments: dict, k: int) -> list[str]:
    """The ``population`` block of a simulate report."""
    expected = reference.population_intervals(moments, k)
    errors = []
    for mode, interval in population.items():
        ref = expected[mode]["interval"]
        if (interval is None) != (ref is None) or (interval is not None and not close(interval, ref, POP_RTOL, 1e-14)):
            errors.append(f"population {mode}: {interval} vs reference {ref}")
    return errors + _nesting(population, "population FAS")


def reference_draw_intervals(table: dict, k: int):
    """Per-mode intervals of one draw, or None for a mode whose selection is
    ambiguous (a reference F within the cutoff band)."""
    intervals = reference.sample_intervals(table, k, CUTOFF)
    for mode in intervals:
        if any(
            "failure" not in table[key] and ambiguous(table[key]["F"])
            for key in reference.mode_keys(k, mode, table)
        ):
            intervals[mode] = "ambiguous"
    return intervals


def check_simulate_estimates(estimates: dict, expected: dict) -> list[str]:
    """The one-draw ``estimates`` block against reference intervals."""
    errors = []
    for mode, interval in estimates.items():
        ref = expected[mode]
        if ref == "ambiguous":
            continue
        if (interval is None) != (ref is None) or (interval is not None and not close(interval, ref)):
            errors.append(f"estimated {mode}: {interval} vs reference {ref}")
    return errors + _nesting(estimates, "estimated FAS")


def check_summary(summary: dict, draws: list[dict]) -> list[str]:
    """A Monte Carlo ``replication_summary`` against reference per-draw
    intervals; also checks nesting per draw and in the means."""
    errors = []
    for i, intervals in enumerate(draws):
        plain = {m: v for m, v in intervals.items() if v != "ambiguous"}
        for message in _nesting(plain, f"draw {i}"):
            errors.append(message)
    for mode, stats in summary.items():
        if any(d[mode] == "ambiguous" for d in draws):
            continue
        kept = [d[mode] for d in draws if d[mode] is not None]
        if stats["n_nonempty"] != len(kept):
            errors.append(f"{mode}: n_nonempty {stats['n_nonempty']} vs {len(kept)}")
            continue
        if not kept:
            continue
        lo = np.array([iv[0] for iv in kept])
        hi = np.array([iv[1] for iv in kept])
        ref = {
            "lo_mean": lo.mean(),
            "hi_mean": hi.mean(),
            "lo_sd": lo.std(ddof=1) if len(kept) > 1 else 0.0,
            "hi_sd": hi.std(ddof=1) if len(kept) > 1 else 0.0,
        }
        for field, value in ref.items():
            if not close(stats[field], value, RTOL, 1e-10):
                errors.append(f"{mode}: {field} {stats[field]} vs reference {value}")
    full = {m: s for m, s in summary.items() if s["n_nonempty"] == len(draws)}
    means = {m: [s["lo_mean"], s["hi_mean"]] for m, s in full.items()}
    return errors + _nesting(means, "Monte Carlo means", 1e-12)
