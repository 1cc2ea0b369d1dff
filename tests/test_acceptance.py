"""Acceptance gate: one test per release criterion.

Each test prints as a single pass/fail line under ``pytest -v``. Stated
runtime budgets are asserted inside the tests that carry one. Criterion 7
reuses the corpus built (and timed) by criterion 3; running it alone
rebuilds the corpus outside any budget.
"""

import json
import time

import numpy as np
from click.testing import CliRunner

from conftest import example2_model, random_corr, random_model, spec_columns
from faskit import (
    Mode,
    PopulationModel,
    SimulationConfig,
    SpecTable,
    enumerate_specs,
    estimate_specs,
    fas_estimate,
    fas_from_estimates,
    frontier,
    identified_set,
    partial_out,
    population_fas,
    population_spec_moments,
    simulate,
    spec_count,
    tsls,
)
from faskit.cli import main

CUTOFF = 10.0


def test_criterion_1_example_frontier_exact(tmp_path):
    t0 = time.monotonic()
    model_path = tmp_path / "three_instruments.txt"
    model_path.write_text("beta = 1.0\npi = 1, 1, 1\ngamma = -1, 0, 2\n")

    res = CliRunner().invoke(
        main, ["oracle", "--model", str(model_path), "--mode", "excl", "--emit", "json"]
    )
    assert res.exit_code == 0
    report = json.loads(res.output)["modes"]["excl"]

    # population Excl interval is [0, 3] exactly
    assert report["interval"] == [0.0, 3.0]

    # every grid point sits on the frontier with identified set {b}
    points = report["frontier"]
    assert len(points) == 201
    for pt in points:
        b = pt["b"]
        assert pt["on_frontier"]
        lo, hi = pt["interval"]
        assert abs(lo - b) <= 1e-12 and abs(hi - b) <= 1e-12

    # named relaxation vectors, checked through the library since 0.5 and
    # 1.0 are not nodes of the 201-point grid
    model = PopulationModel(
        beta=1.0, gamma=np.array([-1.0, 0.0, 2.0]), alpha=np.zeros(3),
        pi=np.ones(3), sigma_z=np.eye(3),
    )
    excl_specs = [s for s in enumerate_specs(3) if len(s.control_subset) == 2]
    pi_t, psi_t = population_spec_moments(model, excl_specs)
    named = {0.0: (0.0, 1.0, 3.0), 0.5: (0.5, 0.5, 2.5),
             1.0: (1.0, 0.0, 2.0), 3.0: (3.0, 2.0, 0.0)}
    f = frontier(pi_t, psi_t, np.ones(3, dtype=bool), np.array(sorted(named)))
    assert f.on_frontier.all() and not f.empty.any()
    for b, delta, lo_f, hi_f in zip(f.b.tolist(), f.deltas(), f.lo, f.hi):
        want = np.array(named[b])
        assert np.max(np.abs(delta - want)) <= 1e-12
        lo, hi = identified_set(pi_t, psi_t, delta)
        assert abs(lo - b) <= 1e-12 and abs(hi - b) <= 1e-12
        assert abs(lo_f - b) <= 1e-12 and abs(hi_f - b) <= 1e-12

    assert time.monotonic() - t0 < 1.0


def test_criterion_2_spec_counts():
    t0 = time.monotonic()
    assert len(enumerate_specs(2)) == 4
    assert len(enumerate_specs(3)) == 12
    assert len(enumerate_specs(4)) == 32
    for k in range(1, 11):
        specs = enumerate_specs(k)
        assert len(specs) == k * 2 ** (k - 1) == spec_count(k)
        assert len({s.spec_id for s in specs}) == len(specs)
    assert time.monotonic() - t0 < 1.0


# criterion 3 builds this; criterion 7 reads it. Each entry holds the
# dataset's k_z, the full general-family table, and the dataset itself
# (needed for the k_z = 2 spanning-pair identity).
_CORPUS: list[dict] = []


def _build_corpus():
    model_rng = np.random.default_rng(20260822)
    for i in range(1000):
        k = 2 + i % 3
        model = random_model(model_rng, k)
        data = simulate(SimulationConfig(model=model, n=200, seed=3000 + i))
        part = partial_out(data)
        table = estimate_specs(part, enumerate_specs(k))
        _CORPUS.append({"k": k, "data": data, "table": table})


def test_criterion_3_algebraic_identities():
    t0 = time.monotonic()
    if not _CORPUS:
        _build_corpus()

    checked_ratio = 0
    for entry in _CORPUS:
        k, data, table = entry["k"], entry["data"], entry["table"]

        # (a) beta_hat * pi_hat = psi_hat on every non-degenerate spec
        ok = table.estimated
        lhs = table.beta_hat[ok] * table.pi_hat[ok]
        psi = table.psi_hat[ok]
        assert np.all(np.abs(lhs - psi) <= 1e-10 * np.maximum(1.0, np.abs(psi)))
        checked_ratio += int(ok.sum())

        # (b) 2SLS weights: sum to one, reconstruct from both families
        res = tsls(data)
        assert abs(float(np.sum(res.weights)) - 1.0) <= 1e-10
        controlled = {}
        marginal = {}
        for spec, beta in zip(table.specs, table.beta_hat):
            if len(spec.control_subset) == k - 1:
                controlled[spec.instrument_index] = beta
            elif not spec.control_subset:
                marginal[spec.instrument_index] = beta
        for family in (controlled, marginal):
            recon = sum(res.weights[l - 1] * family[l] for l in range(1, k + 1))
            assert abs(recon - res.beta_2sls) <= 1e-9 * max(1.0, abs(res.beta_2sls))

        # (c) k_z = 2: all six spanning pairs of transformed instruments
        # give one 2SLS estimate; same-index weight pairs coincide
        if k == 2:
            part = partial_out(data)
            specs = enumerate_specs(2)
            cols = dict(zip((s.label for s in specs), spec_columns(part, specs)[0].T))
            pairs = [("Z1", "Z2"), ("Z1|2", "Z2|1"), ("Z1|2", "Z1"),
                     ("Z1|2", "Z2"), ("Z2|1", "Z1"), ("Z2|1", "Z2")]
            fits = {
                p: tsls(part.with_arrays(
                    part.y, part.x, np.column_stack([cols[p[0]], cols[p[1]]]), z_names=p
                ))
                for p in pairs
            }
            betas = [f.beta_2sls for f in fits.values()]
            ref = betas[0]
            assert max(abs(b - ref) for b in betas) <= 1e-8 * max(1.0, abs(ref))
            w1 = fits[("Z1|2", "Z1")].weights
            w2 = fits[("Z2|1", "Z2")].weights
            assert np.max(np.abs(w1 - w2)) <= 1e-9

    assert checked_ratio > 10000
    assert time.monotonic() - t0 < 30.0


def test_criterion_4_two_instrument_dichotomy():
    t0 = time.monotonic()
    rng = np.random.default_rng(41)
    done = 0
    while done < 50:
        pi1, pi2 = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.3, 2.0, 2)
        # opposite sign to pi1*pi2 puts both invalid-spec deviations on the
        # same side of beta, the case where the Excl interval misses beta
        rho = -np.sign(pi1 * pi2) * rng.uniform(0.1, 0.9)
        alpha2 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
        if min(abs(pi1 + rho * pi2), abs(pi2 + rho * pi1)) < 0.05:
            continue
        beta = float(rng.uniform(-2.0, 2.0))
        model = example2_model(pi1, pi2, rho, alpha2, beta=beta)

        lo, hi = population_fas(model, Mode.EXCL).interval
        assert lo > beta + 1e-9 or hi < beta - 1e-9

        for mode in (Mode.EXO, Mode.GENERAL):
            lo, hi = population_fas(model, mode).interval
            assert lo <= beta + 1e-9 and hi >= beta - 1e-9
        done += 1
    assert time.monotonic() - t0 < 5.0


def _one_violation_model(rng):
    """Model where each instrument breaks at most one assumption and at
    least one is fully valid with both guarantee transforms relevant."""
    while True:
        k = int(rng.integers(2, 5))
        sigma = random_corr(rng, k)
        pi = rng.choice([-1.0, 1.0], k) * rng.uniform(0.3, 1.5, k)
        valid = int(rng.integers(k))
        gamma = np.zeros(k)
        alpha = np.zeros(k)
        for l in range(k):
            if l == valid:
                continue
            kind = rng.choice(["valid", "excl", "exo"])
            if kind == "excl":
                gamma[l] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.8)
            elif kind == "exo":
                alpha[l] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.4)
        var_u = float(alpha @ np.linalg.solve(sigma, alpha) + rng.uniform(0.5, 1.5))
        model = PopulationModel(
            beta=float(rng.uniform(-2.0, 2.0)), gamma=gamma, alpha=alpha,
            pi=pi, sigma_z=sigma, var_v=float(rng.uniform(0.5, 1.5)),
            var_u=var_u,
        )
        # the guarantee needs the valid instrument to stay relevant after
        # controlling the exclusion violators (exogeneity violators dropped),
        # and the spec's stated precondition is the fully-partialled version
        excl_violators = tuple(sorted(l + 1 for l in range(k) if gamma[l] != 0.0))
        others = tuple(sorted(l + 1 for l in range(k) if l != valid))
        by_key = {
            (s.instrument_index, s.control_subset): s for s in enumerate_specs(k)
        }
        probes = [by_key[(valid + 1, excl_violators)], by_key[(valid + 1, others)]]
        pi_t, _ = population_spec_moments(model, probes)
        if np.min(np.abs(pi_t)) >= 0.05:
            return model


def test_criterion_5_valid_instrument_keeps_beta_inside():
    t0 = time.monotonic()
    rng = np.random.default_rng(53)
    for _ in range(200):
        model = _one_violation_model(rng)
        result = population_fas(model, Mode.GENERAL)
        lo, hi = result.interval
        assert lo - 1e-9 <= model.beta <= hi + 1e-9
    assert time.monotonic() - t0 < 10.0


def test_criterion_6_endpoint_consistency():
    t0 = time.monotonic()
    corr2 = np.array([[1.0, 0.3], [0.3, 1.0]])
    models = [
        PopulationModel(beta=1.0, gamma=np.zeros(1), alpha=np.zeros(1),
                        pi=np.array([1.0]), sigma_z=np.eye(1)),
        PopulationModel(beta=1.0, gamma=np.array([0.0, 0.5]), alpha=np.zeros(2),
                        pi=np.array([1.0, 0.8]), sigma_z=corr2),
        PopulationModel(beta=1.0, gamma=np.zeros(2), alpha=np.array([0.0, 0.5]),
                        pi=np.array([1.0, 0.8]), sigma_z=corr2),
    ]
    reps = 100
    n = 50000
    for model in models:
        endpoints = {mode: [] for mode in Mode}
        for rep in range(reps):
            data = simulate(SimulationConfig(model=model, n=n, seed=900 + rep))
            for mode in Mode:
                interval = fas_estimate(data, mode=mode, cutoff=CUTOFF).interval
                assert interval is not None
                endpoints[mode].append(interval)
        for mode in Mode:
            drawn = np.asarray(endpoints[mode])
            pop = np.asarray(population_fas(model, mode).interval)
            mc_se = drawn.std(axis=0, ddof=1) / np.sqrt(reps)
            assert np.all(np.abs(drawn.mean(axis=0) - pop) <= 3.0 * mc_se)
    assert time.monotonic() - t0 < 300.0


def _family(table, mode, k):
    """The rows of ``table`` in the mode's family."""
    member = {
        Mode.EXCL: lambda spec: len(spec.control_subset) == k - 1,
        Mode.EXO: lambda spec: not spec.control_subset,
        Mode.GENERAL: lambda spec: True,
    }[mode]
    return table.take([pos for pos, spec in enumerate(table.specs) if member(spec)])


def test_criterion_7_subfamilies_nest_in_general():
    if not _CORPUS:
        _build_corpus()
    for entry in _CORPUS:
        k, table = entry["k"], entry["table"]
        general = fas_from_estimates(table, CUTOFF, Mode.GENERAL).interval
        for mode in (Mode.EXCL, Mode.EXO):
            sub = fas_from_estimates(_family(table, mode, k), CUTOFF, mode).interval
            if sub is None:
                continue
            assert general is not None
            assert general[0] <= sub[0] and sub[1] <= general[1]


# per-spec figures from the two published applications: label -> (beta, F)
_GROWTH_SPECS = {
    "Z1|2": (-14.31, 78.20),
    "Z2|1": (159.6, 0.95),
    "Z1": (-22.65, 74.01),
    "Z2": (-46.98, 19.00),
}
_GROWTH_FAS = {
    Mode.EXCL: (-14.31, -14.31),
    Mode.EXO: (-46.98, -22.65),
    Mode.GENERAL: (-46.98, -14.31),
}
_CITY_SPECS = {
    "Z1|2,3": (0.28, 58.13),
    "Z2|1,3": (3.16, 6.97),
    "Z3|1,2": (-0.32, 20.00),
    "Z1": (0.55, 154.5),
    "Z2": (1.09, 35.84),
    "Z3": (0.13, 15.97),
    "Z1|2": (0.22, 81.14),
    "Z1|3": (0.40, 122.45),
    "Z2|1": (3.74, 5.29),
    "Z2|3": (1.18, 34.31),
    "Z3|1": (-0.61, 14.27),
    "Z3|2": (-0.02, 31.07),
}
_CITY_FAS = {
    Mode.EXCL: (-0.32, 0.28),
    Mode.EXO: (0.13, 1.09),
    Mode.GENERAL: (-0.61, 1.18),
}


def _published_table(figures, k):
    """A table of the published betas and F statistics; the other columns
    were not published."""
    by_label = {s.label: s for s in enumerate_specs(k)}
    beta, f_stat = np.array(list(figures.values())).T
    missing = np.full(len(figures), np.nan)
    return SpecTable(
        k, np.array([by_label[label].spec_id for label in figures]), beta, missing, missing,
        missing, f_stat, np.full(len(figures), None, dtype=object),
    )


def test_criterion_8_published_interval_fixtures():
    for figures, k, expected in (
        (_GROWTH_SPECS, 2, _GROWTH_FAS),
        (_CITY_SPECS, 3, _CITY_FAS),
    ):
        table = _published_table(figures, k)
        screen = fas_from_estimates(table, CUTOFF, Mode.GENERAL)
        low_f = {spec.label for spec, keep in zip(table.specs, screen.selected) if not keep}
        assert all(figures[label][1] < CUTOFF for label in low_f)
        for mode, want in expected.items():
            lo, hi = fas_from_estimates(_family(table, mode, k), CUTOFF, mode).interval
            assert abs(lo - want[0]) <= 1e-12 and abs(hi - want[1]) <= 1e-12
