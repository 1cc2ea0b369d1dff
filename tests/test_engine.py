"""The spec engine against a plain per-spec reference.

The reference residualizes each transformed instrument with its own
``lstsq`` calls on the raw design and evaluates the closed-form sandwich
directly, sharing no code with faskit.
"""

import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faskit.cli as cli
import faskit.fas as fas_module
import faskit.specs as specs_module
from conftest import random_corr, random_model
from faskit import (
    Dataset,
    Mode,
    PopulationModel,
    enumerate_specs,
    estimate_specs,
    fas_by_mode,
    partial_out,
    population_fas_by_mode,
    population_spec_moments,
    simulate,
    specs_for_mode,
)
from faskit.cli import load_model
from faskit.fas import _BLOCK_ELEMENTS
from faskit.specs import JustIdSpec, as_spec_ids, spec_coefficients

FIELDS = ("beta_hat", "se", "pi_hat", "psi_hat", "f_stat")


def _controlled_sample(seed, n, k):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, 2))
    Z = rng.standard_normal((n, k)) + W @ rng.uniform(0.5, 1.5, size=(2, k))
    x = Z @ rng.uniform(0.5, 1.0, size=k) + W @ np.array([0.7, -0.4]) + rng.standard_normal(n)
    y = x + Z @ rng.uniform(-0.3, 0.3, size=k) + W @ np.array([1.5, 2.0]) + rng.standard_normal(n)
    names = tuple(f"Z{i + 1}" for i in range(k))
    return Dataset(y=y, x=x, Z=Z, z_names=names, controls=W, control_names=("w1", "w2"))


def _resid(v, B):
    if B.shape[1] == 0:
        return v
    return v - B @ np.linalg.lstsq(B, v, rcond=None)[0]


def _reference(data, spec, flavor):
    exog = np.column_stack([np.ones(data.n), data.controls])
    y, x, Z = _resid(data.y, exog), _resid(data.x, exog), _resid(data.Z, exog)
    w = _resid(Z[:, spec.instrument_index - 1], Z[:, [c - 1 for c in spec.control_subset]])
    wx, wy, ww = w @ x, w @ y, w @ w
    pi, psi, beta = wx / ww, wy / ww, wy / wx
    scale = data.n / (data.n - 1 - exog.shape[1]) if flavor == "hc1" else 1.0
    var_pi = scale * np.sum((w * (x - w * pi)) ** 2) / ww**2
    var_beta = scale * np.sum((w * (y - x * beta)) ** 2) / wx**2
    return np.array([beta, np.sqrt(var_beta), pi, psi, pi * pi / var_pi])


def _table(table):
    return np.column_stack([getattr(table, name) for name in FIELDS])


@pytest.mark.parametrize("flavor", ["hc0", "hc1"])
@pytest.mark.parametrize("k, n", [(1, 300), (2, 300), (3, 300), (4, 300), (5, 300), (6, 2000)])
def test_sweep_matches_the_per_spec_reference(k, n, flavor):
    data = _controlled_sample(seed=500 + k, n=n, k=k)
    specs = enumerate_specs(k)
    if k == 6:
        # the family spans several blocks of the sweep
        assert len(specs) > _BLOCK_ELEMENTS // n
    table = estimate_specs(partial_out(data), specs, flavor)
    assert table.specs == specs and table.estimated.all()
    reference = np.array([_reference(data, spec, flavor) for spec in specs])
    np.testing.assert_allclose(_table(table), reference, rtol=1e-10, atol=0.0)


def test_a_spec_estimate_does_not_depend_on_its_family(monkeypatch):
    data = _controlled_sample(seed=601, n=2000, k=6)
    part = partial_out(data)
    model = random_model(np.random.default_rng(601), 6)
    full = estimate_specs(part, enumerate_specs(6))
    full_pi, full_psi = population_spec_moments(model, enumerate_specs(6))
    position = {spec.spec_id: pos for pos, spec in enumerate(full.specs)}
    for mode in (Mode.EXCL, Mode.EXO):
        family = estimate_specs(part, specs_for_mode(mode, 6))
        view = [position[spec.spec_id] for spec in family.specs]
        assert np.array_equal(_table(family), _table(full.take(view)))
        pi_t, psi_t = population_spec_moments(model, specs_for_mode(mode, 6))
        assert np.array_equal(pi_t, full_pi[view]) and np.array_equal(psi_t, full_psi[view])
    # a family solved in chunks that cross its blocks and its subsets
    monkeypatch.setattr(fas_module, "_SOLVE_SPECS", 37)
    assert np.array_equal(_table(estimate_specs(part, enumerate_specs(6))), _table(full))
    pi_t, psi_t = population_spec_moments(model, enumerate_specs(6))
    assert np.array_equal(pi_t, full_pi) and np.array_equal(psi_t, full_psi)
    # one spec is the one-row case of the same sweep, on raw data as on partialled
    for spec in enumerate_specs(6)[::17]:
        row = _table(full.take([position[spec.spec_id]]))
        for sample in (data, part):
            one = estimate_specs(sample, [spec])
            assert one.specs == [spec] and one.failure.tolist() == [None]
            assert np.array_equal(_table(one), row)
    # and of the same population moments, also at k=10, where numpy's sums
    # change their order
    wide = random_model(np.random.default_rng(602), 10)
    for each, stride in ((model, 1), (wide, 7)):
        specs = enumerate_specs(each.k_z)
        full_pi, full_psi = population_spec_moments(each, specs)
        for pos in range(0, len(specs), stride):
            pi_t, psi_t = population_spec_moments(each, [specs[pos]])
            assert (pi_t[0], psi_t[0]) == (full_pi[pos], full_psi[pos]), specs[pos].label


def test_population_moments_match_a_direct_solve():
    rng = np.random.default_rng(607)
    for k in (1, 2, 3, 5):
        model = random_model(rng, k)
        specs = enumerate_specs(k)
        sigma = model.sigma_z
        cov_zx = sigma @ model.pi
        cov_zy = sigma @ (model.pi * model.beta + model.gamma) + model.alpha
        want_pi, want_psi = [], []
        for spec in specs:
            ell, C = spec.instrument_index - 1, [c - 1 for c in spec.control_subset]
            phi = np.linalg.solve(sigma[np.ix_(C, C)], sigma[C, ell]) if C else np.zeros(0)
            variance = sigma[ell, ell] - sigma[ell, C] @ phi
            want_pi.append((cov_zx[ell] - phi @ cov_zx[C]) / variance)
            want_psi.append((cov_zy[ell] - phi @ cov_zy[C]) / variance)
        pi_t, psi_t = population_spec_moments(model, specs)
        np.testing.assert_allclose(pi_t, want_pi, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(psi_t, want_psi, rtol=1e-12, atol=0.0)


def _moment_sample(model, n, seed):
    """A sample of n rows, with no intercept, whose second moments are the
    model's: ``Z'Z/n = sigma_z``, ``Z'x/n = cov(Z, x)``, ``Z'y/n = cov(Z,
    y)`` and ``x'x/n = var(x)``, up to rounding."""
    k = model.k_z
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, k + 2)))[0] * np.sqrt(n)
    Z = Q[:, :k] @ np.linalg.cholesky(model.sigma_z).T
    x = Z @ model.pi + np.sqrt(model.var_v) * Q[:, k]
    shift = np.linalg.solve(model.sigma_z, model.alpha)
    u = np.sqrt(model.var_u - model.alpha @ shift) * Q[:, k + 1]
    y = x * model.beta + Z @ (model.gamma + shift) + u
    names = tuple(f"Z{i + 1}" for i in range(k))
    return Dataset(y=y, x=x, Z=Z, z_names=names, intercept=False)


def test_the_sample_engine_on_population_moments_is_the_oracle():
    rng = np.random.default_rng(613)
    models = [random_model(rng, 1 + i % 6) for i in range(20)]
    # a first stage with a zero, so that some specs are irrelevant
    models.append(PopulationModel(
        beta=1.0, gamma=np.zeros(3), alpha=np.zeros(3), pi=np.array([1.0, 0.0, 0.5]),
        sigma_z=np.eye(3),
    ))
    for seed, model in enumerate(models):
        sample = fas_by_mode(_moment_sample(model, 200, seed), list(Mode), cutoff=1e-300)
        population = population_fas_by_mode(model, list(Mode))
        for mode in Mode:
            got, want = sample[mode], population[mode]
            assert got.table.failure.tolist() == want.table.failure.tolist()
            relevant = want.selected
            assert np.array_equal(got.selected, relevant)
            for name in ("pi_hat", "psi_hat", "beta_hat"):
                np.testing.assert_allclose(
                    getattr(got.table, name)[relevant], getattr(want.table, name)[relevant],
                    rtol=1e-10, atol=0.0,
                )
            np.testing.assert_allclose(got.interval, want.interval, rtol=1e-10, atol=0.0)
    assert not population[Mode.GENERAL].selected.all()


# ---------------------------------------------------------------------------
# the batched subset inverse against the per-spec least squares it replaces


def _lstsq_reference(R, specs):
    """spec_coefficients as one lstsq per spec, written out."""
    k = R.shape[1]
    specs = [JustIdSpec(k, i) for i in as_spec_ids(specs, k).tolist()]
    A = np.zeros((k, len(specs)))
    degenerate = np.zeros(len(specs), dtype=bool)
    n_controls = np.zeros(len(specs), dtype=np.intp)
    base_ss = np.sum(R * R, axis=0)
    for pos, spec in enumerate(specs):
        ell, C = spec.instrument_index - 1, [c - 1 for c in spec.control_subset]
        phi, resid_ss, _, _ = np.linalg.lstsq(R[:, C], R[:, ell], rcond=1e-10)
        A[ell, pos] = 1.0
        A[C, pos] = -phi
        degenerate[pos] = resid_ss.sum() <= 1e-12 * base_ss[ell]
        n_controls[pos] = len(C)
    return A, degenerate, n_controls


def _stacked_lstsq_reference(R, specs):
    """_lstsq_reference of each factor of a stack, shaped as spec_coefficients returns."""
    A, degenerate, n_controls = zip(*(_lstsq_reference(r, specs) for r in R))
    return np.stack(A), np.stack(degenerate), n_controls[0]


def _engine(R, specs):
    """spec_coefficients, plus the mask of the specs it solved by lstsq."""
    with mock.patch.object(
        specs_module, "_lstsq_coefficients", wraps=specs_module._lstsq_coefficients
    ) as per_spec:
        A, degenerate, n_controls = spec_coefficients(R[None], specs)
    A, degenerate = A[0], degenerate[0]
    solved = {(call.args[1], tuple(call.args[2])) for call in per_spec.call_args_list}
    fallback = np.array([
        (s.instrument_index - 1, tuple(c - 1 for c in s.control_subset)) in solved for s in specs
    ])
    return A, degenerate, n_controls, fallback


def _assert_engine_matches_lstsq(R, specs):
    A, degenerate, n_controls, fallback = _engine(R, specs)
    A_ref, degenerate_ref, n_controls_ref = _lstsq_reference(R, specs)
    assert np.array_equal(degenerate, degenerate_ref)
    assert np.array_equal(n_controls, n_controls_ref)
    # the fallback is the reference itself; a batched column agrees to
    # 1e-10 of its largest entry, and is never degenerate
    assert np.array_equal(A[:, fallback], A_ref[:, fallback])
    assert not degenerate[~fallback].any()
    error = np.abs(A - A_ref).max(axis=0)
    assert np.all(error <= 1e-10 * np.abs(A_ref).max(axis=0))
    return fallback


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 9),
    population=st.booleans(),
    exponents=st.lists(st.sampled_from([0, 0, 0, -6, -3, 3, 6]), min_size=9, max_size=9),
)
def test_batched_coefficients_match_per_spec_lstsq(seed, k, population, exponents):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** np.array(exponents[:k], dtype=np.float64)
    if population:
        R = np.linalg.cholesky(scale[:, None] * random_corr(rng, k) * scale).T
    else:
        n = k + int(rng.integers(1, 60))
        Z = rng.standard_normal((n, k)) @ rng.uniform(-1.0, 1.0, (k, k))
        R = np.linalg.qr(Z * scale, mode="r")
    _assert_engine_matches_lstsq(R, enumerate_specs(k))


def _orthonormal(n, k, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, k)))[0] * np.sqrt(n)


def _edge_sample(case):
    """k=4, n=200 instruments with one numerical edge, and the subsets (as
    0-based index sets) that the edge leaves ill-conditioned."""
    Q = _orthonormal(200, 5, seed=701)
    Z = Q[:, :4].copy()
    pair = lambda S: {0, 3} <= S  # noqa: E731
    if case == "duplicate":
        Z[:, 3] = Z[:, 0]
    elif case.startswith("rank"):
        # singular value ratio of (Z1, Z4) is t/2: 0.5e-10 or 2e-10
        Z[:, 3] = Z[:, 0] + {"rank-inside": 1e-10, "rank-outside": 4e-10}[case] * Q[:, 4]
    elif case.startswith("share"):
        # residual share of Z4 on Z1 is t^2 / (1 + t^2): 0.5e-12 or 2e-12
        t = np.sqrt({"share-inside": 0.5e-12, "share-outside": 2e-12}[case])
        Z[:, 3] = Z[:, 0] + t * Q[:, 4]
    elif case == "scale":
        Z[:, 1] *= 1e9
        pair = lambda S: 1 in S and len(S) > 1  # noqa: E731
    elif case == "zero":
        Z[:, 2] = 0.0
        pair = lambda S: 2 in S  # noqa: E731
    rng = np.random.default_rng(702)
    x = Z @ np.array([0.5, 0.4, 0.3, 0.2]) + rng.standard_normal(200)
    y = x + rng.standard_normal(200)
    data = Dataset(y=y, x=x, Z=Z, z_names=("Z1", "Z2", "Z3", "Z4"), intercept=False)
    return data, pair


EDGES = [
    "duplicate", "rank-inside", "rank-outside", "share-inside", "share-outside", "scale", "zero",
]


@pytest.mark.parametrize("case", EDGES)
def test_numerical_edges_take_the_fallback(case, monkeypatch):
    # pytest turns a RuntimeWarning into an error, so none is raised here
    data, affected = _edge_sample(case)
    specs = enumerate_specs(4)
    R = np.linalg.qr(data.Z, mode="r")
    fallback = _assert_engine_matches_lstsq(R, specs)
    subsets = [{s.instrument_index - 1, *(c - 1 for c in s.control_subset)} for s in specs]
    assert fallback.tolist() == [affected(S) for S in subsets]
    failure = estimate_specs(data, specs).failure
    monkeypatch.setattr(fas_module, "spec_coefficients", _stacked_lstsq_reference)
    assert failure.tolist() == estimate_specs(data, specs).failure.tolist()


def test_near_tolerance_edges_change_the_failure_codes():
    # each pair of edges straddles its tolerance, so the per-spec decision shows
    def degenerate(case):
        data, _ = _edge_sample(case)
        return estimate_specs(data, enumerate_specs(4)).failure == "degenerate"

    assert degenerate("rank-inside").sum() > degenerate("rank-outside").sum()
    assert degenerate("share-inside").sum() > degenerate("share-outside").sum()


def test_large_k_takes_the_batched_path():
    k = 14
    rng = np.random.default_rng(711)
    sigma = 0.5 * random_corr(rng, k) + 0.5 * np.eye(k)
    model = PopulationModel(
        beta=1.0, gamma=np.zeros(k), alpha=np.zeros(k), pi=np.ones(k), sigma_z=sigma
    )
    R = np.linalg.cholesky(sigma).T
    specs = enumerate_specs(k)
    A, degenerate, n_controls, fallback = _engine(R, specs)
    assert not fallback.any() and not degenerate.any()
    sample = list(range(0, len(specs), 573))
    A_ref, _, n_controls_ref = _lstsq_reference(R, [specs[pos] for pos in sample])
    assert np.array_equal(n_controls[sample], n_controls_ref)
    error = np.abs(A[:, sample] - A_ref).max(axis=0)
    assert np.all(error <= 1e-10 * np.abs(A_ref).max(axis=0))
    pi_t, _ = population_spec_moments(model, specs)
    assert np.all(np.isfinite(pi_t))


# ---------------------------------------------------------------------------
# a Monte Carlo chunk: every draw's table is the one it gets alone


GOLDEN = Path(__file__).parent / "golden"


def _near_collinear_model():
    # cond(sigma_z) is about 2e9: the pairs of Z1 and Z3 fail the batch guard
    # and take least squares, yet sigma_z passes validate()
    sigma = np.array([[1.0, 0.2, 1.0 - 1e-9], [0.2, 1.0, 0.2], [1.0 - 1e-9, 0.2, 1.0]])
    return PopulationModel(
        beta=1.0, gamma=np.zeros(3), alpha=np.zeros(3), pi=np.array([0.5, 0.4, 0.3]),
        sigma_z=sigma,
    )


def _duplicate_z1_in_odd_draws(index, dataset):
    # Z3 an exact copy of Z1, so every spec that holds both is degenerate
    if index % 2:
        Z = dataset.Z.copy()
        Z[:, 2] = Z[:, 0]
        return dataset.with_arrays(dataset.y, dataset.x, Z)
    return dataset


def _orthogonal_x(index, dataset):
    # x off (1, Z) in the sample, as the model has it in population, so no
    # spec has a first stage
    design = np.column_stack([np.ones(dataset.n), dataset.Z])
    x = dataset.x - design @ np.linalg.lstsq(design, dataset.x, rcond=None)[0]
    return dataset.with_arrays(dataset.y, x, dataset.Z)


def _golden(name):
    return lambda: load_model(str(GOLDEN / name))[0]


# name: (model, n, mode, edit of the i-th draw, failure codes the draws must show)
CHUNK_CASES = {
    "random-k1": (lambda: random_model(np.random.default_rng(801), 1), 300, "all", None, {None}),
    "random-k4": (lambda: random_model(np.random.default_rng(802), 4), 400, "all", None, {None}),
    "random-k6": (lambda: random_model(np.random.default_rng(803), 6), 200, "all", None, {None}),
    "mixed": (_golden("mixed.model"), 300, "all", None, {None}),
    "irrelevant": (_golden("irrelevant.model"), 300, "all", _orthogonal_x, {"zero-first-stage"}),
    "k13-excl": (_golden("k13.model"), 500, "excl", None, {None}),
    "near-collinear": (_near_collinear_model, 300, "all", _duplicate_z1_in_odd_draws,
                       {None, "degenerate"}),
}


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_a_chunk_gives_each_draw_the_table_it_gets_alone(case, monkeypatch):
    make_model, n, mode, edit, codes = CHUNK_CASES[case]
    model = make_model()
    modes = cli._modes(mode)
    per_chunk = max(1, cli._CHUNK_ELEMENTS // (n * (model.k_z + 2)))
    chunks = []

    def record(draws, modes, cutoff):
        results = fas_module._fas_by_draw(draws, modes, cutoff)
        chunks.append((draws, results))
        return results

    monkeypatch.setattr(cli, "_fas_by_draw", record)
    if edit is not None:
        index = itertools.count()
        monkeypatch.setattr(
            cli, "simulate", lambda config, setup: edit(next(index), simulate(config, setup))
        )
    failures = set()
    lstsq = mock.patch.object(
        specs_module, "_lstsq_coefficients", wraps=specs_module._lstsq_coefficients
    )
    for reps in sorted({1, max(1, per_chunk - 1), per_chunk, per_chunk + 1}):
        chunks.clear()
        with lstsq as per_spec:
            cli.simulate_report(model, n, 5, replications=reps, mode=mode)
        full, rest = divmod(reps, per_chunk)
        assert [len(draws) for draws, _ in chunks] == [per_chunk] * full + [rest] * (rest > 0)
        for draws, results in chunks:
            for draw, by_mode in zip(draws, results):
                # the table of the union of the families: General's, or the one mode's
                table = by_mode[Mode.GENERAL if Mode.GENERAL in modes else modes[0]].table
                alone = estimate_specs(draw, table.spec_ids)
                for name in ("spec_ids", *FIELDS):
                    assert _same_bits(getattr(table, name), getattr(alone, name)), name
                assert table.failure.tolist() == alone.failure.tolist()
                failures.update(table.failure.tolist())
                for each, result in fas_by_mode(draw, modes).items():
                    assert by_mode[each].interval == result.interval
                    assert np.array_equal(by_mode[each].selected, result.selected)
        # only the near-collinear sigma_z leaves the batched inverse
        assert per_spec.called == (case == "near-collinear")
    assert codes <= failures
