"""Just-identified IV, 2SLS weight decomposition, and the J statistic."""

import numpy as np
import pytest

from conftest import ols_reference, random_model
from faskit import (
    Dataset,
    SimulationConfig,
    enumerate_specs,
    just_id_iv,
    partial_out,
    simulate,
    transform_instrument,
    tsls,
    tsls_matrix,
    tsls_pairwise_report,
)
from faskit.errors import (
    DimensionMismatchError,
    RankDeficientError,
    WeakIdentificationError,
    ZeroFirstStageError,
)


def _sample(seed=47, k=3, n=200):
    rng = np.random.default_rng(seed)
    return simulate(SimulationConfig(model=random_model(rng, k), n=n, seed=seed))


def _estimate(data, spec):
    part = partial_out(data)
    return just_id_iv(part, transform_instrument(part, spec))


def _controlled_sample(seed=107, n=400, k=3):
    # two controls that drive the instruments, the treatment and the outcome
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, 2))
    Z = rng.standard_normal((n, k)) + W @ rng.uniform(0.5, 1.5, size=(2, k))
    x = Z @ rng.uniform(0.5, 1.0, size=k) + W @ np.array([0.7, -0.4]) + rng.standard_normal(n)
    y = x + W @ np.array([1.5, 2.0]) + rng.standard_normal(n)
    names = tuple(f"Z{i + 1}" for i in range(k))
    return Dataset(y=y, x=x, Z=Z, z_names=names, controls=W, control_names=("w1", "w2"))


def test_controls_are_partialled_inside_the_per_spec_estimate():
    # Frisch-Waugh-Lovell: a dataset that still carries its intercept and
    # controls gives the numbers of the partialled dataset, and those of the
    # full regressions that include the controls.
    data = _controlled_sample()
    part = partial_out(data)
    exog = np.column_stack([np.ones(data.n), data.controls])
    fields = ("beta_hat", "se", "pi_hat", "psi_hat", "f_stat")
    for spec in enumerate_specs(3):
        raw = just_id_iv(data, transform_instrument(data, spec))
        ref = just_id_iv(part, transform_instrument(part, spec))
        for name in fields:
            assert getattr(raw, name) == pytest.approx(getattr(ref, name), rel=1e-10)
        C = [c - 1 for c in spec.control_subset]
        design = np.column_stack([data.Z[:, spec.instrument_index - 1], exog, data.Z[:, C]])
        pi = np.linalg.lstsq(design, data.x, rcond=None)[0][0]
        psi = np.linalg.lstsq(design, data.y, rcond=None)[0][0]
        assert raw.pi_hat == pytest.approx(pi, rel=1e-10)
        assert raw.psi_hat == pytest.approx(psi, rel=1e-10)


def test_tsls_and_pairwise_partial_out_the_controls():
    data = _controlled_sample()
    part = partial_out(data)
    fields = ("beta_2sls", "se", "first_stage_f", "j_stat", "j_pvalue")
    for got, ref in [(tsls(data), tsls(part))] + [
        (a.result, b.result)
        for a, b in zip(tsls_pairwise_report(data), tsls_pairwise_report(part))
    ]:
        for name in fields:
            assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=1e-10)
        assert got.weights == pytest.approx(ref.weights, rel=1e-10)
    # the 2SLS that carries the controls as exogenous regressors agrees
    exog = np.column_stack([np.ones(data.n), data.controls])
    X = np.column_stack([data.x, exog])
    Q, _ = np.linalg.qr(np.column_stack([data.Z, exog]))
    Xhat = Q @ (Q.T @ X)
    full = np.linalg.solve(Xhat.T @ X, Xhat.T @ data.y)
    assert tsls(data).beta_2sls == pytest.approx(full[0], rel=1e-10)

    # without controls, 2SLS is the plain demeaned one
    plain = Dataset(y=data.y, x=data.x, Z=data.Z, z_names=data.z_names)
    y, x, Z = plain.y - plain.y.mean(), plain.x - plain.x.mean(), plain.Z - plain.Z.mean(axis=0)
    xhat = Z @ np.linalg.solve(Z.T @ Z, Z.T @ x)
    beta = float(xhat @ y) / float(xhat @ x)
    resid = y - x * beta
    var = float((xhat * resid) @ (xhat * resid)) / float(xhat @ x) ** 2
    se = np.sqrt(var * plain.n / (plain.n - 2))
    res = tsls(plain)
    assert res.beta_2sls == pytest.approx(beta, rel=1e-10)
    assert res.se == pytest.approx(se, rel=1e-10)


def _explicit_fit(y, x, Zm, n_absorbed, flavor):
    """2SLS, its weights, first-stage F and J, each written out from its
    definition on data that is already partialled."""
    n, q = Zm.shape
    pi, cov = ols_reference(Zm, x, flavor, n_absorbed)
    f_stat = float(pi @ np.linalg.solve(cov, pi)) / q
    zx, zy = Zm.T @ x, Zm.T @ y
    G = Zm.T @ Zm
    denom = float(zx @ np.linalg.solve(G, zx))
    beta = float(zx @ np.linalg.solve(G, zy)) / denom
    weights = pi * zx / denom
    # two-step efficient GMM: weight from the 2SLS residuals, re-minimize,
    # take the criterion at the second-step estimate
    resid = y - x * beta
    S = (Zm * resid[:, None] ** 2).T @ Zm
    beta_two = float(zx @ np.linalg.solve(S, zy)) / float(zx @ np.linalg.solve(S, zx))
    gap = zy - zx * beta_two
    j_stat = float(gap @ np.linalg.solve(S, gap))
    return {"beta_2sls": beta, "first_stage_f": f_stat, "j_stat": j_stat, "weights": weights}


def _exog_residuals(data, a):
    """Residuals of the columns of a on the dataset's intercept and controls,
    by lstsq, with the number of columns they absorb."""
    exog = [np.ones((data.n, 1))] if data.intercept else []
    exog += [data.controls] if data.controls.shape[1] else []
    if not exog:
        return a, 0
    B = np.column_stack(exog)
    return a - B @ np.linalg.lstsq(B, a, rcond=None)[0], B.shape[1]


def _formula_samples():
    controlled = _controlled_sample(seed=131)
    bare = Dataset(
        y=controlled.y, x=controlled.x, Z=controlled.Z, z_names=controlled.z_names,
        intercept=False,
    )
    return {"intercept+controls": controlled, "no-intercept": bare}


@pytest.mark.parametrize("flavor", ["hc0", "hc1"])
@pytest.mark.parametrize("sample", ["intercept+controls", "no-intercept"])
def test_tsls_f_j_and_weights_match_their_definitions(sample, flavor):
    data = _formula_samples()[sample]
    cols, n_absorbed = _exog_residuals(data, np.column_stack([data.y, data.x, data.Z]))
    y, x, Z = cols[:, 0], cols[:, 1], cols[:, 2:]
    want = _explicit_fit(y, x, Z, n_absorbed, flavor)
    got = tsls(data, robust_flavor=flavor)
    assert got.j_stat > 1.0  # away from zero, where a relative bound means something
    for name in ("beta_2sls", "first_stage_f", "j_stat"):
        assert getattr(got, name) == pytest.approx(want[name], rel=1e-10), name
    assert got.weights == pytest.approx(want["weights"], rel=1e-10)


@pytest.mark.parametrize("flavor", ["hc0", "hc1"])
@pytest.mark.parametrize("sample", ["intercept+controls", "no-intercept"])
def test_pairwise_rows_match_lstsq_residualized_instruments(sample, flavor):
    data = _formula_samples()[sample]
    cols, n_absorbed = _exog_residuals(data, np.column_stack([data.y, data.x, data.Z]))
    y, x, Z = cols[:, 0], cols[:, 1], cols[:, 2:]
    rows = tsls_pairwise_report(data, flavor)
    assert len(rows) == 6
    for row in rows:
        a, b = row.pair
        pair = Z[:, [a - 1, b - 1]]
        if row.variant == "partialled":
            (rest,) = [i for i in range(3) if i not in (a - 1, b - 1)]
            Zr = Z[:, [rest]]
            pair = pair - Zr @ np.linalg.lstsq(Zr, pair, rcond=None)[0]
            assert row.labels == (f"Z{a}|{rest + 1}", f"Z{b}|{rest + 1}")
        want = _explicit_fit(y, x, pair, n_absorbed, flavor)
        for name in ("beta_2sls", "first_stage_f", "j_stat"):
            assert getattr(row.result, name) == pytest.approx(want[name], rel=1e-10), (row, name)


def test_identity_outcome_gives_unit_beta_and_zero_se():
    rng = np.random.default_rng(53)
    Z = rng.standard_normal((60, 2))
    x = Z @ np.array([1.0, 0.4]) + rng.standard_normal(60)
    data = Dataset(y=x.copy(), x=x, Z=Z, z_names=("Z1", "Z2"))
    est = _estimate(data, enumerate_specs(2)[0])
    assert est.beta_hat == pytest.approx(1.0, abs=1e-12)
    assert est.se == pytest.approx(0.0, abs=1e-12)


def test_agrees_with_an_independent_two_step_computation():
    # Separate code path: explicit lstsq projection, then the ratio.
    data = _sample(seed=59)
    part = partial_out(data)
    for spec in enumerate_specs(3):
        est = just_id_iv(part, transform_instrument(part, spec))
        C = [c - 1 for c in spec.control_subset]
        zc = part.Z[:, C]
        zl = part.Z[:, spec.instrument_index - 1]
        if zc.shape[1]:
            coef, *_ = np.linalg.lstsq(zc, zl, rcond=None)
            zt = zl - zc @ coef
        else:
            zt = zl.copy()
        beta = float(zt @ part.y) / float(zt @ part.x)
        assert est.beta_hat == pytest.approx(beta, rel=1e-12, abs=1e-12)


def test_ratio_identity_and_f_stat_definition():
    data = _sample(seed=61, k=2)
    part = partial_out(data)
    for spec in enumerate_specs(2):
        est = just_id_iv(part, transform_instrument(part, spec))
        scale = max(1.0, abs(est.psi_hat))
        assert abs(est.beta_hat * est.pi_hat - est.psi_hat) <= 1e-10 * scale
        # F is the squared robust t ratio of the first-stage coefficient
        zt = transform_instrument(part, spec).values
        coef, cov = ols_reference(zt, part.x, n_absorbed=part.n_absorbed)
        t2 = coef[0] ** 2 / cov[0, 0]
        assert est.f_stat == pytest.approx(float(t2), rel=1e-10)


def test_zero_first_stage_raises():
    rng = np.random.default_rng(67)
    x = rng.standard_normal(100)
    raw = rng.standard_normal(100)
    basis = np.column_stack([np.ones(100), x])
    z = raw - basis @ np.linalg.lstsq(basis, raw, rcond=None)[0]  # exactly x-orthogonal
    data = Dataset(y=rng.standard_normal(100), x=x, Z=z[:, None], z_names=("Z1",))
    part = partial_out(data)
    zt = transform_instrument(part, enumerate_specs(1)[0])
    with pytest.raises(ZeroFirstStageError):
        just_id_iv(part, zt)


def test_single_instrument_tsls_equals_marginal_iv():
    data = _sample(seed=71, k=3)
    res = tsls(data, instrument_indices=[2])
    est = _estimate(data, next(s for s in enumerate_specs(3) if s.label == "Z2"))
    assert res.beta_2sls == pytest.approx(est.beta_hat, rel=1e-12)
    assert res.weights == pytest.approx([1.0], abs=1e-12)
    assert res.j_dof == 0
    assert res.j_stat == 0.0
    assert res.j_pvalue is None


def test_weights_sum_to_one_and_reconstruct_both_families():
    data = _sample(seed=73, k=3)
    res = tsls(data)
    assert abs(float(np.sum(res.weights)) - 1.0) <= 1e-10
    part = partial_out(data)
    controlled = {}
    marginal = {}
    for spec in enumerate_specs(3):
        est = just_id_iv(part, transform_instrument(part, spec))
        if len(spec.control_subset) == 2:
            controlled[spec.instrument_index] = est.beta_hat
        elif not spec.control_subset:
            marginal[spec.instrument_index] = est.beta_hat
    for family in (controlled, marginal):
        recon = sum(res.weights[l - 1] * family[l] for l in (1, 2, 3))
        assert abs(recon - res.beta_2sls) <= 1e-9 * max(1.0, abs(res.beta_2sls))


def test_negative_weight_exactly_on_first_stage_sign_flips():
    # pi_hat (controlled) and pi_hat* (marginal) disagreeing in sign is the
    # documented condition for a negative 2SLS weight.
    found_flip = False
    found_straight = False
    for seed in range(200, 260):
        rng = np.random.default_rng(seed)
        n = 150
        Z = rng.standard_normal((n, 2))
        Z[:, 1] = 0.9 * Z[:, 0] + np.sqrt(1 - 0.81) * Z[:, 1]
        # weak negative direct effect makes the controlled sign fragile
        x = Z @ np.array([1.0, -0.15]) + rng.standard_normal(n)
        y = x + rng.standard_normal(n)
        data = Dataset(y=y, x=x, Z=Z, z_names=("Z1", "Z2"))
        res = tsls(data)
        part = partial_out(data)
        for spec in enumerate_specs(2):
            est = just_id_iv(part, transform_instrument(part, spec))
            if len(spec.control_subset) == 1:
                ctrl = est if spec.instrument_index == 2 else None
                if ctrl is not None:
                    pi_c = ctrl.pi_hat
            if not spec.control_subset and spec.instrument_index == 2:
                pi_m = est.pi_hat
        flip = (pi_c < 0) != (pi_m < 0)
        assert (res.weights[1] < 0) == flip
        found_flip = found_flip or flip
        found_straight = found_straight or not flip
    assert found_flip and found_straight


def _spanning_pair_betas(data):
    part = partial_out(data)
    by_label = {s.label: s for s in enumerate_specs(2)}
    cols = {
        "Z1": part.Z[:, 0],
        "Z2": part.Z[:, 1],
        "Z1|2": transform_instrument(part, by_label["Z1|2"]).values,
        "Z2|1": transform_instrument(part, by_label["Z2|1"]).values,
    }
    pairs = [
        ("Z1", "Z2"), ("Z1|2", "Z2|1"), ("Z1|2", "Z1"),
        ("Z1|2", "Z2"), ("Z2|1", "Z1"), ("Z2|1", "Z2"),
    ]
    results = {}
    for a, b in pairs:
        results[(a, b)] = tsls_matrix(data, np.column_stack([cols[a], cols[b]]))
    return results


def test_all_spanning_pairs_share_beta_and_j():
    data = _sample(seed=79, k=2)
    results = _spanning_pair_betas(data)
    betas = [r.beta_2sls for r in results.values()]
    js = [r.j_stat for r in results.values()]
    ref = betas[0]
    assert max(abs(b - ref) for b in betas) <= 1e-8 * max(1.0, abs(ref))
    assert max(abs(j - js[0]) for j in js) <= 1e-8 * max(1.0, abs(js[0]))
    # same-index weight pairs coincide
    w1 = results[("Z1|2", "Z1")].weights
    w2 = results[("Z2|1", "Z2")].weights
    assert np.max(np.abs(w1 - w2)) <= 1e-9


def test_weak_identification_raises():
    rng = np.random.default_rng(83)
    x = rng.standard_normal(120)
    raw = rng.standard_normal((120, 2))
    basis = np.column_stack([np.ones(120), x])
    Z = raw - basis @ np.linalg.lstsq(basis, raw, rcond=None)[0]
    data = Dataset(y=rng.standard_normal(120), x=x, Z=Z, z_names=("Z1", "Z2"))
    with pytest.raises(WeakIdentificationError):
        tsls(data)


@pytest.mark.parametrize("slope", [2.0, 0.3])
@pytest.mark.parametrize("intercept", [True, False])
def test_exact_structural_fit_reports_a_zero_j(slope, intercept):
    # y = slope * x: every 2SLS residual is zero (slope 2) or rounding
    # residue (slope 0.3), so the moments hold and the efficient weight
    # matrix is zero or noise
    rng = np.random.default_rng(137)
    Z = rng.standard_normal((50, 2))
    x = Z @ np.array([1.0, 0.5]) + rng.standard_normal(50)
    data = Dataset(y=slope * x, x=x, Z=Z, z_names=("Z1", "Z2"), intercept=intercept)
    res = tsls(data)
    assert res.beta_2sls == pytest.approx(slope, rel=1e-14)
    assert res.se <= 1e-14
    assert res.j_stat == 0.0
    assert res.j_pvalue == 1.0
    (row,) = tsls_pairwise_report(data)
    assert row.failure is None
    assert row.result.j_stat == 0.0


def test_pairwise_failures_are_rows_with_a_code():
    rng = np.random.default_rng(139)
    z1, z2 = rng.standard_normal((2, 200))
    x = z1 + 0.8 * z2 + rng.standard_normal(200)
    data = Dataset(
        y=x + rng.standard_normal(200), x=x,
        Z=np.column_stack([z1, z2, z1]), z_names=("Z1", "Z2", "Z3"),
    )
    with pytest.raises(RankDeficientError):
        tsls(data)
    rows = {(r.pair, r.variant): r for r in tsls_pairwise_report(data)}
    assert len(rows) == 6
    # only the raw pairs with Z2 have two distinct columns: Z1 and Z3 are
    # the same column raw or partialled on Z2, and partialling either on the
    # other leaves nothing
    failed = {key for key, r in rows.items() if r.failure is not None}
    assert failed == set(rows) - {((1, 2), "raw"), ((2, 3), "raw")}
    for key in failed:
        assert rows[key].failure == "rank-deficient"
        assert rows[key].result is None
    assert rows[((1, 3), "partialled")].labels == ("Z1|2", "Z3|2")
    assert rows[((1, 2), "partialled")].labels == ("Z1|3", "Z2|3")


def test_hc1_scales_hc0_standard_errors():
    data = _sample(seed=89, k=2)
    spec = enumerate_specs(2)[1]
    part = partial_out(data)
    zt = transform_instrument(part, spec)
    hc0 = just_id_iv(part, zt, robust_flavor="hc0")
    hc1 = just_id_iv(part, zt, robust_flavor="hc1")
    n = data.n
    p = 1 + part.n_absorbed
    assert hc1.se == pytest.approx(hc0.se * np.sqrt(n / (n - p)), rel=1e-10)


def test_pairwise_report_shapes():
    two = _sample(seed=97, k=2)
    rows = tsls_pairwise_report(two)
    assert [(r.pair, r.variant) for r in rows] == [((1, 2), "raw")]

    three = _sample(seed=97, k=3)
    rows = tsls_pairwise_report(three)
    assert len(rows) == 6
    assert [r.variant for r in rows] == ["raw", "partialled"] * 3
    assert rows[1].labels == ("Z1|3", "Z2|3")

    one = _sample(seed=97, k=2)
    solo = Dataset(y=one.y, x=one.x, Z=one.Z[:, :1], z_names=("Z1",))
    with pytest.raises(DimensionMismatchError):
        tsls_pairwise_report(solo)


def test_pairwise_j_pvalues_look_uniform_under_the_null():
    # Valid three-instrument model; pooled p-values over many draws should
    # have a median near one half.
    rng = np.random.default_rng(101)
    sigma = np.eye(3)
    from faskit import PopulationModel

    model = PopulationModel(
        beta=1.0, gamma=np.zeros(3), alpha=np.zeros(3),
        pi=np.array([1.0, 0.8, 1.2]), sigma_z=sigma,
    )
    pvals = []
    for rep in range(500):
        data = simulate(SimulationConfig(model=model, n=400, seed=7000 + rep))
        for row in tsls_pairwise_report(data):
            pvals.append(row.result.j_pvalue)
    assert 0.35 <= float(np.median(pvals)) <= 0.65
