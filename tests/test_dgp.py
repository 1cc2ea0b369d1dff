"""Synthetic data generation: determinism, targeted moments, endogeneity."""

import numpy as np
import pytest

from conftest import example1_model, ols_reference, random_corr
from faskit import (
    ErrorLaw,
    Mode,
    PopulationModel,
    SimulationConfig,
    derive_seed,
    fas_estimate,
    simulate,
    tsls,
)
from faskit.errors import InsufficientObservationsError, InvalidVarianceError


def _model(alpha=(0.0, 0.3), var_u=1.0):
    return PopulationModel(
        beta=1.0,
        gamma=np.zeros(2),
        alpha=np.array(alpha),
        pi=np.array([1.0, 0.7]),
        sigma_z=np.array([[1.0, 0.4], [0.4, 1.0]]),
        var_u=var_u,
        var_v=1.0,
    )


def test_same_seed_reproduces_bit_identical_data():
    cfg = SimulationConfig(model=_model(), n=500, seed=42)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.Z, b.Z)
    c = simulate(SimulationConfig(model=_model(), n=500, seed=43))
    assert not np.array_equal(a.y, c.y)


def test_dataset_metadata():
    data = simulate(SimulationConfig(model=_model(), n=50, seed=1))
    assert data.z_names == ("Z1", "Z2")
    assert data.intercept
    assert "seed=1" in data.provenance and "n=50" in data.provenance


def _reconstruct_errors(model, data):
    # U and V are recoverable because the test knows the model truth
    u = data.y - model.beta * data.x - data.Z @ model.gamma
    v = data.x - data.Z @ model.pi
    return u, v


@pytest.mark.parametrize("law", [ErrorLaw.GAUSSIAN, ErrorLaw.SCALED_CHI_SQUARE])
def test_targeted_moments_at_large_n(law):
    model = _model(alpha=(0.0, 0.3), var_u=1.5)
    n = 200000
    band = 8.0 / np.sqrt(n)
    data = simulate(SimulationConfig(model=model, n=n, seed=77, error_law=law))
    u, v = _reconstruct_errors(model, data)
    zc = data.Z - data.Z.mean(axis=0)
    assert np.max(np.abs(zc.T @ u / n - model.alpha)) < band * 2.0
    assert np.max(np.abs(zc.T @ v / n)) < band * 2.0
    assert abs(u.var() - model.var_u) < band * 6.0
    assert abs(v.var() - model.var_v) < band * 6.0
    assert np.max(np.abs(np.cov(data.Z.T) - model.sigma_z)) < band * 6.0


def test_default_error_correlation_is_half():
    model = _model(alpha=(0.0, 0.0))
    data = simulate(SimulationConfig(model=model, n=200000, seed=78))
    u, v = _reconstruct_errors(model, data)
    # with alpha = 0, U is pure epsilon
    r = np.corrcoef(u, v)[0, 1]
    assert r == pytest.approx(0.5, abs=0.01)


def test_scaled_chi_square_shocks_are_skewed():
    model = _model(alpha=(0.0, 0.0))
    data = simulate(
        SimulationConfig(
            model=model, n=200000, seed=79, error_law=ErrorLaw.SCALED_CHI_SQUARE
        )
    )
    u, _ = _reconstruct_errors(model, data)
    skew = np.mean((u - u.mean()) ** 3) / u.std() ** 3
    assert skew > 1.0


def test_error_variance_feasibility_is_checked():
    # alpha'Sigma^{-1}alpha exceeds var_u, so epsilon variance would be negative
    model = _model(alpha=(0.0, 1.2), var_u=1.0)
    with pytest.raises(InvalidVarianceError):
        simulate(SimulationConfig(model=model, n=100, seed=5))


def test_config_validation():
    with pytest.raises(InsufficientObservationsError):
        SimulationConfig(model=_model(), n=9, seed=1)
    with pytest.raises(InvalidVarianceError):
        SimulationConfig(model=_model(), n=100, seed=1, rho_uv=1.5)


def test_a_negative_seed_is_refused_by_name():
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        SimulationConfig(model=_model(), n=100, seed=-1)


def test_derive_seed_is_deterministic_and_spread():
    seeds = {derive_seed(123, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(123, 7) == derive_seed(123, 7)
    assert all(0 <= s < 2**64 for s in seeds)


def test_ols_is_visibly_biased_under_endogeneity():
    model = _model(alpha=(0.0, 0.0))
    data = simulate(SimulationConfig(model=model, n=100000, seed=80))
    X = np.column_stack([np.ones(data.n), data.x])
    coef, cov = ols_reference(X, data.y)
    slope, se = coef[1], np.sqrt(cov[1, 1])
    assert abs(slope - model.beta) > 5.0 * se


def test_valid_instruments_recover_beta():
    model = PopulationModel(
        beta=1.0, gamma=np.zeros(3), alpha=np.zeros(3),
        pi=np.array([1.0, 0.8, 1.2]), sigma_z=random_corr(np.random.default_rng(4), 3),
    )
    data = simulate(SimulationConfig(model=model, n=200000, seed=81))
    res = tsls(data)
    assert abs(res.beta_2sls - 1.0) <= 3.0 * res.se
    assert 1e-4 < res.j_pvalue < 1.0 - 1e-4


def test_reduced_form_and_fas_match_the_identity_design():
    model = example1_model()
    n = 100000
    data = simulate(SimulationConfig(model=model, n=n, seed=82))
    X = np.column_stack([np.ones(n), data.Z])
    coef, cov = ols_reference(X, data.y)
    psi_hat = coef[1:]
    ses = np.sqrt(np.diag(cov)[1:])
    assert np.all(np.abs(psi_hat - np.array([0.0, 1.0, 3.0])) <= 3.0 * ses)
    lo, hi = fas_estimate(data, mode=Mode.EXCL, cutoff=10.0).interval
    assert lo == pytest.approx(0.0, abs=0.05)
    assert hi == pytest.approx(3.0, abs=0.05)
