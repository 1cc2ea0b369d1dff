"""The spec engine against a plain per-spec reference.

The reference residualizes each transformed instrument with its own
``lstsq`` calls on the raw design and evaluates the closed-form sandwich
directly, sharing no code with faskit.
"""

import numpy as np
import pytest

from conftest import random_model
from faskit import (
    Dataset,
    Mode,
    enumerate_specs,
    just_id_iv,
    partial_out,
    population_spec_moments,
    specs_for_mode,
    transform_instrument,
)
from faskit.fas import _BLOCK_ELEMENTS, estimate_specs

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


def _table(estimates):
    return np.array([[getattr(est, name) for name in FIELDS] for est in estimates])


@pytest.mark.parametrize("flavor", ["hc0", "hc1"])
@pytest.mark.parametrize("k, n", [(1, 300), (2, 300), (3, 300), (4, 300), (5, 300), (6, 2000)])
def test_sweep_matches_the_per_spec_reference(k, n, flavor):
    data = _controlled_sample(seed=500 + k, n=n, k=k)
    specs = enumerate_specs(k)
    if k == 6:
        # the family spans several blocks of the sweep
        assert len(specs) > _BLOCK_ELEMENTS // n
    estimates = estimate_specs(partial_out(data), specs, flavor)
    assert all(est.failure is None for est in estimates)
    reference = np.array([_reference(data, spec, flavor) for spec in specs])
    np.testing.assert_allclose(_table(estimates), reference, rtol=1e-10, atol=0.0)


def test_a_spec_estimate_does_not_depend_on_its_family():
    part = partial_out(_controlled_sample(seed=601, n=2000, k=6))
    full = {est.spec.spec_id: est for est in estimate_specs(part, enumerate_specs(6))}
    for mode in (Mode.EXCL, Mode.EXO):
        for est in estimate_specs(part, specs_for_mode(mode, 6)):
            assert [getattr(est, f) for f in FIELDS] == [getattr(full[est.spec.spec_id], f) for f in FIELDS]
    # the one-spec functions are the one-column case of the same engine
    for spec in enumerate_specs(6)[::17]:
        one = just_id_iv(part, transform_instrument(part, spec))
        np.testing.assert_allclose(_table([one]), _table([full[spec.spec_id]]), rtol=1e-13)


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
