"""Partialling out the intercept and controls."""

import numpy as np

from faskit import Dataset, enumerate_specs, estimate_specs, partial_out


def _toy_dataset(rng, n=100, controls=None, control_names=()):
    Z = rng.standard_normal((n, 2))
    x = Z @ np.array([1.0, 0.5]) + rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    kwargs = {}
    if controls is not None:
        kwargs = {"controls": controls, "control_names": control_names}
    return Dataset(y=y, x=x, Z=Z, z_names=("Z1", "Z2"), **kwargs)


def test_partial_out_without_controls_demeans():
    rng = np.random.default_rng(19)
    data = _toy_dataset(rng)
    out = partial_out(data)
    assert abs(out.y.mean()) < 1e-12
    assert abs(out.x.mean()) < 1e-12
    assert np.max(np.abs(out.Z.mean(axis=0))) < 1e-12
    assert out.n_absorbed == 1
    assert not out.intercept
    assert out.controls.shape == (data.n, 0)


def test_partial_out_orthogonalizes_against_controls():
    rng = np.random.default_rng(23)
    w = rng.standard_normal((500, 1))
    Z = rng.standard_normal((500, 2)) + w
    x = Z @ np.array([1.0, 0.5]) + w[:, 0] + rng.standard_normal(500)
    y = x + w[:, 0] + rng.standard_normal(500)
    data = Dataset(y=y, x=x, Z=Z, z_names=("Z1", "Z2"), controls=w, control_names=("w",))
    out = partial_out(data)
    scale = max(1.0, float(np.max(np.abs(w.T @ Z))))
    for col in (out.y, out.x, out.Z[:, 0], out.Z[:, 1]):
        assert abs(float(w[:, 0] @ col)) <= 1e-8 * scale
    assert out.n_absorbed == 2  # intercept plus one control


def test_partialling_on_a_copy_of_x_kills_the_first_stage():
    rng = np.random.default_rng(29)
    data = _toy_dataset(rng)
    data = Dataset(
        y=data.y,
        x=data.x,
        Z=data.Z,
        z_names=data.z_names,
        controls=data.x[:, None].copy(),
        control_names=("xcopy",),
    )
    out = partial_out(data)
    assert np.max(np.abs(out.x)) < 1e-10
    assert estimate_specs(out, enumerate_specs(2)[:1]).failure.tolist() == ["zero-first-stage"]
