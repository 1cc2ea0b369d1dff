"""Partialling out the intercept and controls."""

import numpy as np
import pytest

from faskit import Dataset, enumerate_specs, estimate_specs, partial_out
from faskit.errors import InsufficientObservationsError, RankDeficientError


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


def _lstsq_residuals(a, X):
    return a - X @ np.linalg.lstsq(X, a, rcond=None)[0]


def _relative_errors(got, want):
    got, want = np.atleast_2d(got.T).T, np.atleast_2d(want.T).T
    return np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)


@pytest.mark.parametrize("offset", [False, True], ids=["random", "offset 1e6"])
def test_partial_out_equals_the_lstsq_residuals_on_intercept_and_controls(offset):
    rng = np.random.default_rng(31)
    n = 3000
    W = rng.standard_normal((n, 2)) * [1.0, 40.0]
    Z = rng.standard_normal((n, 3)) + W @ rng.uniform(-1, 1, (2, 3))
    x = Z @ np.array([1.0, 0.5, -0.3]) + W[:, 0] + rng.standard_normal(n)
    y = x + W @ np.array([0.3, -0.02]) + rng.standard_normal(n)
    shifted_W, shifted_Z = W, Z
    if offset:
        # centring one pass would leave about 1e-8 of these columns' norms;
        # the reference takes 1e6 off first, which is exact here (every
        # value lies within a factor 2 of 1e6) and leaves the span of
        # (1, W) unchanged, so lstsq sees well-conditioned columns
        W, Z = W.copy(), Z.copy()
        W[:, 0] += 1e6
        Z[:, 1] += 1e6
        shifted_W, shifted_Z = W.copy(), Z.copy()
        shifted_W[:, 0] -= 1e6
        shifted_Z[:, 1] -= 1e6
    data = Dataset(y=y, x=x, Z=Z, z_names=("Z1", "Z2", "Z3"), controls=W, control_names=("w1", "w2"))
    out = partial_out(data)
    X = np.column_stack([np.ones(n), shifted_W])
    for got, a in ((out.y, y), (out.x, x), (out.Z, shifted_Z)):
        assert np.all(_relative_errors(got, _lstsq_residuals(a, X)) <= 1e-12)
    assert out.n_absorbed == 3


def test_partial_out_of_an_intercept_only_dataset_is_centring():
    rng = np.random.default_rng(37)
    data = _toy_dataset(rng, n=5000)
    out = partial_out(data)
    for got, a in ((out.y, data.y), (out.x, data.x), (out.Z, data.Z)):
        assert np.all(_relative_errors(got, a - a.mean(0)) <= 1e-12)
    assert out.n_absorbed == 1


@pytest.mark.parametrize("n, m", [(1, 0), (3, 2), (2, 1)])
def test_partial_out_needs_more_rows_than_partialled_columns(n, m):
    rng = np.random.default_rng(41)
    data = Dataset(
        y=rng.standard_normal(n), x=rng.standard_normal(n), Z=rng.standard_normal((n, 2)),
        z_names=("Z1", "Z2"), controls=rng.standard_normal((n, m)),
        control_names=[f"w{i}" for i in range(m)],
    )
    with pytest.raises(InsufficientObservationsError):
        partial_out(data)


@pytest.mark.parametrize("value", [0.1, 7.0, -3e5])
@pytest.mark.parametrize("with_other", [False, True])
def test_a_control_collinear_with_the_intercept_is_rank_deficient(value, with_other):
    rng = np.random.default_rng(43)
    n = 200
    controls = np.full((n, 1), value)
    if with_other:
        controls = np.column_stack([rng.standard_normal(n), controls])
    data = _toy_dataset(rng, n=n, controls=controls, control_names=[f"w{i}" for i in range(controls.shape[1])])
    with pytest.raises(RankDeficientError):
        partial_out(data)
    # without the intercept, a nonzero constant is an ordinary control
    alone = Dataset(y=data.y, x=data.x, Z=data.Z, z_names=data.z_names, controls=controls,
                    control_names=data.control_names, intercept=False)
    assert partial_out(alone).n_absorbed == controls.shape[1]


def _partial_cases():
    rng = np.random.default_rng(47)
    n = 2000
    W = rng.standard_normal((n, 2)) * [1.0, 30.0]
    Z = rng.standard_normal((n, 3)) + W @ rng.uniform(-1, 1, (2, 3))
    x = Z @ np.array([1.0, 0.5, -0.3]) + W[:, 0] + rng.standard_normal(n)
    y = x + W @ np.array([0.3, -0.02]) + rng.standard_normal(n)
    names = ("Z1", "Z2", "Z3")
    offset = W.copy()
    offset[:, 0] += 1e6
    return {
        "intercept only": Dataset(y=y, x=x, Z=Z, z_names=names),
        "controls": Dataset(y=y, x=x, Z=Z, z_names=names, controls=W, control_names=("w1", "w2")),
        "control offset 1e6": Dataset(
            y=y, x=x, Z=Z, z_names=names, controls=offset, control_names=("w1", "w2")
        ),
    }


def _copied(data):
    return Dataset(
        y=data.y.copy(), x=data.x.copy(), Z=data.Z.copy(), z_names=data.z_names,
        controls=data.controls.copy(), control_names=data.control_names, intercept=data.intercept,
    )


@pytest.mark.parametrize("case", list(_partial_cases()))
def test_partial_out_leaves_its_input_untouched(case):
    data = _partial_cases()[case]
    before = _copied(data)
    partial_out(data)
    for name in ("y", "x", "Z", "controls"):
        assert getattr(data, name).tobytes() == getattr(before, name).tobytes(), name


@pytest.mark.parametrize("case", list(_partial_cases()))
def test_in_place_partialling_has_the_bits_of_the_copy(case):
    data = _partial_cases()[case]
    copied = partial_out(data)
    own = _copied(data)
    in_place = partial_out(own, in_place=True)
    for name in ("y", "x", "Z"):
        assert getattr(in_place, name).tobytes() == getattr(copied, name).tobytes(), name
        # the residuals overwrite the input's own arrays
        assert np.shares_memory(getattr(in_place, name), getattr(own, name)), name
    assert (in_place.n_absorbed, in_place.intercept, in_place.control_names) == (
        copied.n_absorbed, False, ()
    )
