"""Algebraic invariances of the per-spec sweep on random datasets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from faskit import Dataset, enumerate_specs, partial_out
from faskit.fas import estimate_specs

FIELDS = ("beta_hat", "se", "pi_hat", "psi_hat", "f_stat")

# Over the 200 draws of each rescaling and row-permutation test below, the
# worst relative error of any column was 1.5e-13 (numpy 2.4, OpenBLAS); the
# bound leaves room for BLAS builds that round differently.
RTOL = 1e-9


@st.composite
def datasets(draw, max_controls=0):
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, 4))
    m = draw(st.integers(0, max_controls))
    n = draw(st.integers(40, 200))
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, m))
    Z = rng.standard_normal((n, k)) @ (np.eye(k) + 0.5 * rng.uniform(-1, 1, size=(k, k)))
    Z += W @ rng.uniform(-1, 1, size=(m, k))
    pi = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 1.5, size=k)
    x = Z @ pi + W @ rng.uniform(-1, 1, size=m) + rng.standard_normal(n)
    y = x * rng.uniform(-2, 2) + Z @ rng.uniform(-0.5, 0.5, size=k) + rng.standard_normal(n)
    y += W @ rng.uniform(-1, 1, size=m)
    return Dataset(
        y=y, x=x, Z=Z, z_names=tuple(f"Z{i + 1}" for i in range(k)),
        controls=W, control_names=tuple(f"w{i + 1}" for i in range(m)),
    )


def _sweep(data):
    return estimate_specs(partial_out(data), enumerate_specs(data.k_z))


def _columns(table):
    return {name: getattr(table, name) for name in FIELDS}


def _key(spec, relabel=lambda i: i):
    return relabel(spec.instrument_index), frozenset(relabel(c) for c in spec.control_subset)


def _assert_scaled(got, want, factors):
    """Every column of ``got`` equals ``factors[name]`` times that of
    ``want`` (factor 1 for the columns not named) to RTOL."""
    assert np.array_equal(got.failure, want.failure)
    for name, column in _columns(want).items():
        expected = column * factors.get(name, 1.0)
        np.testing.assert_allclose(getattr(got, name), expected, rtol=RTOL, atol=0.0, err_msg=name)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=datasets(), perm_seed=st.integers(0, 2**32 - 1))
def test_permuting_instruments_permutes_the_spec_table(data, perm_seed):
    perm = np.random.default_rng(perm_seed).permutation(data.k_z)
    permuted = Dataset(y=data.y, x=data.x, Z=data.Z[:, perm], z_names=data.z_names)
    # column j of the permuted data is column perm[j] of the original
    original = _sweep(data)
    position = {_key(spec): pos for pos, spec in enumerate(original.specs)}
    got = _sweep(permuted)
    twin = original.take([position[_key(spec, lambda i: int(perm[i - 1]) + 1)] for spec in got.specs])
    assert np.array_equal(got.failure, twin.failure)
    for name, column in _columns(twin).items():
        np.testing.assert_allclose(getattr(got, name), column, rtol=1e-8)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=datasets(), c=st.floats(-10.0, 10.0))
def test_adding_c_times_x_to_y_shifts_every_beta_by_c(data, c):
    shifted = Dataset(y=data.y + c * data.x, x=data.x, Z=data.Z, z_names=data.z_names)
    table, moved = _sweep(data), _sweep(shifted)
    assert np.array_equal(table.failure, moved.failure)
    ok = table.estimated
    scale = 1.0 + np.abs(table.beta_hat[ok]) + abs(c)
    assert np.all(np.abs(moved.beta_hat[ok] - (table.beta_hat[ok] + c)) <= 1e-9 * scale)
    assert np.array_equal(moved.pi_hat, table.pi_hat, equal_nan=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=datasets(max_controls=2), perm_seed=st.integers(0, 2**32 - 1))
def test_permuting_rows_changes_nothing(data, perm_seed):
    rows = np.random.default_rng(perm_seed).permutation(data.n)
    shuffled = data.with_arrays(data.y[rows], data.x[rows], data.Z[rows], controls=data.controls[rows])
    _assert_scaled(_sweep(shuffled), _sweep(data), {})


_SCALES = st.sampled_from([-1.0, 1.0]).flatmap(lambda sign: st.floats(0.01, 100.0).map(lambda c: sign * c))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=datasets(max_controls=2), column=st.integers(0, 3), c=_SCALES)
def test_rescaling_an_instrument_moves_only_its_own_first_stages(data, column, c):
    # beta, se and F do not depend on an instrument's units; pi and psi of
    # the specs that identify with it scale by 1/c, and a control's
    # residualization absorbs any scale
    ell = column % data.k_z
    Z = data.Z.copy()
    Z[:, ell] *= c
    table = _sweep(data)
    rescaled = _sweep(data.with_arrays(data.y, data.x, Z))
    own = np.array([spec.instrument_index == ell + 1 for spec in table.specs])
    factor = np.where(own, 1.0 / c, 1.0)
    _assert_scaled(rescaled, table, {"pi_hat": factor, "psi_hat": factor})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=datasets(max_controls=2), c=_SCALES, outcome=st.booleans())
def test_rescaling_x_or_y_scales_beta_and_leaves_f_alone(data, c, outcome):
    if outcome:
        moved = data.with_arrays(c * data.y, data.x, data.Z)
        factors = {"beta_hat": c, "se": abs(c), "psi_hat": c}
    else:
        moved = data.with_arrays(data.y, c * data.x, data.Z)
        factors = {"beta_hat": 1.0 / c, "se": 1.0 / abs(c), "pi_hat": c}
    _assert_scaled(_sweep(moved), _sweep(data), factors)
