"""Algebraic invariances of the per-spec sweep on random datasets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from faskit import Dataset, enumerate_specs, partial_out
from faskit.fas import estimate_specs

FIELDS = ("beta_hat", "se", "pi_hat", "psi_hat", "f_stat")


@st.composite
def datasets(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(40, 200))
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, k)) @ (np.eye(k) + 0.5 * rng.uniform(-1, 1, size=(k, k)))
    pi = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 1.5, size=k)
    x = Z @ pi + rng.standard_normal(n)
    y = x * rng.uniform(-2, 2) + Z @ rng.uniform(-0.5, 0.5, size=k) + rng.standard_normal(n)
    return Dataset(y=y, x=x, Z=Z, z_names=tuple(f"Z{i + 1}" for i in range(k)))


def _sweep(data):
    return estimate_specs(partial_out(data), enumerate_specs(data.k_z))


def _key(spec, relabel=lambda i: i):
    return relabel(spec.instrument_index), frozenset(relabel(c) for c in spec.control_subset)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=datasets(), perm_seed=st.integers(0, 2**32 - 1))
def test_permuting_instruments_permutes_the_spec_table(data, perm_seed):
    perm = np.random.default_rng(perm_seed).permutation(data.k_z)
    permuted = Dataset(y=data.y, x=data.x, Z=data.Z[:, perm], z_names=data.z_names)
    # column j of the permuted data is column perm[j] of the original
    table = {_key(est.spec): est for est in _sweep(data)}
    for est in _sweep(permuted):
        twin = table[_key(est.spec, lambda i: int(perm[i - 1]) + 1)]
        assert est.failure == twin.failure
        got = np.array([getattr(est, f) for f in FIELDS])
        want = np.array([getattr(twin, f) for f in FIELDS])
        np.testing.assert_allclose(got, want, rtol=1e-8)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=datasets(), c=st.floats(-10.0, 10.0))
def test_adding_c_times_x_to_y_shifts_every_beta_by_c(data, c):
    shifted = Dataset(y=data.y + c * data.x, x=data.x, Z=data.Z, z_names=data.z_names)
    for est, moved in zip(_sweep(data), _sweep(shifted)):
        assert est.failure == moved.failure
        if est.failure is None:
            scale = 1.0 + abs(est.beta_hat) + abs(c)
            assert abs(moved.beta_hat - (est.beta_hat + c)) <= 1e-9 * scale
            assert moved.pi_hat == est.pi_hat
