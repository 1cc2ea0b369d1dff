"""Specification enumeration and transformed-instrument construction."""

import numpy as np
import pytest

from faskit import Dataset, enumerate_specs, spec_count, transform_instrument
from faskit.errors import (
    DegenerateInstrumentError,
    InvalidCountError,
    TooManyInstrumentsError,
)
from faskit.specs import make_spec


def test_counts_for_small_k():
    assert len(enumerate_specs(2)) == 4
    assert len(enumerate_specs(3)) == 12
    assert len(enumerate_specs(4)) == 32


def test_make_spec_builds_the_lattice_entry():
    for k in range(1, 7):
        for spec in enumerate_specs(k):
            assert make_spec(k, spec.instrument_index, spec.control_subset) == spec


def test_count_formula_exhaustively():
    for k in range(1, 11):
        specs = enumerate_specs(k)
        assert len(specs) == spec_count(k) == k * 2 ** (k - 1)
        # each (instrument, subset) pair exactly once, subsets complete per instrument
        seen = {(s.instrument_index, s.control_subset) for s in specs}
        assert len(seen) == len(specs)
        for ell in range(1, k + 1):
            subsets = [s.control_subset for s in specs if s.instrument_index == ell]
            assert len(subsets) == 2 ** (k - 1)
            assert all(ell not in c for c in subsets)


def test_ordering_is_instrument_major_binary_counter():
    specs = enumerate_specs(3)
    assert [s.label for s in specs[:4]] == ["Z1", "Z1|2", "Z1|3", "Z1|2,3"]
    assert [s.spec_id for s in specs] == list(range(1, 13))
    assert [s.label for s in specs[4:8]] == ["Z2", "Z2|1", "Z2|3", "Z2|1,3"]
    assert specs[11].label == "Z3|1,2"


def test_k_out_of_range():
    with pytest.raises(InvalidCountError):
        enumerate_specs(0)
    with pytest.raises(TooManyInstrumentsError):
        enumerate_specs(21)


def _correlated_dataset(seed=31, n=300, rho=0.5):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, 2))
    Z[:, 1] = rho * Z[:, 0] + np.sqrt(1 - rho * rho) * Z[:, 1]
    x = Z @ np.array([1.0, 0.8]) + rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    return Dataset(y=y, x=x, Z=Z, z_names=("Z1", "Z2"))


def test_transform_without_controls_demeans():
    data = _correlated_dataset()
    spec = enumerate_specs(2)[0]  # Z1
    zt = transform_instrument(data, spec)
    assert zt.projection_coeffs.size == 0
    assert np.allclose(zt.values, data.Z[:, 0] - data.Z[:, 0].mean(), atol=1e-12)


def test_transform_orthogonal_to_its_controls():
    data = _correlated_dataset()
    spec = next(s for s in enumerate_specs(2) if s.label == "Z1|2")
    zt = transform_instrument(data, spec)
    z2 = data.Z[:, 1]
    assert abs(float(z2 @ zt.values)) <= 1e-8 * abs(float(z2 @ data.Z[:, 0]))
    assert abs(zt.values.sum()) <= 1e-8
    assert zt.projection_coeffs.shape == (1,)


def test_duplicate_instrument_is_degenerate():
    rng = np.random.default_rng(37)
    z1 = rng.standard_normal(100)
    Z = np.column_stack([z1, z1])
    data = Dataset(
        y=rng.standard_normal(100), x=rng.standard_normal(100), Z=Z,
        z_names=("Z1", "Z2"),
    )
    spec = next(s for s in enumerate_specs(2) if s.label == "Z2|1")
    with pytest.raises(DegenerateInstrumentError):
        transform_instrument(data, spec)


def test_pair_transform_identity():
    # Residualizing Z_{1|2} on z1 lands on -phi12 * Z_{2|1}.
    data = _correlated_dataset(seed=41)
    by_label = {s.label: s for s in enumerate_specs(2)}
    t12 = transform_instrument(data, by_label["Z1|2"])
    t21 = transform_instrument(data, by_label["Z2|1"])
    basis = np.column_stack([np.ones(data.n), data.Z[:, 0]])
    lhs = t12.values - basis @ np.linalg.lstsq(basis, t12.values, rcond=None)[0]
    rhs = -t12.projection_coeffs[0] * t21.values
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, float(np.max(np.abs(lhs))))


def test_transform_ignores_control_listing_order():
    rng = np.random.default_rng(43)
    Z = rng.standard_normal((150, 3))
    data = Dataset(
        y=rng.standard_normal(150), x=rng.standard_normal(150), Z=Z,
        z_names=("Z1", "Z2", "Z3"),
    )
    spec = next(s for s in enumerate_specs(3) if s.label == "Z1|2,3")
    from faskit import JustIdSpec

    flipped = JustIdSpec(
        instrument_index=1, control_subset=(3, 2), spec_id=spec.spec_id,
        label=spec.label,
    )
    a = transform_instrument(data, spec)
    b = transform_instrument(data, flipped)
    assert np.max(np.abs(a.values - b.values)) <= 1e-10
