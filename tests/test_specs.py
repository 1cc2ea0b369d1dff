"""Specification enumeration and the transformed instruments ``Z a``."""

import numpy as np
import pytest

from conftest import spec_columns
from faskit import Dataset, JustIdSpec, enumerate_specs, estimate_specs, spec_count
from faskit.errors import DimensionMismatchError, InvalidCountError, TooManyInstrumentsError
from faskit.specs import as_spec_ids, make_spec, spec_fields


def test_counts_for_small_k():
    assert len(enumerate_specs(2)) == 4
    assert len(enumerate_specs(3)) == 12
    assert len(enumerate_specs(4)) == 32


def _nested_loop_lattice(k_z):
    """The lattice as a nested loop over instruments and control bitmasks,
    each spec written out as (instrument_index, control_subset, spec_id,
    label): the reference the id-only spec must reproduce."""
    specs, spec_id = [], 0
    for ell in range(1, k_z + 1):
        others = [i for i in range(1, k_z + 1) if i != ell]
        for mask in range(2 ** len(others)):
            subset = tuple(others[t] for t in range(len(others)) if mask >> t & 1)
            spec_id += 1
            label = f"Z{ell}" + ("|" + ",".join(str(i) for i in subset) if subset else "")
            specs.append((ell, subset, spec_id, label))
    return specs


def test_a_spec_id_derives_the_nested_loop_lattice():
    for k in range(1, 9):
        reference = _nested_loop_lattice(k)
        derived = [
            (s.instrument_index, s.control_subset, s.spec_id, s.label)
            for s in (JustIdSpec(k, i) for i in range(1, spec_count(k) + 1))
        ]
        assert derived == reference
        assert [(s.k_z, s.spec_id) for s in enumerate_specs(k)] == [(k, r[2]) for r in reference]


@pytest.mark.parametrize("k_z, spec_id, error", [
    (3, 0, ValueError),
    (3, 13, ValueError),
    (0, 1, InvalidCountError),
    (21, 1, TooManyInstrumentsError),
    (3, 1.0, TypeError),
])
def test_a_spec_outside_the_lattice_cannot_be_built(k_z, spec_id, error):
    with pytest.raises(error):
        JustIdSpec(k_z, spec_id)


@pytest.mark.parametrize("ell, subset", [
    (1, (2, 2)),  # a repeat, whose bits would add up to Z1|3's id
    (4, ()),  # past the last instrument, whose id would be 13 of 12
    (1, (1,)),
    (0, ()),
    (1, (4,)),
])
def test_make_spec_rejects_what_is_not_a_spec(ell, subset):
    with pytest.raises(ValueError):
        make_spec(3, ell, subset)


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
    cols, A = spec_columns(data, enumerate_specs(2)[:1])  # Z1
    assert A[:, 0].tolist() == [1.0, 0.0]
    assert np.allclose(cols[:, 0], data.Z[:, 0] - data.Z[:, 0].mean(), atol=1e-12)


def test_transform_orthogonal_to_its_controls():
    data = _correlated_dataset()
    spec = next(s for s in enumerate_specs(2) if s.label == "Z1|2")
    cols, A = spec_columns(data, [spec])
    zt = cols[:, 0]
    z2 = data.Z[:, 1]
    assert abs(float(z2 @ zt)) <= 1e-8 * abs(float(z2 @ data.Z[:, 0]))
    assert abs(zt.sum()) <= 1e-8
    # the projection coefficient -a_2 of Z1 on Z2, both demeaned
    Zc = data.Z - data.Z.mean(axis=0)
    phi = float(Zc[:, 1] @ Zc[:, 0]) / float(Zc[:, 1] @ Zc[:, 1])
    assert -A[1, 0] == pytest.approx(phi, rel=1e-10)


def test_duplicate_instrument_is_degenerate():
    rng = np.random.default_rng(37)
    z1 = rng.standard_normal(100)
    Z = np.column_stack([z1, z1])
    data = Dataset(
        y=rng.standard_normal(100), x=rng.standard_normal(100), Z=Z,
        z_names=("Z1", "Z2"),
    )
    spec = next(s for s in enumerate_specs(2) if s.label == "Z2|1")
    assert estimate_specs(data, [spec]).failure.tolist() == ["degenerate"]


def test_pair_transform_identity():
    # Residualizing Z_{1|2} on z1 lands on -phi12 * Z_{2|1}.
    data = _correlated_dataset(seed=41)
    by_label = {s.label: s for s in enumerate_specs(2)}
    cols, A = spec_columns(data, [by_label["Z1|2"], by_label["Z2|1"]])
    t12, t21 = cols.T
    basis = np.column_stack([np.ones(data.n), data.Z[:, 0]])
    lhs = t12 - basis @ np.linalg.lstsq(basis, t12, rcond=None)[0]
    rhs = A[1, 0] * t21  # -phi12 is Z1|2's coefficient on Z2
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, float(np.max(np.abs(lhs))))


def test_transform_ignores_control_listing_order():
    # make_spec is the one encoder, so a listing order never reaches the solve
    spec = next(s for s in enumerate_specs(3) if s.label == "Z1|2,3")
    assert make_spec(3, 1, (3, 2)) == make_spec(3, 1, (2, 3)) == spec


def _correlated_k2(n=200, seed=5):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, 2))
    Z[:, 1] += 0.8 * Z[:, 0]
    x = Z @ np.array([1.0, 0.5]) + rng.standard_normal(n)
    y = x + 0.3 * Z[:, 1] + rng.standard_normal(n)
    return Dataset(y=y, x=x, Z=Z, z_names=("Z1", "Z2"))


def test_a_spec_of_another_instrument_count_raises():
    # k=2's Z1|2 has spec_id 2, which at k=3 would decode as Z1|2 too
    data = _correlated_k2()
    Z = np.column_stack([data.Z, data.Z[:, 0] ** 2])
    data3 = data.with_arrays(data.y, data.x, Z, z_names=("Z1", "Z2", "Z3"))
    with pytest.raises(DimensionMismatchError, match="'Z1\\|2' is one of 2 instruments"):
        estimate_specs(data3, [make_spec(3, 2, ()), make_spec(2, 1, (2,))])


def test_a_spec_of_another_instrument_count_raises_before_rows_are_failed():
    # one row and no intercept leave no spec a residual degree of freedom,
    # so every row of the dataset's own count is "insufficient-observations"
    rng = np.random.default_rng(3)
    data = Dataset(
        y=rng.standard_normal(1), x=rng.standard_normal(1), Z=rng.standard_normal((1, 3)),
        z_names=("Z1", "Z2", "Z3"), intercept=False,
    )
    with pytest.raises(DimensionMismatchError, match="'Z1\\|2' is one of 2 instruments"):
        estimate_specs(data, [make_spec(2, 1, (2,))])
    table = estimate_specs(data, [make_spec(3, 1, (2,))])
    assert table.failure.tolist() == ["insufficient-observations"]
    assert table.k_z == 3 and table.spec_ids.tolist() == [make_spec(3, 1, (2,)).spec_id]


def test_spec_ids_read_from_specs_or_from_ids():
    specs = [make_spec(3, 2, (1,)), make_spec(3, 1, ())]
    for given in (specs, [s.spec_id for s in specs], np.array([6, 1], dtype=np.int32)):
        ids = as_spec_ids(given, 3)
        assert ids.dtype == np.int64 and ids.tolist() == [6, 1]
    assert as_spec_ids([], 3).dtype == np.int64 and as_spec_ids((), 3).size == 0


@pytest.mark.parametrize("given, error", [
    ([0], ValueError),
    ([13], ValueError),
    (np.array([1, 12, 13]), ValueError),
    ([1.0], TypeError),
    ([[1]], TypeError),
    ([True], TypeError),
    ([make_spec(2, 1, ())], DimensionMismatchError),
    ([make_spec(3, 1, ()), 5], TypeError),
])
def test_spec_ids_outside_the_lattice_are_refused(given, error):
    with pytest.raises(error):
        as_spec_ids(given, 3)


def test_spec_fields_decode_each_id_as_its_spec_does():
    for k in range(1, 8):
        specs = enumerate_specs(k)
        instrument, controls, labels = spec_fields(k, np.arange(1, spec_count(k) + 1))
        assert instrument.tolist() == [s.instrument_index for s in specs]
        assert controls == [list(s.control_subset) for s in specs]
        assert labels == [s.label for s in specs]
    instrument, controls, labels = spec_fields(4, np.array([32, 1, 32], dtype=np.int64))
    assert (instrument.tolist(), controls, labels) == (
        [4, 1, 4], [[1, 2, 3], [], [1, 2, 3]], ["Z4|1,2,3", "Z1", "Z4|1,2,3"]
    )
    assert spec_fields(4, np.zeros(0, dtype=np.int64))[1:] == ([], [])


def test_the_mismatched_k2_spec_would_have_taken_another_estimate():
    data = _correlated_k2()
    z1, z1_2 = (estimate_specs(data, [make_spec(2, 1, c)]).beta_hat[0] for c in ((), (2,)))
    assert abs(z1 - z1_2) > 0.05
