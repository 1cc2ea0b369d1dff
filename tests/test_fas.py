"""Relevance selection, FAS assembly, the population oracle, and the frontier."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import example1_model, example2_model, random_model
from faskit import (
    Dataset,
    Mode,
    PopulationModel,
    SimulationConfig,
    enumerate_specs,
    fas_by_mode,
    fas_estimate,
    fas_from_estimates,
    frontier,
    identified_set,
    just_id_iv,
    partial_out,
    population_fas,
    population_fas_by_mode,
    population_frontier,
    population_spec_moments,
    simulate,
    specs_for_mode,
    transform_instrument,
)
from faskit import fas as fas_module
from faskit import specs as specs_module
from faskit.errors import (
    DegenerateInstrumentError,
    DimensionMismatchError,
    InsufficientObservationsError,
    InvalidCountError,
    SingularSigmaError,
    TooManyInstrumentsError,
)
from faskit.estimators import SpecTable


def _fake_table(f_stats, failure=None):
    m = len(f_stats)
    ones = np.ones(m)
    failure = np.array([None] * m if failure is None else failure, dtype=object)
    return SpecTable(
        enumerate_specs(2)[:m], np.arange(m, dtype=float), ones, ones, ones,
        np.array(f_stats, dtype=float), failure,
    )


def _screen(table, cutoff=10.0):
    return fas_from_estimates(table, cutoff, Mode.GENERAL)


def _status_by_id(result):
    return {spec.spec_id: status for spec, status in zip(result.table.specs, result.status)}


def test_no_relevance_rejects_everything():
    result = _screen(_fake_table([0.0, 0.0, 0.0, 0.0]))
    assert not result.selected.any() and result.interval is None
    assert set(result.status) == {"low-F"}


def test_selection_splits_on_the_cutoff():
    result = _screen(_fake_table([78.20, 0.95, 74.01, 19.00]))
    assert result.selected.tolist() == [True, False, True, True]
    assert _status_by_id(result) == {1: "selected", 2: "low-F", 3: "selected", 4: "selected"}
    # the interval spans the selected betas 0, 2 and 3
    assert result.interval == (0.0, 3.0)


def test_a_failed_row_is_never_selected():
    result = _screen(_fake_table([50.0, 50.0, 50.0], [None, "degenerate", "zero-first-stage"]))
    assert result.status.tolist() == ["selected", "degenerate", "zero-first-stage"]
    assert result.interval == (0.0, 0.0)


def test_cutoff_comparison_is_inclusive():
    table = _fake_table([10.0])
    assert _screen(table, 10.0).selected.tolist() == [True]
    assert _screen(table, 10.0 - 1e-9).selected.tolist() == [True]


def test_cutoff_must_be_positive():
    with pytest.raises(ValueError):
        _screen(_fake_table([1.0]), 0.0)


def test_specs_for_mode_families():
    assert [s.label for s in specs_for_mode(Mode.EXCL, 3)] == [
        "Z1|2,3", "Z2|1,3", "Z3|1,2",
    ]
    assert [s.label for s in specs_for_mode(Mode.EXO, 3)] == ["Z1", "Z2", "Z3"]
    assert len(specs_for_mode(Mode.GENERAL, 3)) == 12


def _lattice_views(modes, lattice, k):
    """Reference for fas._mode_views: filter the whole lattice per mode."""
    def member(spec, mode):
        excl, exo = len(spec.control_subset) == k - 1, not spec.control_subset
        return {Mode.EXCL: excl, Mode.EXO: exo, Mode.GENERAL: True}[mode]

    union = [s for s in lattice if any(member(s, m) for m in modes)]
    views = {m: [pos for pos, s in enumerate(union) if member(s, m)] for m in modes}
    return union, views


def test_mode_views_equal_a_lattice_filter():
    for k in range(1, 13):
        lattice = enumerate_specs(k)
        for size in (1, 2, 3):
            for modes in itertools.combinations(Mode, size):
                # the views follow the order the modes are asked in
                modes = modes[::-1] if k % 2 else modes
                union, views = fas_module._mode_views(list(modes), k)
                want_union, want_views = _lattice_views(modes, lattice, k)
                assert union == want_union, (k, modes)
                assert views == want_views and list(views) == list(modes), (k, modes)


@pytest.mark.parametrize("mode", list(Mode))
def test_every_mode_raises_the_lattice_count_errors(mode):
    for k, error in ((0, InvalidCountError), (21, TooManyInstrumentsError)):
        with pytest.raises(error) as want:
            enumerate_specs(k)
        with pytest.raises(error) as got:
            specs_for_mode(mode, k)
        assert str(got.value) == str(want.value)


def test_excl_and_exo_never_build_the_lattice(monkeypatch):
    def no_lattice(k_z):
        raise AssertionError(f"enumerate_specs({k_z}) was called")

    monkeypatch.setattr(fas_module, "enumerate_specs", no_lattice)
    monkeypatch.setattr(specs_module, "enumerate_specs", no_lattice)
    k = 20
    model = random_model(np.random.default_rng(151), k)
    modes = [Mode.EXCL, Mode.EXO]
    block = 2 ** (k - 1)
    ids = {Mode.EXCL: [ell * block for ell in range(1, k + 1)],
           Mode.EXO: [(ell - 1) * block + 1 for ell in range(1, k + 1)]}
    sample = fas_by_mode(simulate(SimulationConfig(model=model, n=300, seed=151)), modes)
    population = population_fas_by_mode(model, modes)
    for results in (sample, population):
        for mode in modes:
            assert [spec.spec_id for spec in results[mode].table.specs] == ids[mode]
    # closed forms: Excl has the full-regression coefficients, Exo the marginal ones
    sigma, pi = model.sigma_z, model.pi
    cov_zy = sigma @ (pi * model.beta + model.gamma) + model.alpha
    excl = population[Mode.EXCL].table
    exo = population[Mode.EXO].table
    np.testing.assert_allclose(excl.pi_hat, pi, rtol=1e-9)
    np.testing.assert_allclose(excl.psi_hat, np.linalg.solve(sigma, cov_zy), rtol=1e-9)
    np.testing.assert_allclose(exo.pi_hat, sigma @ pi / np.diag(sigma), rtol=1e-12)
    np.testing.assert_allclose(exo.psi_hat, cov_zy / np.diag(sigma), rtol=1e-12)


def test_single_instrument_modes_coincide():
    rng = np.random.default_rng(103)
    data = simulate(SimulationConfig(model=random_model(rng, 1), n=300, seed=103))
    results = [fas_estimate(data, mode=m) for m in Mode]
    points = {r.interval for r in results}
    assert len(points) == 1
    lo, hi = points.pop()
    assert lo == hi


def test_empty_selection_reports_instead_of_raising():
    rng = np.random.default_rng(107)
    data = simulate(SimulationConfig(model=random_model(rng, 2), n=200, seed=107))
    result = fas_estimate(data, mode=Mode.GENERAL, cutoff=1e9)
    assert result.interval is None
    assert not result.selected.any()
    assert set(result.status) == {"low-F"}


def test_duplicated_instrument_column_degenerates_not_raises():
    rng = np.random.default_rng(109)
    z = rng.standard_normal(200)
    x = z + rng.standard_normal(200)
    data = Dataset(
        y=x + rng.standard_normal(200), x=x,
        Z=np.column_stack([z, z]), z_names=("Z1", "Z2"),
    )
    result = fas_estimate(data, mode=Mode.EXCL, cutoff=10.0)
    assert result.interval is None
    assert set(result.status) == {"degenerate"}


def test_an_exactly_zero_transform_is_degenerate_without_a_warning():
    # here the Z1|3 transform comes out as exact zeros, so the column
    # kernel divides 0 by 0 for it; the suite turns a RuntimeWarning into
    # an error
    rng = np.random.default_rng(157)
    z1, z2 = rng.standard_normal((2, 300))
    x = z1 + 0.8 * z2 + rng.standard_normal(300)
    data = Dataset(
        y=x + rng.standard_normal(300), x=x,
        Z=np.column_stack([z1, z2, z1]), z_names=("Z1", "Z2", "Z3"),
    )
    result = fas_estimate(data, mode=Mode.GENERAL)
    assert _status_by_id(result)[3] == "degenerate"  # Z1|3


def test_collinear_control_instruments_degenerate_in_every_mode():
    # Z3 repeats Z1, so every spec that controls for both, or that
    # residualizes one on the other, has nothing left to identify with
    rng = np.random.default_rng(113)
    z1, z2 = rng.standard_normal((2, 300))
    x = z1 + 0.8 * z2 + rng.standard_normal(300)
    data = Dataset(
        y=x + rng.standard_normal(300), x=x,
        Z=np.column_stack([z1, z2, z1]), z_names=("Z1", "Z2", "Z3"),
    )
    expected = {
        Mode.EXCL: {"Z1|2,3", "Z2|1,3", "Z3|1,2"},
        Mode.EXO: set(),
        Mode.GENERAL: {"Z1|3", "Z1|2,3", "Z2|1,3", "Z3|1", "Z3|1,2"},
    }
    for mode, labels in expected.items():
        result = fas_estimate(data, mode=mode)
        table = result.table
        assert {spec.label for spec, why in zip(table.specs, result.status) if why == "degenerate"} == labels
        assert set(table.failure) <= {None, "degenerate"}
        # a failed row holds no numbers
        failed = ~table.estimated
        for column in (table.beta_hat, table.se, table.pi_hat, table.psi_hat):
            assert np.isnan(column[failed]).all() and not np.isnan(column[~failed]).any()
        assert (table.f_stat[failed] == 0.0).all()
    assert fas_estimate(data, mode=Mode.EXCL).interval is None
    assert fas_estimate(data, mode=Mode.GENERAL).interval is not None
    spec = next(s for s in enumerate_specs(3) if s.label == "Z2|1,3")
    with pytest.raises(DegenerateInstrumentError):
        transform_instrument(data, spec)


def _tiny_dataset(n):
    rng = np.random.default_rng(167)
    Z = rng.standard_normal((n, 3))
    x = Z @ np.array([1.0, 0.8, 0.6]) + rng.standard_normal(n)
    return Dataset(y=x + rng.standard_normal(n), x=x, Z=Z, z_names=("Z1", "Z2", "Z3"))


def test_a_first_stage_without_residual_degrees_of_freedom_is_a_failure():
    # with an intercept, n=4 rows and k=3, a spec Z_l|rest fits 4
    # coefficients in its first stage: it has no estimate, and nothing
    # smaller than n <= 1 + |C| + absorbed is refused
    data = _tiny_dataset(4)
    result = fas_estimate(data, mode=Mode.GENERAL, cutoff=1e-9)
    full = {spec.label for spec in specs_for_mode(Mode.EXCL, 3)}
    for spec, status in zip(result.table.specs, result.status):
        assert (status == "insufficient-observations") == (spec.label in full), spec.label
    assert fas_estimate(data, mode=Mode.EXCL, cutoff=1e-9).interval is None
    part = partial_out(data)
    for spec in specs_for_mode(Mode.GENERAL, 3):
        zt = transform_instrument(part, spec)
        if spec.label in full:
            with pytest.raises(InsufficientObservationsError):
                just_id_iv(part, zt)
        else:
            assert just_id_iv(part, zt).estimated.all()
    assert set(fas_estimate(_tiny_dataset(5), mode=Mode.GENERAL, cutoff=1e-9).status) == {"selected"}


def test_example_population_excl_interval_is_exact():
    result = population_fas(example1_model(), Mode.EXCL)
    assert result.interval == (0.0, 3.0)


def test_exogeneity_example_closed_forms():
    model = example2_model(pi1=1.0, pi2=1.0, rho=0.5, alpha2=0.3)
    exo = population_fas(model, Mode.EXO).interval
    excl = population_fas(model, Mode.EXCL).interval
    # hand-derived: exo adds alpha2 / (pi2 + rho pi1) on one side only,
    # excl spans {-rho alpha2 / pi1, alpha2 / pi2} / (1 - rho^2)
    assert exo == pytest.approx((1.0, 1.0 + 0.3 / 1.5), abs=1e-12)
    assert excl == pytest.approx((1.0 - 0.15 / 0.75, 1.0 + 0.3 / 0.75), abs=1e-12)


def test_all_valid_model_collapses_to_beta():
    rng = np.random.default_rng(113)
    model = random_model(rng, 3)
    model = PopulationModel(
        beta=model.beta, gamma=np.zeros(3), alpha=np.zeros(3),
        pi=model.pi, sigma_z=model.sigma_z,
    )
    for mode in Mode:
        lo, hi = population_fas(model, mode).interval
        assert lo == pytest.approx(model.beta, abs=1e-10)
        assert hi == pytest.approx(model.beta, abs=1e-10)


def test_identified_set_point_and_empty_cases():
    pi = np.array([1.0, 2.0])
    psi = np.array([0.5, 1.0])
    assert identified_set(pi, psi, np.zeros(2)) == pytest.approx((0.5, 0.5))
    # third componentwise case: irrelevant spec with unexplained reduced form
    assert identified_set(np.array([0.0]), np.array([0.2]), np.array([0.1])) is None
    # irrelevant but consistent component constrains nothing
    lo, hi = identified_set(
        np.array([1.0, 0.0]), np.array([0.5, 0.05]), np.array([0.0, 0.1])
    )
    assert (lo, hi) == pytest.approx((0.5, 0.5))
    with pytest.raises(ValueError):
        identified_set(pi, psi, np.array([-0.1, 0.0]))


def test_identified_set_matches_a_brute_force_scan():
    pi = np.ones(3)
    psi = np.array([0.0, 1.0, 3.0])
    delta = np.full(3, 0.4)
    assert identified_set(pi, psi, delta) is None
    grid = np.arange(-1.0, 4.0, 1e-4)
    ok = np.ones_like(grid, dtype=bool)
    for p, s, d in zip(pi, psi, delta):
        ok &= np.abs(s - grid * p) <= d
    assert not ok.any()
    # delta 1.5 leaves exactly one feasible point
    assert identified_set(pi, psi, np.full(3, 1.5)) == pytest.approx((1.5, 1.5))
    # widen until the scan finds solutions, then the interval must agree
    delta = np.full(3, 1.6)
    lo, hi = identified_set(pi, psi, delta)
    ok = np.ones_like(grid, dtype=bool)
    for p, s, d in zip(pi, psi, delta):
        ok &= np.abs(s - grid * p) <= d
    assert lo == pytest.approx(grid[ok].min(), abs=1e-3)
    assert hi == pytest.approx(grid[ok].max(), abs=1e-3)


def _example1_moments():
    model = example1_model()
    specs = specs_for_mode(Mode.EXCL, 3)
    return population_spec_moments(model, specs)


def test_frontier_named_points():
    pi_t, psi_t = _example1_moments()
    points = frontier(pi_t, psi_t, np.ones(3, dtype=bool), np.array([0.0, 0.5, 1.0, 3.0]))
    expected = {
        0.0: (0.0, 1.0, 3.0),
        0.5: (0.5, 0.5, 2.5),
        1.0: (1.0, 0.0, 2.0),
        3.0: (3.0, 2.0, 0.0),
    }
    for point in points:
        want = np.array(expected[point.b])
        assert np.max(np.abs(point.delta - want)) <= 1e-12
        assert point.on_frontier
        lo, hi = point.identified_set
        assert abs(lo - point.b) <= 1e-12 and abs(hi - point.b) <= 1e-12


def test_frontier_flags_points_beyond_the_ratio_range():
    pi_t, psi_t = _example1_moments()
    (point,) = frontier(pi_t, psi_t, np.ones(3, dtype=bool), np.array([3.1]))
    assert not point.on_frontier
    assert np.max(np.abs(point.delta - np.array([3.1, 2.1, 0.1]))) <= 1e-12


def test_frontier_zero_at_own_ratio():
    pi_t, psi_t = _example1_moments()
    for j, b in enumerate(psi_t / pi_t):
        (point,) = frontier(pi_t, psi_t, np.ones(3, dtype=bool), np.array([b]))
        assert abs(point.delta[j]) <= 1e-12


def test_shrinking_any_frontier_component_falsifies():
    pi_t, psi_t = _example1_moments()
    for b in (0.5, 1.7, 2.9):
        delta = np.abs(psi_t - b * pi_t)
        for j in range(3):
            if delta[j] < 1e-6:
                continue  # cannot shrink a zero component
            shrunk = delta.copy()
            shrunk[j] -= 1e-6
            assert identified_set(pi_t, psi_t, shrunk) is None


def test_population_frontier_spans_the_fas():
    model = example1_model()
    family, pi_t, psi_t, points = population_frontier(model, Mode.EXCL)
    assert len(points) == 201
    assert points[0].b == pytest.approx(0.0, abs=1e-12)
    assert points[-1].b == pytest.approx(3.0, abs=1e-12)
    assert all(p.on_frontier for p in points)
    assert [s.label for s in family] == ["Z1|2,3", "Z2|1,3", "Z3|1,2"]


def test_identified_set_rejects_nan_and_nonfinite_inputs():
    ones = np.ones(2)
    # a NaN delta used to drop its component's constraint: (1.5, 2.5)
    with pytest.raises(ValueError):
        identified_set(ones, np.array([1.0, 2.0]), np.array([np.nan, 0.5]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            identified_set(np.array([1.0, bad]), ones, ones)
        with pytest.raises(ValueError):
            identified_set(ones, np.array([1.0, bad]), ones)


def test_infinite_delta_constrains_nothing():
    ones = np.ones(2)
    assert identified_set(ones, np.array([1.0, 2.0]), np.array([np.inf, 0.5])) == (1.5, 2.5)
    assert identified_set(ones, ones, np.full(2, np.inf)) == (-np.inf, np.inf)


def test_frontier_rejects_nonfinite_inputs():
    ones = np.ones(2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            frontier(np.array([1.0, bad]), ones, [0], np.zeros(1))
        with pytest.raises(ValueError):
            frontier(ones, np.array([1.0, bad]), [0], np.zeros(1))
        # a NaN grid point used to report the identified set (-inf, inf)
        with pytest.raises(ValueError):
            frontier(ones, ones, [0], np.array([0.0, bad]))


def test_frontier_rejects_a_relevant_component_with_zero_pi():
    # its ratio psi/pi is infinite, which would put every grid point on the frontier
    with pytest.raises(ValueError, match="pi == 0"):
        frontier(np.array([0.0, 1.0]), np.ones(2), [0, 1], np.array([-1e6, 0.5, 1e6]))
    with pytest.raises(ValueError, match="pi == 0"):
        frontier(np.array([0.0, 1.0]), np.ones(2), np.array([True, True]), np.zeros(1))


def _reference_identified_set(pi, psi, delta):
    """The per-component loop identified_set used to run, as a plain reference."""
    scale = max(1.0, float(np.max(np.abs(pi))) if pi.size else 1.0)
    mask = np.abs(pi) > 1e-12 * scale
    lo = -np.inf
    hi = np.inf
    for j in range(pi.shape[0]):
        if mask[j]:
            center = psi[j] / pi[j]
            radius = delta[j] / abs(pi[j])
            lo = max(lo, center - radius)
            hi = min(hi, center + radius)
        elif abs(psi[j]) > delta[j]:
            return None
    if lo > hi:
        slack = 1e-10 * max(1.0, abs(lo), abs(hi))
        if lo - hi > slack:
            return None
        mid = 0.5 * (lo + hi)
        return (float(mid), float(mid))
    return (float(lo), float(hi))


@st.composite
def moment_vectors(draw):
    """(pi, psi, free): pi mixes strong components with zeros and ones just
    below and just above the 1e-12 relative relevance tolerance; some psi are
    zero; ``free`` marks components to give an infinite delta."""
    kind = st.sampled_from(("zero", "below", "above", "strong"))
    kinds = draw(st.lists(kind, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = len(kinds)
    strong = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.1, 5.0, size=m)
    scale = max([1.0] + [abs(p) for p, kind in zip(strong, kinds) if kind == "strong"])
    tiny = {"zero": 0.0, "below": 1e-12 * scale * (1 - 1e-6), "above": 1e-12 * scale * (1 + 1e-6)}
    pi = np.array(
        [p if kind == "strong" else np.sign(p) * tiny[kind] for p, kind in zip(strong, kinds)]
    )
    psi = rng.uniform(-5.0, 5.0, size=m)
    psi[rng.random(m) < 0.2] = 0.0
    return pi, psi, rng.random(m) < 0.3


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    moments=moment_vectors(),
    b=st.floats(-20.0, 20.0),
    # shrinking a frontier delta makes the bounds cross, by less than the
    # 1e-10 guard band for the small factors and by more for the large ones
    shrink=st.sampled_from([0.0, 1e-15, 1e-13, 1e-12, 1e-11, 1e-9, 1e-6, 1e-2, -1e-2]),
)
def test_identified_set_equals_the_per_component_reference(moments, b, shrink):
    pi, psi, free = moments
    delta = np.abs(psi - b * pi) * (1.0 - shrink)
    delta[free] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert identified_set(pi, psi, delta) == _reference_identified_set(pi, psi, delta)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(moments=moment_vectors(), grid=st.lists(st.floats(-60.0, 60.0), max_size=8))
def test_frontier_points_equal_the_per_component_reference(moments, grid):
    pi, psi, _ = moments
    relevant = np.abs(pi) >= 0.1
    assume(relevant.any())
    ratios = psi[relevant] / pi[relevant]
    # the grid holds the ratios themselves and points beyond their span
    grid = np.concatenate([ratios, grid])
    b_lo, b_hi = float(np.min(ratios)), float(np.max(ratios))
    span_slack = 1e-12 * max(1.0, abs(b_lo), abs(b_hi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = frontier(pi, psi, relevant, grid)
        assert len(points) == len(grid)
        for b, point in zip(grid, points):
            delta = np.abs(psi - b * pi)
            assert point.b == b
            assert np.array_equal(point.delta, delta)
            assert point.identified_set == _reference_identified_set(pi, psi, delta)
            assert point.on_frontier == (b_lo - span_slack <= b <= b_hi + span_slack)


def test_model_validation():
    with pytest.raises(DimensionMismatchError):
        PopulationModel(
            beta=1.0, gamma=np.zeros(2), alpha=np.zeros(3),
            pi=np.ones(3), sigma_z=np.eye(3),
        )
    bad = PopulationModel(
        beta=1.0, gamma=np.zeros(2), alpha=np.zeros(2),
        pi=np.ones(2), sigma_z=np.array([[1.0, 1.0], [1.0, 1.0]]),
    )
    with pytest.raises(SingularSigmaError):
        bad.validate()
    skew = PopulationModel(
        beta=1.0, gamma=np.zeros(2), alpha=np.zeros(2),
        pi=np.ones(2), sigma_z=np.array([[1.0, 0.4], [0.1, 1.0]]),
    )
    with pytest.raises(SingularSigmaError):
        skew.validate()


@pytest.mark.parametrize(
    "field, changes",
    [
        ("beta", {"beta": float("nan")}),
        ("pi", {"pi": np.array([1.0, np.inf])}),
        ("var_u", {"var_u": float("nan")}),
        ("gamma", {"gamma": np.array([0.0, -np.inf])}),
        ("alpha", {"alpha": np.array([np.nan, 0.0])}),
        ("sigma_z", {"sigma_z": np.array([[1.0, 0.0], [0.0, np.inf]])}),
        ("var_v", {"var_v": float("inf")}),
    ],
)
def test_model_rejects_non_finite_parameters(field, changes):
    params = dict(beta=1.0, gamma=np.zeros(2), alpha=np.zeros(2), pi=np.ones(2), sigma_z=np.eye(2))
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        PopulationModel(**{**params, **changes})


def test_disjoint_violation_predicate():
    ok = PopulationModel(
        beta=1.0, gamma=np.array([0.3, 0.0]), alpha=np.array([0.0, 0.4]),
        pi=np.ones(2), sigma_z=np.eye(2),
    )
    assert ok.violations_disjoint()
    both = PopulationModel(
        beta=1.0, gamma=np.array([0.3, 0.0]), alpha=np.array([0.3, 0.0]),
        pi=np.ones(2), sigma_z=np.eye(2),
    )
    assert not both.violations_disjoint()


def test_interval_width_shrinks_when_all_instruments_are_valid():
    model = PopulationModel(
        beta=1.0, gamma=np.zeros(3), alpha=np.zeros(3),
        pi=np.array([1.0, 0.8, 1.2]),
        sigma_z=0.7 * np.eye(3) + 0.3 * np.ones((3, 3)),
    )
    data = simulate(SimulationConfig(model=model, n=100000, seed=131))
    lo, hi = fas_estimate(data, mode=Mode.GENERAL, cutoff=10.0).interval
    assert hi - lo < 0.05
    assert lo <= 1.0 <= hi or abs(lo - 1.0) < 0.05
