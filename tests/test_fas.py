"""Relevance selection, FAS assembly, the population oracle, and the frontier."""

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
    fas_estimate,
    frontier,
    identified_set,
    population_fas,
    population_frontier,
    population_spec_moments,
    select_relevant,
    simulate,
    specs_for_mode,
    transform_instrument,
)
from faskit.errors import DegenerateInstrumentError, DimensionMismatchError, SingularSigmaError
from faskit.estimators import SpecEstimate


def _fake_estimates(f_stats, betas=None):
    specs = enumerate_specs(2)[: len(f_stats)]
    out = []
    for i, (spec, f) in enumerate(zip(specs, f_stats)):
        beta = None if betas is None else betas[i]
        out.append(
            SpecEstimate(
                spec=spec, beta_hat=beta if beta is not None else float(i),
                se=1.0, pi_hat=1.0, psi_hat=1.0, f_stat=f,
            )
        )
    return out


def test_no_relevance_rejects_everything():
    sel = select_relevant(_fake_estimates([0.0, 0.0, 0.0, 0.0]), cutoff=10.0)
    assert sel.selected == set()
    assert set(sel.rejected.values()) == {"low-F"}


def test_selection_splits_on_the_cutoff():
    sel = select_relevant(_fake_estimates([78.20, 0.95, 74.01, 19.00]), cutoff=10.0)
    assert sel.selected == {1, 3, 4}
    assert sel.rejected == {2: "low-F"}


def test_cutoff_comparison_is_inclusive():
    ests = _fake_estimates([10.0])
    assert select_relevant(ests, 10.0).selected == {1}
    assert select_relevant(ests, 10.0 - 1e-9).selected == {1}


def test_cutoff_must_be_positive():
    with pytest.raises(ValueError):
        select_relevant(_fake_estimates([1.0]), 0.0)


def test_specs_for_mode_families():
    assert [s.label for s in specs_for_mode(Mode.EXCL, 3)] == [
        "Z1|2,3", "Z2|1,3", "Z3|1,2",
    ]
    assert [s.label for s in specs_for_mode(Mode.EXO, 3)] == ["Z1", "Z2", "Z3"]
    assert len(specs_for_mode(Mode.GENERAL, 3)) == 12


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
    assert result.selection.selected == set()
    assert set(result.selection.rejected.values()) == {"low-F"}


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
    assert set(result.selection.rejected.values()) == {"degenerate"}


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
    by_id = {s.spec_id: s.label for s in enumerate_specs(3)}
    expected = {
        Mode.EXCL: {"Z1|2,3", "Z2|1,3", "Z3|1,2"},
        Mode.EXO: set(),
        Mode.GENERAL: {"Z1|3", "Z1|2,3", "Z2|1,3", "Z3|1", "Z3|1,2"},
    }
    for mode, labels in expected.items():
        result = fas_estimate(data, mode=mode)
        degenerate = {by_id[i] for i, why in result.selection.rejected.items() if why == "degenerate"}
        assert degenerate == labels
        assert all(est.failure in (None, "degenerate") for est in result.estimates)
    assert fas_estimate(data, mode=Mode.EXCL).interval is None
    assert fas_estimate(data, mode=Mode.GENERAL).interval is not None
    spec = next(s for s in enumerate_specs(3) if s.label == "Z2|1,3")
    with pytest.raises(DegenerateInstrumentError):
        transform_instrument(data, spec)


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
