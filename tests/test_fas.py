"""Relevance selection, FAS assembly, the population oracle, and the frontier."""

import dataclasses
import itertools
import tracemalloc
import warnings
from unittest import mock

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
    estimate_specs,
    fas_by_mode,
    fas_estimate,
    fas_from_estimates,
    fas_frontier,
    frontier,
    identified_set,
    population_fas,
    population_fas_by_mode,
    population_spec_moments,
    simulate,
    specs_for_mode,
    write_csv,
)
from faskit import cli as cli_module
from faskit import fas as fas_module
from faskit import specs as specs_module
from faskit.cli import FrontierRows
from faskit.errors import (
    DimensionMismatchError,
    InvalidCountError,
    SingularSigmaError,
    TooManyInstrumentsError,
)
from faskit.estimators import SpecTable
from faskit.specs import JustIdSpec, make_spec


def _fake_table(f_stats, failure=None):
    m = len(f_stats)
    ones = np.ones(m)
    failure = np.array([None] * m if failure is None else failure, dtype=object)
    return SpecTable(
        2, np.arange(1, m + 1), np.arange(m, dtype=float), ones, ones, ones,
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


def test_cutoff_must_be_positive(monkeypatch, tmp_path):
    # a bad cutoff raises before any sweep, draw or load
    model = example1_model()
    data = simulate(SimulationConfig(model=model, n=50, seed=1))
    path = str(tmp_path / "draw.csv")
    write_csv(data, path)
    sweep = mock.Mock(wraps=fas_module.estimate_specs)
    draw = mock.Mock(wraps=cli_module.simulate)
    load = mock.Mock(wraps=cli_module.load_csv)
    monkeypatch.setattr(fas_module, "estimate_specs", sweep)
    monkeypatch.setattr(cli_module, "simulate", draw)
    monkeypatch.setattr(cli_module, "load_csv", load)
    for cutoff in (0.0, -1.0, np.nan):
        args = ["estimate", "--data", path, "--outcome", "y", "--treatment", "x"]
        args += ["--instruments", ",".join(data.z_names), "--cutoff", str(cutoff)]
        for run in (
            lambda: _screen(_fake_table([1.0]), cutoff),
            lambda: fas_by_mode(data, list(Mode), cutoff),
            lambda: cli_module.simulate_report(model, 50, 1, cutoff=cutoff),
            lambda: cli_module.main(args, standalone_mode=False),
        ):
            with pytest.raises(ValueError, match="cutoff must be positive"):
                run()
    assert sweep.call_count == draw.call_count == load.call_count == 0


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
                assert union.tolist() == [s.spec_id for s in want_union], (k, modes)
                assert {m: v.tolist() for m, v in views.items()} == want_views, (k, modes)
                assert list(views) == list(modes), (k, modes)


def _object_views(modes, k):
    """The object-built fas._mode_views that id arithmetic replaced."""
    families = {m: specs_for_mode(m, k) for m in modes}
    by_id = {s.spec_id: s for family in families.values() for s in family}
    union = [by_id[i] for i in sorted(by_id)]
    position = {s.spec_id: pos for pos, s in enumerate(union)}
    return union, {m: [position[s.spec_id] for s in f] for m, f in families.items()}


def test_mode_view_ids_equal_the_object_built_views():
    for k in range(1, 7):
        for size in (1, 2, 3):
            for modes in itertools.permutations(Mode, size):
                union, views = fas_module._mode_views(list(modes), k)
                want_union, want_views = _object_views(modes, k)
                assert union.dtype == np.int64 and union.tolist() == [
                    s.spec_id for s in want_union
                ], (k, modes)
                assert {m: v.tolist() for m, v in views.items()} == want_views, (k, modes)


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
    assert estimate_specs(data, [spec]).failure.tolist() == ["degenerate"]


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
    for spec in specs_for_mode(Mode.GENERAL, 3):
        (failure,) = estimate_specs(data, [spec]).failure
        assert failure == ("insufficient-observations" if spec.label in full else None)
    assert set(fas_estimate(_tiny_dataset(5), mode=Mode.GENERAL, cutoff=1e-9).status) == {"selected"}
    # with n <= 1 + absorbed no spec has a residual degree of freedom
    table = estimate_specs(_tiny_dataset(2), enumerate_specs(3))
    assert set(table.failure) == {"insufficient-observations"}
    for column in (table.beta_hat, table.se, table.pi_hat, table.psi_hat):
        assert np.isnan(column).all()
    assert (table.f_stat == 0.0).all()


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


def _sets(f):
    """Each point's identified set as :func:`identified_set` gives it:
    ``(lo, hi)``, or None when it is empty."""
    return [None if e else (lo, hi) for lo, hi, e in zip(f.lo.tolist(), f.hi.tolist(), f.empty)]


def test_frontier_named_points():
    pi_t, psi_t = _example1_moments()
    f = frontier(pi_t, psi_t, np.ones(3, dtype=bool), np.array([0.0, 0.5, 1.0, 3.0]))
    expected = {
        0.0: (0.0, 1.0, 3.0),
        0.5: (0.5, 0.5, 2.5),
        1.0: (1.0, 0.0, 2.0),
        3.0: (3.0, 2.0, 0.0),
    }
    assert len(f) == 4 and f.on_frontier.all()
    for b, delta, (lo, hi) in zip(f.b.tolist(), f.deltas(), _sets(f)):
        want = np.array(expected[b])
        assert np.max(np.abs(delta - want)) <= 1e-12
        assert abs(lo - b) <= 1e-12 and abs(hi - b) <= 1e-12


def test_frontier_flags_points_beyond_the_ratio_range():
    pi_t, psi_t = _example1_moments()
    f = frontier(pi_t, psi_t, np.ones(3, dtype=bool), np.array([3.1]))
    assert f.on_frontier.tolist() == [False]
    assert np.max(np.abs(f.deltas() - np.array([[3.1, 2.1, 0.1]]))) <= 1e-12


def test_frontier_zero_at_own_ratio():
    pi_t, psi_t = _example1_moments()
    for j, b in enumerate(psi_t / pi_t):
        f = frontier(pi_t, psi_t, np.ones(3, dtype=bool), np.array([b]))
        assert abs(f.deltas()[0, j]) <= 1e-12


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


def test_a_table_holds_spec_ids_and_builds_its_specs_on_read():
    model = random_model(np.random.default_rng(17), 4)
    data = simulate(SimulationConfig(model=model, n=300, seed=17))
    ids = np.array([7, 1, 32, 12])
    table = estimate_specs(data, ids)
    assert table.k_z == 4 and table.spec_ids.dtype == np.int64
    assert table.spec_ids.tolist() == ids.tolist()
    assert table.specs == [JustIdSpec(table.k_z, i) for i in table.spec_ids.tolist()]
    # a list of the same specs gives the same table
    same = estimate_specs(data, table.specs)
    assert same.spec_ids.tolist() == ids.tolist()
    columns = ("beta_hat", "se", "pi_hat", "psi_hat", "f_stat", "failure")
    for name in columns:
        assert np.array_equal(getattr(same, name), getattr(table, name))
    # take gives the rows at the positions, in their order, repeats and all
    for positions in ([3, 0, 3], np.array([2, 1]), []):
        taken = table.take(positions)
        assert taken.k_z == 4
        assert taken.spec_ids.tolist() == [ids[p] for p in positions]
        for name in columns:
            assert getattr(taken, name).tolist() == [getattr(table, name)[p] for p in positions]
    # no spec, as a list or as an id array, gives no row and no moment
    for none in ([], np.zeros(0, dtype=np.int64)):
        empty = estimate_specs(data, none)
        assert empty.k_z == 4 and empty.spec_ids.dtype == np.int64
        for name in ("spec_ids",) + columns:
            assert getattr(empty, name).shape == (0,), name
        moments = population_spec_moments(model, none)
        assert [(v.dtype, v.shape) for v in moments] == [(np.float64, (0,))] * 2


def _near_zero_relevance_model():
    # Z1|2,3 has pi~ = 1.5e-12, and corr(Z_res, x) is below 1e-12. A rule
    # relative to the largest |pi~| of each mode's family kept it in Excl
    # (ratio 6.67e11), whose largest |pi~| is 1, and dropped it in General,
    # whose largest is larger: Excl was [1.0, 6.67e11], not inside General.
    rho = 0.9
    return PopulationModel(
        beta=1.0, gamma=np.array([1.0, 0.0, 0.0]), alpha=np.zeros(3),
        pi=np.array([1.5e-12, 1.0, 1.0]), sigma_z=(1 - rho) * np.eye(3) + rho * np.ones((3, 3)),
    )


def test_population_relevance_is_one_decision_per_spec():
    model = _near_zero_relevance_model()
    results = population_fas_by_mode(model, list(Mode))
    dropped = make_spec(3, 1, (2, 3)).spec_id
    for mode, result in results.items():
        assert result.selected.tolist() == (result.table.spec_ids != dropped).tolist(), mode
        assert population_fas(model, mode).interval == result.interval
    assert results[Mode.EXCL].interval == pytest.approx((1.0, 1.0))
    assert results[Mode.GENERAL].interval == pytest.approx((1.0, 28 / 9))
    assert results[Mode.EXO].selected.all()


def test_population_results_do_not_depend_on_the_screen_cutoff(monkeypatch):
    """A population table's f_stat is +inf where a spec is relevant and 0.0
    where not, so any positive cutoff selects the same specs."""
    rng = np.random.default_rng(163)
    models = []
    for k in range(1, 7):
        models.append(random_model(rng, k))
        # Z1's Excl spec is irrelevant, and for k = 1 every spec is
        models.append(random_model(rng, k))
        models[-1].pi[0] = 0.0
    want = [population_fas_by_mode(model, list(Mode)) for model in models]
    assert not all(r.selected.all() for results in want for r in results.values())
    for cutoff in (1e-300, 1e300):
        monkeypatch.setattr(fas_module, "DEFAULT_CUTOFF", cutoff)
        for model, results in zip(models, want):
            for mode, got in population_fas_by_mode(model, list(Mode)).items():
                assert got.interval == results[mode].interval, (cutoff, model.k_z, mode)
                assert np.array_equal(got.selected, results[mode].selected)
                for column in dataclasses.fields(SpecTable):
                    np.testing.assert_array_equal(
                        getattr(got.table, column.name), getattr(results[mode].table, column.name)
                    )


@st.composite
def near_irrelevant_models(draw):
    """Random models in which some specs' pi~ sit near the 1e-12 relevance
    rule: tiny pi_l make the Excl spec of Z_l nearly irrelevant, and tiny
    (sigma_z pi)_l the Exo spec of Z_l."""
    k = draw(st.integers(2, 4))
    model = random_model(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k)
    tiny = st.sampled_from([0.0, 3e-13, 1e-12, 1.5e-12, 3e-12, 1e-11, 1e-9])
    scales = np.array(draw(st.lists(st.one_of(tiny, st.just(None)), min_size=k, max_size=k)))
    near = np.array([v is not None for v in scales])
    assume(near.any() and not near.all())
    target = model.pi.copy()
    if draw(st.booleans()):
        # near-zero entries of sigma_z pi, through pi = sigma_z^-1 q
        target = model.sigma_z @ model.pi
    target[near] = scales[near].astype(float) * np.sign(target[near])
    model.pi = target if target is model.pi else np.linalg.solve(model.sigma_z, target)
    return model


@settings(max_examples=150, deadline=None, derandomize=True)
@given(model=near_irrelevant_models())
def test_population_excl_and_exo_nest_in_general(model):
    results = population_fas_by_mode(model, list(Mode))
    general = results[Mode.GENERAL]
    relevant = dict(zip(general.table.spec_ids.tolist(), general.selected.tolist()))
    for mode in (Mode.EXCL, Mode.EXO):
        result = results[mode]
        ids, selected = result.table.spec_ids.tolist(), result.selected.tolist()
        assert selected == [relevant[i] for i in ids], mode
        if result.interval is not None:
            lo, hi = general.interval
            assert lo <= result.interval[0] and result.interval[1] <= hi, mode


def test_the_frontier_of_a_population_fas_spans_it():
    result = population_fas(example1_model(), Mode.EXCL)
    family, f = result.table.specs, fas_frontier(result)
    assert len(f) == 201
    assert f.b[0] == pytest.approx(0.0, abs=1e-12)
    assert f.b[-1] == pytest.approx(3.0, abs=1e-12)
    assert f.on_frontier.all()
    assert [s.label for s in family] == ["Z1|2,3", "Z2|1,3", "Z3|1,2"]


def test_an_irrelevant_spec_enters_the_frontier_with_zero_pi():
    # spec Z2|1,3 is irrelevant, and its table holds the rounding value
    # pi~ = -9.9e-17 beside psi~ = -0.5: a delta formed with that pi~ was
    # below |psi~|, and the kernel, which reads the spec as pi = 0, found
    # the identified set at b empty
    model = PopulationModel(
        beta=1.0, gamma=np.array([0.0, -0.5, 0.0]), alpha=np.zeros(3), pi=np.array([1.0, 0.0, 0.7]),
        sigma_z=np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 1.0]]),
    )
    for mode, result in population_fas_by_mode(model, list(Mode)).items():
        for grid in (7, 201):
            f = fas_frontier(result, grid)
            assert not f.empty.any(), (mode, grid)
            np.testing.assert_allclose(f.lo, f.b, rtol=0, atol=1e-9)
            np.testing.assert_allclose(f.hi, f.b, rtol=0, atol=1e-9)
            assert (f.pi[~result.selected] == 0).all()


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
    first = np.array([True, False])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            frontier(np.array([1.0, bad]), ones, first, np.zeros(1))
        with pytest.raises(ValueError):
            frontier(ones, np.array([1.0, bad]), first, np.zeros(1))
        # a NaN grid point used to report the identified set (-inf, inf)
        with pytest.raises(ValueError):
            frontier(ones, ones, first, np.array([0.0, bad]))


def test_frontier_rejects_a_relevant_component_with_zero_pi():
    # its ratio psi/pi is infinite, which would put every grid point on the frontier
    with pytest.raises(ValueError, match="pi == 0"):
        frontier(np.array([0.0, 1.0]), np.ones(2), np.ones(2, dtype=bool), np.array([-1e6, 0.5, 1e6]))


@pytest.mark.parametrize("pi, psi, relevant", [
    (np.ones(3), np.ones(2), np.ones(3, dtype=bool)),
    (np.ones(2), np.ones(3), np.ones(2, dtype=bool)),
    (np.ones(3), np.ones(3), np.array([True, False])),
    (np.ones(3), np.ones(3), np.ones(4, dtype=bool)),
    (np.ones(3), np.ones(3), np.zeros(3, dtype=bool)),
    # positions of the right length are still not a mask
    (np.ones(3), np.ones(3), np.arange(3)),
])
def test_frontier_rejects_components_that_do_not_line_up(pi, psi, relevant):
    with pytest.raises(DimensionMismatchError):
        frontier(pi, psi, relevant, np.zeros(2))


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


@pytest.mark.parametrize("rows", [1, 3, None], ids=["1-row", "3-rows", "default"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(moments=moment_vectors(), grid=st.lists(st.floats(-60.0, 60.0), max_size=8))
def test_frontier_points_equal_the_per_component_reference(rows, moments, grid):
    pi, psi, _ = moments
    relevant = np.abs(pi) >= 0.1
    assume(relevant.any())
    ratios = psi[relevant] / pi[relevant]
    # the grid holds the ratios themselves and points beyond their span
    grid = np.concatenate([ratios, grid])
    b_lo, b_hi = float(np.min(ratios)), float(np.max(ratios))
    span_slack = 1e-12 * max(1.0, abs(b_lo), abs(b_hi))
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        if rows is not None:
            # the kernel takes _BLOCK_ELEMENTS // len(pi) grid rows per block
            patch.setattr(fas_module, "_BLOCK_ELEMENTS", rows * len(pi))
        f = frontier(pi, psi, relevant, grid)
        assert len(f) == len(grid) and np.array_equal(f.b, grid)
        for i, (b, identified) in enumerate(zip(grid, _sets(f))):
            delta = np.abs(psi - b * pi)
            # a point's deltas have the same bits alone and among all points
            assert np.array_equal(f.deltas(i, i + 1), delta[None, :])
            assert np.array_equal(f.deltas()[i], delta)
            assert identified == _reference_identified_set(pi, psi, delta)
            assert f.on_frontier[i] == (b_lo - span_slack <= b <= b_hi + span_slack)
        assert len(frontier(pi, psi, relevant, grid[:0])) == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 8),
    outside=st.lists(st.floats(1e-3, 50.0), max_size=4),
)
def test_frontier_matches_its_closed_form(seed, m, outside):
    # with every |pi_j| away from 0, component j admits r_j -+ |r_j - b|
    # around its ratio r_j = psi_j / pi_j, so the identified set is {b} on
    # the span of the ratios and grows linearly beyond it
    rng = np.random.default_rng(seed)
    pi = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.2, 3.0, size=m)
    psi = rng.uniform(-5.0, 5.0, size=m)
    r = psi / pi
    inside = rng.uniform(r.min(), r.max(), size=3)
    below = [r.min() - d for d in outside]
    above = [r.max() + d for d in outside]
    grid = np.concatenate([r, inside, below, above])
    f = frontier(pi, psi, np.ones(m, dtype=bool), grid)
    for b, (lo, hi) in zip(grid.tolist(), _sets(f)):
        lo_want = b if np.any(r >= b) else 2 * r.max() - b
        hi_want = b if np.any(r <= b) else 2 * r.min() - b
        for got, want in ((lo, lo_want), (hi, hi_want)):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _frontier_peak(make):
    """The result of ``make()`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_frontier_peaks_at_a_few_kernel_blocks_not_the_delta_matrix():
    block_bytes = fas_module._BLOCK_ELEMENTS * 8
    # 2^14 components by 201 points: a 26 MB matrix, which is never formed
    rng = np.random.default_rng(14)
    m = 2**14
    pi = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.2, 3.0, size=m)
    psi = rng.uniform(-5.0, 5.0, size=m)
    grid = np.linspace(-3.0, 3.0, 201)
    f, peak = _frontier_peak(lambda: frontier(pi, psi, np.ones(m, dtype=bool), grid))
    assert len(f) == 201
    # the kernel holds three copies of one block of rows (deltas, radius
    # and bound) and a few vectors of one entry per component
    assert peak <= 3 * block_bytes + 6 * pi.nbytes, peak
    assert peak < 4 * 2**20 < 201 * pi.nbytes
    # the same through fas_frontier, on the k=10 general family
    result = population_fas(random_model(np.random.default_rng(10), 10), Mode.GENERAL)
    vector_bytes = result.table.pi_hat.nbytes
    f, peak = _frontier_peak(lambda: fas_module.fas_frontier(result, 201))
    assert len(f) == 201
    assert peak <= 3 * block_bytes + 6 * vector_bytes < 201 * vector_bytes, peak


def test_iterating_frontier_rows_forms_one_point_of_deltas_at_a_time():
    # 2^14 components by 201 points: a 26 MB delta matrix, of which the
    # first row needs one row
    rng = np.random.default_rng(14)
    m = 2**14
    pi = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.2, 3.0, size=m)
    psi = rng.uniform(-5.0, 5.0, size=m)
    f = frontier(pi, psi, np.ones(m, dtype=bool), np.linspace(-3.0, 3.0, 201))
    row, peak = _frontier_peak(lambda: next(iter(FrontierRows(f))))
    assert row["delta"] == f.deltas(0, 1)[0].tolist()
    # the point's delta row, then the row's list of Python floats: a pointer
    # and a 24-byte float per component, four rows' worth
    assert peak <= 6 * pi.nbytes < 201 * pi.nbytes, peak


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
