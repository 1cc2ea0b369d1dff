"""Row-blocked passes over the sample: the triangular factor, 2SLS, the
pairwise rows, the spec sweep and the draw.

Each is checked against a computation on all n rows at once, written out
here with ``np.linalg.qr`` or ``lstsq``. At n = 8193 the row past the first
8192 joins their block, n = 16,385 is two blocks and n = 20,000 three, the
last one short. The near-collinear instruments have a condition number of
about 7e5.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from conftest import exact_gram, exact_solve, near_collinear_model

from faskit import (
    Dataset, Mode, PopulationModel, SimulationConfig, enumerate_specs, estimate_specs, estimators,
    population_spec_moments, simulate, specs_for_mode, tsls, tsls_pairwise_report,
)
from faskit.dgp import ErrorLaw, _model_setup
from faskit.errors import RankDeficientError, WeakIdentificationError
from faskit.linalg import BLOCK_ROWS, blocked_r, row_blocks

SIZES = [8193, 16_385, 20_000]
TOL = 1e-10


def _sample(n, near, seed=5):
    """k = 3 instruments, an endogenous x and an invalid Z2. With ``near``,
    Z3 is Z1 + Z2 / 2 up to a part of 3e-6 of its scale: Z's condition
    number is about 7e5, and a spec that controls for both other
    instruments keeps about 3e-6 of its instrument's norm, above the 1e-6
    at which it would be degenerate. The first stage loads on no column
    that a spec or pair can partial out."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, 3))
    if near:
        Z[:, 2] = Z[:, 0] + 0.5 * Z[:, 1] + 3e-6 * rng.standard_normal(n)
    v = rng.standard_normal(n)
    x = Z @ np.array([1.0, -0.5, 0.3]) + v
    y = 0.7 * x + 0.2 * Z[:, 1] + 0.5 * v + rng.standard_normal(n)
    return Dataset(y=y, x=x, Z=Z, z_names=("Z1", "Z2", "Z3"), intercept=False)


def _close(got, want, rtol=TOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= rtol * np.abs(want)))


def _reference_fit(y, x, Zm, n_absorbed=0):
    """2SLS, its first-stage F and J from the reduced QR of all of Zm.

    F and J are quadratic forms that do not depend on the basis of col(Zm),
    so they are taken in the orthonormal one, where they stay accurate
    however close to collinear Zm's columns are.
    """
    n, q = Zm.shape
    Q = np.linalg.qr(Zm)[0]
    qx, qy = Q.T @ x, Q.T @ y
    xhat = Q @ qx
    denom = qx @ qx
    beta = (qx @ qy) / denom
    u = y - x * beta
    se = np.sqrt(n / (n - 1 - n_absorbed) * np.sum((xhat * u) ** 2)) / denom
    M = (Q * ((x - xhat) ** 2)[:, None]).T @ Q
    f_stat = qx @ np.linalg.solve(M, qx) / (n / (n - q - n_absorbed) * q)
    S = (Q * (u**2)[:, None]).T @ Q
    two = (qx @ np.linalg.solve(S, qy)) / (qx @ np.linalg.solve(S, qx))
    gap = qy - qx * two
    pi = np.linalg.lstsq(Zm, x, rcond=None)[0]
    return {
        "beta_2sls": beta, "se": se, "first_stage_f": f_stat,
        "j_stat": gap @ np.linalg.solve(S, gap), "weights": pi * (Zm.T @ x) / denom,
    }


def _check_fit(result, want, rtol=TOL, j_rtol=TOL, weights_rtol=TOL):
    for name in ("beta_2sls", "se", "first_stage_f"):
        assert _close(getattr(result, name), want[name], rtol), name
    assert _close(result.j_stat, want["j_stat"], j_rtol)
    assert _close(result.weights, want["weights"], weights_rtol)
    assert abs(result.weights.sum() - 1.0) <= 1e-14 * np.abs(result.weights).sum()


def _weights_rtol(Zm):
    """A weight is a component of the first stage pi times Zm'x, and pi's
    components move by cond(Zm) * 1e-16 of their scale when Zm moves by one
    ulp: near collinearity the weights are held to that."""
    return max(TOL, np.linalg.cond(Zm) * 1e-13)


@pytest.mark.parametrize("n", [1, 2, 8191, 8192, 8193, 8194, 16385, 20_000])
def test_row_blocks_cover_the_rows_in_order_with_no_lone_last_row(n):
    blocks = list(row_blocks(n))
    assert np.array_equal(np.concatenate([np.arange(n)[s] for s in blocks]), np.arange(n))
    sizes = [s.stop - s.start for s in blocks]
    assert all(2 <= size <= BLOCK_ROWS + 1 for size in sizes) or sizes == [1]


@pytest.mark.parametrize("near", [False, True], ids=["plain", "near-collinear"])
@pytest.mark.parametrize("n", SIZES)
def test_the_blocked_factor_is_the_r_of_one_qr(n, near):
    data = _sample(n, near)
    B = np.column_stack([data.Z, data.x, data.y])
    R = blocked_r(lambda rows: B[rows], n)
    # R'R is B'B, however close to collinear B's columns are
    assert np.linalg.norm(R.T @ R - B.T @ B) <= 1e-14 * np.linalg.norm(B.T @ B)
    if not near:
        # R is unique up to the signs of its rows
        want = np.linalg.qr(B, mode="r")
        signs = np.sign(np.diag(R)) * np.sign(np.diag(want))
        assert np.linalg.norm(signs[:, None] * R - want) <= 1e-13 * np.linalg.norm(want)


def test_a_factor_of_one_block_is_one_qr_bit_for_bit():
    B = _sample(BLOCK_ROWS + 1, True).Z
    assert blocked_r(lambda rows: B[rows], len(B)).tobytes() == np.linalg.qr(B, mode="r").tobytes()


@pytest.mark.parametrize("near", [False, True], ids=["plain", "near-collinear"])
@pytest.mark.parametrize("n", SIZES)
def test_tsls_matches_a_whole_sample_qr(n, near):
    data = _sample(n, near)
    for columns in ([0, 1, 2], [2, 0]):
        Zm = data.Z[:, columns]
        fit = tsls(data, [c + 1 for c in columns])
        _check_fit(fit, _reference_fit(data.y, data.x, Zm), weights_rtol=_weights_rtol(Zm))


def _residual(Z, ell, controls):
    """Z_ell less its lstsq fit on the control columns (1-based)."""
    a = Z[:, ell - 1]
    if not controls:
        return a
    C = Z[:, [c - 1 for c in controls]]
    return a - C @ np.linalg.lstsq(C, a, rcond=None)[0]


@pytest.mark.parametrize("near", [False, True], ids=["plain", "near-collinear"])
@pytest.mark.parametrize("n", SIZES)
def test_pairwise_rows_match_a_whole_sample_qr(n, near):
    data = _sample(n, near)
    rows = tsls_pairwise_report(data)
    assert len(rows) == 6
    for row in rows:
        controls = () if row.variant == "raw" else tuple(set(range(1, 4)) - set(row.pair))
        Zm = np.column_stack([_residual(data.Z, ell, controls) for ell in row.pair])
        assert row.failure is None
        # a pair's instruments are the spec engine's Z a, with coefficients
        # from R, which near collinearity turns the pair's weakest direction
        # by about cond(Zm) * 1e-14: beta, se and F follow that. The first
        # stage's coefficients, and with them the weights, are a least
        # squares fit with a large residual, which moves by cond(Zm)^2
        # times a perturbation; so does J, a small difference of moments on
        # these pairs
        cond = np.linalg.cond(Zm)
        want = _reference_fit(data.y, data.x, Zm, len(controls))
        loose = max(TOL, cond**2 * 1e-17)
        _check_fit(row.result, want, max(TOL, cond * 1e-14), loose, loose)


@pytest.mark.parametrize("near", [False, True], ids=["plain", "near-collinear"])
@pytest.mark.parametrize("n", SIZES)
def test_estimate_specs_matches_lstsq_residualized_instruments(n, near):
    data = _sample(n, near)
    table = estimate_specs(data, enumerate_specs(3))
    assert table.estimated.all()
    columns = (table.beta_hat, table.se, table.pi_hat, table.psi_hat, table.f_stat)
    for spec, *got in zip(table.specs, *columns):
        Z_l = data.Z[:, spec.instrument_index - 1]
        w = _residual(data.Z, spec.instrument_index, spec.control_subset)
        wx, wy, ww = w @ data.x, w @ data.y, w @ w
        beta, pi = wy / wx, wx / ww
        scale = n / (n - 1)
        se = np.sqrt(scale * np.sum((w * (data.y - data.x * beta)) ** 2)) / abs(wx)
        f_stat = pi**2 / (scale * np.sum((w * (data.x - w * pi)) ** 2) / ww**2)
        # this reference's w is the residual of an lstsq fit of Z_l, whose
        # moments lose up to (|Z_l| / |w|)^2 of eps: about 1e-7 on the fully
        # controlled near-collinear specs, where the engine is within 1e-9 of
        # an exact solve (test_spec_moments_match_an_exact_solve_near_collinearity)
        rtol = max(TOL, 1e-15 * (np.linalg.norm(Z_l) / np.linalg.norm(w)) ** 2)
        assert _close(got, [beta, se, pi, wy / ww, f_stat], rtol), spec.label


def _rows(table):
    return np.column_stack([table.beta_hat, table.se, table.pi_hat, table.psi_hat, table.f_stat])


@pytest.mark.parametrize("layout", ["arrays", "table"])
def test_a_spec_is_bit_for_bit_its_row_of_every_family_across_row_blocks(layout):
    # two row blocks, and blocks of 3 specs in the robust variances, at a k
    # where one product over a block of specs rounds otherwise than each
    # spec's own; on arrays of their own and on column views of one table,
    # the layout load_csv gives
    n, k = 2 * BLOCK_ROWS + 1, 6
    rng = np.random.default_rng(41)
    table = rng.standard_normal((n, k + 2)) + rng.standard_normal((n, 1))
    table[:, 1] += table[:, 2:] @ rng.uniform(0.5, 1.0, k)
    table[:, 0] += 0.7 * table[:, 1] + table[:, 2:] @ rng.uniform(-0.3, 0.3, k)
    columns = [table[:, 0], table[:, 1], table[:, 2:]]
    if layout == "arrays":
        columns = [column.copy() for column in columns]
    data = Dataset(*columns, z_names=[f"Z{i}" for i in range(1, k + 1)], intercept=False)
    assert data.Z.flags.c_contiguous == (layout == "arrays")
    lattice = estimate_specs(data, enumerate_specs(k))
    assert lattice.estimated.all()
    rows = _rows(lattice)
    position = {spec.spec_id: pos for pos, spec in enumerate(lattice.specs)}
    for mode in Mode:
        family = estimate_specs(data, specs_for_mode(mode, k))
        view = [position[spec.spec_id] for spec in family.specs]
        assert _rows(family).tobytes() == rows[view].tobytes(), mode
    for spec, row in zip(lattice.specs, rows):
        assert _rows(estimate_specs(data, [spec]))[0].tobytes() == row.tobytes(), spec.label


def _exact_moments(G, specs, x, y):
    """Each spec's pi and psi from the exact rational Gram ``G`` of ``[Z | x
    | y]`` (x and y its columns at ``x`` and ``y``): entry l of the
    coefficients of x and y on Z_S, S = C ∪ {l}, by Frisch-Waugh-Lovell."""
    moments = []
    for spec in specs:
        S = sorted([spec.instrument_index - 1, *(c - 1 for c in spec.control_subset)])
        G_S, at = [[G[i][j] for j in S] for i in S], S.index(spec.instrument_index - 1)
        moments.append([float(exact_solve(G_S, [G[i][t] for i in S])[at]) for t in (x, y)])
    return np.array(moments)


@pytest.mark.parametrize("source", ["sample", "population"])
def test_spec_moments_match_an_exact_solve_near_collinearity(source):
    # the near-collinear sample (cond about 7e5) and a population of cond
    # about 2e9: the fully controlled specs keep a small share of their
    # instrument, which a Gram-based w'w = |R a|^2 cancels away
    specs = enumerate_specs(3)
    if source == "sample":
        data = _sample(BLOCK_ROWS + 1, near=True)
        G = exact_gram([*data.Z.T, data.x, data.y])
        table = estimate_specs(data, specs)
        got = np.column_stack([table.pi_hat, table.psi_hat])
    else:
        model = near_collinear_model()
        sigma = [[Fraction(v) for v in row] for row in model.sigma_z.tolist()]
        coef_x = [Fraction(v) for v in model.pi.tolist()]
        gamma = model.gamma.tolist()
        coef_y = [Fraction(model.beta) * p + Fraction(g) for p, g in zip(coef_x, gamma)]
        cov = [[sum(r[j] * c[j] for j in range(3)) for r in sigma] for c in (coef_x, coef_y)]
        cov[1] = [v + Fraction(a) for v, a in zip(cov[1], model.alpha.tolist())]
        G = [row + [cov[0][i], cov[1][i]] for i, row in enumerate(sigma)]
        got = np.column_stack(population_spec_moments(model, specs))
    want = _exact_moments(G, specs, 3, 4)
    assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want))


def test_a_pairwise_report_and_tsls_each_factor_the_sample_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        estimators, "blocked_r", lambda rows, n: (calls.append(n), blocked_r(rows, n))[1]
    )
    data = _sample(BLOCK_ROWS + 1, near=False)
    # one R of [Z | x | y] for the report's coefficients and all six fits
    assert [row.failure for row in tsls_pairwise_report(data)] == [None] * 6
    assert len(calls) == 1
    tsls(data)
    assert len(calls) == 2
    # the sweep's one R of [Z | x | y] holds its cross moments too
    assert estimate_specs(data, enumerate_specs(3)).estimated.all()
    assert len(calls) == 3


def test_blocked_fits_keep_their_failure_codes():
    n = 20_000
    rng = np.random.default_rng(227)
    z1, z2 = rng.standard_normal((2, n))
    x = z1 + 0.8 * z2 + rng.standard_normal(n)
    collinear = Dataset(
        y=x + rng.standard_normal(n), x=x, Z=np.column_stack([z1, z2, z1]),
        z_names=("Z1", "Z2", "Z3"), intercept=False,
    )
    with pytest.raises(RankDeficientError):
        tsls(collinear)
    failed = {(r.pair, r.variant): r.failure for r in tsls_pairwise_report(collinear)}
    assert failed == {
        ((1, 2), "raw"): None, ((1, 2), "partialled"): "rank-deficient",
        ((1, 3), "raw"): "rank-deficient", ((1, 3), "partialled"): "rank-deficient",
        ((2, 3), "raw"): None, ((2, 3), "partialled"): "rank-deficient",
    }
    table = estimate_specs(collinear, enumerate_specs(3))
    degenerate = {spec.label for spec, f in zip(table.specs, table.failure) if f == "degenerate"}
    # Z3 = Z1: either is nothing after the other, and {Z1, Z3} are collinear controls
    assert degenerate == {"Z1|3", "Z1|2,3", "Z2|1,3", "Z3|1", "Z3|1,2"}

    # instruments orthogonal to x over all n rows
    raw = rng.standard_normal((n, 2))
    Z = raw - np.outer(x, x @ raw) / (x @ x)
    orthogonal = Dataset(y=rng.standard_normal(n), x=x, Z=Z, z_names=("Z1", "Z2"), intercept=False)
    with pytest.raises(WeakIdentificationError):
        tsls(orthogonal)
    assert [r.failure for r in tsls_pairwise_report(orthogonal)] == ["weak-identification"]
    assert set(estimate_specs(orthogonal, enumerate_specs(2)).failure) == {"zero-first-stage"}


def _whole_draw(config):
    """:func:`simulate`'s y, x and Z, each formed over all n rows at once in
    the order its formula reads."""
    model, n = config.model, config.n
    eta, eps_var, chol, mean_var = _model_setup(model)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    Z = rng.standard_normal((n, model.k_z)) @ chol.T
    if config.error_law == ErrorLaw.GAUSSIAN:
        shock_u, shock_v = rng.standard_normal(n), rng.standard_normal(n)
        scale = 1.0
    else:
        shock_u = (rng.standard_normal(n) ** 2 - 1.0) / np.sqrt(2.0)
        shock_v = (rng.standard_normal(n) ** 2 - 1.0) / np.sqrt(2.0)
        scale = np.sqrt((1.0 + Z.mean(axis=1) ** 2) / (1.0 + mean_var))
    rho = config.rho_uv
    v = rho * shock_u + shock_v * np.sqrt(1.0 - rho**2)
    v *= np.sqrt(model.var_v)
    v *= scale
    u = shock_u * np.sqrt(eps_var) * scale + Z @ eta
    x = v + Z @ model.pi
    y = x * model.beta + Z @ model.gamma + u
    return y, x, Z


@pytest.mark.parametrize(
    "n, k", list(itertools.product([10, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1, 20_000], [1, 3, 4, 10]))
)
def test_a_row_blocked_draw_is_the_whole_draw_bit_for_bit(n, k):
    rng = np.random.default_rng(k)
    A = rng.standard_normal((k, k))
    model = PopulationModel(
        beta=0.8, gamma=rng.uniform(-0.5, 0.5, k), alpha=np.zeros(k), pi=rng.uniform(0.3, 1.0, k),
        sigma_z=A @ A.T + k * np.eye(k),
    )
    for law in ErrorLaw:
        config = SimulationConfig(model, n, 31, law)
        data = simulate(config)
        for got, want in zip((data.y, data.x, data.Z), _whole_draw(config)):
            assert got.tobytes() == want.tobytes(), law
