"""Just-identified IV estimates, 2SLS with its weight decomposition, and the
overidentification test.

Each just-identified specification is estimated as a ratio of two simple
regressions on its transformed instrument, so ``beta_hat * pi_hat ==
psi_hat`` holds to rounding; a list of specs gives one :class:`SpecTable`
of such columns. 2SLS over any instrument subset is reported together with
the weights that write it as a weighted sum of the just-identified
estimates, and with a two-step efficient GMM J statistic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .chi2 import chi2_sf
from .data import Dataset
from .errors import (
    DegenerateInstrumentError,
    DimensionMismatchError,
    InsufficientObservationsError,
    RankDeficientError,
    WeakIdentificationError,
    ZeroFirstStageError,
)
from .linalg import _check_flavor, partial_out, partial_out_columns, projection_basis
from .specs import JustIdSpec, TransformedInstrument, make_spec, spec_coefficients

# Relative threshold below which a just-identifying moment z'x counts as zero.
FIRST_STAGE_TOL = 1e-12

# The code a report records for a 2SLS fit that raised one of these.
TSLS_FAILURES = {
    RankDeficientError: "rank-deficient",
    WeakIdentificationError: "weak-identification",
    InsufficientObservationsError: "insufficient-observations",
}


@dataclass(eq=False)
class SpecTable:
    """Estimates of a list of just-identified specs: row i for ``specs[i]``,
    one array per column.

    ``beta_hat = z'y / z'x``, its robust ``se``, the first-stage and
    reduced-form coefficients ``pi_hat`` and ``psi_hat`` of x and y on the
    transformed instrument, and ``f_stat``, the squared robust t-ratio of
    ``pi_hat``. ``failure`` (dtype object) is None for an estimated row;
    otherwise it is "degenerate" (collinear controls or transform),
    "zero-first-stage" (the transformed instrument is orthogonal to the
    treatment) or "insufficient-observations" (``n <= 1 + |C| +
    n_absorbed``), and the row holds NaN but for an ``f_stat`` of 0.0. A
    population table holds moments instead; see
    :func:`faskit.fas.population_fas_by_mode`.
    """

    specs: list[JustIdSpec]
    beta_hat: np.ndarray
    se: np.ndarray
    pi_hat: np.ndarray
    psi_hat: np.ndarray
    f_stat: np.ndarray
    failure: np.ndarray

    @property
    def estimated(self) -> np.ndarray:
        """Mask of the rows with no failure."""
        return np.equal(self.failure, None)

    def take(self, positions: list[int]) -> SpecTable:
        """The rows at ``positions``, in that order."""
        columns = (self.beta_hat, self.se, self.pi_hat, self.psi_hat, self.f_stat, self.failure)
        return SpecTable([self.specs[p] for p in positions], *(c[positions] for c in columns))


@dataclass(eq=False)
class TslsResult:
    """Two stage least squares over an instrument set.

    Attributes
    ----------
    beta_2sls : float
        (x'P_Z x)^{-1} x'P_Z y.
    se : float
        Robust standard error.
    first_stage_f : float
        Joint robust Wald statistic of the first stage, divided by the
        number of instruments.
    j_stat : float
        Two-step efficient GMM overidentification statistic; 0.0 when just
        identified.
    j_pvalue : float or None
        Chi-square upper tail of ``j_stat`` on ``j_dof`` degrees of
        freedom; None when ``j_dof`` is 0.
    j_dof : int
        Number of instruments minus one.
    weights : ndarray
        Per-instrument weights writing ``beta_2sls`` as a weighted sum of
        the just-identified estimates; they sum to one and can be negative.
    """

    beta_2sls: float
    se: float
    first_stage_f: float
    j_stat: float
    j_pvalue: float | None
    j_dof: int
    weights: np.ndarray


@dataclass(eq=False)
class PairwiseTsls:
    """One row of the pairwise report: a two-instrument 2SLS fit."""

    pair: tuple[int, int]
    variant: str  # "raw" or "partialled"
    labels: tuple[str, str]
    result: TslsResult | None  # None when the fit failed
    failure: str | None = None  # then its TSLS_FAILURES code


def iv_columns(
    W: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    n_absorbed: int = 0,
    robust_flavor: str = "hc1",
) -> tuple[np.ndarray, ...]:
    """Just-identified IV of y on x with each row of W, shape (b, n), as the
    instrument.

    W, x and y are partialled upstream, which absorbed ``n_absorbed``
    columns. Returns per-row arrays in :class:`SpecTable` column order:
    ``beta_hat = w'y / w'x``, ``se`` from the robust IV variance ``sum(w^2
    u^2) / (w'x)^2`` with ``u = y - x beta_hat``, ``pi_hat = w'x / w'w``,
    ``psi_hat = w'y / w'w`` and ``f_stat``, the squared robust t-ratio of
    pi_hat (+inf when its variance is zero); hc1 scales both variances by
    ``n / (n - 1 - n_absorbed)``. Last comes the mask of rows with ``|w'x|
    <= 1e-12 * |w| * |x|``, whose estimates are not estimates. Every sum
    runs along one row, so a row's numbers do not depend on the other rows.

    Raises ValueError for an unknown ``robust_flavor`` and
    InsufficientObservationsError when ``n <= 1 + n_absorbed``.
    """
    flavor = _check_flavor(robust_flavor)
    n = W.shape[1]
    if n <= 1 + n_absorbed:
        raise InsufficientObservationsError(f"need n > p: n={n}, p=1, absorbed={n_absorbed}")
    scale = n / (n - 1 - n_absorbed) if flavor == "hc1" else 1.0
    buf = np.empty_like(W)  # one reused buffer, to hold working memory down
    ww = np.multiply(W, W, out=buf).sum(axis=1)
    wx = np.multiply(W, x, out=buf).sum(axis=1)
    wy = np.multiply(W, y, out=buf).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pi_hat = wx / ww
        psi_hat = wy / ww
        beta_hat = wy / wx
        np.multiply(W, -pi_hat[:, None], out=buf)
        buf += x
        buf *= W  # w * (x - w pi_hat)
        var_pi = scale * np.square(buf, out=buf).sum(axis=1) / (ww * ww)
        np.multiply.outer(-beta_hat, x, out=buf)
        buf += y
        buf *= W  # w * (y - x beta_hat)
        var_beta = scale * np.square(buf, out=buf).sum(axis=1) / (wx * wx)
        f_stat = np.where(var_pi > 0.0, pi_hat * pi_hat / var_pi, np.inf)
        zero_first_stage = np.abs(wx) <= FIRST_STAGE_TOL * np.sqrt(ww * float(x @ x))
    return beta_hat, np.sqrt(var_beta), pi_hat, psi_hat, f_stat, zero_first_stage


def just_id_iv(
    dataset: Dataset,
    zt: TransformedInstrument,
    robust_flavor: str = "hc1",
) -> SpecTable:
    """Estimate one just-identified specification as a one-row table.

    The one-column case of :func:`iv_columns`, which defines every column.
    A dataset that still carries an intercept or controls is partialled of
    them, and so is the transformed instrument; by Frisch-Waugh-Lovell the
    estimates equal those of the design that includes them.

    Raises
    ------
    InsufficientObservationsError
        If ``n <= 1 + |C| + n_absorbed``: the spec's first stage has no
        residual degrees of freedom.
    DegenerateInstrumentError
        If the transformed instrument has numerically zero variance.
    ZeroFirstStageError
        If ``|z'x|`` is below ``1e-12 * |z| * |x|``.
    """
    w = np.asarray(zt.values, dtype=np.float64)
    if w.shape[0] != dataset.n:
        raise DimensionMismatchError(
            f"transformed instrument has {w.shape[0]} rows, dataset has {dataset.n}"
        )
    w = partial_out_columns(dataset, w)
    dataset = partial_out(dataset)
    n_controls = len(zt.spec.control_subset)
    if dataset.n <= 1 + n_controls + dataset.n_absorbed:
        raise InsufficientObservationsError(
            f"{zt.spec.label}: need n > 1 + |C| + absorbed: "
            f"n={dataset.n}, |C|={n_controls}, absorbed={dataset.n_absorbed}"
        )
    if float(w @ w) <= 0.0:
        raise DegenerateInstrumentError(f"{zt.spec.label}: instrument is identically zero")
    *values, zero_first_stage = iv_columns(
        w[None, :], dataset.x, dataset.y, dataset.n_absorbed, robust_flavor
    )
    if zero_first_stage[0]:
        raise ZeroFirstStageError(
            f"{zt.spec.label}: z'x = {float(w @ dataset.x):.3e} is numerically zero"
        )
    return SpecTable([zt.spec], *values, np.full(1, None, dtype=object))


def _solve(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M^{-1} v, through the pseudo-inverse when M is singular."""
    try:
        return np.linalg.solve(M, v)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(M) @ v


def _meat(Zm: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Robust meat ``sum_i e_i^2 z_i z_i'`` of residuals e."""
    scored = Zm * e[:, None]
    return scored.T @ scored


def _tsls_core(
    y: np.ndarray,
    x: np.ndarray,
    Zm: np.ndarray,
    n_absorbed: int,
    robust_flavor: str,
) -> TslsResult:
    """2SLS of y on x with instrument matrix Zm, no intercept.

    Callers partial the intercept and controls out of y, x and Zm first.
    Every number comes from one checked QR of the block, ``Zm = QR``:
    ``xhat = QQ'x``, and ``beta``, ``se`` are the just-identified IV with
    xhat as its instrument. The first stage is ``pi = R^-1 Q'x`` and, with
    ``c = Zm'x``, ``weights = pi * c / x'xhat``. Because ``G pi = c`` for
    the Gram ``G = Zm'Zm``, the robust Wald statistic ``pi'V^-1 pi / q``,
    with ``V = s G^-1 M G^-1``, is ``c'M^-1 c / (s q)``; here ``M =
    sum_i v_i^2 z_i z_i'`` is the meat of the first-stage residuals ``v = x
    - xhat``, and s is ``n / (n - q - n_absorbed)`` for hc1, 1 for hc0. J
    takes the same quadratic form in the meat of the 2SLS residuals, and is
    0 when their norm is at most 1e-12 of y's: the moments then hold.
    """
    flavor = _check_flavor(robust_flavor)
    n, q = Zm.shape
    Q, R = projection_basis(Zm)  # full-rank check lives here
    Qx = Q.T @ x
    xhat = Q @ Qx
    denom = float(x @ xhat)
    if denom <= FIRST_STAGE_TOL * float(x @ x) or denom <= 0.0:
        raise WeakIdentificationError(
            f"projected first stage x'P_Z x = {denom:.3e} is numerically zero"
        )
    if n <= q + n_absorbed:
        raise InsufficientObservationsError(f"need n > p: n={n}, p={q}, absorbed={n_absorbed}")
    # 2SLS is the just-identified IV with the projected treatment as instrument
    beta, se = iv_columns(xhat[None, :], x, y, n_absorbed, flavor)[:2]
    beta, se = float(beta[0]), float(se[0])
    resid = y - x * beta

    c = Zm.T @ x
    weights = np.linalg.solve(R, Qx) * c / denom
    scale = n / (n - q - n_absorbed) if flavor == "hc1" else 1.0
    first_stage_f = float(c @ _solve(_meat(Zm, x - xhat), c)) / (scale * q)

    j_dof = q - 1
    j_stat, j_pvalue = 0.0, None
    if j_dof:
        # residuals at rounding level are an exact fit: every moment holds,
        # and S is zero or noise that would make J arbitrary
        if np.linalg.norm(resid) > FIRST_STAGE_TOL * np.linalg.norm(y):
            # two-step efficient GMM: weight from 2SLS residuals, re-minimize,
            # evaluate the criterion at the second-step estimate
            moments_y = Zm.T @ y
            S = _meat(Zm, resid)
            beta_two = float(c @ _solve(S, moments_y)) / float(c @ _solve(S, c))
            gap = moments_y - c * beta_two
            j_stat = max(0.0, float(gap @ _solve(S, gap)))
        j_pvalue = chi2_sf(j_stat, j_dof)

    return TslsResult(beta, se, first_stage_f, j_stat, j_pvalue, j_dof, weights)


def tsls(
    dataset: Dataset,
    instrument_indices: list[int] | None = None,
    robust_flavor: str = "hc1",
) -> TslsResult:
    """2SLS of the treatment effect using a subset of the instruments.

    The intercept and controls are partialled out of y, x and the
    instruments first.

    Parameters
    ----------
    dataset : Dataset
    instrument_indices : list of int, optional
        1-based instrument indices; defaults to all of them.
    robust_flavor : {"hc1", "hc0"}

    Returns
    -------
    TslsResult
        ``weights[i]`` corresponds to ``instrument_indices[i]``.
    """
    if instrument_indices is None:
        instrument_indices = list(range(1, dataset.k_z + 1))
    if not instrument_indices:
        raise DimensionMismatchError("instrument subset is empty")
    bad = [i for i in instrument_indices if not 1 <= i <= dataset.k_z]
    if bad:
        raise DimensionMismatchError(
            f"instrument indices out of range 1..{dataset.k_z}: {bad}"
        )
    part = partial_out(dataset)
    Zm = part.Z[:, [i - 1 for i in instrument_indices]]
    return _tsls_core(part.y, part.x, Zm, part.n_absorbed, robust_flavor)


def tsls_matrix(
    dataset: Dataset,
    instrument_matrix: np.ndarray,
    robust_flavor: str = "hc1",
) -> TslsResult:
    """2SLS with an explicit instrument matrix (e.g. transformed columns).

    The matrix is partialled of the dataset's intercept and controls along
    with y and x.
    """
    Zm = np.atleast_2d(np.asarray(instrument_matrix, dtype=np.float64))
    if Zm.shape[0] != dataset.n and Zm.shape[1] == dataset.n:
        Zm = Zm.T
    part = partial_out(dataset)
    return _tsls_core(
        part.y, part.x, partial_out_columns(dataset, Zm), part.n_absorbed, robust_flavor
    )


def tsls_pairwise_report(
    dataset: Dataset,
    robust_flavor: str = "hc1",
) -> list[PairwiseTsls]:
    """2SLS over every instrument pair, raw and partialled variants.

    For each unordered pair {a, b} the raw variant instruments with
    (Z_a, Z_b); when other instruments remain, the partialled variant
    instruments with both columns residualized on all of them. Either way
    they are the transformed instruments of specs ``(a | C)`` and ``(b |
    C)``, C empty or the rest, from one R factor of the instruments.
    Disagreement between the two J p-values localizes which instruments a
    rejection comes from.

    Every fit runs on the dataset partialled of its intercept and controls.
    A fit that raises one of :data:`TSLS_FAILURES` (a degenerate spec is
    rank-deficient) stays a row, with no result and its failure code.
    Requires at least two instruments. Rows are ordered pair-major with the
    raw variant first.
    """
    if dataset.k_z < 2:
        raise DimensionMismatchError("pairwise report needs at least two instruments")
    part = partial_out(dataset)
    y, x, Z, n_absorbed = part.y, part.x, part.Z, part.n_absorbed
    k_z = dataset.k_z
    R = np.linalg.qr(Z, mode="r")
    rows: list[PairwiseTsls] = []
    for a, b in itertools.combinations(range(1, k_z + 1), 2):
        rest = tuple(i for i in range(1, k_z + 1) if i not in (a, b))
        for variant, controls in [("raw", ())] + ([("partialled", rest)] if rest else []):
            pair = [make_spec(k_z, a, controls), make_spec(k_z, b, controls)]
            labels = (pair[0].label, pair[1].label)
            A, degenerate, _ = spec_coefficients(R, pair)
            try:
                if degenerate.any():
                    raise RankDeficientError(f"{', '.join(labels)}: collinear with the controls")
                result = _tsls_core(y, x, Z @ A, n_absorbed, robust_flavor)
            except tuple(TSLS_FAILURES) as exc:
                rows.append(PairwiseTsls((a, b), variant, labels, None, TSLS_FAILURES[type(exc)]))
            else:
                rows.append(PairwiseTsls((a, b), variant, labels, result))
    return rows
