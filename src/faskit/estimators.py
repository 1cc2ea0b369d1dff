"""Just-identified IV estimates, 2SLS with its weight decomposition, and the
overidentification test.

Each just-identified specification is estimated as a ratio of two simple
regressions on its transformed instrument, so ``beta_hat * pi_hat ==
psi_hat`` holds to rounding. 2SLS over any instrument subset is reported
together with the weights that write it as a weighted sum of the
just-identified estimates, and with a two-step efficient GMM J statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chi2 import chi2_sf
from .data import Dataset
from .errors import (
    DegenerateInstrumentError,
    DimensionMismatchError,
    InsufficientObservationsError,
    WeakIdentificationError,
    ZeroFirstStageError,
)
from .linalg import (
    _check_flavor,
    ols,
    partial_out,
    partial_out_columns,
    projection_basis,
    residualize,
)
from .specs import JustIdSpec, TransformedInstrument

# Relative threshold below which a just-identifying moment z'x counts as zero.
FIRST_STAGE_TOL = 1e-12


@dataclass(eq=False)
class SpecEstimate:
    """Estimate of one just-identified specification.

    ``beta_hat`` is absent (None) when the spec could not be estimated; the
    ``failure`` field then says why ("degenerate" or "zero-first-stage").

    Attributes
    ----------
    spec : JustIdSpec
    beta_hat : float or None
        Ratio psi_hat / pi_hat, computed directly as z'y / z'x.
    se : float or None
        Heteroskedasticity-robust standard error of ``beta_hat``.
    pi_hat : float or None
        First-stage coefficient of x on the transformed instrument.
    psi_hat : float or None
        Reduced-form coefficient of y on the transformed instrument.
    f_stat : float
        Squared robust t-ratio of ``pi_hat``; 0.0 for failed specs.
    degenerate : bool
        True when no estimate exists.
    failure : str or None
        "degenerate", "zero-first-stage", or None.
    """

    spec: JustIdSpec
    beta_hat: float | None
    se: float | None
    pi_hat: float | None
    psi_hat: float | None
    f_stat: float
    degenerate: bool = False
    failure: str | None = None


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
    result: TslsResult


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
    columns. Returns per-row arrays in :class:`SpecEstimate` field order:
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
    return beta_hat, np.sqrt(var_beta), pi_hat, wy / ww, f_stat, zero_first_stage


def just_id_iv(
    dataset: Dataset,
    zt: TransformedInstrument,
    robust_flavor: str = "hc1",
) -> SpecEstimate:
    """Estimate one just-identified specification.

    The one-column case of :func:`iv_columns`, which defines every field.
    A dataset that still carries an intercept or controls is partialled of
    them, and so is the transformed instrument; by Frisch-Waugh-Lovell the
    estimates equal those of the design that includes them.

    Raises
    ------
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
    if float(w @ w) <= 0.0:
        raise DegenerateInstrumentError(f"{zt.spec.label}: instrument is identically zero")
    *values, zero_first_stage = iv_columns(
        w[None, :], dataset.x, dataset.y, dataset.n_absorbed, robust_flavor
    )
    if zero_first_stage[0]:
        raise ZeroFirstStageError(
            f"{zt.spec.label}: z'x = {float(w @ dataset.x):.3e} is numerically zero"
        )
    return SpecEstimate(zt.spec, *(float(v[0]) for v in values))


def failed_estimate(spec: JustIdSpec, reason: str) -> SpecEstimate:
    """Placeholder estimate for a spec that could not be computed."""
    return SpecEstimate(
        spec=spec,
        beta_hat=None,
        se=None,
        pi_hat=None,
        psi_hat=None,
        f_stat=0.0,
        degenerate=True,
        failure=reason,
    )


def _solve(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M^{-1} v, through the pseudo-inverse when M is singular."""
    try:
        return np.linalg.solve(M, v)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(M) @ v


def _tsls_core(
    y: np.ndarray,
    x: np.ndarray,
    Zm: np.ndarray,
    n_absorbed: int,
    robust_flavor: str,
) -> TslsResult:
    """2SLS of y on x with instrument matrix Zm, no intercept.

    Callers partial the intercept and controls out of y, x and Zm first.
    """
    q = Zm.shape[1]
    Q = projection_basis(Zm)  # full-rank check lives here
    xhat = Q @ (Q.T @ x)
    denom = float(x @ xhat)
    if denom <= FIRST_STAGE_TOL * float(x @ x) or denom <= 0.0:
        raise WeakIdentificationError(
            f"projected first stage x'P_Z x = {denom:.3e} is numerically zero"
        )
    # 2SLS is the just-identified IV with the projected treatment as instrument
    beta, se = iv_columns(xhat[None, :], x, y, n_absorbed, robust_flavor)[:2]
    beta, se = float(beta[0]), float(se[0])
    resid = y - x * beta

    first = ols(Zm, x, robust_flavor, n_absorbed)
    pi = first.coefficients
    first_stage_f = float(pi @ _solve(first.robust_cov, pi)) / q

    weights = pi * (Zm.T @ x) / denom

    j_dof = q - 1
    if j_dof == 0:
        j_stat = 0.0
        j_pvalue = None
    else:
        # two-step efficient GMM: weight from 2SLS residuals, re-minimize,
        # evaluate the criterion at the second-step estimate
        moments_x = Zm.T @ x
        moments_y = Zm.T @ y
        scored = Zm * resid[:, None]
        S = scored.T @ scored
        S_inv_x = _solve(S, moments_x)
        S_inv_y = _solve(S, moments_y)
        beta_two = float(moments_x @ S_inv_y) / float(moments_x @ S_inv_x)
        gap = moments_y - moments_x * beta_two
        j_stat = max(0.0, float(gap @ _solve(S, gap)))
        j_pvalue = chi2_sf(j_stat, j_dof)

    return TslsResult(
        beta_2sls=beta,
        se=se,
        first_stage_f=first_stage_f,
        j_stat=j_stat,
        j_pvalue=j_pvalue,
        j_dof=j_dof,
        weights=weights,
    )


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
    instruments with both columns residualized on all of them. Disagreement
    between the two J p-values localizes which instruments a rejection comes
    from.

    Every fit runs on the dataset partialled of its intercept and controls.
    Requires at least two instruments. Rows are ordered pair-major with the
    raw variant first.
    """
    if dataset.k_z < 2:
        raise DimensionMismatchError("pairwise report needs at least two instruments")
    part = partial_out(dataset)
    y, x, Z, n_absorbed = part.y, part.x, part.Z, part.n_absorbed
    k_z = dataset.k_z
    rows: list[PairwiseTsls] = []
    for a in range(1, k_z + 1):
        for b in range(a + 1, k_z + 1):
            cols = Z[:, [a - 1, b - 1]]
            variants = [("raw", cols, (f"Z{a}", f"Z{b}"))]
            rest = [i for i in range(1, k_z + 1) if i not in (a, b)]
            if rest:
                tag = ",".join(str(i) for i in rest)
                partialled = residualize(cols, Z[:, [i - 1 for i in rest]])
                variants.append(("partialled", partialled, (f"Z{a}|{tag}", f"Z{b}|{tag}")))
            for variant, instruments, labels in variants:
                result = _tsls_core(y, x, instruments, n_absorbed, robust_flavor)
                rows.append(PairwiseTsls((a, b), variant, labels, result))
    return rows
