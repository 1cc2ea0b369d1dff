"""The just-identified IV column kernel, 2SLS with its weight decomposition,
and the overidentification test.

:func:`faskit.fas.estimate_specs` estimates specs, one or many, as one
:class:`SpecTable`, and :func:`iv_columns` adds their robust standard
errors and first-stage F from the n rows. 2SLS over any
instrument subset is reported together with the weights that write it as a
weighted sum of the just-identified estimates, and with a two-step efficient
GMM J statistic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .chi2 import chi2_sf
from .data import Dataset
from .errors import (
    DimensionMismatchError,
    InsufficientObservationsError,
    RankDeficientError,
    WeakIdentificationError,
)
from .linalg import (
    _BLOCK_ELEMENTS, BLOCK_ROWS, _check_flavor, blocked_r, check_rank, partial_out, row_blocks,
)
from .specs import JustIdSpec, make_spec, spec_coefficients

# 2SLS's relative zero, for x'P_Z x against x'x and for |residuals| against |y|.
FIRST_STAGE_TOL = 1e-12

# The code a report records for a 2SLS fit that raised one of these.
TSLS_FAILURES = {
    RankDeficientError: "rank-deficient",
    WeakIdentificationError: "weak-identification",
    InsufficientObservationsError: "insufficient-observations",
}


@dataclass(eq=False)
class SpecTable:
    """Estimates of just-identified specs of ``k_z`` instruments: row i for
    the spec whose id is ``spec_ids[i]`` (int64), one array per column.

    ``beta_hat = w'y / w'x`` for the transformed instrument w, its robust
    ``se``, the first-stage and reduced-form coefficients ``pi_hat`` and
    ``psi_hat`` of x and y on w, and ``f_stat``, the squared robust t-ratio
    of ``pi_hat``. ``failure`` (dtype object) is None for an estimated row;
    otherwise it is "degenerate" (collinear controls or transform),
    "zero-first-stage" (``|corr(w, x)| <= 1e-12``: w is orthogonal to the
    treatment) or "insufficient-observations" (``n <= 1 + |C| +
    n_absorbed``), and the row holds NaN but for an ``f_stat`` of 0.0. A
    population table holds moments from the same engine instead; see
    :func:`faskit.fas.population_fas_by_mode`.
    """

    k_z: int
    spec_ids: np.ndarray
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

    @property
    def specs(self) -> list[JustIdSpec]:
        """Each row's spec, built on each read: ``JustIdSpec(k_z, i)`` for
        ``i`` in ``spec_ids``."""
        return [JustIdSpec(self.k_z, i) for i in self.spec_ids.tolist()]

    def take(self, positions) -> SpecTable:
        """The rows at ``positions``, in that order."""
        columns = (
            self.spec_ids, self.beta_hat, self.se, self.pi_hat, self.psi_hat, self.f_stat,
            self.failure,
        )
        return SpecTable(self.k_z, *(c[positions] for c in columns))


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
    Z: np.ndarray, A: np.ndarray, x: np.ndarray, y: np.ndarray, pi_hat: np.ndarray,
    beta_hat: np.ndarray, ww: np.ndarray, wx: np.ndarray, n_absorbed: int = 0,
    robust_flavor: str = "hc1",
) -> tuple[np.ndarray, np.ndarray]:
    """Robust ``se`` and ``f_stat`` of the just-identified IVs of y on x
    whose instruments w are the m columns of ``Z A``, given each one's
    ``pi_hat``, ``beta_hat``, ``ww = w'w`` and ``wx = w'x``.

    Z, x and y are partialled upstream, which absorbed ``n_absorbed``
    columns. ``se`` is the root of ``sum(w^2 u^2) / (w'x)^2``, ``u = y - x
    beta_hat``, and ``f_stat`` is ``pi_hat^2`` over ``sum(w^2 v^2) /
    (w'w)^2``, ``v = x - w pi_hat``, or +inf when that is zero; hc1 scales
    both by ``n / (n - 1 - n_absorbed)``. ``Z A`` is formed a block of
    :func:`~faskit.linalg.row_blocks` and of specs at a time (at most
    ``_BLOCK_ELEMENTS`` values), each spec's column by its own
    matrix-vector product, and summed along each column, so a spec's
    numbers do not depend on the other specs.

    Raises ValueError for an unknown ``robust_flavor`` and
    InsufficientObservationsError when ``n <= 1 + n_absorbed``.
    """
    flavor = _check_flavor(robust_flavor)
    n, m = len(x), A.shape[1]
    if n <= 1 + n_absorbed:
        raise InsufficientObservationsError(f"need n > p: n={n}, p=1, absorbed={n_absorbed}")
    longest = min(n, BLOCK_ROWS + 1)  # rows of the longest of row_blocks(n)
    width = max(1, min(m, _BLOCK_ELEMENTS // longest))
    # both buffers in one allocation for all blocks: more, freed at the top
    # of the heap, were handed back to the system and faulted in anew
    W, buf = np.empty((2, width, longest, 1))
    buf = buf[..., 0]
    sum_pi, sum_beta = np.zeros(m), np.zeros(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in row_blocks(n):
            size = rows.stop - rows.start
            # a column of a CSV table is strided, which slows the broadcasts
            # below by more than this copy of a block costs
            x_b, y_b = np.ascontiguousarray(x[rows]), np.ascontiguousarray(y[rows])
            for specs in (slice(j, j + width) for j in range(0, m, width)):
                a = A[:, specs].T[:, :, None]
                w = np.matmul(Z[rows], a, out=W[: len(a), :size])[:, :, 0]
                scored = buf[: len(a), :size]
                np.multiply(w, -pi_hat[specs, None], out=scored)
                scored += x_b
                scored *= w  # w * (x - w pi_hat)
                sum_pi[specs] += np.square(scored, out=scored).sum(axis=1)
                np.multiply.outer(-beta_hat[specs], x_b, out=scored)
                scored += y_b
                scored *= w  # w * (y - x beta_hat)
                sum_beta[specs] += np.square(scored, out=scored).sum(axis=1)
        scale = n / (n - 1 - n_absorbed) if flavor == "hc1" else 1.0
        var_pi = scale * sum_pi / (ww * ww)
        var_beta = scale * sum_beta / (wx * wx)
        f_stat = np.where(var_pi > 0.0, pi_hat * pi_hat / var_pi, np.inf)
    return np.sqrt(var_beta), f_stat


def _solve(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M^{-1} v, through the pseudo-inverse when M is singular."""
    try:
        return np.linalg.solve(M, v)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(M) @ v


def _meat(Zm: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Robust meat ``sum_i e_i^2 z_i z_i'`` of residuals e over the rows of Zm."""
    scored = Zm * e[:, None]
    return scored.T @ scored


def _forward_solve(B: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``B R^-1`` for an upper triangular R, one column at a time: each row
    is solved by forward substitution, so the result spans col(B) to
    rounding whatever R's condition number."""
    out = np.empty_like(B)
    for j in range(R.shape[0]):
        out[:, j] = (B[:, j] - out[:, :j] @ R[:j, j]) / R[j, j]
    return out


def _check_rows(n: int, q: int, n_absorbed: int) -> None:
    """Raise InsufficientObservationsError unless ``n > q + n_absorbed``: a
    2SLS fit on q instruments checks this before anything else."""
    if n <= q + n_absorbed:
        raise InsufficientObservationsError(f"need n > p: n={n}, p={q}, absorbed={n_absorbed}")


def _tsls_core(
    R0: np.ndarray,
    Z: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    A: np.ndarray,
    n_absorbed: int,
    robust_flavor: str,
) -> TslsResult:
    """2SLS of y on x with the q instruments ``Zm = Z A``, no intercept.

    Callers partial the intercept and controls out of y, x and Z, check
    :func:`_check_rows` and pass ``R0``, the :func:`blocked_r` of ``[Z | x |
    y]``. The fit's factor comes from the k side: with ``T = blockdiag(A,
    I_2)``, ``(R0 T)'(R0 T)`` is the Gram of ``[Zm | x | y]``, so the R of a
    QR of ``R0 T`` is theirs, and at ``A = I`` it is R0 bit for bit. It
    holds the R of Zm, ``Q'x`` and ``Q'y`` for Zm's ``Q = Zm R^-1``, which
    is never formed whole. The fitted treatment is ``xhat = Zm pi = Q Q'x``
    with first stage ``pi = R^-1 Q'x``, so ``x'xhat = xhat'xhat = |Q'x|^2``
    and ``xhat'y = (Q'x)'Q'y``; ``beta`` and ``se`` are the just-identified
    IV with xhat as its instrument, and with ``c = Zm'x = R'Q'x``,
    ``weights = pi * c / x'xhat``. Because ``G pi = c`` for the Gram ``G =
    Zm'Zm``, the robust Wald statistic ``pi'V^-1 pi / q``, with ``V = s
    G^-1 M G^-1``, is ``c'M^-1 c / (s q)``; here ``M = sum_i v_i^2 z_i
    z_i'`` is the meat of the first-stage residuals ``v = x - xhat``, and s
    is ``n / (n - q - n_absorbed)`` for hc1, 1 for hc0. J takes the same
    quadratic form in the meat of the 2SLS residuals, and is 0 when their
    norm is at most 1e-12 of y's: the moments then hold. Neither form
    depends on the basis of col(Zm), so both are taken in the rows of ``Zm
    R^-1``, where they stay accurate when Zm's columns are close to
    collinear; in Zm itself they lose about cond(Zm)^2 of their digits. One
    pass over :func:`row_blocks`, which forms each block of Zm once, sums
    every n-row term, so no n-row array is formed.
    """
    flavor = _check_flavor(robust_flavor)
    n, (k, q) = len(x), A.shape
    # the QR of R0 T, whose last two columns are R0's
    R = np.linalg.qr(np.column_stack([R0[:, :k] @ A, R0[:, k:]]), mode="r")
    check_rank(R[:q, :q])
    Qx, Qy = R[:q, q], R[:q, q + 1]
    xx, yy = (float(R[:, j] @ R[:, j]) for j in (q, q + 1))  # x'x and y'y, as R'R = B'B
    denom = float(Qx @ Qx)
    if denom <= FIRST_STAGE_TOL * xx or denom <= 0.0:
        raise WeakIdentificationError(
            f"projected first stage x'P_Z x = {denom:.3e} is numerically zero"
        )
    pi = np.linalg.solve(R[:q, :q], Qx)
    # 2SLS is the just-identified IV with the projected treatment as instrument
    beta = float(Qx @ Qy) / denom

    qx, qy = np.zeros(q), np.zeros(q)
    first_meat, meat = np.zeros((q, q)), np.zeros((q, q))
    scored_sum = resid_sum = 0.0  # sum (xhat u)^2 and sum u^2 of the 2SLS residuals u
    for rows in row_blocks(n):
        # contiguous copies of x and y: a CSV table's columns are strided,
        # which slows the products below by more than the copies cost
        xb, yb = np.ascontiguousarray(x[rows]), np.ascontiguousarray(y[rows])
        Qb = _forward_solve(Z[rows] @ A, R[:q, :q])
        xhat = Qb @ Qx
        resid = yb - xb * beta
        qx += Qb.T @ xb
        qy += Qb.T @ yb
        first_meat += _meat(Qb, xb - xhat)
        meat += _meat(Qb, resid)
        scored = xhat * resid
        scored_sum += float(scored @ scored)
        resid_sum += float(resid @ resid)

    scale_iv = n / (n - 1 - n_absorbed) if flavor == "hc1" else 1.0
    se = float(np.sqrt(scale_iv * scored_sum / (denom * denom)))
    weights = pi * (R[:q, :q].T @ Qx) / denom
    scale = n / (n - q - n_absorbed) if flavor == "hc1" else 1.0
    first_stage_f = float(qx @ _solve(first_meat, qx)) / (scale * q)

    j_dof = q - 1
    j_stat, j_pvalue = 0.0, None
    if j_dof:
        # residuals at rounding level are an exact fit: every moment holds,
        # and S is zero or noise that would make J arbitrary
        if resid_sum > FIRST_STAGE_TOL**2 * yy:
            # two-step efficient GMM: weight from 2SLS residuals, re-minimize,
            # evaluate the criterion at the second-step estimate
            beta_two = float(qx @ _solve(meat, qy)) / float(qx @ _solve(meat, qx))
            gap = qy - qx * beta_two
            j_stat = max(0.0, float(gap @ _solve(meat, gap)))
        j_pvalue = chi2_sf(j_stat, j_dof)

    return TslsResult(beta, se, first_stage_f, j_stat, j_pvalue, j_dof, weights)


def _factor(part: Dataset) -> np.ndarray:
    """The :func:`blocked_r` of ``[Z | x | y]`` of a partialled dataset."""
    return blocked_r(lambda s: np.column_stack([part.Z[s], part.x[s], part.y[s]]), part.n)


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
    _check_rows(part.n, len(instrument_indices), part.n_absorbed)
    A = np.eye(part.k_z)[:, [i - 1 for i in instrument_indices]]
    return _tsls_core(_factor(part), part.Z, part.x, part.y, A, part.n_absorbed, robust_flavor)


def tsls_pairwise_report(
    dataset: Dataset,
    robust_flavor: str = "hc1",
) -> list[PairwiseTsls]:
    """2SLS over every instrument pair, raw and partialled variants.

    For each unordered pair {a, b} the raw variant instruments with
    (Z_a, Z_b); when other instruments remain, the partialled variant
    instruments with both columns residualized on all of them. Either way
    they are the transformed instruments of specs ``(a | C)`` and ``(b |
    C)``, C empty or the rest. Disagreement between the two J p-values
    localizes which instruments a rejection comes from.

    Every fit runs on the dataset partialled of its intercept and controls.
    A partialled fit also counts its control instruments as absorbed: it
    needs ``n > 2 + |C| + n_absorbed``, and hc1 scales by ``n / (n - 2 -
    |C| - n_absorbed)``, and too few rows takes precedence over the other
    failures. A fit that raises one of :data:`TSLS_FAILURES` (a degenerate
    spec is rank-deficient) stays a row, with no result and its failure
    code. The report takes one :func:`blocked_r` of ``[Z | x | y]``: the
    specs' coefficients A read its R of Z, and each fit takes its own
    factor from it (see :func:`_tsls_core`) and then makes one pass over
    the rows, in which it forms its instruments ``Z A`` once. Requires at
    least two instruments. Rows are ordered pair-major with the raw variant
    first.
    """
    if dataset.k_z < 2:
        raise DimensionMismatchError("pairwise report needs at least two instruments")
    part = partial_out(dataset)
    y, x, Z, n_absorbed = part.y, part.x, part.Z, part.n_absorbed
    k_z = dataset.k_z
    fits = []
    for a, b in itertools.combinations(range(1, k_z + 1), 2):
        rest = tuple(i for i in range(1, k_z + 1) if i not in (a, b))
        for variant, controls in [("raw", ())] + ([("partialled", rest)] if rest else []):
            fits.append(((a, b), variant, controls))
    pairs = [make_spec(k_z, i, controls) for pair, _, controls in fits for i in pair]
    R0 = _factor(part)
    (A,), (degenerate,), _ = spec_coefficients(R0[None, :k_z, :k_z], pairs)
    rows: list[PairwiseTsls] = []
    for i, (pair, variant, controls) in enumerate(fits):
        cols = slice(2 * i, 2 * i + 2)
        labels = tuple(spec.label for spec in pairs[cols])
        absorbed = n_absorbed + len(controls)
        try:
            _check_rows(part.n, 2, absorbed)
            if degenerate[cols].any():
                raise RankDeficientError(f"{', '.join(labels)}: collinear with the controls")
            result = _tsls_core(R0, Z, x, y, A[:, cols], absorbed, robust_flavor)
        except tuple(TSLS_FAILURES) as exc:
            rows.append(PairwiseTsls(pair, variant, labels, None, TSLS_FAILURES[type(exc)]))
        else:
            rows.append(PairwiseTsls(pair, variant, labels, result))
    return rows
