"""Falsification adaptive sets: relevance screening, interval assembly, the
population oracle, and the falsification frontier.

Three reporting modes share one engine. Excl keeps each instrument with all
others as controls, Exo keeps each instrument alone, General enumerates every
control partition. The requested modes' families are swept once, as their
union, into one spec table, and each mode takes its own family's rows. In
each mode the interval spans the estimates whose first-stage F clears the
cutoff: an array operation on the table's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset
from .errors import DimensionMismatchError, SingularSigmaError, ZeroFirstStageError
from .estimators import SpecTable, iv_columns
from .linalg import partial_out
from .specs import JustIdSpec, enumerate_specs, instrument_specs, spec_coefficients

# Relative tolerance for population-level "pi != 0" decisions.
POPULATION_RELEVANCE_TOL = 1e-12

# Guard band for declaring an intersection empty; rescues pure rounding noise
# while staying far below any substantive perturbation (see identified_set).
_EMPTY_SLACK = 1e-10

DEFAULT_CUTOFF = 10.0

# Elements per block of transformed instruments: caps the sweep's working memory.
_BLOCK_ELEMENTS = 2**15


class Mode(str, Enum):
    """FAS reporting mode."""

    EXCL = "excl"
    EXO = "exo"
    GENERAL = "general"


@dataclass(eq=False)
class FasResult:
    """A FAS interval with its supporting evidence.

    ``interval`` is ``(lo, hi)`` with ``lo <= hi``, or None when every spec
    was rejected; it spans the ``table`` rows that ``selected`` marks.
    """

    mode: Mode
    interval: tuple[float, float] | None
    table: SpecTable
    selected: np.ndarray

    @property
    def status(self) -> np.ndarray:
        """Per row: "selected", the row's failure, or "low-F"."""
        status = np.where(self.table.estimated, "low-F", self.table.failure)
        status[self.selected] = "selected"
        return status


def _span(table: SpecTable, selected: np.ndarray) -> tuple[float, float] | None:
    betas = table.beta_hat[selected]
    return (float(betas.min()), float(betas.max())) if betas.size else None


@dataclass(eq=False)
class PopulationModel:
    """Population parameters of the linear IV model.

    y = x * beta + Z'gamma + U with cov(Z, U) = alpha, first stage
    x = Z'pi + V. ``sigma_z`` is the instrument covariance matrix;
    ``var_u`` and ``var_v`` are the structural and first-stage error
    variances used by the simulator.
    """

    beta: float
    gamma: np.ndarray
    alpha: np.ndarray
    pi: np.ndarray
    sigma_z: np.ndarray
    var_v: float = 1.0
    var_u: float = 1.0

    def __post_init__(self) -> None:
        self.gamma = _finite("gamma", self.gamma)
        self.alpha = _finite("alpha", self.alpha)
        self.pi = _finite("pi", self.pi)
        self.sigma_z = np.atleast_2d(np.asarray(self.sigma_z, dtype=np.float64))
        for name in ("beta", "var_u", "var_v", "sigma_z"):
            _finite(name, getattr(self, name))
        k = self.pi.shape[0]
        if self.gamma.shape[0] != k or self.alpha.shape[0] != k:
            raise DimensionMismatchError(
                f"pi, gamma, alpha lengths disagree: "
                f"{k}, {self.gamma.shape[0]}, {self.alpha.shape[0]}"
            )
        if self.sigma_z.shape != (k, k):
            raise DimensionMismatchError(
                f"sigma_z has shape {self.sigma_z.shape}, expected ({k}, {k})"
            )

    @property
    def k_z(self) -> int:
        return self.pi.shape[0]

    def validate(self) -> None:
        """Check sigma_z is symmetric positive definite and variances positive.

        Raises SingularSigmaError when the smallest eigenvalue is at or
        below 1e-10 times the largest.
        """
        if not np.allclose(self.sigma_z, self.sigma_z.T, rtol=1e-8, atol=1e-12):
            raise SingularSigmaError("sigma_z is not symmetric")
        eigvals = np.linalg.eigvalsh(self.sigma_z)
        if eigvals[0] <= 1e-10 * eigvals[-1] or eigvals[-1] <= 0.0:
            raise SingularSigmaError(
                f"sigma_z is numerically singular (eigenvalues "
                f"{np.array2string(eigvals, precision=3)})"
            )
        if self.var_u <= 0.0 or self.var_v <= 0.0:
            raise SingularSigmaError(
                f"error variances must be positive: var_u={self.var_u}, var_v={self.var_v}"
            )

    def violations_disjoint(self) -> bool:
        """True when no instrument violates both exclusion and exogeneity,
        i.e. gamma_l * alpha_l == 0 for every l."""
        return bool(np.all(self.gamma * self.alpha == 0.0))


@dataclass(eq=False)
class FrontierPoint:
    """One point of the falsification frontier.

    ``delta`` holds |psi_j - b * pi_j| for every component of the mode's
    moment vectors; ``identified_set`` is the interval the model admits at
    exactly that delta (None when empty); ``on_frontier`` is False for b
    outside the span of the relevant ratios.
    """

    b: float
    delta: np.ndarray
    identified_set: tuple[float, float] | None
    on_frontier: bool


def specs_for_mode(mode: Mode, k_z: int) -> list[JustIdSpec]:
    """The spec family a mode reports over, in enumeration order: all of
    :func:`enumerate_specs` for General, and k_z specs built directly for
    Excl and Exo. Every mode raises the count errors enumerate_specs does."""
    mode = Mode(mode)
    if mode == Mode.GENERAL:
        return enumerate_specs(k_z)
    return instrument_specs(k_z, all_controls=mode == Mode.EXCL)


def _mode_views(modes: list[Mode], k_z: int) -> tuple[list[JustIdSpec], dict[Mode, list[int]]]:
    """The union of the modes' spec families in spec_id order, and the
    positions of each mode's family within it."""
    families = {Mode(m): specs_for_mode(m, k_z) for m in modes}
    by_id = {s.spec_id: s for family in families.values() for s in family}
    union = [by_id[i] for i in sorted(by_id)]
    position = {s.spec_id: pos for pos, s in enumerate(union)}
    return union, {m: [position[s.spec_id] for s in f] for m, f in families.items()}


def estimate_specs(
    dataset: Dataset,
    specs: list[JustIdSpec],
    robust_flavor: str = "hc1",
) -> SpecTable:
    """Estimate a list of specifications on an already-partialled dataset.

    A block at a time, :func:`spec_coefficients` on one QR of the
    instruments gives ``A`` and :func:`iv_columns` estimates ``Z A``, with
    one matrix-vector product per spec, so that a spec's estimate does not
    depend on the family it is swept in. The blocks join into one table in
    the order of ``specs``, whose ``failure`` column comes from three masks
    (see :class:`SpecTable`); too few observations takes precedence.
    """
    dataset = partial_out(dataset)
    R = np.linalg.qr(dataset.Z, mode="r")
    width = max(1, _BLOCK_ELEMENTS // dataset.n)
    blocks = []
    for start in range(0, len(specs), width):
        A, degenerate, n_controls = spec_coefficients(R, specs[start : start + width])
        W = np.matmul(dataset.Z, A.T[:, :, None])[:, :, 0]
        cols = iv_columns(W, dataset.x, dataset.y, dataset.n_absorbed, robust_flavor)
        blocks.append((*cols, degenerate, n_controls))
    *values, f_stat, zero, degenerate, n_controls = (np.concatenate(c) for c in zip(*blocks))
    failure = np.full(len(specs), None, dtype=object)
    failure[zero] = "zero-first-stage"
    failure[degenerate] = "degenerate"
    failure[dataset.n <= 1 + n_controls + dataset.n_absorbed] = "insufficient-observations"
    failed = np.not_equal(failure, None)
    for column in values:
        column[failed] = np.nan
    f_stat[failed] = 0.0
    return SpecTable(specs, *values, f_stat, failure)


def fas_from_estimates(table: SpecTable, cutoff: float, mode: Mode) -> FasResult:
    """Screen a table by first-stage F and span the selected estimates.

    A row is selected when it has no failure and its F statistic is at or
    above ``cutoff``; the interval is [min beta_hat, max beta_hat] over the
    selected rows, or None (reported, not raised) when there are none.
    """
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    selected = table.estimated & (table.f_stat >= cutoff)
    return FasResult(mode, _span(table, selected), table, selected)


def fas_by_mode(
    dataset: Dataset,
    modes: list[Mode],
    cutoff: float = DEFAULT_CUTOFF,
    robust_flavor: str = "hc1",
) -> dict[Mode, FasResult]:
    """Estimate the FAS of each requested mode from one sweep.

    The dataset is partialled of (intercept, controls) first; the union of
    the modes' families from :func:`specs_for_mode` (k_z specs each for
    Excl and Exo, the whole lattice only for General) is then estimated
    once on the partialled sample. Each mode's interval spans the estimates
    of its own family that clear the relevance cutoff; its table is the
    rows of that family in the sweep's table.
    """
    family, views = _mode_views(modes, dataset.k_z)
    table = estimate_specs(partial_out(dataset), family, robust_flavor)
    return {
        mode: fas_from_estimates(table.take(view), cutoff, mode) for mode, view in views.items()
    }


def fas_estimate(
    dataset: Dataset,
    mode: Mode = Mode.GENERAL,
    cutoff: float = DEFAULT_CUTOFF,
    robust_flavor: str = "hc1",
) -> FasResult:
    """Estimate the FAS of the requested mode from data.

    The dataset is partialled of (intercept, controls) first; every spec in
    the mode's family is then estimated on the partialled sample and the
    interval spans the estimates that clear the relevance cutoff.
    """
    mode = Mode(mode)
    return fas_by_mode(dataset, [mode], cutoff, robust_flavor)[mode]


# ---------------------------------------------------------------------------
# population oracle

def population_spec_moments(
    model: PopulationModel, specs: list[JustIdSpec]
) -> tuple[np.ndarray, np.ndarray]:
    """Population first-stage and reduced-form coefficients per spec.

    For spec (l, C) these are the coefficients of x and y on the residual of
    Z_l after population projection on Z_C:

        pi~ = cov(Z_res, x) / var(Z_res),  psi~ = cov(Z_res, y) / var(Z_res).

    The sweep's coefficient solve on the Cholesky factor of ``sigma_z``
    gives ``Z_res = Z'a``, so ``pi~ = a'cov(Z, x) / |R a|^2``, and so on.

    Returns (pi~, psi~) arrays aligned with ``specs``.
    """
    model.validate()
    R = np.linalg.cholesky(model.sigma_z).T
    # validate() bounds the condition number of sigma_z, so no spec is degenerate
    A, _, _ = spec_coefficients(R, specs)
    cov_zx = model.sigma_z @ model.pi
    cov_zy = model.sigma_z @ (model.pi * model.beta + model.gamma) + model.alpha
    variance = np.sum((R @ A) ** 2, axis=0)
    return cov_zx @ A / variance, cov_zy @ A / variance


def _relevance_mask(pi_t: np.ndarray) -> np.ndarray:
    return np.abs(pi_t) > POPULATION_RELEVANCE_TOL * np.max(np.abs(pi_t), initial=1.0)


def _population_result(
    mode: Mode, specs: list[JustIdSpec], pi_t: np.ndarray, psi_t: np.ndarray
) -> FasResult:
    relevant = _relevance_mask(pi_t)
    ratio = np.divide(psi_t, pi_t, out=np.full_like(psi_t, np.nan), where=relevant)
    table = SpecTable(
        specs, ratio, np.full_like(psi_t, np.nan), pi_t, psi_t,
        np.where(relevant, np.inf, 0.0), np.where(relevant, None, "zero-first-stage"),
    )
    return FasResult(mode, _span(table, relevant), table, relevant)


def population_fas_by_mode(model: PopulationModel, modes: list[Mode]) -> dict[Mode, FasResult]:
    """Population FAS of each requested mode from one set of moments.

    :func:`population_spec_moments` runs once over the union of the modes'
    families; each mode's result views its own family in it. Relevance is
    exact: |pi~| above 1e-12 relative to the mode family's largest. Each
    table holds every spec's pi~ and psi~, with beta_hat their ratio, f_stat
    +inf (no sampling variance) and ``selected`` True where relevant; an
    irrelevant spec has failure "zero-first-stage" and NaN beta_hat and se.
    """
    family, views = _mode_views(modes, model.k_z)
    pi_t, psi_t = population_spec_moments(model, family)
    return {
        mode: _population_result(mode, [family[pos] for pos in view], pi_t[view], psi_t[view])
        for mode, view in views.items()
    }


def population_fas(model: PopulationModel, mode: Mode = Mode.GENERAL) -> FasResult:
    """Population FAS: the span of the relevant specs' estimand ratios.

    The one-mode case of :func:`population_fas_by_mode`.
    """
    mode = Mode(mode)
    return population_fas_by_mode(model, [mode])[mode]


# ---------------------------------------------------------------------------
# identified sets and the falsification frontier

def _finite(name: str, values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return values


def _identified_sets(
    pi: np.ndarray, psi: np.ndarray, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, hi, empty)`` of :func:`identified_set` at each row of a
    (grid x components) delta matrix, in one array pass."""
    rel = _relevance_mask(pi)
    empty = np.any(np.abs(psi[~rel]) > delta[:, ~rel], axis=1)
    center = psi[rel] / pi[rel]
    radius = delta[:, rel]
    radius /= np.abs(pi[rel])
    bound = center - radius
    lo = bound.max(axis=1, initial=-np.inf)
    hi = np.add(center, radius, out=bound).min(axis=1, initial=np.inf)
    # both sides are pinned where the bounds cross, so this arithmetic is finite
    crossed = lo > hi
    lo_x, hi_x = lo[crossed], hi[crossed]
    slack = _EMPTY_SLACK * np.maximum(1.0, np.maximum(np.abs(lo_x), np.abs(hi_x)))
    empty[crossed] |= lo_x - hi_x > slack
    lo[crossed] = hi[crossed] = 0.5 * (lo_x + hi_x)
    return lo, hi, empty


def identified_set(
    pi: np.ndarray,
    psi: np.ndarray,
    delta: np.ndarray,
) -> tuple[float, float] | None:
    """Set of b with |psi_j - pi_j * b| <= delta_j for every component.

    Componentwise: with pi_j != 0 the constraint is the interval
    psi_j/pi_j +- delta_j/|pi_j|; with pi_j == 0 it is everything when
    |psi_j| <= delta_j and empty otherwise. Returns the intersection as
    (lo, hi), which may have infinite endpoints when no component pins a
    side, or None when the intersection is empty.

    A guard band of 1e-10 (relative) absorbs rounding noise when bounds
    cross by a few ulp; genuinely conflicting constraints still come out
    empty. NaN or negative delta (+inf is fine) and non-finite pi or psi
    raise ValueError. This is the one-row case of :func:`frontier`'s kernel.
    """
    pi, psi = _finite("pi", pi), _finite("psi", psi)
    delta = np.asarray(delta, dtype=np.float64).reshape(-1)
    if not pi.shape == psi.shape == delta.shape:
        raise DimensionMismatchError(
            f"component counts disagree: {pi.shape[0]}, {psi.shape[0]}, {delta.shape[0]}"
        )
    if not np.all(delta >= 0.0):
        raise ValueError("delta components must be nonnegative, not NaN")
    lo, hi, empty = _identified_sets(pi, psi, delta[None, :])
    return None if empty[0] else (float(lo[0]), float(hi[0]))


def frontier(
    pi: np.ndarray,
    psi: np.ndarray,
    relevant: np.ndarray | list[int],
    b_grid: np.ndarray,
) -> list[FrontierPoint]:
    """Falsification frontier over a grid of candidate effects.

    Parameters
    ----------
    pi, psi : ndarray
        Finite population moment vectors, one entry per spec of the mode.
    relevant : boolean mask or list of 0-based positions
        Components whose ratios span the frontier range. Each needs a
        nonzero ``pi``; a zero one raises ``ValueError``.
    b_grid : ndarray
        Finite candidate effect values. Values outside the span of the
        relevant ratios are computed but flagged ``on_frontier=False``.

    Returns
    -------
    list of FrontierPoint
        For each b: delta_j(b) = |psi_j - b * pi_j| and the identified set
        at that delta, which is {b} itself on the frontier. One array pass
        over the (grid x components) delta matrix gives every identified set.
    """
    pi, psi, b = _finite("pi", pi), _finite("psi", psi), _finite("b_grid", b_grid)
    rel = np.asarray(relevant)
    mask = np.zeros(pi.shape[0], dtype=bool)
    mask[rel if rel.dtype == bool else rel.astype(int)] = True
    if not np.any(mask):
        raise DimensionMismatchError("frontier needs at least one relevant component")
    if np.any(pi[mask] == 0):
        raise ValueError("a relevant component has pi == 0, so its ratio psi/pi is undefined")
    ratios = psi[mask] / pi[mask]
    b_lo = float(np.min(ratios))
    b_hi = float(np.max(ratios))
    span_slack = 1e-12 * max(1.0, abs(b_lo), abs(b_hi))
    on_frontier = (b_lo - span_slack <= b) & (b <= b_hi + span_slack)

    delta = np.multiply.outer(b, pi)
    np.abs(np.subtract(psi, delta, out=delta), out=delta)
    lo, hi, empty = _identified_sets(pi, psi, delta)
    return [
        FrontierPoint(b=b_j, delta=row, identified_set=None if e else (lo_j, hi_j), on_frontier=on)
        for b_j, row, lo_j, hi_j, e, on in zip(
            b.tolist(), delta, lo.tolist(), hi.tolist(), empty.tolist(), on_frontier.tolist()
        )
    ]


def fas_frontier(result: FasResult, grid_points: int = 201) -> list[FrontierPoint]:
    """Frontier of a population FAS over an even grid spanning it.

    The grid runs from the smallest to the largest relevant ratio with
    ``grid_points`` points; a degenerate span yields a single point.

    Raises
    ------
    ZeroFirstStageError
        If no spec is relevant.
    """
    if result.interval is None:
        raise ZeroFirstStageError("no relevant component; frontier is undefined")
    lo, hi = result.interval
    grid = np.linspace(lo, hi, grid_points) if hi > lo else np.array([lo])
    return frontier(result.table.pi_hat, result.table.psi_hat, result.selected, grid)


def population_frontier(
    model: PopulationModel,
    mode: Mode = Mode.EXCL,
    grid_points: int = 201,
) -> tuple[list[JustIdSpec], np.ndarray, np.ndarray, list[FrontierPoint]]:
    """Frontier of a population model over an even grid spanning its FAS.

    Returns (specs, pi~, psi~, points); see :func:`fas_frontier`.
    """
    result = population_fas(model, mode)
    table = result.table
    return table.specs, table.pi_hat, table.psi_hat, fas_frontier(result, grid_points)
