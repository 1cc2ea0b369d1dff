"""Falsification adaptive sets: relevance screening, interval assembly, the
population oracle, and the falsification frontier.

Three reporting modes share one engine. Excl keeps each instrument with all
others as controls, Exo keeps each instrument alone, General enumerates every
control partition. The families of the requested modes are swept once, as
their union, and each mode views its own family in that sweep. In each mode
the reported interval is the span of the just-identified estimates whose
first-stage F clears the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import Dataset
from .errors import DimensionMismatchError, SingularSigmaError, ZeroFirstStageError
from .estimators import SpecEstimate, failed_estimate, iv_columns
from .linalg import partial_out
from .specs import (
    JustIdSpec,
    enumerate_specs,
    is_fully_controlled,
    is_marginal,
    spec_coefficients,
)

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
class RelevanceSelection:
    """Outcome of the first-stage relevance screen.

    Attributes
    ----------
    cutoff : float
        The F cutoff applied (or, for population results, the relative
        tolerance on the population first-stage coefficient).
    selected : set of int
        spec_ids that passed.
    rejected : dict
        spec_id -> reason, one of "low-F", "degenerate", "zero-first-stage".
    """

    cutoff: float
    selected: set[int] = field(default_factory=set)
    rejected: dict[int, str] = field(default_factory=dict)


@dataclass(eq=False)
class FasResult:
    """A FAS interval with its supporting evidence.

    ``interval`` is ``(lo, hi)`` with ``lo <= hi``, or None when every spec
    was rejected.
    """

    mode: Mode
    interval: tuple[float, float] | None
    selection: RelevanceSelection
    estimates: list[SpecEstimate]


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
        self.gamma = np.asarray(self.gamma, dtype=np.float64).reshape(-1)
        self.alpha = np.asarray(self.alpha, dtype=np.float64).reshape(-1)
        self.pi = np.asarray(self.pi, dtype=np.float64).reshape(-1)
        self.sigma_z = np.atleast_2d(np.asarray(self.sigma_z, dtype=np.float64))
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


def _in_mode(spec: JustIdSpec, mode: Mode, k_z: int) -> bool:
    if mode == Mode.EXCL:
        return is_fully_controlled(spec, k_z)
    if mode == Mode.EXO:
        return is_marginal(spec)
    return True


def _mode_views(modes: list[Mode], k_z: int) -> tuple[list[JustIdSpec], dict[Mode, list[int]]]:
    """The union of the modes' spec families in enumeration order, and the
    positions of each mode's family within it."""
    modes = [Mode(m) for m in modes]
    family = [s for s in enumerate_specs(k_z) if any(_in_mode(s, m, k_z) for m in modes)]
    views = {
        m: [pos for pos, s in enumerate(family) if _in_mode(s, m, k_z)] for m in modes
    }
    return family, views


def specs_for_mode(mode: Mode, k_z: int) -> list[JustIdSpec]:
    """The spec family a mode reports over, in enumeration order."""
    return _mode_views([mode], k_z)[0]


def estimate_specs(
    dataset: Dataset,
    specs: list[JustIdSpec],
    robust_flavor: str = "hc1",
) -> list[SpecEstimate]:
    """Estimate a list of specifications on an already-partialled dataset.

    A block at a time, :func:`spec_coefficients` on one QR of the
    instruments gives ``A`` and :func:`iv_columns` estimates ``Z A``, with
    one matrix-vector product per spec, so that a spec's estimate does not
    depend on the family it is swept in. Failures (collinear controls or
    transform, zero first stage) become placeholder estimates with a
    recorded reason. Results are returned in the order of ``specs``.
    """
    dataset = partial_out(dataset)
    R = np.linalg.qr(dataset.Z, mode="r")
    width = max(1, _BLOCK_ELEMENTS // dataset.n)
    estimates = []
    for start in range(0, len(specs), width):
        A, degenerate = spec_coefficients(R, specs[start : start + width])
        W = np.matmul(dataset.Z, A.T[:, :, None])[:, :, 0]
        cols = iv_columns(W, dataset.x, dataset.y, dataset.n_absorbed, robust_flavor)
        for pos, (*values, zero) in enumerate(zip(*(field.tolist() for field in cols)), start):
            if degenerate[pos - start]:
                estimates.append(failed_estimate(specs[pos], "degenerate"))
            elif zero:
                estimates.append(failed_estimate(specs[pos], "zero-first-stage"))
            else:
                estimates.append(SpecEstimate(specs[pos], *values))
    return estimates


def select_relevant(estimates: list[SpecEstimate], cutoff: float) -> RelevanceSelection:
    """Partition specs into selected and rejected by first-stage F.

    A spec is selected when it produced an estimate and its F statistic is
    at or above ``cutoff``. Rejected specs carry a reason: a recorded
    failure ("degenerate", "zero-first-stage") or "low-F".
    """
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    selection = RelevanceSelection(cutoff=float(cutoff))
    for est in estimates:
        if est.failure is not None:
            selection.rejected[est.spec.spec_id] = est.failure
        elif est.f_stat >= cutoff:
            selection.selected.add(est.spec.spec_id)
        else:
            selection.rejected[est.spec.spec_id] = "low-F"
    return selection


def fas_from_estimates(
    estimates: list[SpecEstimate],
    cutoff: float,
    mode: Mode,
) -> FasResult:
    """Assemble a FAS interval from per-spec estimates.

    The interval spans the selected estimates: [min beta_hat, max beta_hat].
    With no selected spec the interval is None (reported, not raised).
    """
    selection = select_relevant(estimates, cutoff)
    betas = [
        est.beta_hat
        for est in estimates
        if est.spec.spec_id in selection.selected and est.beta_hat is not None
    ]
    interval = (min(betas), max(betas)) if betas else None
    return FasResult(mode=mode, interval=interval, selection=selection, estimates=estimates)


def fas_by_mode(
    dataset: Dataset,
    modes: list[Mode],
    cutoff: float = DEFAULT_CUTOFF,
    robust_flavor: str = "hc1",
) -> dict[Mode, FasResult]:
    """Estimate the FAS of each requested mode from one sweep.

    The dataset is partialled of (intercept, controls) first; the union of
    the modes' spec families is then estimated once on the partialled
    sample. Each mode's interval spans the estimates of its own family that
    clear the relevance cutoff. A spec shared by several modes is one
    estimate object in all of their results.
    """
    family, views = _mode_views(modes, dataset.k_z)
    estimates = estimate_specs(partial_out(dataset), family, robust_flavor)
    return {
        mode: fas_from_estimates([estimates[pos] for pos in view], cutoff, mode)
        for mode, view in views.items()
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
    A, _ = spec_coefficients(R, specs)
    cov_zx = model.sigma_z @ model.pi
    cov_zy = model.sigma_z @ (model.pi * model.beta + model.gamma) + model.alpha
    variance = np.sum((R @ A) ** 2, axis=0)
    return cov_zx @ A / variance, cov_zy @ A / variance


def _relevance_mask(pi_t: np.ndarray) -> np.ndarray:
    return np.abs(pi_t) > POPULATION_RELEVANCE_TOL * np.max(np.abs(pi_t), initial=1.0)


def _population_result(
    mode: Mode, family: list[JustIdSpec], pi_t: np.ndarray, psi_t: np.ndarray
) -> FasResult:
    mask = _relevance_mask(pi_t)
    estimates = [
        SpecEstimate(
            spec=spec,
            beta_hat=float(psi_t[pos] / pi_t[pos]) if mask[pos] else None,
            se=None,
            pi_hat=float(pi_t[pos]),
            psi_hat=float(psi_t[pos]),
            f_stat=float("inf") if mask[pos] else 0.0,
            degenerate=not mask[pos],
            failure=None if mask[pos] else "zero-first-stage",
        )
        for pos, spec in enumerate(family)
    ]
    return fas_from_estimates(estimates, POPULATION_RELEVANCE_TOL, mode)


def population_fas_by_mode(model: PopulationModel, modes: list[Mode]) -> dict[Mode, FasResult]:
    """Population FAS of each requested mode from one set of moments.

    :func:`population_spec_moments` runs once over the union of the modes'
    families; each mode's result views its own family in it. Relevance is
    exact: |pi~| above 1e-12 relative to the mode family's largest. The
    returned estimates carry the population ratios with f_stat +inf for
    relevant specs and 0 for irrelevant ones; the selection's ``cutoff``
    field records the relevance tolerance.
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
    pi_t = np.array([est.pi_hat for est in result.estimates])
    psi_t = np.array([est.psi_hat for est in result.estimates])
    relevant = [est.spec.spec_id in result.selection.selected for est in result.estimates]
    lo, hi = result.interval
    grid = np.linspace(lo, hi, grid_points) if hi > lo else np.array([lo])
    return frontier(pi_t, psi_t, relevant, grid)


def population_frontier(
    model: PopulationModel,
    mode: Mode = Mode.EXCL,
    grid_points: int = 201,
) -> tuple[list[JustIdSpec], np.ndarray, np.ndarray, list[FrontierPoint]]:
    """Frontier of a population model over an even grid spanning its FAS.

    Returns (specs, pi~, psi~, points); see :func:`fas_frontier`.
    """
    result = population_fas(model, mode)
    return (
        [est.spec for est in result.estimates],
        np.array([est.pi_hat for est in result.estimates]),
        np.array([est.psi_hat for est in result.estimates]),
        fas_frontier(result, grid_points),
    )
