"""Falsification adaptive sets: relevance screening, interval assembly, the
population oracle, and the falsification frontier.

Three reporting modes share one engine. Excl keeps each instrument with all
others as controls, Exo keeps each instrument alone, General enumerates every
control partition. The requested modes' families are swept once, as their
union, into one spec table, and each mode takes its own family's rows. In
each mode the interval spans the estimates whose first-stage F clears the
cutoff: an array operation on the table's columns. The population oracle
fills the same table from population moments and takes the same screen.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset
from .errors import DimensionMismatchError, SingularSigmaError, ZeroFirstStageError
from .estimators import SpecTable, _factor, iv_columns
from .linalg import _BLOCK_ELEMENTS, partial_out
from .specs import _SOLVE_SPECS, JustIdSpec, _check_count, _subset_solve, as_spec_ids

# Relative tolerance for "pi != 0" decisions, per spec and per component.
POPULATION_RELEVANCE_TOL = 1e-12

# Guard band for declaring an intersection empty; rescues pure rounding noise
# while staying far below any substantive perturbation (see identified_set).
_EMPTY_SLACK = 1e-10

DEFAULT_CUTOFF = 10.0


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
class Frontier:
    """The falsification frontier as columns, one entry per grid point ``b``.

    ``lo`` and ``hi`` bound the identified set at exactly that point's
    delta, which is empty where ``empty`` is True (``lo`` and ``hi`` then
    mean nothing); ``on_frontier`` is False for b outside the span of the
    relevant ratios. No delta is held: :meth:`deltas` forms them from the
    moments ``pi`` and ``psi`` the frontier was built from.
    """

    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    empty: np.ndarray
    on_frontier: np.ndarray
    pi: np.ndarray
    psi: np.ndarray

    def __len__(self) -> int:
        return self.b.size

    def deltas(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """``|psi_j - b * pi_j|`` for the points in ``[start, stop)``, as a
        new float64 (points x components) array. Each entry's bits are the
        same whatever run of points it is formed in."""
        delta = np.multiply.outer(self.b[start:stop], self.pi)
        return np.abs(np.subtract(self.psi, delta, out=delta), out=delta)


def specs_for_mode(mode: Mode, k_z: int) -> list[JustIdSpec]:
    """The spec family a mode reports over, in enumeration order: the
    whole :func:`~faskit.specs.enumerate_specs` lattice for General, and
    k_z specs for Excl and Exo, each built from its id. Every mode raises
    the count errors enumerate_specs does."""
    return [JustIdSpec(k_z, i) for i in _family_ids(Mode(mode), k_z).tolist()]


def _family_ids(mode: Mode, k_z: int) -> np.ndarray:
    """The ids of :func:`specs_for_mode`, as int64 arithmetic: the whole
    range for General, and per instrument l the id ``l·2^(k_z−1)`` for
    Excl or ``(l−1)·2^(k_z−1) + 1`` for Exo."""
    _check_count(k_z)
    half = 1 << (k_z - 1)
    if mode == Mode.GENERAL:
        return np.arange(1, k_z * half + 1, dtype=np.int64)
    ell = np.arange(1, k_z + 1, dtype=np.int64)
    return ell * half if mode == Mode.EXCL else (ell - 1) * half + 1


def _mode_views(modes: list[Mode], k_z: int) -> tuple[np.ndarray, dict[Mode, np.ndarray]]:
    """The ids of the union of the modes' spec families, ascending, and the
    positions of each mode's family within it."""
    families = {Mode(m): _family_ids(Mode(m), k_z) for m in modes}
    # the union, sorted; np.union1d would do, at a higher peak RSS
    present = np.zeros((k_z << (k_z - 1)) + 1, dtype=bool)
    for ids in families.values():
        present[ids] = True
    union = np.flatnonzero(present)
    return union, {m: np.searchsorted(union, ids) for m, ids in families.items()}


def _spec_moments(R0: np.ndarray, ids: np.ndarray):
    """The per-spec engine of the sample sweep and the population oracle.

    ``R0`` is a stack of d triangular factors of ``[Z | x | y]``: each
    sample draw's :func:`~faskit.estimators._factor`, or the one of a
    population (see :func:`_population_table`). Per chunk of
    ``_SOLVE_SPECS // d`` ids (at least one), this yields the chunk of
    :func:`~faskit.specs._subset_solve` and its relevance mask ``|w'x| >
    1e-12 * sqrt(w'w * x'x)``, that is ``|corr(w, x)| > 1e-12``, with ``w'x
    = pi * w'w`` and ``x'x = |R0[:, x]|^2``.
    """
    xx = np.sum(R0[:, :, -2] ** 2, axis=1)[:, None]
    for *chunk, pi, psi, ww in _subset_solve(R0, ids, max(1, _SOLVE_SPECS // len(R0))):
        yield *chunk, pi, psi, ww, np.abs(pi * ww) > POPULATION_RELEVANCE_TOL * np.sqrt(ww * xx)


def estimate_specs(
    dataset: Dataset,
    specs: list[JustIdSpec] | np.ndarray,
    robust_flavor: str = "hc1",
) -> SpecTable:
    """Estimate specifications, one or many, as one table.

    ``specs`` is a list of :class:`~faskit.specs.JustIdSpec` or an array
    of their ids; either is checked against the dataset's instrument count
    first (:func:`~faskit.specs.as_spec_ids`), and the table holds the ids.

    The dataset is partialled of its intercept and controls first (a no-op
    on an already-partialled one), so by Frisch-Waugh-Lovell the estimates
    are those of the design that includes them. :func:`_spec_moments` on
    the one R of ``[Z | x | y]``, a QR taken a row block at a time, gives
    the moments, degeneracy and relevance from one QR per instrument
    subset, and :func:`iv_columns` the ``se`` and ``f_stat`` from ``Z A``.
    A spec's bits depend on neither the other specs nor the other draws of
    a stack, so ``estimate_specs(data, [spec])`` is bit for bit its row of
    any sweep, or of a Monte Carlo chunk's. Too few observations takes
    precedence over the other failures (see :class:`SpecTable`); with ``n
    <= 1 + n_absorbed`` every row has it, and nothing is solved.
    """
    dataset = partial_out(dataset)
    ids = as_spec_ids(specs, dataset.k_z)
    m = len(ids)
    if not m or dataset.n <= 1 + dataset.n_absorbed:
        failed = np.full(m, "insufficient-observations", dtype=object)
        nan = [np.full(m, np.nan) for _ in range(4)]
        return SpecTable(dataset.k_z, ids, *nan, np.zeros(m), failed)
    return _estimate_stack([dataset], ids, robust_flavor)[0]


def _estimate_stack(draws: list[Dataset], ids: np.ndarray, robust_flavor: str) -> list[SpecTable]:
    """:func:`estimate_specs` of each of ``draws``, partialled datasets of
    one ``n > 1 + n_absorbed``, ``k_z`` and ``n_absorbed``, for the int64
    spec ``ids``, at least one. Each draw's own
    :func:`~faskit.estimators._factor`, the R of ``[Z | x | y]``, holds all
    that one :func:`_spec_moments` pass over them needs, and
    :func:`iv_columns` takes each draw's ``se`` and ``f_stat`` from its
    own rows."""
    k_z, n, n_absorbed, m = draws[0].k_z, draws[0].n, draws[0].n_absorbed, len(ids)
    R0 = np.stack([_factor(d) for d in draws])
    columns = [np.empty((5, m)) for _ in draws]
    degenerate, zero = np.empty((2, len(draws), m), dtype=bool)
    n_controls = np.empty(m, dtype=np.int64)
    for at, A, dead, spec_controls, pi, psi, ww, relevant in _spec_moments(R0, ids):
        degenerate[:, at], zero[:, at], n_controls[at] = dead, ~relevant, spec_controls
        with np.errstate(divide="ignore", invalid="ignore"):
            beta_hat = psi / pi
        for i, d in enumerate(draws):
            se, f_stat = iv_columns(
                d.Z, A[i], d.x, d.y, pi[i], beta_hat[i], ww[i], pi[i] * ww[i], n_absorbed,
                robust_flavor,
            )
            columns[i][:, at] = beta_hat[i], se, pi[i], psi[i], f_stat
    tables = []
    for values, draw_degenerate, draw_zero in zip(columns, degenerate, zero):
        failure = np.full(m, None, dtype=object)
        failure[draw_zero] = "zero-first-stage"
        failure[draw_degenerate] = "degenerate"
        failure[n <= 1 + n_controls + n_absorbed] = "insufficient-observations"
        failed = np.not_equal(failure, None)
        values[:, failed] = np.nan
        values[4, failed] = 0.0
        tables.append(SpecTable(k_z, ids, *values, failure))
    return tables


def _check_cutoff(cutoff: float) -> None:
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")


def fas_from_estimates(table: SpecTable, cutoff: float, mode: Mode) -> FasResult:
    """Screen a table by first-stage F and span the selected estimates.

    A row is selected when it has no failure and its F statistic is at or
    above ``cutoff``; the interval is [min beta_hat, max beta_hat] over the
    selected rows, or None (reported, not raised) when there are none.
    """
    _check_cutoff(cutoff)
    selected = table.estimated & (table.f_stat >= cutoff)
    betas = table.beta_hat[selected]
    interval = (float(betas.min()), float(betas.max())) if betas.size else None
    return FasResult(mode, interval, table, selected)


def _by_mode(k_z: int, modes: list[Mode], cutoff: float, tables_of) -> list[dict[Mode, FasResult]]:
    """Screen each mode's family with :func:`fas_from_estimates`, after the
    cutoff is checked: ``tables_of`` builds tables for the union of the
    families, one per draw, from its ids, and each mode takes its own rows
    of each. A mode whose family is the union screens that table itself."""
    _check_cutoff(cutoff)
    family, views = _mode_views(modes, k_z)
    return [
        {
            mode: fas_from_estimates(
                table if len(view) == len(family) else table.take(view), cutoff, mode
            )
            for mode, view in views.items()
        }
        for table in tables_of(family)
    ]


def fas_by_mode(
    dataset: Dataset,
    modes: list[Mode],
    cutoff: float = DEFAULT_CUTOFF,
    robust_flavor: str = "hc1",
) -> dict[Mode, FasResult]:
    """Estimate the FAS of each requested mode from one sweep.

    After the cutoff is checked, the union of the modes' families from
    :func:`specs_for_mode` (k_z specs each for Excl and Exo, the whole
    lattice only for General) is estimated once by :func:`estimate_specs`,
    which partials the dataset of (intercept, controls) first. Each mode's
    interval spans the estimates of its own family that clear the relevance
    cutoff; its table is the rows of that family in the sweep's table.
    """
    return _by_mode(
        dataset.k_z, modes, cutoff, lambda ids: [estimate_specs(dataset, ids, robust_flavor)]
    )[0]


def _fas_by_draw(draws: list[Dataset], modes: list[Mode], cutoff: float) -> list[dict]:
    """:func:`fas_by_mode` of each of ``draws``, bit for bit, with the k
    side of their sweeps solved in one pass; see :func:`_estimate_stack`."""
    return _by_mode(draws[0].k_z, modes, cutoff, lambda ids: _estimate_stack(draws, ids, "hc1"))


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
    model: PopulationModel, specs: list[JustIdSpec] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Population first-stage and reduced-form coefficients per spec.

    For spec (l, C), with Z_res the residual of Z_l after population
    projection on Z_C, these are ``pi~ = cov(Z_res, x) / var(Z_res)`` and
    ``psi~ = cov(Z_res, y) / var(Z_res)``, from :func:`_spec_moments`.
    ``specs`` is as for :func:`estimate_specs`. Returns (pi~, psi~) arrays
    aligned with ``specs``.
    """
    table = _population_table(model, specs)
    return table.pi_hat, table.psi_hat


def _population_table(model: PopulationModel, specs: list[JustIdSpec] | np.ndarray) -> SpecTable:
    """The specs' population moments as a table; see :func:`population_fas_by_mode`.

    :func:`_spec_moments` runs on a population ``R0``: the Z block is ``R_z
    = chol(sigma_z)'``, atop the x and y columns are ``R_z⁻ᵀcov(Z, x) = R_z
    pi`` and ``R_z⁻ᵀcov(Z, y) = R_z(pi beta + gamma) + R_z⁻ᵀalpha``, and
    x's diagonal is ``sqrt(var_v)``, so ``|R0[:, x]|^2 = var(x)``. The
    lower entries of y's column, which nothing reads, stay 0."""
    model.validate()
    ids, k = as_spec_ids(specs, model.k_z), model.k_z
    R_z = np.linalg.cholesky(model.sigma_z).T
    R0 = np.zeros((1, k + 2, k + 2))
    R0[0, :k, :k] = R_z
    R0[0, :k, k] = R_z @ model.pi
    R0[0, :k, k + 1] = R_z @ (model.pi * model.beta + model.gamma)
    R0[0, :k, k + 1] += np.linalg.solve(R_z.T, model.alpha)
    R0[0, k, k] = np.sqrt(model.var_v)
    pi_t, psi_t = np.empty((2, len(ids)))
    relevant = np.empty(len(ids), dtype=bool)
    for at, _, _, _, pi, psi, _, spec_relevant in _spec_moments(R0, ids):
        pi_t[at], psi_t[at], relevant[at] = pi[0], psi[0], spec_relevant[0]
    ratio = np.divide(psi_t, pi_t, out=np.full_like(psi_t, np.nan), where=relevant)
    return SpecTable(
        model.k_z, ids, ratio, np.full_like(psi_t, np.nan), pi_t, psi_t,
        np.where(relevant, np.inf, 0.0), np.where(relevant, None, "zero-first-stage"),
    )


def _relevance_mask(pi: np.ndarray) -> np.ndarray:
    """:func:`identified_set`'s rule for an arbitrary ``pi``."""
    return np.abs(pi) > POPULATION_RELEVANCE_TOL * np.max(np.abs(pi), initial=1.0)


def population_fas_by_mode(model: PopulationModel, modes: list[Mode]) -> dict[Mode, FasResult]:
    """Population FAS of each requested mode from one set of moments.

    The population moments run once, over the union of the modes' families,
    into one table, and each mode screens its own family's rows of it with
    the sample's screen: :func:`fas_from_estimates` at
    :data:`DEFAULT_CUTOFF`. The table holds every spec's pi~ and psi~, with
    beta_hat their ratio. A spec is relevant by the sample sweep's rule,
    ``|corr(Z_res, x)| > 1e-12``, and then has f_stat +inf (no sampling
    variance), which every cutoff passes; an irrelevant spec has f_stat
    0.0, failure "zero-first-stage" and NaN beta_hat and se. The rule reads
    no other spec, so a spec is relevant in every mode or in none, and Excl
    and Exo nest in General.
    """
    return _by_mode(
        model.k_z, modes, DEFAULT_CUTOFF, lambda ids: [_population_table(model, ids)]
    )[0]


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
    pi: np.ndarray, psi: np.ndarray, delta: np.ndarray, rel: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, hi, empty)`` of the identified set at each row of a (points x
    components) block of deltas, in one array pass; the components that
    ``rel`` marks count as ``pi_j != 0``, the others as ``pi_j == 0``."""
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
    |psi_j| <= delta_j and empty otherwise. A component counts as pi_j != 0
    when ``|pi_j| > 1e-12 * max(1, max_i |pi_i|)``: the vector carries no
    scale of its own, so its largest entry sets one. Returns the intersection as
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
    lo, hi, empty = _identified_sets(pi, psi, delta[None, :], _relevance_mask(pi))
    return None if empty[0] else (float(lo[0]), float(hi[0]))


def frontier(
    pi: np.ndarray,
    psi: np.ndarray,
    relevant: np.ndarray,
    b_grid: np.ndarray,
) -> Frontier:
    """Falsification frontier over a grid of candidate effects.

    Parameters
    ----------
    pi, psi : ndarray
        Finite population moment vectors of one length, one entry per spec
        of the mode.
    relevant : boolean ndarray
        Mask of the components whose ratios span the frontier range, one
        entry per component. Each needs a nonzero ``pi``; a zero one raises
        ``ValueError``.
    b_grid : ndarray
        Finite candidate effect values. Values outside the span of the
        relevant ratios are computed but flagged ``on_frontier=False``.

    Returns
    -------
    Frontier
        For each b, the identified set at delta_j(b) = |psi_j - b * pi_j|,
        which is {b} itself on the frontier; it reads a component as
        ``pi_j != 0`` by :func:`identified_set`'s rule, not by ``relevant``
        (:func:`fas_frontier` reads its FAS's own mask). An empty grid gives
        a frontier of no points. The identified-set kernel takes the deltas
        from :meth:`Frontier.deltas` a block of grid rows at a time,
        ``_BLOCK_ELEMENTS`` entries or one row, so it holds three copies of
        one block and never the (grid x components) matrix.

    Raises
    ------
    DimensionMismatchError
        If ``pi`` and ``psi`` differ in length, ``relevant`` is not a boolean
        mask of their length, or no component is relevant.
    """
    return _frontier(pi, psi, relevant, b_grid, None)


def _frontier(
    pi: np.ndarray, psi: np.ndarray, relevant: np.ndarray, b_grid: np.ndarray,
    nonzero: np.ndarray | None,
) -> Frontier:
    """:func:`frontier`, whose identified sets read the components that
    ``nonzero`` marks as ``pi_j != 0``; None reads them by
    :func:`identified_set`'s rule."""
    pi, psi, b = _finite("pi", pi), _finite("psi", psi), _finite("b_grid", b_grid)
    m = pi.shape[0]
    if psi.shape[0] != m:
        raise DimensionMismatchError(f"pi and psi lengths disagree: {m}, {psi.shape[0]}")
    mask = np.asarray(relevant)
    if mask.dtype != bool or mask.shape != (m,):
        raise DimensionMismatchError(
            f"relevant must be a boolean mask of shape ({m},), got {mask.dtype} {mask.shape}"
        )
    if not np.any(mask):
        raise DimensionMismatchError("frontier needs at least one relevant component")
    if np.any(pi[mask] == 0):
        raise ValueError("a relevant component has pi == 0, so its ratio psi/pi is undefined")
    ratios = psi[mask] / pi[mask]
    b_lo = float(np.min(ratios))
    b_hi = float(np.max(ratios))
    span_slack = 1e-12 * max(1.0, abs(b_lo), abs(b_hi))
    on_frontier = (b_lo - span_slack <= b) & (b <= b_hi + span_slack)
    result = Frontier(
        b, np.empty(b.size), np.empty(b.size), np.empty(b.size, dtype=bool), on_frontier, pi, psi
    )
    if nonzero is None:
        nonzero = _relevance_mask(pi)
    # the kernel treats each row on its own, so blocks give the bits of one pass
    rows = max(1, _BLOCK_ELEMENTS // m)
    for i in range(0, b.size, rows):
        block = slice(i, i + rows)
        result.lo[block], result.hi[block], result.empty[block] = _identified_sets(
            pi, psi, result.deltas(i, i + rows), nonzero
        )
    return result


def fas_frontier(result: FasResult, grid_points: int = 201) -> Frontier:
    """Frontier of a population FAS over an even grid spanning it.

    The grid runs from the smallest to the largest relevant ratio with
    ``grid_points`` points; a degenerate span yields a single point. The
    identified sets read the specs that ``result.selected`` marks as the
    ones with ``pi~ != 0``, so the frontier and the interval rest on one
    relevance decision. Every other spec enters with ``pi_j = 0``, in its
    delta as in the kernel, not with the rounding its table may hold.

    Raises
    ------
    ZeroFirstStageError
        If no spec is relevant.
    """
    if result.interval is None:
        raise ZeroFirstStageError("no relevant component; frontier is undefined")
    lo, hi = result.interval
    grid = np.linspace(lo, hi, grid_points) if hi > lo else np.array([lo])
    t = result.table
    pi = np.where(result.selected, t.pi_hat, 0.0)
    return _frontier(pi, t.psi_hat, result.selected, grid, result.selected)
