"""The lattice of just-identified specifications and their coefficient solve.

With k_z instruments, each specification keeps one instrument l as the
identifying moment, moves a subset C of the others into the controls, and
drops the rest. There are k_z * 2^(k_z - 1) of them. The transformed
instrument for (l, C) is the residual of Z_l after linear projection on the
controls in C, so its estimand is a ratio of two simple regressions. By
Frisch-Waugh-Lovell, every spec of a subset ``S = C ∪ {l}`` reads its
moments off one small QR of that subset's columns (:func:`_subset_solve`);
:func:`spec_coefficients` writes its instrument as ``Z a``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidCountError, TooManyInstrumentsError
from .linalg import RANK_TOL

# Enumeration cap: 20 * 2^19 specs is already ~10.5 million.
MAX_INSTRUMENTS = 20

# A transform whose residual variance is at most this times var(Z_l) is
# treated as collinear with its controls.
DEGENERACY_TOL = 1e-12

# Specs per chunk of the coefficient solve: enough that its per-call cost is
# small, few enough that its stacks stay near a block's size.
_SOLVE_SPECS = 2**10


@dataclass(frozen=True, slots=True)
class JustIdSpec:
    """One just-identified specification: entry ``spec_id`` of the
    :func:`enumerate_specs` lattice of ``k_z`` instruments.

    The id alone names the spec. Its instrument is the ``(spec_id - 1) >>
    (k_z - 1)``-th, 0-based, and the low ``k_z - 1`` bits of ``spec_id - 1``
    mark its controls among the other instruments in ascending order; the
    instrument, the controls and the label are read from those bits.

    Attributes
    ----------
    k_z : int
        Number of instruments, 1 to :data:`MAX_INSTRUMENTS`.
    spec_id : int
        1-based position in the enumeration, 1 to ``spec_count(k_z)``.

    Raises
    ------
    TypeError
        If ``k_z`` or ``spec_id`` is not an int.
    InvalidCountError, TooManyInstrumentsError
        If ``k_z`` is out of range, as :func:`enumerate_specs` raises.
    ValueError
        If ``spec_id`` is outside ``1..spec_count(k_z)``.
    """

    k_z: int
    spec_id: int

    def __post_init__(self) -> None:
        if not (isinstance(self.k_z, int) and isinstance(self.spec_id, int)):
            raise TypeError(f"k_z and spec_id must be ints, got {self.k_z!r}, {self.spec_id!r}")
        _check_count(self.k_z)
        if not 1 <= self.spec_id <= self.k_z << (self.k_z - 1):
            raise ValueError(
                f"spec_id {self.spec_id} is outside 1..{self.k_z << (self.k_z - 1)} "
                f"for {self.k_z} instruments"
            )

    @property
    def instrument_index(self) -> int:
        """1-based index l of the identifying instrument."""
        return ((self.spec_id - 1) >> (self.k_z - 1)) + 1

    @property
    def control_subset(self) -> tuple[int, ...]:
        """Sorted 1-based indices of the instruments used as controls; never
        contains ``instrument_index``."""
        # bit j - 1 marks the j-th other instrument: Z_j for j < l, Z_(j+1)
        # from j = l on
        bits = self.spec_id - 1
        ell = bits >> (self.k_z - 1)
        return tuple([j + (j > ell) for j in range(1, self.k_z) if bits >> (j - 1) & 1])

    @property
    def label(self) -> str:
        """Human-readable form, e.g. ``"Z2|1,3"`` or ``"Z1"``."""
        head = f"Z{self.instrument_index}"
        controls = self.control_subset
        return f"{head}|{','.join(map(str, controls))}" if controls else head


def spec_count(k_z: int) -> int:
    """Number of just-identified specifications, k_z * 2^(k_z - 1)."""
    if k_z < 1:
        raise InvalidCountError(f"instrument count must be >= 1, got {k_z}")
    return k_z * 2 ** (k_z - 1)


def _check_count(k_z: int) -> None:
    if k_z < 1:
        raise InvalidCountError(f"instrument count must be >= 1, got {k_z}")
    if k_z > MAX_INSTRUMENTS:
        raise TooManyInstrumentsError(
            f"k_z={k_z} exceeds the cap of {MAX_INSTRUMENTS} "
            f"({spec_count(k_z)} specifications)"
        )


def enumerate_specs(k_z: int) -> list[JustIdSpec]:
    """All just-identified specifications for ``k_z`` instruments.

    The order is deterministic: instrument-major (l ascending), and within
    each l the control subsets follow a binary counter over the remaining
    indices in ascending order, so the empty subset comes first and the full
    complement last. ``spec_id`` is the 1-based position in this order.

    Raises
    ------
    InvalidCountError
        If ``k_z < 1``.
    TooManyInstrumentsError
        If ``k_z`` exceeds :data:`MAX_INSTRUMENTS`.
    """
    _check_count(k_z)
    return [JustIdSpec(k_z, spec_id) for spec_id in range(1, spec_count(k_z) + 1)]


def make_spec(k_z: int, ell: int, subset: tuple[int, ...]) -> JustIdSpec:
    """The spec that identifies with instrument ``ell`` and controls for the
    instruments in ``subset``, 1-based and listed in any order, built
    without the lattice: the controls' bits among the other instruments
    give its ``spec_id``.

    Raises ``ValueError`` when ``ell`` is not one of ``1..k_z``, or when
    ``subset`` is not a set of the other instruments: an index out of
    range, ``ell`` itself, or a repeat. Raises as :class:`JustIdSpec` does
    for ``k_z``.
    """
    controls = sorted(subset)
    if not (
        1 <= ell <= k_z
        and all(1 <= i <= k_z and i != ell for i in controls)
        and len(set(controls)) == len(controls)
    ):
        raise ValueError(
            f"no spec of {k_z} instruments identifies with Z{ell} and controls {subset}"
        )
    mask = sum(1 << (i - 1 - (i > ell)) for i in controls)
    return JustIdSpec(k_z, ((ell - 1) << (k_z - 1)) + mask + 1)


def as_spec_ids(specs: list[JustIdSpec] | np.ndarray, k_z: int) -> np.ndarray:
    """``specs`` as a 1-D int64 array of spec ids of ``k_z`` instruments.

    ``specs`` is a sequence of :class:`JustIdSpec` or of ids, such as an
    id array. A spec of another instrument count raises
    :class:`~faskit.errors.DimensionMismatchError`, an id outside
    ``1..spec_count(k_z)`` raises ``ValueError``, and ids that are not
    integers raise ``TypeError``.
    """
    _check_count(k_z)
    if not isinstance(specs, np.ndarray):
        specs = list(specs)
        if specs and isinstance(specs[0], JustIdSpec):
            other = next(
                (s for s in specs if not (isinstance(s, JustIdSpec) and s.k_z == k_z)), None
            )
            if isinstance(other, JustIdSpec):
                raise DimensionMismatchError(
                    f"spec {other.label!r} is one of {other.k_z} instruments, not {k_z}"
                )
            if other is not None:
                raise TypeError(f"{other!r} is not a JustIdSpec")
            specs = [s.spec_id for s in specs]
    ids = np.asarray(specs)
    if ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise TypeError(f"spec ids must be a 1-D sequence of ints, got {ids.dtype} {ids.shape}")
    ids = ids.astype(np.int64, copy=False)
    top = k_z << (k_z - 1)
    if ids.min() < 1 or ids.max() > top:
        bad = ids[(ids < 1) | (ids > top)][0]
        raise ValueError(f"spec_id {bad} is outside 1..{top} for {k_z} instruments")
    return ids


def _controls(bits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based instrument of each ``spec_id - 1`` in ``bits``, and its
    controls as a k-bit mask, bit i for Z_(i+1)."""
    ell = bits >> (k - 1)
    mask = bits & ((1 << (k - 1)) - 1)
    below = (1 << ell) - 1
    return ell, (mask & below) | ((mask >> ell) << (ell + 1))


def spec_fields(k_z: int, ids: np.ndarray) -> tuple[np.ndarray, list[list[int]], list[str]]:
    """The ``instrument_index``, ``control_subset`` (as a list) and
    ``label`` of :class:`JustIdSpec` for each of the int64 ``ids``, decoded
    in bulk without building a spec."""
    ell, controls = _controls(ids - 1, k_z)
    member = (controls[:, None] >> np.arange(k_z)) & 1
    flat = iter((np.nonzero(member)[1] + 1).tolist())
    subsets = [list(itertools.islice(flat, size)) for size in member.sum(axis=1).tolist()]
    instrument = ell + 1
    labels = [
        f"Z{i}|{','.join(map(str, subset))}" if subset else f"Z{i}"
        for i, subset in zip(instrument.tolist(), subsets)
    ]
    return instrument, subsets, labels


def _popcount(values: np.ndarray, k: int) -> np.ndarray:
    """Set bits of each of ``values`` below bit ``k`` (np.bitwise_count needs
    numpy 2)."""
    count = np.zeros_like(values)
    for bit in range(k):
        count += (values >> bit) & 1
    return count


def _subset_solve(R0: np.ndarray, ids: np.ndarray, step: int):
    """The k side of the specs ``ids``, from one QR per instrument subset.

    ``R0`` is a stack ``(d, r, k_z + 2)`` of triangular factors of ``[Z |
    x | y]``, one per draw, padded here with zero rows to ``r >= k_z + 2``.
    For the subset ``S = C ∪ {l}``, let ``T``, ``t_x`` and ``t_y`` be the
    leading block and last two columns of the R of ``R0[:, S ∪ {x, y}]``.
    Entry l of ``T⁻¹t_x`` and ``T⁻¹t_y``, the coefficients of x and y on
    ``Z_S``, is spec (l, C)'s ``pi`` and ``psi``; its ``w'w`` is ``1/|row l
    of T⁻¹|²`` and its ``a_S`` is column l of ``T⁻¹T⁻ᵀ`` times ``w'w``. One
    stacked QR and one solve against ``[I | t_x | t_y]`` per subset size
    give them all.

    A spec is degenerate when ``Z_C``'s singular value ratio is at most
    ``RANK_TOL``, or when ``w'w <= 1e-12 |Z_l|²``; then its ``a`` is
    ``e_l`` and its moments NaN. The ratio is computed only where ``|T|_F
    |T⁻¹|_F``, a bound on ``cond(Z_S) >= cond(Z_C)``, reaches
    ``1/RANK_TOL``, and a zero pivot of ``T`` makes its specs degenerate.

    Yields, per chunk of at most ``step`` specs in the order of their
    subsets, their positions in ``ids``, then ``A (d, k_z, len)``, the
    degenerate mask, ``|C|``, ``pi``, ``psi`` and ``w'w``. A stack gives
    each of its matrices the bits of its own call, so a spec's numbers
    depend on neither the other specs nor the other draws.
    """
    d, k = len(R0), R0.shape[2] - 2
    if R0.shape[1] < k + 2:
        R0 = np.concatenate([R0, np.zeros((d, k + 2 - R0.shape[1], k + 2))], axis=1)
    squares = np.sum(R0 * R0, axis=1)
    columns = R0.swapaxes(1, 2)
    ell, controls = _controls(ids - 1, k)
    subset = controls | (1 << ell)
    order = np.argsort((_popcount(subset, k) << k) | subset, kind="stable")
    for first in range(0, len(ids), step):
        at = order[first : first + step]
        ell, controls = _controls(ids[at] - 1, k)
        subset = controls | (1 << ell)
        size, position = _popcount(subset, k), _popcount(controls & ((1 << ell) - 1), k)
        # the chunk's subsets, and the number of each spec's subset among them
        new = np.diff(subset, prepend=-1) != 0
        subsets, group = subset[new] | (3 << k), np.cumsum(new) - 1
        A = np.zeros((d, k, len(at)))
        pi, psi, ww = np.empty((3, d, len(at)))
        degenerate = np.empty((d, len(at)), dtype=bool)
        cuts = (np.flatnonzero(np.diff(size)) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(at)]):
            s, cols = int(size[lo]), slice(lo, hi)
            which = group[cols] - group[lo]
            subs = subsets[group[lo] : group[hi - 1] + 1]
            members = np.nonzero((subs[:, None] >> np.arange(k + 2)) & 1)[1].reshape(-1, s + 2)
            T = np.linalg.qr(columns[:, members].swapaxes(2, 3), "r")
            T_S = T[..., :s, :s]
            singular = np.any(np.diagonal(T_S, axis1=2, axis2=3) == 0.0, axis=2)
            T_S[singular] = np.eye(s)
            rhs = T[..., :s, :].copy()
            rhs[..., :s] = np.eye(s)
            X = np.linalg.solve(T_S, rhs)
            U, p = X[..., :s], position[cols]
            row = U[:, which, p]
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                bound = np.sum(T_S**2, axis=(2, 3)) * np.sum(U**2, axis=(2, 3))
                ww_s = 1.0 / np.sum(row * row, axis=2)
                a = np.sum(U[:, which] * row[:, :, None, :], axis=3) * ww_s[..., None]
                dead = singular[:, which] | ~(ww_s > DEGENERACY_TOL * squares[:, ell[cols]])
            # Z_C's own singular values, where the bound leaves a deficiency open
            draw, spec = np.nonzero(~(bound < RANK_TOL**-2)[:, which])
            if s > 1 and len(spec):
                keep = np.arange(s - 1) + (np.arange(s - 1) >= p[spec, None])
                T_C = np.take_along_axis(T_S[draw, which[spec]], keep[:, None, :], axis=2)
                sv = np.linalg.svd(T_C, compute_uv=False)
                dead[draw, spec] |= ~(sv[:, -1] > RANK_TOL * sv[:, 0])
            a[dead] = 0.0
            a[:, np.arange(hi - lo), p] = 1.0
            A[:, members[which, :s], np.arange(lo, hi)[:, None]] = a
            degenerate[:, cols], ww[:, cols] = dead, ww_s
            pi[:, cols], psi[:, cols] = np.moveaxis(X[:, which, p, s:], 2, 0)
        pi[degenerate] = psi[degenerate] = ww[degenerate] = np.nan
        yield at, A, degenerate, size - 1, pi, psi, ww


def spec_coefficients(
    R: np.ndarray, specs: list[JustIdSpec] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient vectors a of the specs' transformed instruments ``Z a``.

    ``R`` is a stack ``(d, r, k_z)`` of triangular factors of instrument
    Grams, ``G = R'R``: the R of a QR of each draw's partialled sample
    instruments, or the transposed Cholesky factor of a population
    ``sigma_z`` as a stack of one. Column s of ``A[i]`` has ``a_l = 1`` and
    ``a_C = -phi``, phi being the least squares coefficients of ``R[i][:,
    l]`` on ``R[i][:, C]``, which are those of Z_l on Z_C. Returns ``A``
    ``(d, k_z, m)``, the degenerate mask ``(d, m)`` and each spec's control
    count ``|C|``, from :func:`_subset_solve` with zero x and y columns.

    ``specs`` is a list of :class:`JustIdSpec` or an array of their ids,
    read through :func:`as_spec_ids` with ``k_z`` the column count of
    ``R``, so a spec of another instrument count raises
    :class:`~faskit.errors.DimensionMismatchError`.
    """
    d, r, k = R.shape
    ids = as_spec_ids(specs, k)
    R0 = np.concatenate([R, np.zeros((d, r, 2))], axis=2)
    A = np.zeros((d, k, len(ids)))
    degenerate = np.zeros((d, len(ids)), dtype=bool)
    n_controls = np.zeros(len(ids), dtype=np.int64)
    for at, A_at, dead, n_at, *_ in _subset_solve(R0, ids, max(1, _SOLVE_SPECS // d)):
        A[..., at], degenerate[:, at], n_controls[at] = A_at, dead, n_at
    return A, degenerate, n_controls
