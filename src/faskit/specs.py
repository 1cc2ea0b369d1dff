"""The lattice of just-identified specifications and their coefficient solve.

With k_z instruments, each specification keeps one instrument l as the
identifying moment, moves a subset C of the others into the controls, and
drops the rest. There are k_z * 2^(k_z - 1) of them. The transformed
instrument for (l, C) is the residual of Z_l after linear projection on the
controls in C, so its estimand is a ratio of two simple regressions.
:func:`spec_coefficients` writes it as ``Z a``, one vector ``a`` per spec.
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

# A subset's Gram block G_SS is inverted in a batch only when tr(G_SS)·tr(G_SS⁻¹),
# an upper bound on cond(G_SS), is at most this: its coefficients then carry
# relative errors near 1e5·eps, well inside 1e-10, and sit far from both
# degeneracy tolerances.
_BATCH_COND = 1e5


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


def _inverse_blocks(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack of Gram blocks, and which of them pass the guard:
    positive pivots and diagonal, and ``tr(G)·tr(G⁻¹) <= _BATCH_COND``.

    Goodnight's sweep operator on every pivot in turn, in elementwise array
    arithmetic: a block's inverse does not depend on the others in its
    stack, and no LAPACK call is made, whose first use in a process costs
    about 0.3 MiB of peak RSS. A block that is not numerically positive
    definite fails the guard."""
    H = blocks.copy()
    pivots_positive = np.ones(len(H), dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(H.shape[1]):
            pivot = H[:, j, j].copy()
            pivots_positive &= pivot > 0.0
            row = H[:, j, :] / pivot[:, None]
            col = H[:, :, j] / pivot[:, None]
            H -= H[:, :, j, None] * row[:, None, :]
            H[:, j, :] = row
            np.negative(col, out=H[:, :, j])
            H[:, j, j] = 1.0 / pivot
        diag = np.diagonal(H, axis1=1, axis2=2)
        bound = np.trace(blocks, axis1=1, axis2=2) * diag.sum(axis=1)
        passed = pivots_positive & np.all(diag > 0.0, axis=1) & (bound <= _BATCH_COND)
    return H, passed


def _lstsq_coefficients(R: np.ndarray, ell: int, C: list[int]) -> tuple[np.ndarray, bool]:
    """One spec's ``a`` and degeneracy from least squares on ``R``."""
    # resid_ss holds |R a|^2, or nothing when that is zero or Z_C is rank
    # deficient, so both of those cases come out degenerate
    phi, resid_ss, _, _ = np.linalg.lstsq(R[:, C], R[:, ell], rcond=RANK_TOL)
    a = np.zeros(R.shape[1])
    a[ell] = 1.0
    a[C] = -phi
    return a, bool(resid_ss.sum() <= DEGENERACY_TOL * np.sum(R * R, axis=0)[ell])


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
    count ``|C|``.

    ``specs`` is a list of :class:`JustIdSpec` or an array of their ids,
    read through :func:`as_spec_ids` with ``k_z`` the column count of
    ``R``, so a spec of another instrument count raises
    :class:`~faskit.errors.DimensionMismatchError`. Each spec's subset ``S
    = C ∪ {l}`` is read from its id. By the
    partitioned inverse, ``a_S = H[:, l] / H[l, l]`` with ``H = (G_SS)⁻¹``,
    so each (draw, spec) takes the inverse of its own block ``G_SS``, in
    one stack per subset size; each Gram is its own 2-D product, as a
    stacked matmul may round differently. A spec whose inverse fails the
    guard of :func:`_inverse_blocks`, which bounds ``cond(G_SS)`` by 1e5,
    is solved with least squares instead. Only such a spec can be
    degenerate: when Z_C is rank deficient at the 1e-10 relative singular
    value tolerance, or when ``|R a|^2 <= 1e-12 * |R_l|^2``. The path is
    chosen per block, and a block's inverse does not depend on the others
    in its stack, so a spec's ``a`` depends on neither the other specs nor
    the other draws in the stack.
    """
    d, k = len(R), R.shape[2]
    ell, controls = _controls(as_spec_ids(specs, k) - 1, k)
    subset = controls | (1 << ell)
    position = _popcount(subset & ((1 << ell) - 1), k)
    size = _popcount(subset, k)
    G = np.stack([r.T @ r for r in R])
    A = np.zeros((d, k, len(subset)))
    batched = np.zeros((d, len(subset)), dtype=bool)
    for s in np.flatnonzero(np.bincount(size)):
        cols = np.flatnonzero(size == s)
        members = np.nonzero((subset[cols, None] >> np.arange(k)) & 1)[1].reshape(-1, s)
        blocks = G[:, members[:, :, None], members[:, None, :]].reshape(-1, s, s)
        H, passed = _inverse_blocks(blocks)
        at = np.flatnonzero(passed)
        draw, keep = np.divmod(at, len(cols))
        cols, pos = cols[keep], position[cols[keep]]
        A[draw[:, None], members[keep], cols[:, None]] = H[at, :, pos] / H[at, pos, pos][:, None]
        batched[draw, cols] = True
    degenerate = np.zeros((d, len(subset)), dtype=bool)
    for draw, col in zip(*np.nonzero(~batched)):
        C = [i for i in range(k) if subset[col] >> i & 1 and i != ell[col]]
        A[draw, :, col], degenerate[draw, col] = _lstsq_coefficients(R[draw], int(ell[col]), C)
    return A, degenerate, size - 1
