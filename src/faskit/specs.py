"""Enumeration of just-identified specifications and instrument transforms.

With k_z instruments, each specification keeps one instrument l as the
identifying moment, moves a subset C of the others into the controls, and
drops the rest. There are k_z * 2^(k_z - 1) of them. The transformed
instrument for (l, C) is the residual of Z_l after linear projection on the
controls in C, so its estimand is a ratio of two simple regressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (
    DegenerateInstrumentError,
    InvalidCountError,
    TooManyInstrumentsError,
)
from .linalg import RANK_TOL, partial_out

# Enumeration cap: 20 * 2^19 specs is already ~10.5 million.
MAX_INSTRUMENTS = 20

# A transform whose residual variance is at most this times var(Z_l) is
# treated as collinear with its controls.
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class JustIdSpec:
    """One just-identified specification.

    Attributes
    ----------
    instrument_index : int
        1-based index l of the identifying instrument.
    control_subset : tuple of int
        Sorted 1-based indices of instruments used as controls; never
        contains ``instrument_index``.
    spec_id : int
        Stable 1-based identifier within the enumeration for given k_z.
    label : str
        Human-readable form, e.g. ``"Z2|1,3"`` or ``"Z1"``.
    """

    instrument_index: int
    control_subset: tuple[int, ...]
    spec_id: int
    label: str


def _label(instrument_index: int, control_subset: tuple[int, ...]) -> str:
    if not control_subset:
        return f"Z{instrument_index}"
    return f"Z{instrument_index}|" + ",".join(str(i) for i in control_subset)


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
    specs: list[JustIdSpec] = []
    spec_id = 0
    for ell in range(1, k_z + 1):
        others = [i for i in range(1, k_z + 1) if i != ell]
        for mask in range(2 ** len(others)):
            subset = tuple(others[t] for t in range(len(others)) if mask >> t & 1)
            spec_id += 1
            specs.append(
                JustIdSpec(
                    instrument_index=ell,
                    control_subset=subset,
                    spec_id=spec_id,
                    label=_label(ell, subset),
                )
            )
    return specs


def make_spec(k_z: int, ell: int, subset: tuple[int, ...]) -> JustIdSpec:
    """The spec of :func:`enumerate_specs` that identifies with instrument
    ``ell`` and controls for the sorted ``subset``, built without the
    lattice: its mask over the other instruments gives its ``spec_id``."""
    others = [i for i in range(1, k_z + 1) if i != ell]
    mask = sum(1 << others.index(i) for i in subset)
    return JustIdSpec(ell, subset, (ell - 1) * 2 ** (k_z - 1) + mask + 1, _label(ell, subset))


def instrument_specs(k_z: int, all_controls: bool) -> list[JustIdSpec]:
    """One spec per instrument l, equal to its :func:`enumerate_specs` entry:
    with all other instruments as controls, or with none. Raises as
    :func:`enumerate_specs` does."""
    _check_count(k_z)
    return [
        make_spec(k_z, ell, tuple(i for i in range(1, k_z + 1) if i != ell) if all_controls else ())
        for ell in range(1, k_z + 1)
    ]


@dataclass(eq=False)
class TransformedInstrument:
    """A realized transformed instrument.

    Attributes
    ----------
    spec : JustIdSpec
        The specification the transform realizes.
    values : ndarray, shape (n,)
        Residual of Z_l on (intercept, controls, Z_C).
    projection_coeffs : ndarray
        Coefficients of Z_l on the control instruments (not the intercept or
        controls), in ``spec.control_subset`` order; empty when C is empty.
    """

    spec: JustIdSpec
    values: np.ndarray
    projection_coeffs: np.ndarray


def spec_coefficients(
    R: np.ndarray, specs: list[JustIdSpec]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient vectors a of the specs' transformed instruments ``Z a``.

    ``R`` is a triangular factor of the instrument Gram, ``G = R'R``: the R
    of a QR of the partialled sample instruments, or the transposed
    Cholesky factor of a population ``sigma_z``. Column s of ``A`` has
    ``a_l = 1`` and ``a_C = -phi``, phi being the least squares coefficients
    of ``R[:, l]`` on ``R[:, C]``, which are those of Z_l on Z_C. A spec is
    degenerate when Z_C is rank deficient at the 1e-10 relative singular
    value tolerance, or when ``|R a|^2 <= 1e-12 * |R_l|^2``. Returns ``A``,
    the degenerate mask and each spec's control count ``|C|``.
    """
    A = np.zeros((R.shape[1], len(specs)))
    degenerate = np.zeros(len(specs), dtype=bool)
    n_controls = np.zeros(len(specs), dtype=np.intp)
    base_ss = np.sum(R * R, axis=0)
    for pos, spec in enumerate(specs):
        ell = spec.instrument_index - 1
        C = [i - 1 for i in spec.control_subset]
        # resid_ss holds |R a|^2, or nothing when that is zero or Z_C is rank
        # deficient, so both of those cases come out degenerate
        phi, resid_ss, _, _ = np.linalg.lstsq(R[:, C], R[:, ell], rcond=RANK_TOL)
        A[ell, pos] = 1.0
        A[C, pos] = -phi
        degenerate[pos] = resid_ss.sum() <= DEGENERACY_TOL * base_ss[ell]
        n_controls[pos] = len(C)
    return A, degenerate, n_controls


def transform_instrument(dataset: Dataset, spec: JustIdSpec) -> TransformedInstrument:
    """Residualize the spec's instrument on its control instruments.

    The one-spec case of :func:`spec_coefficients`, on the QR factor of the
    instruments partialled of any intercept and controls (a no-op on an
    already-partialled dataset): ``values = Z a`` and ``projection_coeffs
    = -a_C``. By Frisch-Waugh-Lovell this is the residual of Z_l on
    (intercept, controls, Z_C).

    Raises
    ------
    DegenerateInstrumentError
        If Z_C is rank deficient, or the residual variance is below
        ``1e-12 * var(Z_l)``, i.e. the instrument is numerically collinear
        with its controls (or constant).
    """
    dataset = partial_out(dataset)
    A, degenerate, _ = spec_coefficients(np.linalg.qr(dataset.Z, mode="r"), [spec])
    if degenerate[0]:
        raise DegenerateInstrumentError(
            f"{spec.label}: controls are collinear, or the residual variance is "
            f"below {DEGENERACY_TOL:g} of var(Z_{spec.instrument_index})"
        )
    a = A[:, 0]
    coeffs = -a[[i - 1 for i in spec.control_subset]]
    return TransformedInstrument(spec=spec, values=dataset.Z @ a, projection_coeffs=coeffs)
