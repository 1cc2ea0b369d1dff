"""Projections: the checked QR of a column block, and partialling.

Partialling (:func:`partial_out`) runs before every estimator. 2SLS takes
its fitted values, first stage and F statistic from one
:func:`projection_basis` of its instrument block. Rank decisions, here and
in the spec engine, use a relative singular value tolerance of 1e-10, so
they are deterministic for a given input.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .errors import DimensionMismatchError, InsufficientObservationsError, RankDeficientError

# Relative singular value cutoff for all rank decisions.
RANK_TOL = 1e-10

_FLAVORS = ("hc0", "hc1")


def _as_design(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DimensionMismatchError(f"design must be 2-d, got ndim={X.ndim}")
    return X


def _check_flavor(robust_flavor: str) -> str:
    flavor = robust_flavor.lower()
    if flavor not in _FLAVORS:
        raise ValueError(f"robust_flavor must be one of {_FLAVORS}, got {robust_flavor!r}")
    return flavor


def projection_basis(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR factors ``(Q, R)`` of B, ``B = QR``, after a full-rank check.

    Q is an orthonormal basis of col(B). The rank decision takes the
    singular values of the small square factor R, which are those of B, so
    B's n rows are factored once. Raises InsufficientObservationsError when
    B has no more rows than columns, and RankDeficientError when its columns
    are numerically dependent.
    """
    B = _as_design(B)
    n, r = B.shape
    if n <= r:
        raise InsufficientObservationsError(f"need n > columns: n={n}, columns={r}")
    Q, R = np.linalg.qr(B)
    singular_values = np.linalg.svd(R, compute_uv=False)
    if singular_values[0] == 0.0 or singular_values[-1] <= RANK_TOL * singular_values[0]:
        raise RankDeficientError(
            f"projection block is rank deficient "
            f"(singular values {np.array2string(singular_values, precision=3)})"
        )
    return Q, R


def _absorbed_basis(dataset: Dataset) -> np.ndarray | None:
    """Orthonormal basis of the dataset's (intercept, controls) block, or None
    when it has neither."""
    pieces = []
    if dataset.intercept:
        pieces.append(np.ones((dataset.n, 1)))
    if dataset.controls.shape[1]:
        pieces.append(dataset.controls)
    return projection_basis(np.hstack(pieces))[0] if pieces else None


def _strip(a: np.ndarray, Q: np.ndarray) -> np.ndarray:
    a2 = a[:, None] if a.ndim == 1 else a
    out = a2 - Q @ (Q.T @ a2)
    dead = np.linalg.norm(out, axis=0) <= 1e-12 * np.linalg.norm(a2, axis=0)
    out[:, dead] = 0.0
    return out[:, 0] if a.ndim == 1 else out


def partial_out(dataset: Dataset) -> Dataset:
    """Residualize y, x, and every instrument on (intercept, controls).

    Returns a new dataset with controls removed, the intercept flag cleared,
    and ``n_absorbed`` increased by the number of partialled columns so that
    later degrees-of-freedom corrections stay correct. A dataset with no
    intercept and no controls is already partialled and comes back as is.

    A column the controls absorb completely comes back as rounding residue;
    any column whose residual norm falls below 1e-12 of its input norm is
    snapped to exact zeros so downstream degeneracy guards see it as such.
    """
    Q = _absorbed_basis(dataset)
    if Q is None:
        return dataset
    return dataset.with_arrays(
        _strip(dataset.y, Q),
        _strip(dataset.x, Q),
        _strip(dataset.Z, Q),
        controls=np.empty((dataset.n, 0)),
        control_names=[],
        intercept=False,
        n_absorbed=dataset.n_absorbed + Q.shape[1],
    )


def partial_out_columns(dataset: Dataset, A: np.ndarray) -> np.ndarray:
    """Residualize the columns of A on the dataset's (intercept, controls).

    The same projection :func:`partial_out` applies to y, x and Z, for
    instrument columns built outside the dataset. A comes back as is when
    the dataset is already partialled.
    """
    A = np.asarray(A, dtype=np.float64)
    Q = _absorbed_basis(dataset)
    return A if Q is None else _strip(A, Q)
