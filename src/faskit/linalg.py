"""Projections: the checked QR of a column block, and partialling.

Partialling (:func:`partial_out`), which runs before every estimator,
removes the intercept by centring and the controls by a QR of the centred
controls. 2SLS takes its fitted values, first stage and F statistic from
one :func:`projection_basis` of its instrument block. Rank decisions, here
and in the spec engine, use a relative singular value tolerance of 1e-10,
so they are deterministic for a given input.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .errors import InsufficientObservationsError, RankDeficientError

# Relative singular value cutoff for all rank decisions.
RANK_TOL = 1e-10

_FLAVORS = ("hc0", "hc1")


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


def _vanished(out: np.ndarray, a: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the columns of ``out`` whose norm is at most ``tol`` of a's."""
    return np.einsum("ij,ij->j", out, out) <= tol * tol * np.einsum("ij,ij->j", a, a)


def partial_out(dataset: Dataset) -> Dataset:
    """Residualize y, x, and every instrument on (intercept, controls).

    Returns a new dataset with controls removed, the intercept flag cleared,
    and ``n_absorbed`` increased by the number of partialled columns so that
    later degrees-of-freedom corrections stay correct. A dataset with no
    intercept and no controls is already partialled and comes back as is.

    The intercept goes by centring, the controls by one QR of the centred
    controls; a control that centring shrinks to ``RANK_TOL`` of its norm is
    collinear with the intercept. Any output column below 1e-12 of its input
    norm is snapped to zeros for the downstream degeneracy guards.
    """
    n, W = dataset.n, dataset.controls
    absorbed = int(dataset.intercept) + W.shape[1]
    if not absorbed:
        return dataset
    if n <= absorbed:
        raise InsufficientObservationsError(f"need n > columns: n={n}, columns={absorbed}")
    raw = (dataset.y[:, None], dataset.x[:, None], dataset.Z, W)
    y, x, Z, W = (a - a.mean(axis=0) if dataset.intercept else a.copy() for a in raw)
    if dataset.intercept:
        for out in (y, x, Z, W):  # the rounding a large offset leaves in the first mean
            out -= out.mean(axis=0)
    W[:, _vanished(W, raw[3], RANK_TOL)] = 0.0  # a control collinear with the intercept
    if W.shape[1]:
        Q = projection_basis(W)[0]
        for out in (y, x, Z):
            out -= Q @ (Q.T @ out)
    for out, a in zip((y, x, Z), raw):
        out[:, _vanished(out, a, 1e-12)] = 0.0
    return dataset.with_arrays(
        y[:, 0], x[:, 0], Z, controls=np.empty((n, 0)), control_names=[], intercept=False,
        n_absorbed=dataset.n_absorbed + absorbed,
    )
