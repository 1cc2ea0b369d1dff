"""Least squares with heteroskedasticity-robust covariances, and projections.

Partialling (:func:`partial_out`) runs before every estimator; 2SLS and
the pairwise report also use :func:`ols` and :func:`residualize`. Rank
decisions, here and in the spec engine, use a relative singular value
tolerance of 1e-10, so they are deterministic for a given input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (
    DimensionMismatchError,
    InsufficientObservationsError,
    RankDeficientError,
)

# Relative singular value cutoff for all rank decisions.
RANK_TOL = 1e-10

_FLAVORS = ("hc0", "hc1")


@dataclass(eq=False)
class RegressionFit:
    """Result of one least squares fit.

    Attributes
    ----------
    coefficients : ndarray, shape (p,)
        OLS coefficients, in design column order.
    residuals : ndarray, shape (n,)
        y minus fitted values.
    fitted : ndarray, shape (n,)
        X @ coefficients.
    robust_cov : ndarray, shape (p, p)
        Sandwich covariance of the coefficients, per the requested flavor.
    dof_residual : int
        n minus the number of estimated parameters, minus any columns
        absorbed upstream.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    robust_cov: np.ndarray
    dof_residual: int


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


def ols(
    X: np.ndarray,
    y: np.ndarray,
    robust_flavor: str = "hc1",
    n_absorbed: int = 0,
) -> RegressionFit:
    """Ordinary least squares with a sandwich covariance.

    Parameters
    ----------
    X : ndarray, shape (n, p) or (n,)
        Design matrix. Must have full column rank at the 1e-10 relative
        singular value tolerance.
    y : ndarray, shape (n,)
        Response.
    robust_flavor : {"hc1", "hc0"}
        "hc0" is the plain sandwich (X'X)^{-1} X'diag(e^2)X (X'X)^{-1};
        "hc1" multiplies it by n / dof_residual.
    n_absorbed : int
        Columns partialled out of X and y upstream; enters the residual
        degrees of freedom and hence the hc1 scaling.

    Returns
    -------
    RegressionFit
    """
    flavor = _check_flavor(robust_flavor)
    X = _as_design(X)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n, p = X.shape
    if y.shape[0] != n:
        raise DimensionMismatchError(f"X has {n} rows but y has {y.shape[0]}")
    if n <= p + n_absorbed:
        raise InsufficientObservationsError(
            f"need n > p: n={n}, p={p}, absorbed={n_absorbed}"
        )

    coefficients, _, rank, singular_values = np.linalg.lstsq(X, y, rcond=RANK_TOL)
    if rank < p:
        raise RankDeficientError(
            f"design has rank {rank} < {p} columns "
            f"(singular values {np.array2string(singular_values, precision=3)})"
        )

    fitted = X @ coefficients
    residuals = y - fitted
    dof_residual = n - p - n_absorbed

    xtx_inv = np.linalg.inv(X.T @ X)
    scored = X * residuals[:, None]
    meat = scored.T @ scored
    robust_cov = xtx_inv @ meat @ xtx_inv
    if flavor == "hc1":
        robust_cov = robust_cov * (n / dof_residual)
    # enforce exact symmetry; the product above is symmetric up to rounding
    robust_cov = 0.5 * (robust_cov + robust_cov.T)

    return RegressionFit(
        coefficients=coefficients,
        residuals=residuals,
        fitted=fitted,
        robust_cov=robust_cov,
        dof_residual=dof_residual,
    )


def projection_basis(B: np.ndarray) -> np.ndarray:
    """Orthonormal basis of col(B) after a full-rank check.

    Raises RankDeficientError when B's columns are numerically dependent.
    """
    B = _as_design(B)
    n, r = B.shape
    if n <= r:
        raise InsufficientObservationsError(f"need n > columns: n={n}, columns={r}")
    singular_values = np.linalg.svd(B, compute_uv=False)
    if singular_values[0] == 0.0 or singular_values[-1] <= RANK_TOL * singular_values[0]:
        raise RankDeficientError(
            f"projection block is rank deficient "
            f"(singular values {np.array2string(singular_values, precision=3)})"
        )
    Q, _ = np.linalg.qr(B)
    return Q


def residualize(A: np.ndarray, B: np.ndarray | None) -> np.ndarray:
    """Residuals of each column of A after linear projection on B.

    B empty or None returns a copy of A unchanged. B must have full column
    rank; the projection uses an orthonormal basis so that a second
    application is a numerical no-op.
    """
    A = np.asarray(A, dtype=np.float64)
    if B is None or np.size(B) == 0:
        return A.copy()
    Q = projection_basis(B)
    if Q.shape[0] != A.shape[0]:
        raise DimensionMismatchError(f"A has {A.shape[0]} rows but B has {Q.shape[0]}")
    return A - Q @ (Q.T @ A)


def _absorbed_basis(dataset: Dataset) -> np.ndarray | None:
    """Orthonormal basis of the dataset's (intercept, controls) block, or None
    when it has neither."""
    pieces = []
    if dataset.intercept:
        pieces.append(np.ones((dataset.n, 1)))
    if dataset.controls.shape[1]:
        pieces.append(dataset.controls)
    return projection_basis(np.hstack(pieces)) if pieces else None


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
