"""Projections over row blocks: partialling, and triangular factors of
column blocks.

Partialling (:func:`partial_out`), which runs before every estimator,
removes the intercept by centring and the controls by a QR of the centred
controls; it can overwrite its dataset's arrays instead of copying them.
The spec sweep and 2SLS take their triangular factors from
:func:`blocked_r`, a QR taken :data:`BLOCK_ROWS` rows at a time, so
neither forms an n-row ``Q`` or a copy of its block; the one n-row ``Q``
is the controls', from :func:`projection_basis`. Rank decisions, here and
in the spec engine, use a relative singular value tolerance of 1e-10, so
they are deterministic for a given input.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from .data import Dataset
from .errors import InsufficientObservationsError, RankDeficientError

# Relative singular value cutoff for all rank decisions.
RANK_TOL = 1e-10

# Rows per block of a pass over the sample: its temporaries stay a few
# blocks of this many rows, whatever n is.
BLOCK_ROWS = 8192

# Elements per block of the specs' instruments ``Z A`` in the sweep's robust
# variances, and per block of frontier delta rows: caps the working memory
# of the sweep and of the identified-set kernel.
_BLOCK_ELEMENTS = 2**15

_FLAVORS = ("hc0", "hc1")


def _check_flavor(robust_flavor: str) -> str:
    flavor = robust_flavor.lower()
    if flavor not in _FLAVORS:
        raise ValueError(f"robust_flavor must be one of {_FLAVORS}, got {robust_flavor!r}")
    return flavor


def row_blocks(n: int) -> Iterator[slice]:
    """Slices of :data:`BLOCK_ROWS` rows that cover ``range(n)`` in order.

    A last row of its own joins the block before it: numpy multiplies a
    one-row block through BLAS's matrix-vector routine, which rounds
    otherwise than the matrix-matrix one, so with no one-row block a
    product taken block by block has the bits of the whole product.
    """
    starts = list(range(0, n, BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return (slice(a, b) for a, b in zip(starts, starts[1:] + [n]))


def blocked_r(rows: Callable[[slice], np.ndarray], n: int) -> np.ndarray:
    """The triangular factor R of a QR of the n-row matrix B whose rows
    ``rows(s)`` gives for each slice s of :func:`row_blocks`.

    Each block is factored below the R of the blocks before it (a
    sequential TSQR), so ``R'R = B'B`` and no n-row array is formed. With B
    ``[Zm | t]`` for target columns t, ``R[:q, :q]`` is the R of Zm and
    ``R[:q, q:]`` is ``Q't`` for Zm's own ``Q``. A B of one block is
    ``np.linalg.qr(B, mode="r")``, bit for bit; its R has ``min(n, cols)``
    rows.
    """
    R = None
    for s in row_blocks(n):
        block = rows(s)
        R = np.linalg.qr(block if R is None else np.vstack([R, block]), mode="r")
    return R


def check_rank(R: np.ndarray) -> None:
    """Raise RankDeficientError when the columns whose triangular factor is
    ``R`` are numerically dependent: R's smallest singular value, which is
    theirs, is at most ``RANK_TOL`` of its largest, or R is zero."""
    singular_values = np.linalg.svd(R, compute_uv=False)
    if singular_values[0] == 0.0 or singular_values[-1] <= RANK_TOL * singular_values[0]:
        raise RankDeficientError(
            f"projection block is rank deficient "
            f"(singular values {np.array2string(singular_values, precision=3)})"
        )


def projection_basis(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR factors ``(Q, R)`` of B, ``B = QR``, after a full-rank check.

    Q is an orthonormal basis of col(B), as many rows as B: it is for a
    small block such as the controls, which :func:`partial_out` projects
    on. Raises InsufficientObservationsError when B has no more rows than
    columns, and :func:`check_rank`'s RankDeficientError.
    """
    n, r = B.shape
    if n <= r:
        raise InsufficientObservationsError(f"need n > columns: n={n}, columns={r}")
    Q, R = np.linalg.qr(B)
    check_rank(R)
    return Q, R


def _vanished(out: np.ndarray, squared_norms: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the columns of ``out`` whose norm is at most ``tol`` of the
    norm whose square ``squared_norms`` holds."""
    return np.einsum("ij,ij->j", out, out) <= tol * tol * squared_norms


def partial_out(dataset: Dataset, in_place: bool = False) -> Dataset:
    """Residualize y, x, and every instrument on (intercept, controls).

    Returns a dataset with controls removed, the intercept flag cleared,
    and ``n_absorbed`` increased by the number of partialled columns so that
    later degrees-of-freedom corrections stay correct. A dataset with no
    intercept and no controls is already partialled and comes back as is.

    By default the result holds new arrays and ``dataset`` is left as it
    was. With ``in_place`` the work is done in ``dataset``'s own y, x, Z
    and controls, which it overwrites, and the result holds views of them,
    so no copy of the sample is made: this is for a caller that holds the
    only reference to those arrays and reads none of them afterwards. On
    arrays of the same layout both modes give the same bits.

    The intercept goes by centring, the controls by one QR of the centred
    controls, whose projection is subtracted a block of :func:`row_blocks`
    at a time; a control that centring shrinks to ``RANK_TOL`` of its norm
    is collinear with the intercept. Any output column below 1e-12 of its
    input norm is snapped to zeros for the downstream degeneracy guards.
    """
    n, W = dataset.n, dataset.controls
    absorbed = int(dataset.intercept) + W.shape[1]
    if not absorbed:
        return dataset
    if n <= absorbed:
        raise InsufficientObservationsError(f"need n > columns: n={n}, columns={absorbed}")
    raw = (dataset.y[:, None], dataset.x[:, None], dataset.Z, W)
    # each input column's squared norm, taken before an in-place pass overwrites it
    norms = [np.einsum("ij,ij->j", a, a) for a in raw]
    if dataset.intercept:
        outs = [np.subtract(a, a.mean(axis=0), out=a if in_place else None) for a in raw]
        for out in outs:  # the rounding a large offset leaves in the first mean
            out -= out.mean(axis=0)
    else:
        outs = list(raw) if in_place else [a.copy() for a in raw]
    y, x, Z, W = outs
    W[:, _vanished(W, norms[3], RANK_TOL)] = 0.0  # a control collinear with the intercept
    if W.shape[1]:
        Q = projection_basis(W)[0]
        for out in (y, x, Z):
            # Q'out over contiguous blocks, whose bits do not depend on out's layout
            blocks = row_blocks(n)
            coefficients = sum(Q[rows].T @ np.ascontiguousarray(out[rows]) for rows in blocks)
            for rows in row_blocks(n):
                out[rows] -= Q[rows] @ coefficients
    for out, norm in zip((y, x, Z), norms):
        out[:, _vanished(out, norm, 1e-12)] = 0.0
    return dataset.with_arrays(
        y[:, 0], x[:, 0], Z, controls=np.empty((n, 0)), control_names=[], intercept=False,
        n_absorbed=dataset.n_absorbed + absorbed,
    )
