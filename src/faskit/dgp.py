"""Synthetic data with exact population moments.

Given a :class:`~faskit.fas.PopulationModel`, draws (y, x, Z) such that in
population cov(Z, U) equals alpha exactly, var(U) = var_u, var(V) = var_v,
and corr(eps, V) = rho_uv, where eps is the part of U orthogonal to Z. The
generator is PCG64; replication streams are split with SeedSequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset
from .errors import InsufficientObservationsError, InvalidVarianceError
from .fas import PopulationModel
from .linalg import row_blocks


class ErrorLaw(str, Enum):
    """Shock law for the structural and first-stage errors.

    GAUSSIAN draws independent standard normal shocks. SCALED_CHI_SQUARE
    draws standardized chi-square(1) shocks and scales both errors by an
    instrument-dependent factor with unit mean square, producing genuine
    conditional heteroskedasticity while keeping every targeted population
    moment exact; under it the errors are uncorrelated with Z but no longer
    fully independent of it.
    """

    GAUSSIAN = "gaussian"
    SCALED_CHI_SQUARE = "scaled-chi-square"


@dataclass(eq=False)
class SimulationConfig:
    """Inputs for one synthetic draw.

    Attributes
    ----------
    model : PopulationModel
    n : int
        Sample size, at least 10.
    seed : int
        Nonnegative seed for the PCG64 stream.
    error_law : ErrorLaw
    rho_uv : float
        Correlation between the structural shock eps and the first-stage
        error V; drives the endogeneity of x.
    """

    model: PopulationModel
    n: int
    seed: int
    error_law: ErrorLaw = ErrorLaw.GAUSSIAN
    rho_uv: float = 0.5

    def __post_init__(self) -> None:
        if self.n < 10:
            raise InsufficientObservationsError(f"n must be at least 10, got {self.n}")
        if not -1.0 <= self.rho_uv <= 1.0:
            raise InvalidVarianceError(f"rho_uv must lie in [-1, 1], got {self.rho_uv}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        self.error_law = ErrorLaw(self.error_law)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for replication ``index`` of a study."""
    state = np.random.SeedSequence((seed, index)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _model_setup(model: PopulationModel) -> tuple[np.ndarray, float, np.ndarray, float]:
    """:func:`simulate`'s work on the model alone, checks and errors
    included: eta, the variance of eps, chol(sigma_z) and ``1'sigma_z 1 / k^2``."""
    model.validate()
    eta = np.linalg.solve(model.sigma_z, model.alpha)
    eps_var = model.var_u - float(model.alpha @ eta)
    if eps_var <= 0.0:
        raise InvalidVarianceError(
            f"alpha' sigma_z^-1 alpha = {model.alpha @ eta:.6g} leaves eps variance "
            f"{eps_var:.6g}; increase var_u or shrink alpha"
        )
    k = model.k_z
    mean_var = float(np.ones(k) @ model.sigma_z @ np.ones(k)) / k**2
    return eta, eps_var, np.linalg.cholesky(model.sigma_z), mean_var


def simulate(config: SimulationConfig, setup: tuple | None = None) -> Dataset:
    """Draw one dataset from the model.

    Z is multivariate Gaussian with covariance sigma_z (via its Cholesky
    factor), drawn a row block at a time from the one stream, with the bits
    of one draw of all n rows. U is built as Z' sigma_z^{-1} alpha + eps
    with eps orthogonal to Z, so cov(Z, U) = alpha holds exactly in
    population; the variance of eps is var_u - alpha' sigma_z^{-1} alpha,
    which must be positive. The draw holds y, x and Z and no other n-row
    array.

    ``setup`` is ``_model_setup(config.model)``, for a caller that draws
    many seeds of one model; by default it is made here.

    Raises
    ------
    InvalidVarianceError
        If alpha is too large for var_u, leaving eps a nonpositive variance.
    """
    model = config.model
    eta, eps_var, chol, mean_var = _model_setup(model) if setup is None else setup
    n, k = config.n, model.k_z

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    # rng.standard_normal((n, k)) @ chol.T, bit for bit, a row block at a time
    Z = np.empty((n, k))
    for rows in row_blocks(n):
        np.matmul(rng.standard_normal((rows.stop - rows.start, k)), chol.T, out=Z[rows])

    shock_u = rng.standard_normal(n)
    shock_v = rng.standard_normal(n)
    heteroskedastic = config.error_law == ErrorLaw.SCALED_CHI_SQUARE
    if heteroskedastic:
        for shock in (shock_u, shock_v):  # (shock^2 - 1) / sqrt(2), in the shock's buffer
            np.square(shock, out=shock)
            shock -= 1.0
            shock /= np.sqrt(2.0)

    # with the bits of v = sqrt(var_v) (rho shock_u + sqrt(1 - rho^2) shock_v) scale,
    # u = sqrt(eps_var) shock_u scale + Z eta, x = Z pi + v and y = x beta + Z gamma + u,
    # held in the shocks' buffers and formed a row block at a time: a floating-point
    # sum's bits do not depend on the order of its two terms, nor a product's or a
    # row mean's on the row blocks it is taken in (see row_blocks)
    rho = config.rho_uv
    v = np.multiply(shock_v, np.sqrt(1.0 - rho**2), out=shock_v)
    u = shock_u
    x, y = v, u
    for rows in row_blocks(n):
        block = Z[rows]
        v[rows] += rho * shock_u[rows]
        v[rows] *= np.sqrt(model.var_v)
        u[rows] *= np.sqrt(eps_var)
        if heteroskedastic:
            row_mean = block.mean(axis=1)
            scale = np.sqrt((1.0 + row_mean**2) / (1.0 + mean_var))
            v[rows] *= scale
            u[rows] *= scale
        u[rows] += block @ eta
        x[rows] += block @ model.pi
        fitted = x[rows] * model.beta
        fitted += block @ model.gamma
        y[rows] += fitted  # y overwrites u, row block by row block

    return Dataset(
        y=y,
        x=x,
        Z=Z,
        z_names=[f"Z{i}" for i in range(1, k + 1)],
        intercept=True,
        provenance=(
            f"simulated(seed={config.seed}, n={n}, law={config.error_law.value})"
        ),
    )
