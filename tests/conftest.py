"""Shared builders for population models, the transformed instrument
columns of a spec list, a plain OLS reference and exact rational solves,
used across the test modules."""

from fractions import Fraction

import numpy as np

from faskit import PopulationModel, partial_out
from faskit.specs import spec_coefficients


def example1_model() -> PopulationModel:
    """Identity design, three instruments, two exclusion violations."""
    return PopulationModel(
        beta=1.0,
        gamma=np.array([-1.0, 0.0, 2.0]),
        alpha=np.zeros(3),
        pi=np.ones(3),
        sigma_z=np.eye(3),
    )


def example2_model(
    pi1: float, pi2: float, rho: float, alpha2: float, beta: float = 1.0
) -> PopulationModel:
    """Two correlated instruments, the second violating exogeneity."""
    return PopulationModel(
        beta=beta,
        gamma=np.zeros(2),
        alpha=np.array([0.0, alpha2]),
        pi=np.array([pi1, pi2], dtype=np.float64),
        sigma_z=np.array([[1.0, rho], [rho, 1.0]]),
    )


def near_collinear_model() -> PopulationModel:
    """cond(sigma_z) is about 2e9, as Z1 and Z3 correlate at 1 - 1e-9, yet
    sigma_z passes validate()."""
    sigma = np.array([[1.0, 0.2, 1.0 - 1e-9], [0.2, 1.0, 0.2], [1.0 - 1e-9, 0.2, 1.0]])
    return PopulationModel(
        beta=1.0, gamma=np.zeros(3), alpha=np.zeros(3), pi=np.array([0.5, 0.4, 0.3]),
        sigma_z=sigma,
    )


def random_corr(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random correlation matrix, shrunk toward identity to stay well conditioned."""
    a = rng.standard_normal((k + 3, k))
    s = a.T @ a / (k + 3)
    d = 1.0 / np.sqrt(np.diag(s))
    c = 0.9 * (d[:, None] * s * d[None, :]) + 0.1 * np.eye(k)
    return 0.5 * (c + c.T)


def random_model(rng: np.random.Generator, k: int) -> PopulationModel:
    """Unrestricted random model; instruments may be invalid either way.

    First-stage coefficients are bounded away from zero and var_u leaves
    room for the implied cov(Z, U), so the model can always be simulated.
    """
    sign = rng.choice([-1.0, 1.0], size=k)
    pi = sign * rng.uniform(0.3, 1.5, size=k)
    gamma = rng.uniform(-0.8, 0.8, size=k)
    alpha = rng.uniform(-0.4, 0.4, size=k)
    sigma = random_corr(rng, k)
    slack = float(alpha @ np.linalg.solve(sigma, alpha))
    return PopulationModel(
        beta=float(rng.uniform(-2.0, 2.0)),
        gamma=gamma,
        alpha=alpha,
        pi=pi,
        sigma_z=sigma,
        var_u=slack + float(rng.uniform(0.5, 1.5)),
        var_v=float(rng.uniform(0.5, 1.5)),
    )


def spec_columns(data, specs) -> tuple[np.ndarray, np.ndarray]:
    """The transformed instruments ``Z a`` of ``specs`` on ``data`` partialled
    of its intercept and controls, one column per spec, and the coefficient
    matrix ``A`` of :func:`faskit.specs.spec_coefficients` whose columns are
    the ``a``: a spec's control coefficients are ``-a[C]``."""
    part = partial_out(data)
    A = spec_coefficients(np.linalg.qr(part.Z, mode="r")[None], specs)[0][0]
    return part.Z @ A, A


def ols_reference(
    X: np.ndarray, y: np.ndarray, robust_flavor: str = "hc1", n_absorbed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """OLS coefficients of y on X and their sandwich covariance, written out:
    ``(X'X)^-1 X'diag(e^2)X (X'X)^-1``, times ``n / (n - p - n_absorbed)``
    for hc1."""
    X = np.asarray(X, dtype=np.float64)
    X = X[:, None] if X.ndim == 1 else X
    n, p = X.shape
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ coef
    bread = np.linalg.inv(X.T @ X)
    cov = bread @ ((X * resid[:, None] ** 2).T @ X) @ bread
    if robust_flavor == "hc1":
        cov = cov * n / (n - p - n_absorbed)
    return coef, cov


def exact_gram(columns) -> list[list[Fraction]]:
    """The Gram matrix of float columns, in exact rationals: each column is
    written as integers over one power of two, so every sum is exact."""
    scaled = []
    for column in columns:
        pairs = [float(v).as_integer_ratio() for v in column]
        den = max(d for _, d in pairs)
        scaled.append(([n * (den // d) for n, d in pairs], den))
    return [
        [Fraction(sum(a * b for a, b in zip(u, v)), du * dv) for v, dv in scaled]
        for u, du in scaled
    ]


def exact_solve(G, b) -> list[Fraction]:
    """``G^-1 b`` for a nonsingular rational G, by Gauss-Jordan elimination."""
    rows = [list(G[i]) + [b[i]] for i in range(len(b))]
    for c in range(len(b)):
        pivot = next(r for r in range(c, len(b)) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(len(b)):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][-1] / rows[i][i] for i in range(len(b))]
