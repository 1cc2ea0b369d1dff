"""Seeded inputs for the benchmark workloads.

Every input is drawn from the workload seed with numpy's PCG64, so the same
seed gives the same model files and CSV bytes. The instrument make-up is
fixed per instrument count (see README.md); the seed moves the coefficient
sizes and the sample.
"""

from __future__ import annotations

import numpy as np

# One letter per instrument: V valid, E breaks exclusion (direct effect on y),
# X breaks exogeneity (correlated with the structural error), W valid but
# weak. Lower-case w marks a weak instrument that also breaks exogeneity.
MAKEUP = {
    3: "VEw",
    4: "VEXW",
    10: "VVVVEEEXXW",
}

# First-stage coefficient of a weak instrument times sqrt(n): its fully
# controlled spec has an expected first-stage F near 1, far below the cutoff.
WEAK_PI_ROOT_N = 1.0

# Weak coefficient for population models, which have no sample size.
WEAK_PI_POPULATION = 0.02


def make_model(k: int, rng: np.random.Generator, n: int | None = None) -> dict:
    """A population model with the make-up ``MAKEUP[k]``.

    Violations are disjoint (no instrument breaks both restrictions) and at
    least one instrument is valid and relevant, so the general population
    FAS contains beta.
    """
    roles = MAKEUP[k]
    weak_pi = WEAK_PI_POPULATION if n is None else WEAK_PI_ROOT_N / np.sqrt(n)
    pi = np.where([r in "Ww" for r in roles], weak_pi, rng.uniform(0.4, 0.8, k))
    sign = rng.choice([-1.0, 1.0], size=k)
    gamma = np.where([r == "E" for r in roles], sign * rng.uniform(0.2, 0.5, k), 0.0)
    alpha = np.where([r in "Xw" for r in roles], sign * rng.uniform(0.1, 0.25, k), 0.0)
    rho = rng.uniform(0.2, 0.4)
    sigma = (1.0 - rho) * np.eye(k) + rho * np.ones((k, k))
    return {
        "beta": float(rng.uniform(0.5, 1.5)),
        "pi": pi,
        "gamma": gamma,
        "alpha": alpha,
        "sigma_z": sigma,
        # eps, the part of U orthogonal to Z, keeps unit variance
        "var_u": 1.0 + float(alpha @ np.linalg.solve(sigma, alpha)),
        "var_v": 1.0,
        "rho_uv": 0.5,
    }


def write_model(model: dict, path: str) -> None:
    """Write a model in faskit's ``key = value`` model-file format."""

    def vec(a) -> str:
        return ", ".join(repr(float(v)) for v in a)

    lines = [
        f"beta = {model['beta']!r}",
        f"pi = {vec(model['pi'])}",
        f"gamma = {vec(model['gamma'])}",
        f"alpha = {vec(model['alpha'])}",
        "sigma_z = " + "; ".join(vec(row) for row in model["sigma_z"]),
        f"var_u = {model['var_u']!r}",
        f"var_v = {model['var_v']!r}",
        f"rho_uv = {model['rho_uv']!r}",
    ]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def draw_with_controls(model: dict, n: int, n_controls: int, rng: np.random.Generator) -> dict:
    """A sample from ``model`` plus controls that drive Z, x and y.

    After partialling out (1, controls), the sample follows ``model``.
    """
    k = model["pi"].shape[0]
    sigma = model["sigma_z"]
    W = rng.standard_normal((n, n_controls))
    Z0 = rng.standard_normal((n, k)) @ np.linalg.cholesky(sigma).T
    shock_u = rng.standard_normal(n)
    shock_v = rng.standard_normal(n)
    rho = model["rho_uv"]
    eps = shock_u
    v = np.sqrt(model["var_v"]) * (rho * shock_u + np.sqrt(1.0 - rho**2) * shock_v)
    u = Z0 @ np.linalg.solve(sigma, model["alpha"]) + eps
    Z = Z0 + W @ rng.uniform(-0.5, 0.5, (n_controls, k)) + rng.uniform(-1, 1, k)
    x = Z0 @ model["pi"] + v + W @ rng.uniform(-1, 1, n_controls) + 0.5
    y = x * model["beta"] + Z0 @ model["gamma"] + u + W @ rng.uniform(-1, 1, n_controls) - 1.0
    return {"y": y, "x": x, "Z": Z, "W": W}


def write_csv(sample: dict, path: str) -> tuple[list[str], list[str]]:
    """Write y, x, Z1.., w1.. with shortest round-trip float text.

    Returns (instrument names, control names).
    """
    k = sample["Z"].shape[1]
    m = sample["W"].shape[1]
    z_names = [f"Z{i}" for i in range(1, k + 1)]
    w_names = [f"w{i}" for i in range(1, m + 1)]
    table = np.column_stack([sample["y"], sample["x"], sample["Z"], sample["W"]])
    with open(path, "w") as handle:
        handle.write(",".join(["y", "x"] + z_names + w_names) + "\n")
        for row in table.tolist():
            handle.write(",".join(map(repr, row)) + "\n")
    return z_names, w_names


def read_csv(path: str) -> np.ndarray:
    """Numeric body of a CSV with a header row. numpy's parser rounds
    correctly, so shortest round-trip text reads back bit for bit."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
