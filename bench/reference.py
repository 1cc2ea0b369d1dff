"""Plain numpy reimplementation of what faskit computes, used as the oracle
for the benchmark's output checks.

Nothing here imports faskit. Every quantity is computed the textbook way:
residualize by least squares, then take ratios of inner products; population
moments come from solving the population normal equations.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Mirrors of the program's documented thresholds (README of faskit).
DEGENERACY_TOL = 1e-12
FIRST_STAGE_TOL = 1e-12
POPULATION_RELEVANCE_TOL = 1e-12


def residuals(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A minus its least squares fit on the columns of B."""
    if B.shape[1] == 0:
        return A.copy()
    coef, *_ = np.linalg.lstsq(B, A, rcond=None)
    return A - B @ coef


def partial(y, x, Z, W):
    """Residualize y, x and Z on (1, W); returns them and the absorbed count."""
    B = np.column_stack([np.ones(len(y)), W])
    R = residuals(np.column_stack([y, x, Z]), B)
    return R[:, 0], R[:, 1], R[:, 2:], B.shape[1]


def subsets(k: int):
    """Every subset of range(k), as sorted tuples."""
    for size in range(k):
        yield from itertools.combinations(range(k), size)


def spec_table(y, x, Z, n_absorbed: int) -> dict:
    """Per-spec estimates on partialled data, keyed by (l, C) with 1-based
    instrument l and sorted 1-based controls C.

    Each value is a dict with beta, se, pi, psi, F (hc1) or, for a spec the
    program must reject, ``failure`` set to its reason.
    """
    n, k = Z.shape
    scale = n / (n - 1 - n_absorbed)
    xx = float(x @ x)
    table = {}
    for C in subsets(k):
        rest = [j for j in range(k) if j not in C]
        W = residuals(Z[:, rest], Z[:, list(C)])
        base = Z[:, rest]
        ww = np.einsum("ij,ij->j", W, W)
        base_ss = np.einsum("ij,ij->j", base, base)
        wx = W.T @ x
        wy = W.T @ y
        for pos, ell in enumerate(rest):
            key = (ell + 1, tuple(c + 1 for c in C))
            if ww[pos] < DEGENERACY_TOL * base_ss[pos]:
                table[key] = {"failure": "degenerate"}
                continue
            if abs(wx[pos]) <= FIRST_STAGE_TOL * np.sqrt(ww[pos] * xx):
                table[key] = {"failure": "zero-first-stage"}
                continue
            w = W[:, pos]
            pi = wx[pos] / ww[pos]
            psi = wy[pos] / ww[pos]
            beta = wy[pos] / wx[pos]
            e_first = x - pi * w
            var_pi = float((w * e_first) @ (w * e_first)) / ww[pos] ** 2 * scale
            e_iv = y - beta * x
            var_beta = float((w * e_iv) @ (w * e_iv)) / wx[pos] ** 2 * scale
            table[key] = {
                "beta": beta,
                "pi": pi,
                "psi": psi,
                "se": np.sqrt(var_beta),
                "F": pi * pi / var_pi if var_pi > 0 else np.inf,
            }
    return table


def mode_keys(k: int, mode: str, keys) -> list:
    """The specs of one reporting mode."""
    if mode == "general":
        return list(keys)
    if mode == "excl":
        return [key for key in keys if len(key[1]) == k - 1]
    if mode == "exo":
        return [key for key in keys if not key[1]]
    raise ValueError(mode)


def sample_intervals(table: dict, k: int, cutoff: float) -> dict:
    """[min, max] of the selected betas per mode (None when none selected)."""
    out = {}
    for mode in ("excl", "exo", "general"):
        betas = [
            table[key]["beta"]
            for key in mode_keys(k, mode, table)
            if "failure" not in table[key] and table[key]["F"] >= cutoff
        ]
        out[mode] = (min(betas), max(betas)) if betas else None
    return out


def tsls(y, x, Zm) -> dict:
    """2SLS on demeaned data: beta, the instruments' weights in it, and the
    two-step efficient GMM J with its degrees of freedom and p-value."""
    q = Zm.shape[1]
    G = Zm.T @ Zm
    zx = Zm.T @ x
    zy = Zm.T @ y
    denom = float(zx @ np.linalg.solve(G, zx))
    beta = float(zx @ np.linalg.solve(G, zy)) / denom
    resid = y - beta * x
    pi = np.linalg.solve(G, zx)
    weights = pi * zx / denom
    if q == 1:
        return {"beta": beta, "J": 0.0, "dof": 0, "p": None, "weights": weights}
    S = (Zm * resid[:, None]).T @ (Zm * resid[:, None])
    Sx = np.linalg.solve(S, zx)
    beta_two = float(Sx @ zy) / float(Sx @ zx)
    gap = zy - zx * beta_two
    J = max(0.0, float(gap @ np.linalg.solve(S, gap)))
    return {"beta": beta, "J": J, "dof": q - 1, "p": chi2_sf(J, q - 1), "weights": weights}


def chi2_sf(x: float, dof: int) -> float | None:
    """Chi-square upper tail in closed form for 1 or 2 degrees of freedom;
    None for other counts, which the checks then leave alone."""
    if dof == 1:
        return math.erfc(math.sqrt(x / 2.0))
    if dof == 2:
        return math.exp(-x / 2.0)
    return None


def demean(a: np.ndarray) -> np.ndarray:
    return a - a.mean(axis=0)


def pairwise(y, x, Z) -> dict:
    """2SLS per instrument pair: raw, and residualized on the other instruments.

    Keyed by ((a, b), variant) with 1-based a < b.
    """
    k = Z.shape[1]
    out = {}
    for a, b in itertools.combinations(range(k), 2):
        cols = Z[:, [a, b]]
        out[((a + 1, b + 1), "raw")] = tsls(y, x, cols)
        rest = [j for j in range(k) if j not in (a, b)]
        if rest:
            part = residuals(cols, Z[:, rest])
            out[((a + 1, b + 1), "partialled")] = tsls(y, x, part)
    return out


# ---------------------------------------------------------------------------
# population


def population_covariances(model: dict):
    """(Sigma_z, cov(Z, x), cov(Z, y)) implied by a model dict."""
    sigma = model["sigma_z"]
    cov_zx = sigma @ model["pi"]
    cov_zy = sigma @ (model["pi"] * model["beta"] + model["gamma"]) + model["alpha"]
    return sigma, cov_zx, cov_zy


def population_moments(model: dict) -> dict:
    """Population (pi~, psi~) per spec, keyed like :func:`spec_table`.

    For spec (l, C) they are the coefficients on Z_l in the population
    regressions of x and y on Z_{l u C}; every spec sharing l u C comes from
    one solve.
    """
    sigma, cov_zx, cov_zy = population_covariances(model)
    k = sigma.shape[0]
    out = {}
    for size in range(1, k + 1):
        for S in itertools.combinations(range(k), size):
            idx = list(S)
            coef = np.linalg.solve(sigma[np.ix_(idx, idx)], np.column_stack([cov_zx[idx], cov_zy[idx]]))
            for pos, ell in enumerate(S):
                C = tuple(c + 1 for c in S if c != ell)
                out[(ell + 1, C)] = (float(coef[pos, 0]), float(coef[pos, 1]))
    return out


def population_intervals(moments: dict, k: int) -> dict:
    """Per mode: relevance mask, ratios and the [min, max] of relevant ratios."""
    out = {}
    for mode in ("excl", "exo", "general"):
        keys = mode_keys(k, mode, moments)
        pi = np.array([moments[key][0] for key in keys])
        psi = np.array([moments[key][1] for key in keys])
        relevant = np.abs(pi) > POPULATION_RELEVANCE_TOL * max(1.0, float(np.max(np.abs(pi))))
        ratios = psi[relevant] / pi[relevant]
        interval = (float(ratios.min()), float(ratios.max())) if ratios.size else None
        out[mode] = {
            "keys": keys,
            "pi": pi,
            "psi": psi,
            "relevant": relevant,
            "interval": interval,
        }
    return out
