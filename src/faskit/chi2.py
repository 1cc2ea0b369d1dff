"""Chi-square upper tail probability without an external statistics package.

The overidentification test needs one distribution function, and its
degrees of freedom are whole numbers, for which the upper tail is a finite
sum in ``t = x/2``:

- ``df = 2m``: ``e^-t · Σ_{i<m} t^i/i!``;
- ``df = 2m+1``: ``erfc(√t) + e^-t · Σ_{i<m} t^(i+1/2)/Γ(i+3/2)``.

Each term is built from the last, with ``e^-t`` folded into the first, so no
term overflows. Absolute accuracy is well inside 1e-10 on [0, 1].
"""

from __future__ import annotations

import math


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if x <= 0.0:
        return 1.0
    t = 0.5 * x
    m, odd = divmod(df, 2)
    if odd:
        total, term, step = math.erfc(math.sqrt(t)), 2.0 * math.sqrt(t / math.pi) * math.exp(-t), 1.5
    else:
        total, term, step = 0.0, math.exp(-t), 1.0
    for _ in range(m):
        total += term
        term *= t / step
        step += 1.0
    # a NaN or infinite x ends in NaN, which max() turns into 0
    return min(1.0, max(0.0, total))
