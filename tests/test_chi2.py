"""Chi-square survival function against an independent reference."""

import math

import numpy as np
import pytest

from faskit.chi2 import chi2_sf

scipy_stats = pytest.importorskip("scipy.stats")


def test_matches_scipy_over_a_wide_grid():
    xs = np.concatenate([np.linspace(0.01, 8.0, 40), np.linspace(9.0, 120.0, 30)])
    for df in (1, 2, 3, 5, 9, 17, 30):
        want = scipy_stats.chi2.sf(xs, df)
        got = np.array([chi2_sf(float(x), df) for x in xs])
        assert np.max(np.abs(got - want)) < 1e-10


def test_extreme_tails_stay_accurate():
    for df, x in ((1, 300.0), (2, 500.0), (10, 250.0)):
        want = float(scipy_stats.chi2.sf(x, df))
        assert chi2_sf(x, df) == pytest.approx(want, rel=1e-8, abs=1e-300)


def test_boundaries():
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(-1.0, 3) == 1.0
    assert 0.0 <= chi2_sf(1e6, 1) <= 1.0
    for df in (1, 2, 3):
        assert chi2_sf(math.inf, df) == chi2_sf(math.nan, df) == 0.0


def test_df_must_be_positive():
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


def test_gamma_q_complements_gamma_p():
    # chi2_sf(2x, 2a) is Q(a, x), and Q(a, x) + P(a, x) = 1; P probed through
    # scipy's gammainc
    from scipy.special import gammainc

    for a, x in ((0.5, 0.3), (2.5, 4.0), (10.0, 9.5)):
        assert chi2_sf(2.0 * x, int(2 * a)) == pytest.approx(1.0 - float(gammainc(a, x)), abs=1e-12)
