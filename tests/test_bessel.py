"""Exact Bessel oracles against scipy and closed forms."""

import math

import numpy as np
import pytest
from scipy.special import iv, ive

from oracles import bessel_ratio_exact, log_bessel_exact


@pytest.mark.parametrize("v", [0.0, 0.5, 1.0, 7.0, 31.0, 255.0])
@pytest.mark.parametrize("kappa", [0.1, 1.0, 10.0, 100.0, 1e4])
def test_log_bessel_matches_scipy(v, kappa):
    scaled = ive(v, kappa)
    if scaled <= 0.0:  # scipy underflow region is covered by the series path
        pytest.skip("ive underflow; covered by the series test")
    assert log_bessel_exact(v, kappa) == pytest.approx(
        math.log(scaled) + kappa, rel=1e-12)


def test_log_bessel_series_fallback():
    # v=255, kappa=0.5: ive underflows but the series is well conditioned.
    v, kappa = 255.0, 0.5
    assert ive(v, kappa) == 0.0
    got = log_bessel_exact(v, kappa)
    # First-order check: log I_v ~ v log(k/2) - lgamma(v+1) + x/(v+1),
    # x = k^2/4; the next term is O(x^2 / v^2) ~ 1e-8 here.
    x = kappa * kappa / 4.0
    expected = v * math.log(kappa / 2.0) - math.lgamma(v + 1.0) + x / (v + 1.0)
    assert got == pytest.approx(expected, abs=1e-7)


@pytest.mark.parametrize("v", [0.0, 1.0, 7.0, 31.0])
@pytest.mark.parametrize("kappa", [0.5, 5.0, 50.0, 500.0])
def test_ratio_matches_scipy(v, kappa):
    expected = iv(v + 1.0, kappa) / iv(v, kappa)
    assert bessel_ratio_exact(v, kappa) == pytest.approx(expected, rel=1e-12)


def test_ratio_matches_scipy_scaled_high_order():
    # iv overflows at large kappa; the exponentially scaled form does not.
    for v, kappa in [(255.0, 1000.0), (127.0, 1e4), (300.0, 2000.0)]:
        expected = ive(v + 1.0, kappa) / ive(v, kappa)
        assert bessel_ratio_exact(v, kappa) == pytest.approx(expected, rel=1e-12)


def test_ratio_monotone_in_kappa():
    v = 31.0
    kappas = np.linspace(0.5, 2000.0, 40)
    ratios = [bessel_ratio_exact(v, k) for k in kappas]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(0.0 < r < 1.0 for r in ratios)


def test_range_validation():
    with pytest.raises(ValueError):
        log_bessel_exact(-1.0, 1.0)
    with pytest.raises(ValueError):
        log_bessel_exact(1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_ratio_exact(301.0, 1.0)
    with pytest.raises(ValueError):
        bessel_ratio_exact(1.0, 2e4)
