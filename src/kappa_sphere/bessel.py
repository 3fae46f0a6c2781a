"""Exact modified-Bessel oracles: log I_v and the ratio I_{v+1}/I_v.

These exist to test the stable surrogates; nothing on the production loss
path calls them.  `log_bessel_exact` is the only function in the package
that needs scipy, a test dependency; `vmf.log_density` is its one caller
outside the tests.

log I_v is computed from the exponentially scaled Bessel function, with a
power-series fallback where the scaled value underflows (large order,
small argument).  The ratio is computed by a Perron-style continued
fraction evaluated with the modified Lentz algorithm, so it shares no code
with either the log path or the Amos-bound surrogate.

Validated range: 0 <= v <= 300, 0 < kappa <= 1e4.
"""

from __future__ import annotations

import math

_MAX_V = 300.0
_MAX_KAPPA = 1e4


def _check_range(v: float, kappa: float) -> None:
    if not (0.0 <= v <= _MAX_V):
        raise ValueError(f"order v={v} outside validated range [0, {_MAX_V}]")
    if not (0.0 < kappa <= _MAX_KAPPA):
        raise ValueError(f"kappa={kappa} outside validated range (0, {_MAX_KAPPA}]")


def _log_bessel_series(v: float, kappa: float) -> float:
    """Power series log I_v(k) = v log(k/2) - lgamma(v+1) + log sum_k t_k."""
    x = kappa * kappa / 4.0
    term = 1.0
    total = 1.0
    for k in range(1, 500):
        term *= x / (k * (v + k))
        total += term
        if term < 1e-18 * total:
            break
    return v * math.log(kappa / 2.0) - math.lgamma(v + 1.0) + math.log(total)


def log_bessel_exact(v: float, kappa: float) -> float:
    """log I_v(kappa), exact to near machine precision on the validated range.

    Imports scipy on first call, so importing this module does not.
    """
    from scipy.special import ive

    v = float(v)
    kappa = float(kappa)
    _check_range(v, kappa)
    scaled = float(ive(v, kappa))
    if scaled > 0.0 and math.isfinite(scaled):
        return math.log(scaled) + kappa
    # ive underflows when v log(k/2) - lgamma(v+1) is very negative.
    return _log_bessel_series(v, kappa)


def bessel_ratio_exact(v: float, kappa: float) -> float:
    """I_{v+1}(kappa) / I_v(kappa) via a continued fraction (modified Lentz).

    The ratio r_v = I_{v+1}/I_v satisfies
        r_v = 1 / (2(v+1)/k + r_{v+1})
    which unrolls into the continued fraction evaluated here.
    """
    v = float(v)
    kappa = float(kappa)
    _check_range(v, kappa)

    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for n in range(1, 60000):
        b = 2.0 * (v + n) / kappa
        d = b + d
        if d == 0.0:
            d = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    else:
        raise RuntimeError("continued fraction failed to converge")
    if not (0.0 < f < 1.0):
        raise RuntimeError(f"ratio {f} outside (0, 1); inputs v={v}, kappa={kappa}")
    return f
