"""Test oracles: independent checks that no production path runs.

* `finite_diff_check` compares analytic gradients with central finite
  differences.
* `log_bessel_exact` and `bessel_ratio_exact` are the exact modified-Bessel
  values log I_v and I_{v+1}/I_v that the stable surrogate is tested
  against, and `log_density` is the exact vMF log-density built on them.
  They are the only code of the project that needs scipy.
* `unit_rows` draws an (n, d) matrix of random unit rows, the shape of a
  reference bank, a batch of descriptors and a prototype matrix.
* `whole_file_key` is the key of a recorded retrieval computed from each
  input file read whole, as `fileio.inputs_key` computed it before it
  streamed the files.

log I_v is computed from the exponentially scaled Bessel function, with a
power-series fallback where the scaled value underflows (large order,
small argument).  The ratio is computed by a Perron-style continued
fraction evaluated with the modified Lentz algorithm, so it shares no code
with either the log path or the Amos-bound surrogate.  Validated range of
both: 0 <= v <= 300, 0 < kappa <= 1e4.
"""

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ive

from kappa_sphere import fileio
from kappa_sphere.vmf import check_unit_rows


def unit_rows(rng, n, d):
    """n rows of d standard normal draws from `rng`, each scaled to unit
    length."""
    w = rng.standard_normal((n, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    per_param: dict
    tolerance: float
    passed: bool


def finite_diff_check(loss_and_grad, params: dict, tolerance: float = 1e-4) -> FiniteDiffReport:
    """Check analytic gradients against central finite differences.

    `loss_and_grad(params) -> (loss, grads_dict)`.  Steps are
    h = 1e-5 * max(1, |x|) per coordinate.
    """
    _, analytic = loss_and_grad(params)
    per_param = {}
    worst = 0.0
    for key in analytic:
        p = params[key]
        a = np.asarray(analytic[key], dtype=np.float64)
        fd = np.zeros_like(a)
        flat_p = p.reshape(-1)
        flat_fd = fd.reshape(-1)
        for i in range(flat_p.size):
            x0 = flat_p[i]
            h = 1e-5 * max(1.0, abs(x0))
            flat_p[i] = x0 + h
            lp, _ = loss_and_grad(params)
            flat_p[i] = x0 - h
            lm, _ = loss_and_grad(params)
            flat_p[i] = x0
            flat_fd[i] = (lp - lm) / (2.0 * h)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-6)
        err = float(np.max(np.abs(a - fd) / denom)) if a.size else 0.0
        per_param[key] = err
        worst = max(worst, err)
    return FiniteDiffReport(max_rel_err=worst, per_param=per_param,
                            tolerance=tolerance, passed=worst <= tolerance)


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
    """log I_v(kappa), exact to near machine precision on the validated range."""
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


# The exact density is validated only for small d and moderate kappa.
_LOG_DENSITY_MAX_D = 64
_LOG_DENSITY_MAX_KAPPA = 1e4


def log_density(z, mu, kappa) -> float:
    """Exact vMF log-density log C_d(kappa) + kappa * mu.z of the unit
    d-vector z under the unit mean mu and concentration kappa >= 0.

    Uses the exact log-Bessel oracle, so it is restricted to d <= 64 and
    kappa <= 1e4.
    """
    z, mu = check_unit_rows(np.stack([z, mu]), name="z and mu")
    d, k = z.shape[0], float(kappa)
    if not 2 <= d <= _LOG_DENSITY_MAX_D:
        raise ValueError(f"log_density validated only for 2 <= d <= {_LOG_DENSITY_MAX_D}")
    if not 0.0 <= k <= _LOG_DENSITY_MAX_KAPPA:  # NaN fails too
        raise ValueError("log_density validated only for 0 <= kappa <= "
                         f"{_LOG_DENSITY_MAX_KAPPA}")
    if k == 0.0:
        # Uniform on the sphere: log(Gamma(d/2) / (2 pi^{d/2})).
        log_area = math.log(2.0) + (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0)
        return -log_area
    v = d / 2 - 1
    log_c = v * math.log(k) - (d / 2.0) * math.log(2.0 * math.pi) - log_bessel_exact(v, k)
    return log_c + k * float(mu @ z)


def whole_file_key(bank_path, manifest_path) -> str:
    """sha256 of the record format's tag, then of each file's u64 length
    and bytes, bank first, each file read whole."""
    h = hashlib.sha256(fileio._RETRIEVAL_FORMAT)
    for path in (bank_path, manifest_path):
        data = Path(path).read_bytes()
        h.update(struct.pack("<Q", len(data)))
        h.update(data)
    return h.hexdigest()


# (d, the largest kappa the vMF sampler draws in dimension d): at the next
# float, Wood's envelope x0 = (1 - b) / (1 + b) rounds to 1 and its
# log(1 - x0^2) is log 0.  Found by bisection over the float64 bit
# patterns, running the sampler's row loop on one row at each midpoint.
SAMPLER_KAPPA_LIMITS = [(2, 4503599627370495.5),
                        (64, 2.8372677652434122e+17),
                        (512, 2.3013394095863232e+18)]
