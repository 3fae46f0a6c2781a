"""Core von Mises-Fisher machinery on the unit hypersphere S^{d-1}.

Provides the numerically stable log-partition surrogate (integral of the
Amos upper bound on the Bessel ratio), the batched vMF negative
log-likelihood and its analytic gradients, Wood-style rejection sampling,
the Banerjee concentration estimator, and the resultant-vector fusion
primitive shared by the query- and match-level uncertainty scores.  No
Bessel function is evaluated here: the exact oracles the surrogate is
tested against live with the tests.

All losses are defined up to an additive constant: only differences and
gradients are meaningful.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

UNIT_NORM_TOL = 1e-9
UNCERTAINTY_CAP = 1e12  # the score of a degenerate (cancelled) resultant
RESULTANT_EPS = 1e-12


class DegenerateConcentrationError(ValueError):
    """All samples coincide; the MLE concentration diverges."""


def check_unit_rows(rows, tol=UNIT_NORM_TOL, name="rows") -> np.ndarray:
    """Validate an (N, d) matrix of finite unit rows; return it as float64.
    A failure names the first bad row."""
    w = np.asarray(rows, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"{name} must be an (N, d) matrix, got shape {w.shape}")
    norms = np.linalg.norm(w, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= tol))  # NaN fails too
    if bad.size:
        raise ValueError(f"{name} must be finite and unit-norm; row {bad[0]} "
                         f"has norm {norms[bad[0]]:.6g}")
    return w


def _check_kappas(kappa) -> np.ndarray:
    """Validate one kappa or an array of them; a scalar gives a 0-d array."""
    k = np.asarray(kappa, dtype=np.float64)
    if not (k.min() >= 0.0 and k.max() < math.inf):  # NaN fails both
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    return k


def _v_tilde(d: int) -> float:
    """The Bessel order (d - 1) / 2 of the surrogate at dimension d >= 2."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return (d - 1) / 2.0


def stable_log_partition(kappa, d: int):
    """Stable log-partition surrogate A(kappa) at dimension d, elementwise.

    A(k) = sqrt(k^2 + vt^2) - vt * log(vt + sqrt(k^2 + vt^2)), vt = (d-1)/2.

    This is the antiderivative of the Amos upper bound on the Bessel ratio
    I_{v+1}/I_v, v = d/2 - 1, replacing log I_v(k) - v log k up to a
    constant.  Finite for all kappa >= 0 at any dimension; no Bessel
    evaluation involved.  A scalar kappa gives a float, an array an array.
    """
    k = _check_kappas(kappa)
    vt = _v_tilde(d)
    root = np.hypot(k, vt)
    return root - vt * np.log(vt + root)


def stable_log_partition_grad(kappa, d: int):
    """dA/dkappa = kappa / (vt + sqrt(kappa^2 + vt^2)), the Amos upper bound.

    Elementwise; lies in [0, 1) and upper-bounds the exact ratio
    I_{v+1}(kappa)/I_v(kappa).
    """
    k = _check_kappas(kappa)
    vt = _v_tilde(d)
    return k / (vt + np.hypot(k, vt))


class VmfBatchLoss(NamedTuple):
    """Mean vMF NLL over a batch and its gradients."""

    loss: float
    kappa: np.ndarray     # (n,) dL/dkappa_i
    z: np.ndarray         # (n, d) ambient dL/dz_i = -kappa_i mu_i / n
    mu: np.ndarray        # (n, d) ambient dL/dmu_i = -kappa_i z_i / n


def vmf_batch_nll(z, mu, kappas) -> VmfBatchLoss:
    """Mean stable vMF NLL over n samples, L = mean_i A(kappa_i) - kappa_i mu_i.z_i.

    The dimension d is the width of the (n, d) rows `z`.  The single
    implementation of the loss: training runs it on whole batches, and a
    single sample is the batch of one.
    """
    d = z.shape[1]
    dots = np.einsum("ij,ij->i", mu, z)
    n = len(kappas)
    loss = float(stable_log_partition(kappas, d).sum() / n -
                 (kappas * dots).sum() / n)
    grad = stable_log_partition_grad(kappas, d) - dots
    scale = (-1.0 / n) * kappas[:, None]
    return VmfBatchLoss(loss=loss, kappa=grad / n, z=scale * mu, mu=scale * z)


def sample_vmf(mu, kappas, rng_seed) -> np.ndarray:
    """Draw one vMF sample per row of the (n, d) unit means `mu` and the
    (n,) concentrations `kappas`, returned as an (n, d) array of unit rows.

    Wood (1994): the mu-component w is drawn by beta rejection sampling,
    the tangent component uniformly on the orthogonal sphere.
    Deterministic for a fixed (seed, mu, kappas).

    Stream contract.  Row i consumes the generator in row order: its
    rejection draws (beta, then uniform, until accepted; none at kappa 0),
    then d standard normals.  So one call on n rows equals n successive
    one-row calls on the same generator, bit for bit; scene synthesis
    relies on this.  The uniform is `rng.random()`: `rng.uniform()` returns
    0 + 1 * next_double, one double of the stream, so both give the same
    bits, and `random` skips the low/high handling (a scalar call costs a
    third of `uniform`'s or less).  The generator's methods are bound once
    before the row loop; the scalar logs and roots stay `math.log` and
    `math.sqrt`, which a numpy SIMD path need not round alike.

    The projection, the tilt by w and both normalisations run once over
    all rows; each row's mu.v is a stacked matmul, which gives the bits of
    a (1, d) @ (d,) product.  np.einsum and (v * mu).sum(1) sum in another
    order and change about two rows in three; np.vecdot keeps the bits but
    needs numpy >= 2.0.
    """
    mu = check_unit_rows(mu, name="mu")
    kappas = np.asarray(kappas, dtype=np.float64)
    n, d = mu.shape
    if n < 1 or d < 2 or kappas.shape != (n,):
        raise ValueError(f"need mu (n >= 1, d >= 2) and kappa (n,), "
                         f"got {mu.shape} and {kappas.shape}")
    _check_kappas(kappas)
    rng = np.random.default_rng(rng_seed)
    beta, uniform, normal = rng.beta, rng.random, rng.standard_normal
    dim = d - 1
    half = dim / 2.0
    log, sqrt = math.log, math.sqrt
    w = np.zeros(n)
    x = np.empty((n, d))
    for i, k in enumerate(kappas.tolist()):
        if k > 0.0:
            b = dim / (sqrt(4.0 * k * k + dim * dim) + 2.0 * k)
            x0 = (1.0 - b) / (1.0 + b)
            c = k * x0 + dim * log(1.0 - x0 * x0)
            while True:
                zb = beta(half, half)
                wi = (1.0 - (1.0 + b) * zb) / (1.0 - (1.0 - b) * zb)
                if k * wi + dim * log(1.0 - x0 * wi) - c >= log(uniform()):
                    w[i] = wi
                    break
        normal(out=x[i])

    # Rows with kappa > 0: a uniform direction in the hyperplane orthogonal
    # to mu, tilted by w.  Rows with kappa = 0 stay isotropic normals.
    t = kappas > 0.0
    v, m, wt = x[t], mu[t], w[t]
    v -= (v[:, None, :] @ m[:, :, None])[:, 0] * m
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= np.sqrt(np.maximum(1.0 - wt * wt, 0.0))[:, None]
    v += wt[:, None] * m
    x[t] = v
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def mle_kappa(samples) -> float:
    """Banerjee closed-form concentration estimate from unit samples.

    kappa_hat = R(d - R^2) / (1 - R^2), R the norm of the sample mean.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] < 2:
        raise ValueError("need at least 2 samples of equal dimension")
    d = s.shape[1]
    r_bar = float(np.linalg.norm(s.mean(axis=0)))
    if r_bar >= 1.0 - 1e-12:
        raise DegenerateConcentrationError(
            "all samples (numerically) identical; kappa estimate diverges"
        )
    return r_bar * (d - r_bar * r_bar) / (1.0 - r_bar * r_bar)


class ResultantUncertainty(NamedTuple):
    value: np.ndarray        # or a float, for scalar inputs
    degenerate: np.ndarray   # or a bool


def resultant_uncertainty(kappa_a, kappa_b, cos_ab) -> ResultantUncertainty:
    """Inverse magnitude of the resultant of two kappa-scaled directions,
    elementwise over broadcast inputs (scalars in, scalars out).

    U = 1 / sqrt(ka^2 + kb^2 + 2 ka kb cos_ab).  The cosine is clamped to
    [-1, 1] before use.  Where the resultant magnitude underflows (exact
    cancellation) UNCERTAINTY_CAP is returned with a degenerate flag,
    keeping downstream reports finite and serializable.
    """
    ka = _check_kappas(kappa_a)
    kb = _check_kappas(kappa_b)
    c = np.asarray(cos_ab, dtype=np.float64)
    if not np.all(np.isfinite(c)):
        raise ValueError("cos_ab must be finite")
    c = np.clip(c, -1.0, 1.0)
    mag = np.sqrt(np.maximum(ka * ka + kb * kb + 2.0 * ka * kb * c, 0.0))
    degenerate = mag < RESULTANT_EPS
    value = np.where(degenerate, UNCERTAINTY_CAP,
                     1.0 / np.maximum(mag, RESULTANT_EPS))
    return ResultantUncertainty(value=value[()], degenerate=degenerate)
