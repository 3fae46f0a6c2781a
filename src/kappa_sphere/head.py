"""The concentration head: a lightweight regressor from a feature map to
a strictly positive scalar kappa.

Two variants:

* ``AGGREGATION`` mirrors a retrieval aggregation stack: per-position L2
  channel normalization -> GeM pooling over space -> flatten -> linear
  projection -> linear-to-scalar -> softplus.
* ``LINEAR_ONLY`` is the ablation: flatten -> linear-to-scalar -> softplus.

Forward and backward are hand-written numpy; every gradient is checked
against central finite differences in the test suite.

The feature maps come from a frozen backbone, so while the GeM exponent
is frozen too (``train_gem_p`` off, every production path) the pooled
rows are a constant of a fit: ``forward_batch`` also takes the (n, c)
rows ``aggregate`` pooled once, and runs only the head proper on them.
Each pooled row does not depend on the batch it was pooled in, so both
inputs give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

_NORM_EPS = 1e-12


class HeadVariant(str, Enum):
    AGGREGATION = "aggregation"
    LINEAR_ONLY = "linear_only"


@dataclass
class HeadParams:
    """Parameters of the kappa regressor."""

    gem_p: float
    proj_w: np.ndarray | None   # (hidden, channels); unused by LINEAR_ONLY
    kappa_w: np.ndarray         # (hidden,) or (c*h*w,) for LINEAR_ONLY
    kappa_b: float
    variant: HeadVariant = HeadVariant.AGGREGATION
    train_gem_p: bool = False   # GeM exponent is fixed by default

    def __post_init__(self):
        if self.gem_p < 1.0 or not np.isfinite(self.gem_p):
            raise ValueError(f"gem_p must be finite and >= 1, got {self.gem_p}")
        self.kappa_w = np.asarray(self.kappa_w, dtype=np.float64)
        if self.proj_w is not None:
            self.proj_w = np.asarray(self.proj_w, dtype=np.float64)

    def copy(self) -> "HeadParams":
        return HeadParams(
            gem_p=float(self.gem_p),
            proj_w=None if self.proj_w is None else self.proj_w.copy(),
            kappa_w=self.kappa_w.copy(),
            kappa_b=float(self.kappa_b),
            variant=self.variant,
            train_gem_p=self.train_gem_p,
        )


@dataclass
class HeadGrads:
    gem_p: float
    proj_w: np.ndarray | None
    kappa_w: np.ndarray
    kappa_b: float


def init_head(
    feature_shape,
    hidden: int = 64,
    variant: HeadVariant = HeadVariant.AGGREGATION,
    gem_p: float = 3.0,
    rng=None,
) -> HeadParams:
    """Small random initialization scaled by fan-in."""
    rng = np.random.default_rng(rng)
    c, h, w = feature_shape
    if variant is HeadVariant.AGGREGATION:
        proj_w = rng.standard_normal((hidden, c)) / np.sqrt(c)
        kappa_w = rng.standard_normal(hidden) / np.sqrt(hidden)
    else:
        proj_w = None
        kappa_w = rng.standard_normal(c * h * w) / np.sqrt(c * h * w)
    return HeadParams(gem_p=gem_p, proj_w=proj_w, kappa_w=kappa_w, kappa_b=0.0,
                      variant=variant)


def softplus(x):
    """Overflow-safe ln(1 + e^x)."""
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _gem(x, p: float):
    """GeM over the spatial axes of an (n, c, h, w) batch.

    Returns (clipped map max(x, 0), per-channel mean of clipped^p, pooled).
    """
    s = np.maximum(x, 0.0)
    mean_sp = np.mean(s ** p, axis=(2, 3))
    return s, mean_sp, mean_sp ** (1.0 / p)


def aggregate(fms, p: float) -> dict:
    """The aggregation step shared with the descriptor path: L2-normalize
    the channel vector at every position of an (n, c, h, w) batch, then
    GeM-pool.  Returns the pooled (n, c) vectors under "g" together with
    the intermediates the backward pass reads ("s", "mean_sp")."""
    norms = np.linalg.norm(fms, axis=1, keepdims=True)
    u = fms / np.maximum(norms, _NORM_EPS)
    s, mean_sp, g = _gem(u, p)
    return {"u": u, "s": s, "mean_sp": mean_sp, "g": g}


def kappa_from_pooled(g, params: HeadParams):
    """The head proper on pooled (n, c) vectors: project, map to a scalar,
    softplus.  Returns (kappas, hidden activations, pre-activations)."""
    hid = g @ params.proj_w.T                          # (n, hidden)
    pre = hid @ params.kappa_w + params.kappa_b        # (n,)
    return softplus(pre), hid, pre


def forward_batch(fms, params: HeadParams):
    """Forward pass for a (n, c, h, w) batch of feature maps, or for the
    (n, c) rows `aggregate` pooled from such maps at params.gem_p, which
    skips the pooling.  Pooled rows suit only the aggregation variant
    with a frozen exponent: training gem_p reads the maps.
    Returns (kappas, cache)."""
    fms = np.asarray(fms, dtype=np.float64)
    pooled = fms.ndim == 2
    if fms.ndim != 4 and not pooled:
        raise ValueError("expected a (n, c, h, w) batch or (n, c) pooled rows, "
                         f"got shape {fms.shape}")
    if params.variant is HeadVariant.LINEAR_ONLY:
        if pooled:
            raise ValueError("the linear-only head reads feature maps, "
                             "not pooled rows")
        flat = fms.reshape(fms.shape[0], -1)
        if flat.shape[1] != params.kappa_w.shape[0]:
            raise ValueError(
                f"feature size {flat.shape[1]} does not match head "
                f"weights {params.kappa_w.shape[0]}"
            )
        pre = flat @ params.kappa_w + params.kappa_b
        return softplus(pre), {"flat": flat, "pre": pre}

    if params.proj_w is None:
        raise ValueError("aggregation variant requires proj_w")
    if fms.shape[1] != params.proj_w.shape[1]:
        raise ValueError(
            f"channel count {fms.shape[1]} does not match proj_w {params.proj_w.shape}"
        )
    if pooled and params.train_gem_p:
        raise ValueError("training gem_p needs the feature maps, not pooled rows")
    cache = {"g": fms} if pooled else aggregate(fms, params.gem_p)
    kappas, cache["hid"], cache["pre"] = kappa_from_pooled(cache["g"], params)
    return kappas, cache


def backward_batch(cache, params: HeadParams, upstream) -> HeadGrads:
    """Parameter gradients for a batch; `upstream` is dL/dkappa per sample.

    Gradients are summed over the batch (pass upstream/n for a mean loss).
    The pooling intermediates ("s", "mean_sp") are read only when gem_p
    trains, so a cache from pooled rows serves every other case.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    d_pre = upstream * _sigmoid(cache["pre"])          # (n,)

    if params.variant is HeadVariant.LINEAR_ONLY:
        return HeadGrads(
            gem_p=0.0,
            proj_w=None,
            kappa_w=cache["flat"].T @ d_pre,
            kappa_b=float(d_pre.sum()),
        )

    g, hid = cache["g"], cache["hid"]
    d_kappa_w = hid.T @ d_pre
    d_kappa_b = float(d_pre.sum())
    d_hid = np.outer(d_pre, params.kappa_w)            # (n, hidden)
    d_proj_w = d_hid.T @ g                             # (hidden, c)

    d_gem_p = 0.0
    if params.train_gem_p:
        s, mean_sp, p = cache["s"], cache["mean_sp"], params.gem_p
        d_g = d_hid @ params.proj_w                    # (n, c)
        # g = M^{1/p}, M = mean s^p:  dg/dp = g(-ln M / p^2 + (mean s^p ln s)/(p M))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_m = np.where(mean_sp > 0.0, np.log(np.maximum(mean_sp, 1e-300)), 0.0)
            s_log = np.where(s > 0.0, (s ** p) * np.log(np.maximum(s, 1e-300)), 0.0)
        mean_slog = s_log.mean(axis=(2, 3))
        dg_dp = np.where(
            mean_sp > 0.0,
            g * (-log_m / p**2 + mean_slog / (p * np.maximum(mean_sp, 1e-300))),
            0.0,
        )
        d_gem_p = float(np.sum(d_g * dg_dp))

    return HeadGrads(gem_p=d_gem_p, proj_w=d_proj_w, kappa_w=d_kappa_w,
                     kappa_b=d_kappa_b)
