"""The concentration head: a lightweight regressor from a feature map to
a strictly positive scalar kappa.

It mirrors a retrieval aggregation stack: per-position L2 channel
normalization -> GeM pooling over space at the fixed exponent ``GEM_P``
-> linear projection -> linear-to-scalar -> softplus.

The feature maps come from a frozen backbone and the exponent is fixed,
so the pooled rows are a constant of a fit: ``aggregate`` pools a scene's
maps once (``SynthDataset.head_inputs``), and ``forward_batch`` /
``backward_batch`` run the head proper on those (n, c) rows.  Each pooled
row does not depend on the batch it was pooled in.

A head is the dict of its trainable float64 arrays (``init_head``), the
form Adam updates in place; its gradients come under the same keys.

Forward and backward are hand-written numpy; every gradient is checked
against central finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np

_NORM_EPS = 1e-12
GEM_P = 3.0   # the GeM exponent every head pools with


def init_head(feature_shape, hidden: int = 64, rng=None) -> dict:
    """A head at a small random initialization scaled by fan-in: the dict
    of the float64 arrays Adam trains, "proj_w" (hidden, channels),
    "kappa_w" (hidden,) and "kappa_b" (1,)."""
    rng = np.random.default_rng(rng)
    c = feature_shape[0]
    proj_w = rng.standard_normal((hidden, c)) / np.sqrt(c)
    kappa_w = rng.standard_normal(hidden) / np.sqrt(hidden)
    return {"proj_w": proj_w, "kappa_w": kappa_w, "kappa_b": np.zeros(1)}


def softplus(x):
    """Overflow-safe ln(1 + e^x)."""
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _gem(x, p: float):
    """GeM at exponent `p` over the spatial axes of an (n, c, h, w) float64
    batch: the per-channel mean of max(x, 0)^p, to the power 1/p.  Pools
    in place: `x` is overwritten."""
    y = np.maximum(x, 0.0, out=x)
    # the bits of y ** p: a zero (or -0.0) powers to itself, a NaN is no
    # entry > 0 and stays NaN
    np.power(y, p, out=y, where=y > 0.0)
    mean_sp = np.mean(y, axis=(2, 3))
    return mean_sp ** (1.0 / p)


def aggregate(fms) -> np.ndarray:
    """The aggregation step shared with the descriptor path: L2-normalize
    the channel vector at every position of an (n, c, h, w) batch, then
    GeM-pool at GEM_P.  Returns the pooled (n, c) rows."""
    norms = np.linalg.norm(fms, axis=1, keepdims=True)
    return _gem(fms / np.maximum(norms, _NORM_EPS), GEM_P)


def kappa_from_pooled(g, head: dict):
    """The head proper on pooled (n, c) vectors: project, map to a scalar,
    softplus.  Returns (kappas, hidden activations, pre-activations)."""
    hid = g @ head["proj_w"].T                         # (n, hidden)
    pre = hid @ head["kappa_w"] + head["kappa_b"]      # (n,)
    return softplus(pre), hid, pre


def forward_batch(rows, head: dict):
    """Forward pass for the (n, c) rows `aggregate` pooled from feature
    maps.  `head` may hold other entries too; only the head's are read.
    Returns (kappas, cache)."""
    rows = np.asarray(rows, dtype=np.float64)
    c = head["proj_w"].shape[1]
    if rows.ndim != 2 or rows.shape[1] != c:
        raise ValueError(f"expected pooled rows of shape (n, {c}), "
                         f"got shape {rows.shape}")
    kappas, hid, pre = kappa_from_pooled(rows, head)
    return kappas, {"g": rows, "hid": hid, "pre": pre}


def backward_batch(cache, head: dict, upstream) -> dict:
    """The head's gradients for a batch, under its keys; `upstream` is
    dL/dkappa per sample.

    Gradients are summed over the batch (pass upstream/n for a mean loss).
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    d_pre = upstream * _sigmoid(cache["pre"])          # (n,)
    d_hid = np.outer(d_pre, head["kappa_w"])           # (n, hidden)
    return {"proj_w": d_hid.T @ cache["g"],            # (hidden, c)
            "kappa_w": cache["hid"].T @ d_pre,
            "kappa_b": d_pre.sum(keepdims=True)}
