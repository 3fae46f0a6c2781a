"""Optimization: the linear encoder, margin-based classification loss,
the Gaussian-NLL ablation, Adam, and the two training settings
(post-training of the kappa head against a frozen embedding space, and
joint training of encoder + prototypes + head), which share one epoch,
Adam and early-stopping driver and differ in their per-batch objective.
A trainer's arrays (the (d, m) encoder weights, the (C, d) unit
prototypes and the head's dict of arrays) are copied once into one flat
float64 vector, and each array it updates is a view of that vector.
A trainer takes the per-sample arrays it trains on as bare arrays (no
record type); `_fit` checks that they share one length and is the one
place that gathers a batch from them.

The vMF objective anchors each sample to its class prototype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .calibration import FieldError
from .head import backward_batch, forward_batch
from .vmf import vmf_batch_nll


class TrainMode(str, Enum):  # fit's objective; train has one of its own
    POST_TRAINING = "post_training"
    GNLL_VARIANT = "gnll_variant"


@dataclass
class TrainConfig:
    mode: TrainMode = TrainMode.POST_TRAINING
    lam: float = 0.01          # weight of the vMF term in the joint objective
    lr: float = 0.05
    batch_size: int = 32
    patience: int = 15
    max_epochs: int = 300
    warmup: int = 10           # epochs excluded from checkpoint selection
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise FieldError("lr", "> 0", self.lr)
        for key, low in (("lam", 0), ("warmup", 0), ("batch_size", 1),
                         ("patience", 1), ("max_epochs", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise FieldError(key, f">= {low}", getattr(self, key))
        if self.warmup >= self.max_epochs:
            # no epoch would be selectable: the fit would keep its start
            raise ValueError(f"require warmup < max_epochs, got warmup "
                             f"{self.warmup} and max_epochs {self.max_epochs}")


@dataclass
class LmclConfig:
    """Large-margin cosine loss hyperparameters (scaled cosine softmax)."""

    scale: float = 30.0
    margin: float = 0.35

    def __post_init__(self):
        if self.scale <= 0:
            raise FieldError("scale", "> 0", self.scale)
        if not 0 <= self.margin < 1:
            raise FieldError("margin", "in [0, 1)", self.margin)


def encode(weights: np.ndarray, raw) -> np.ndarray:
    """The desk-scale stand-in for a backbone: an (n, m) batch of raw
    features to the unit descriptors normalize(raw @ weights.T), (n, d),
    under the (d, m) encoder `weights`."""
    raw = np.atleast_2d(np.asarray(raw, dtype=np.float64))
    z = raw @ weights.T
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# --- losses -----------------------------------------------------------------


def _check_labels(labels, c: int) -> np.ndarray:
    """The labels as int64, or a ValueError naming the first one outside
    [0, C) and its row: a negative label would index a prototype row from
    the end.  Each trainer calls it once, on the fit's data, before its
    first step."""
    labels = np.asarray(labels, dtype=np.int64)
    bad = np.flatnonzero((labels < 0) | (labels >= c))
    if bad.size:
        raise ValueError(f"label {labels[bad[0]]} at row {bad[0]} outside "
                         f"[0, {c})")
    return labels


def lmcl_batch(z, prototype_weights, labels, cfg: LmclConfig):
    """Mean large-margin cosine loss over a batch of n embeddings.

    Cross-entropy over s * (cos_j - m * [j == label]), with cos_j = w_j.z
    taken against the raw prototype rows.  Returns (loss, grad wrt the
    (n, d) embeddings, grad wrt the (C, d) prototype matrix).  Each label
    must lie in [0, C), as `train_joint` checks once per fit.
    """
    b = len(labels)
    rows = np.arange(b)
    cos = z @ prototype_weights.T
    logits = cfg.scale * cos
    logits[rows, labels] -= cfg.scale * cfg.margin
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_norm - shifted[rows, labels]))
    d_logits = np.exp(shifted - log_norm[:, None])
    d_logits[rows, labels] -= 1.0
    d_cos = cfg.scale * d_logits / b
    return loss, d_cos @ prototype_weights, d_cos.T @ z


def gnll_batch(z, anchors, sigma_sq):
    """Mean isotropic Gaussian NLL over a batch of (n, d) rows, in ambient
    space.

    loss_i = |z_i - mu_i|^2 / (2 s2_i) + (d/2) ln s2_i.  Returns (mean loss,
    grad wrt z, grad wrt sigma_sq); the sigma_sq gradient is zero exactly
    at s2_i = |z_i - mu_i|^2 / d.
    """
    d = z.shape[1]
    diff = z - anchors
    sq = np.einsum("ij,ij->i", diff, diff)
    n = len(sigma_sq)
    loss = float(np.mean(sq / (2.0 * sigma_sq) + 0.5 * d * np.log(sigma_sq)))
    grad_s2 = (-sq / (2.0 * sigma_sq**2) + 0.5 * d / sigma_sq) / n
    return loss, diff / sigma_sq[:, None] / n, grad_s2


# --- Adam -------------------------------------------------------------------


# Kingma & Ba's moment decay rates and denominator guard; no caller sets them
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam's step count and its buffers over `size` parameters: the
    moments m and v, the gradient the next step reads, and two scratch
    arrays."""

    def __init__(self, size: int):
        self.t = 0
        self.m, self.v, self.grad, self.step, self.denom = (
            np.zeros(size) for _ in range(5))


def adam_step(theta: np.ndarray, state: AdamState, lr: float) -> None:
    """One Adam update of the flat float64 vector `theta`, in place, with
    the gradient in `state.grad`.

    m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and
    theta -= lr (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps),
    in place in the buffers of `state`, one operation at a time in that
    order: every entry gets the bits of the formula, without its
    temporary arrays.
    """
    state.t += 1
    m, v, g, step, den = state.m, state.v, state.grad, state.step, state.denom
    m *= ADAM_BETA1
    np.multiply(1 - ADAM_BETA1, g, out=step)
    m += step
    v *= ADAM_BETA2
    np.multiply(1 - ADAM_BETA2, g, out=step)
    step *= g
    v += step
    np.divide(v, 1 - ADAM_BETA2 ** state.t, out=den)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    np.divide(m, 1 - ADAM_BETA1 ** state.t, out=step)
    step *= lr
    step /= den
    theta -= step


# --- training loops ----------------------------------------------------------


def _fit(arrays: dict, loss_and_grads, samples: dict, cfg: TrainConfig,
         evaluate, watch: tuple, project=None):
    """The epoch loop both trainers run over their n samples.

    `samples` maps a name to each per-sample array, in the order
    `loss_and_grads` takes them; all must hold the same n >= 1 rows (else
    a ValueError naming the array, before theta is built).  The caller's
    `arrays` are copied once, in key order, into one flat float64 vector
    theta; `params` maps each key to its view of theta.  Each epoch
    slices one random permutation of the sample rows into index batches
    of cfg.batch_size, and this loop is the one place a batch is
    gathered.  Per batch, `loss_and_grads(params, *(a[idx] for a in
    samples.values())) -> (loss, grads)`, one gradient of each array's
    shape per key (else a ValueError before theta moves), feeds one Adam
    step on theta, followed by `project(params)` if given.  The epoch's
    history row holds epoch, mean loss, one value per `watch` metric
    (`evaluate(params)` returns them in order; NaN without `evaluate`)
    and the phase (1-based).

    `watch` is the early-stopping schedule: a tuple of phases, each a
    (metric, sign) pair.  A phase keeps the checkpoint with the lowest
    sign * metric; after cfg.patience epochs without an improvement
    beyond 1e-12 the next phase starts from a fresh best (the checkpoint
    carries over), or training stops after the last phase.  The first
    cfg.warmup epochs are never selected.  Without `evaluate` every epoch
    runs and the final parameters are the result.
    Returns (best params, as views of one vector, history rows).
    """
    n = len(next(iter(samples.values())))
    for name, value in samples.items():
        if len(value) != n:
            raise ValueError(f"{name} has {len(value)} rows, not {n}")
    if n == 0:
        raise ValueError("empty dataset")
    shapes = {key: np.shape(value) for key, value in arrays.items()}
    theta = np.concatenate([np.ravel(value) for value in arrays.values()],
                           dtype=np.float64)
    cuts = np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1]

    def views(vector):
        return {key: part.reshape(shape) for (key, shape), part
                in zip(shapes.items(), np.split(vector, cuts))}

    rng = np.random.default_rng(cfg.seed)
    state = AdamState(len(theta))
    params, grad = views(theta), views(state.grad)
    history = []
    names = [name for name, _ in watch]
    phase, stale, best = 0, 0, math.inf
    checkpoint = theta if evaluate is None else theta.copy()
    for epoch in range(cfg.max_epochs):
        epoch_loss = 0.0
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            loss, grads = loss_and_grads(params,
                                         *(a[idx] for a in samples.values()))
            if grads.keys() != shapes.keys():
                raise ValueError(f"Adam state holds keys {sorted(shapes)}, "
                                 f"got gradients for {sorted(grads)}")
            for key, g in grads.items():
                if np.shape(g) != shapes[key]:
                    raise ValueError(f"gradient shape {np.shape(g)} != param "
                                     f"shape {shapes[key]} for {key!r}")
                grad[key][...] = g
            adam_step(theta, state, cfg.lr)
            if project is not None:
                project(params)
            epoch_loss += loss * len(idx)
        values = (evaluate(params) if evaluate is not None
                  else [math.nan] * len(names))
        history.append({"epoch": epoch, "loss": epoch_loss / n,
                        **dict(zip(names, values)), "phase": phase + 1})

        if evaluate is None or epoch < cfg.warmup:
            continue
        name, sign = watch[phase]
        value = sign * history[-1][name]  # exact: negation never rounds
        if value < best - 1e-12:
            best, stale = value, 0
            checkpoint = theta.copy()
        else:
            stale += 1
            if stale >= cfg.patience:
                if phase + 1 == len(watch):
                    break
                phase, stale, best = phase + 1, 0, math.inf
    return views(checkpoint), history


def post_loss_and_grads(params: dict, features, z, anchors,
                        cfg: TrainConfig):
    """The post-training loss on one batch and its gradient w.r.t. `params`.

    The head predicts kappa from the (n, c) `features`.  The loss is the
    stable vMF NLL of the frozen (n, d) descriptors `z` around their
    (n, d) `anchors`, each sample's class prototype; under GNLL_VARIANT it
    is the Gaussian NLL with sigma^2 = 1 / kappa.  `params` is the head.
    Returns (loss, grads) with one gradient per entry of `params`.
    """
    kappas, cache = forward_batch(features, params)
    if cfg.mode is TrainMode.GNLL_VARIANT:
        s2 = 1.0 / kappas
        loss, _, g_s2 = gnll_batch(z, anchors, s2)
        up = -g_s2 * s2**2                 # d(1 / kappa) / dkappa = -s2^2
    else:
        loss, up = vmf_batch_nll(z, anchors, kappas)[:2]
    return loss, backward_batch(cache, params, up)


def train_post(features, descriptors, labels, prototypes: np.ndarray,
               head: dict, cfg: TrainConfig, eval_hook=None):
    """Train only the kappa head on the pooled (n, c) `features` against
    the frozen (n, d) `descriptors` and the (C, d) unit `prototypes`.

    The per-batch objective is `post_loss_and_grads`, on anchors gathered
    once per fit after one label check (`_check_labels`).  Early stopping
    tracks the eval_hook metric (lower is better, e.g. validation ECE@1)
    with the configured patience; the first cfg.warmup epochs are
    excluded from checkpoint selection (the untrained head can hit
    spurious calibration minima before it has learned any ordering).
    A copy of `head` is trained; the caller's is left as it was.  The best
    checkpoint is returned.  `eval_hook(head) -> metric`.
    Returns (trained head, history rows).
    """
    anchors = prototypes[_check_labels(labels, len(prototypes))]

    def evaluate(p):
        return (float(eval_hook(p)),)

    # each anchor is its label's prototype row: a short label vector is
    # reported under its own name
    return _fit(head, partial(post_loss_and_grads, cfg=cfg),
                {"features": features, "descriptors": descriptors,
                 "labels": anchors}, cfg,
                evaluate if eval_hook is not None else None,
                (("metric", +1),))


def joint_loss_and_grads(params: dict, features, x, labels,
                         cfg: TrainConfig, lmcl: LmclConfig):
    """L_cls + lam * L_vMF on one batch and its gradient w.r.t. `params`.

    `params` holds "encoder" (d, m) and "prototypes" (C, d), and the
    head's entries when it is trained too.  The vMF term runs when
    lam > 0 and `params` holds the head.  The encoder output is
    z = normalize(W x) of the (n, m) raw rows `x`; the kappa head reads
    the (n, c) `features`.  The vMF term anchors each sample to its class
    prototype, so it reaches the prototypes too.  Labels lie in [0, C).
    Returns (loss, grads) with one gradient per trained entry.
    """
    zraw = x @ params["encoder"].T
    norms = np.linalg.norm(zraw, axis=1, keepdims=True)
    z = zraw / norms
    loss, d_z, d_proto = lmcl_batch(z, params["prototypes"], labels, lmcl)

    grads = {}
    if cfg.lam > 0.0 and "proj_w" in params:
        anchors = params["prototypes"][labels]
        kappas, cache = forward_batch(features, params)
        vmf = vmf_batch_nll(z, anchors, kappas)
        loss = loss + cfg.lam * vmf.loss
        grads.update(backward_batch(cache, params, cfg.lam * vmf.kappa))
        d_z = d_z + cfg.lam * vmf.z
        np.add.at(d_proto, labels, cfg.lam * vmf.mu)

    # through the L2 normalization of the encoder output
    d_zraw = (d_z - z * np.einsum("ij,ij->i", z, d_z)[:, None]) / norms
    grads["encoder"] = d_zraw.T @ x
    grads["prototypes"] = d_proto
    return loss, grads


def _renormalize(rows: np.ndarray) -> None:
    """Re-project the rows onto the sphere, in place."""
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)


def train_joint(features, raw, labels, encoder: np.ndarray,
                prototypes: np.ndarray, head: dict | None, cfg: TrainConfig,
                lmcl: LmclConfig, eval_hook=None):
    """Jointly train the (d, m) `encoder` weights, the (C, d) unit
    `prototypes`, and the kappa head when lam > 0 and `head` is given, on
    the (n, m) `raw` rows the encoder reads and the pooled (n, c)
    `features` the head reads.

    Objective: L_cls + lam * L_vMF per batch (`joint_loss_and_grads`).
    With lam == 0 (or head is None) the vMF term is skipped entirely, so
    the encoder/prototype trajectory is bit-identical to
    classification-only training, and no head is trained or returned.
    Prototypes are renormalized after every step; labels are checked once.

    Phased early stopping: phase 1 tracks Recall@1 until patience is
    exhausted; with a head, phase 2 continues while tracking ECE@1 with
    refreshed patience.  `eval_hook(encoder, prototypes, head)` sees the
    live arrays, views of the fit's vector, and returns (recall1, ece1),
    or (recall1,) when no head is trained (head None).  `_fit` trains a
    copy; the caller's arrays are left as they were.  With an eval hook
    the checkpoint's are returned, its prototypes renormalized once more.
    Returns (encoder, prototypes, head, history).
    """
    labels = _check_labels(labels, len(prototypes))
    head = head if cfg.lam > 0.0 else None

    def head_of(p):
        return None if head is None else {key: p[key] for key in head}

    def evaluate(p):
        return eval_hook(p["encoder"], p["prototypes"], head_of(p))

    watch = (("recall1", -1),) if head is None else \
        (("recall1", -1), ("ece1", +1))
    best, history = _fit(
        {"encoder": encoder, "prototypes": prototypes, **(head or {})},
        partial(joint_loss_and_grads, cfg=cfg, lmcl=lmcl),
        {"features": features, "raw": raw, "labels": labels}, cfg,
        evaluate if eval_hook is not None else None, watch,
        project=lambda p: _renormalize(p["prototypes"]))
    if eval_hook is not None:
        _renormalize(best["prototypes"])
    return best["encoder"], best["prototypes"], head_of(best), history
