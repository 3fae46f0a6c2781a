"""Per-query and per-pair uncertainty scores.

All methods emit "higher = more uncertain".  Concentrations are floored
at 1.0 before any fusion, matching the evaluation protocol.
"""

from __future__ import annotations

import math

import numpy as np

from .retrieval import DescriptorBank, RetrievalResult
from .vmf import ResultantUncertainty, resultant_uncertainty

KAPPA_FLOOR = 1.0

# method tags used in reports and the CLI
METHOD_RESULTANT = "resultant"       # kappa-fused resultant-vector score
METHOD_INV_KAPPA = "inv_kappa"       # naive 1/kappa ablation
METHOD_L2 = "l2"
METHOD_PA = "pa"
METHOD_SUE = "sue"
METHOD_SUE_LOG = "sue_log"

ALL_METHODS = (METHOD_RESULTANT, METHOD_INV_KAPPA, METHOD_L2, METHOD_PA,
               METHOD_SUE, METHOD_SUE_LOG)

# two-sided clamping for the kappa-derived scores, one-sided for the
# naturally one-sided baselines
TWO_SIDED_METHODS = frozenset({METHOD_RESULTANT, METHOD_INV_KAPPA})


class MissingInputError(ValueError):
    """A score's input is absent: poses, kappas, or a second neighbor."""


def floor_kappa(kappa):
    """max(kappa, 1.0), elementwise."""
    return np.maximum(kappa, KAPPA_FLOOR)


def match_uncertainty(kappa_q, kappa_r, cos_qr) -> ResultantUncertainty:
    """Resultant uncertainty of query-reference pairs after flooring both
    kappas, elementwise; the query-level score is the top-1 pair."""
    return resultant_uncertainty(floor_kappa(kappa_q), floor_kappa(kappa_r),
                                 cos_qr)


def query_uncertainty_inverse_kappa(kappa_q):
    """Naive ablation: 1 / kappa after flooring; lies in (0, 1]."""
    return 1.0 / floor_kappa(kappa_q)


def l2_distance(cos):
    """L2 distance of two unit vectors from their cosine: sqrt(2 - 2 cos),
    with the cosine clamped to [-1, 1]; elementwise."""
    return np.sqrt(np.maximum(2.0 - 2.0 * np.clip(cos, -1.0, 1.0), 0.0))


def baseline_l2(result: RetrievalResult) -> np.ndarray:
    """Top-match L2 distance per query, strictly decreasing in cosine."""
    return l2_distance(result.similarities[:, 0])


def baseline_pa(result: RetrievalResult) -> np.ndarray:
    """Nearest-neighbor distance ratio d1/d2 per query, in [0, 1]; ties
    give 1."""
    if result.similarities.shape[1] < 2:
        raise MissingInputError("PA score needs at least 2 retrieved neighbors")
    d1 = l2_distance(result.similarities[:, 0])
    d2 = l2_distance(result.similarities[:, 1])
    # both distances zero: maximal ambiguity
    return np.divide(d1, d2, out=np.ones_like(d1), where=d2 != 0.0)


def baseline_sue(result: RetrievalResult, bank: DescriptorBank,
                 k: int) -> np.ndarray:
    """Spatial spread of each query's top-k poses: trace of the
    similarity-weighted pose covariance, with softmax weights over the
    cosines (temperature 1).

    Zero iff all top-k poses coincide.  Invariant to a uniform additive
    shift of the similarities (softmax shift invariance).
    """
    if bank.poses is None:
        raise MissingInputError("SUE requires reference poses")
    if k < 2 or result.ref_indices.shape[1] < k:
        raise MissingInputError("SUE needs at least 2 retrieved neighbors")
    sims = result.similarities[:, :k]
    poses = bank.poses[result.ref_indices[:, :k]]          # (n, k, 2)
    w = np.exp(sims - sims.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    mean = (w[:, None, :] @ poses)[:, 0]
    centered = poses - mean[:, None, :]
    return np.sum(w * np.einsum("nij,nij->ni", centered, centered), axis=1)


# libm's log1p: numpy's vectorised log1p differs from it in the last bit
# on some inputs, and the reports pin these values
_log1p = np.vectorize(math.log1p, otypes=[np.float64])


def sue_log(value):
    """Log-compressed SUE: ln(1 + v), elementwise."""
    return _log1p(value)[()]


def score_query(method: str, result: RetrievalResult, bank: DescriptorBank,
                kappa_q=None, k: int | None = None) -> ResultantUncertainty:
    """Score every query of `result` under the given method tag.

    `kappa_q` holds the (n,) query kappas.  Returns the (n,) value and
    degenerate arrays; only the resultant score can be degenerate.
    """
    if method == METHOD_RESULTANT:
        if bank.kappas is None or kappa_q is None:
            raise MissingInputError("resultant score requires predicted kappas")
        return match_uncertainty(kappa_q, bank.kappas[result.ref_indices[:, 0]],
                                 result.similarities[:, 0])
    k = k if k is not None else result.ref_indices.shape[1]
    if method == METHOD_INV_KAPPA:
        if kappa_q is None:
            raise MissingInputError("inverse-kappa score requires a predicted kappa")
        value = query_uncertainty_inverse_kappa(kappa_q)
    elif method == METHOD_L2:
        value = baseline_l2(result)
    elif method == METHOD_PA:
        value = baseline_pa(result)
    elif method == METHOD_SUE:
        value = baseline_sue(result, bank, k)
    elif method == METHOD_SUE_LOG:
        value = sue_log(baseline_sue(result, bank, k))
    else:
        raise ValueError(f"unknown method {method!r}")
    value = np.asarray(value, dtype=np.float64)
    return ResultantUncertainty(value, np.zeros(value.shape, dtype=bool))
