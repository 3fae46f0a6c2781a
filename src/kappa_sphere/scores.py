"""Per-query and per-pair uncertainty scores.

All methods emit "higher = more uncertain".  Concentrations are floored
at 1.0 before any fusion, matching the evaluation protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .retrieval import DescriptorBank, RetrievalResult
from .vmf import DEFAULT_UNCERTAINTY_CAP, ResultantUncertainty, resultant_uncertainty

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


class MissingPosesError(MissingInputError):
    """SUE needs reference poses; single-positive datasets have none."""


class MissingKappasError(MissingInputError):
    """A kappa-based score was asked for before kappas were predicted."""


@dataclass
class ScoredQuery:
    query_id: int
    score: float
    method: str
    degenerate: bool = False


@dataclass
class ScoredPair:
    query_id: int
    ref_id: int
    score: float
    is_positive: bool
    degenerate: bool = False


def floor_kappa(kappa) -> float:
    return max(float(kappa), KAPPA_FLOOR)


def query_uncertainty(kappa_q, kappa_r1, cos_qr1,
                      cap: float = DEFAULT_UNCERTAINTY_CAP) -> ResultantUncertainty:
    """Inverse resultant magnitude of the query fused with its top-1 match."""
    return resultant_uncertainty(floor_kappa(kappa_q), floor_kappa(kappa_r1),
                                 cos_qr1, cap=cap)


def query_uncertainty_inverse_kappa(kappa_q) -> float:
    """Naive ablation: 1 / kappa after flooring; lies in (0, 1]."""
    return 1.0 / floor_kappa(kappa_q)


def match_uncertainty(kappa_q, kappa_r, cos_qr,
                      cap: float = DEFAULT_UNCERTAINTY_CAP) -> ResultantUncertainty:
    """Resultant uncertainty of an arbitrary query-reference pair."""
    return resultant_uncertainty(floor_kappa(kappa_q), floor_kappa(kappa_r),
                                 cos_qr, cap=cap)


def l2_distance(cos) -> float:
    """L2 distance of two unit vectors from their cosine: sqrt(2 - 2 cos),
    with the cosine clamped to [-1, 1]."""
    c = min(1.0, max(-1.0, float(cos)))
    return math.sqrt(max(2.0 - 2.0 * c, 0.0))


def baseline_l2(result: RetrievalResult) -> float:
    """Top-match L2 distance, strictly decreasing in cosine."""
    return l2_distance(result.similarities[0])


def baseline_pa(result: RetrievalResult) -> float:
    """Nearest-neighbor distance ratio d1/d2 in [0, 1]; ties give 1."""
    if len(result.similarities) < 2:
        raise MissingInputError("PA score needs at least 2 retrieved neighbors")
    d1 = l2_distance(result.similarities[0])
    d2 = l2_distance(result.similarities[1])
    if d2 == 0.0:
        return 1.0  # both distances zero: maximal ambiguity
    return d1 / d2


def baseline_sue(result: RetrievalResult, bank: DescriptorBank, k: int) -> float:
    """Spatial spread of the top-k poses: trace of the similarity-weighted
    pose covariance, with softmax weights over the cosines (temperature 1).

    Zero iff all top-k poses coincide.  Invariant to a uniform additive
    shift of the similarities (softmax shift invariance).
    """
    if bank.poses is None:
        raise MissingPosesError("SUE requires reference poses")
    if k < 2 or len(result.ref_indices) < k:
        raise MissingInputError("SUE needs at least 2 retrieved neighbors")
    sims = result.similarities[:k]
    poses = bank.poses[result.ref_indices[:k]]
    w = np.exp(sims - sims.max())
    w /= w.sum()
    mean = w @ poses
    centered = poses - mean
    return float(np.sum(w * np.einsum("ij,ij->i", centered, centered)))


def sue_log(value: float) -> float:
    """Log-compressed SUE: ln(1 + v)."""
    return math.log1p(value)


def score_query(method: str, result: RetrievalResult, bank: DescriptorBank,
                kappa_q: float | None = None, k: int | None = None,
                cap: float = DEFAULT_UNCERTAINTY_CAP) -> ScoredQuery:
    """Score one query under the given method tag."""
    degenerate = False
    if method == METHOD_RESULTANT:
        if bank.kappas is None or kappa_q is None:
            raise MissingKappasError("resultant score requires predicted kappas")
        top = result.ref_indices[0]
        ru = query_uncertainty(kappa_q, bank.kappas[top],
                               result.similarities[0], cap=cap)
        score, degenerate = ru.value, ru.degenerate
    elif method == METHOD_INV_KAPPA:
        if kappa_q is None:
            raise MissingKappasError("inverse-kappa score requires a predicted kappa")
        score = query_uncertainty_inverse_kappa(kappa_q)
    elif method == METHOD_L2:
        score = baseline_l2(result)
    elif method == METHOD_PA:
        score = baseline_pa(result)
    elif method == METHOD_SUE:
        score = baseline_sue(result, bank, k if k is not None else len(result.ref_ids))
    elif method == METHOD_SUE_LOG:
        score = sue_log(baseline_sue(result, bank,
                                     k if k is not None else len(result.ref_ids)))
    else:
        raise ValueError(f"unknown method {method!r}")
    return ScoredQuery(query_id=result.query_id, score=score, method=method,
                       degenerate=degenerate)
