"""Per-query and per-pair uncertainty scores, and METHODS, the one table
of them: each score's levels, inputs, clamp and batched scorer.

All methods emit "higher = more uncertain".  Concentrations are floored
at 1.0 before any fusion, matching the evaluation protocol.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .calibration import ClampMode
from .retrieval import SUE_K, RetrievalResult, Rows
from .vmf import ResultantUncertainty, resultant_uncertainty

KAPPA_FLOOR = 1.0

# the levels a score can have a form at: per query, per query-reference pair
LEVELS = QUERY, MATCH = ("query", "match")


class MissingInputError(ValueError):
    """A score's input is absent: kappas, or a second neighbor."""


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


def baseline_pa(result: RetrievalResult) -> np.ndarray:
    """Nearest-neighbor distance ratio d1/d2 per query, in [0, 1]; ties
    give 1."""
    d1 = l2_distance(result.similarities[:, 0])
    d2 = l2_distance(result.similarities[:, 1])
    # both distances zero: maximal ambiguity
    return np.divide(d1, d2, out=np.ones_like(d1), where=d2 != 0.0)


def baseline_sue(result: RetrievalResult, db: Rows, k: int) -> np.ndarray:
    """Spatial spread of each query's top-k poses: trace of the
    similarity-weighted pose covariance, with softmax weights over the
    cosines (temperature 1).

    Zero iff all top-k poses coincide.  Invariant to a uniform additive
    shift of the similarities (softmax shift invariance).
    """
    sims = result.similarities[:, :k]
    poses = db.poses[result.ref_indices[:, :k]]            # (n, k, 2)
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


class Method(NamedTuple):
    """A score of the table."""

    name: str           # its tag in reports and the CLI
    levels: tuple       # the levels it has a form at
    needs: dict         # input it reads -> why it is unsupported without it
    clamp: ClampMode    # of its binning
    score: Callable     # batched scorer of the inputs `_score` gathers


_SUE = {"neighbours": "SUE needs at least 2 retrieved neighbors"}
_TWO, _HIGH = ClampMode.TWO_SIDED, ClampMode.ONE_SIDED_HIGH

# Two-sided clamping for the kappa-derived scores, high tail only for the
# naturally one-sided baselines.  A scorer looks this module's functions up
# by name when it runs, so a tracer that replaces one here sees its calls.
METHODS = (
    Method("resultant", LEVELS, dict.fromkeys(  # kappa-fused resultant vector
        ("kappa_q", "kappa_r"), "resultant score requires predicted kappas"),
        _TWO, lambda x: match_uncertainty(x.kappa_q, x.kappa_r, x.cos)),
    Method("inv_kappa", (QUERY,),  # the naive 1/kappa ablation
           {"kappa_q": "inverse-kappa score requires a predicted kappa"},
           _TWO, lambda x: query_uncertainty_inverse_kappa(x.kappa_q)),
    Method("l2", LEVELS, {}, _HIGH, lambda x: l2_distance(x.cos)),
    Method("pa", (QUERY,),
           {"neighbours": "PA score needs at least 2 retrieved neighbors"},
           _HIGH, lambda x: baseline_pa(x.result)),
    Method("sue", (QUERY,), _SUE, _HIGH,
           lambda x: baseline_sue(x.result, x.db, x.neighbours)),
    Method("sue_log", (QUERY,), _SUE, _HIGH,
           lambda x: sue_log(baseline_sue(x.result, x.db, x.neighbours))),
)
(METHOD_RESULTANT, METHOD_INV_KAPPA, METHOD_L2, METHOD_PA, METHOD_SUE,
 METHOD_SUE_LOG) = ALL_METHODS = tuple(m.name for m in METHODS)


def methods_at(level: str) -> tuple:
    """The names of the methods with a `level` form, in table order."""
    return tuple(m.name for m in METHODS if level in m.levels)


def _score(level, name, result, db, kappa_q, cols):
    """Method `name`'s `level` scores of the columns `cols` of `result`, a
    search against the rows `db`, or the MissingInputError of the first
    input it needs that is None.  SUE's neighbourhood is the top
    min(SUE_K, K) of the K-deep search."""
    if name not in methods_at(level):
        raise ValueError(f"unknown {level}-level method {name!r}")
    record = METHODS[ALL_METHODS.index(name)]
    k = min(SUE_K, result.ref_indices.shape[1])
    x = SimpleNamespace(  # a neighbourhood of fewer than 2 neighbours is None
        cos=result.similarities[:, cols], kappa_q=kappa_q,
        kappa_r=None if db.kappas is None
        else db.kappas[result.ref_indices[:, cols]],
        neighbours=k if k >= 2 else None,
        result=result, db=db)
    for need, reason in record.needs.items():
        if getattr(x, need) is None:
            raise MissingInputError(reason)
    value = record.score(x)
    if isinstance(value, ResultantUncertainty):
        return value
    value = np.asarray(value, dtype=np.float64)
    return ResultantUncertainty(value, np.zeros(value.shape, dtype=bool))


def score_query(method: str, result: RetrievalResult, db: Rows,
                kappa_q=None) -> ResultantUncertainty:
    """Score every query of `result`, a K-deep search against `db`, under
    the given method tag.

    `kappa_q` holds the (n,) query kappas; SUE spreads the top
    min(SUE_K, K) db poses.  Returns the (n,) value and degenerate
    arrays; only the resultant score can be degenerate.
    """
    return _score(QUERY, method, result, db, kappa_q, 0)


def score_pairs(method: str, result: RetrievalResult, db: Rows,
                kappa_q=None) -> ResultantUncertainty:
    """Score every query-reference pair of `result`, a search against
    `db`, under the given method tag; `kappa_q` holds the (n,) query
    kappas.  Returns (n, K) arrays."""
    return _score(MATCH, method, result, db,
                  None if kappa_q is None else kappa_q[:, None], slice(None))
