"""End-to-end plumbing on synthetic scenes: fit the kappa head, predict
concentrations, score queries, and produce calibration reports.

The evaluation protocol mirrors the training-time conventions: kappas are
floored at 1.0 when scores are built, and each score is clamped at the
1st/99th percentiles on the tails `scores.METHODS` gives it (both for the
kappa-derived scores, the high one for the naturally one-sided baselines).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import scores as sc
from .calibration import BinningConfig, ece_at_k, match_ece_at_k
from .head import forward_batch, init_head
from .retrieval import (DEFAULT_KS, DEFAULT_TAU, SUE_K, RetrievalResult,
                        Rows, batch_knn, mark_successes, positive_mask,
                        recall_at_k)
from .synth import SynthDataset
from .training import LmclConfig, TrainConfig, encode, train_joint, train_post

VALIDATION_FRACTION = 0.1


def binning_for(method: str,
                binning: BinningConfig | None = None) -> BinningConfig:
    """`binning` (the BinningConfig defaults when None) with the clamp
    `scores.METHODS` gives `method`."""
    return replace(binning or BinningConfig(),
                   clamp=sc.METHODS[sc.ALL_METHODS.index(method)].clamp)


def predict_kappas(rows, head: dict) -> np.ndarray:
    """kappa per pooled (n, c) row, as `SynthDataset.head_inputs` holds
    them."""
    kappas, _ = forward_batch(rows, head)
    return kappas


def _fit_rows(dataset: SynthDataset, seed: int):
    """The fit portion of the train split, in split order, and a fixed 10%
    of it (in a permutation drawn from `seed`) held out as calibration
    validation.  Returns (fit_idx, val_idx)."""
    train_idx = dataset.splits["train"]
    perm = np.random.default_rng(seed + 7919).permutation(len(train_idx))
    n_val = max(1, int(round(VALIDATION_FRACTION * len(train_idx))))
    return train_idx[np.sort(perm[n_val:])], train_idx[perm[:n_val]]


class _Validation:
    """One fit's calibration validation: the validation rows `val_idx`
    searched against the db split, positives within `tau`, ECE binned by
    `binning`.  The poses and pooled rows the checks read are gathered
    once per fit; the descriptors are the caller's."""

    def __init__(self, dataset: SynthDataset, val_idx, tau: float,
                 binning: BinningConfig | None):
        db_idx = dataset.splits["db"]
        poses, pooled = dataset.rows.poses, dataset.head_inputs
        self.db, self.queries = Rows(poses[db_idx]), Rows(poses[val_idx])
        self.pooled, self.db_pooled = pooled[val_idx], pooled[db_idx]
        self.tau = tau
        self.binning = binning_for(sc.METHOD_RESULTANT, binning)

    def search(self, val_desc, db_desc) -> tuple:
        """Top-1 search of validation descriptors against db descriptors,
        and its (n, 1) success flags."""
        results = batch_knn(val_desc, db_desc, 1)
        return results, mark_successes(results, self.db, self.queries,
                                       self.tau)

    def ece1(self, results: RetrievalResult, success, head: dict) -> float:
        """Resultant-score ECE@1 of a `search`, its `results` and
        `success` flags, with kappas predicted by `head`."""
        db = self.db.with_kappas(predict_kappas(self.db_pooled, head))
        value, _ = sc.score_query(sc.METHOD_RESULTANT, results, db,
                                  kappa_q=predict_kappas(self.pooled, head))
        return ece_at_k(value, success[:, 0], self.binning, k=1,
                        method=sc.METHOD_RESULTANT).ece


def fit_head(dataset: SynthDataset, cfg: TrainConfig | None = None,
             tau: float = DEFAULT_TAU, binning: BinningConfig | None = None):
    """Post-train a kappa head on the scene's train split.

    Early stopping tracks validation ECE@1 (a fixed 10% of training
    queries evaluated against the db split, positives within `tau`,
    binned by `binning`).  `cfg` defaults to TrainConfig's defaults with
    the scene's seed.  Returns (head, history).
    """
    cfg = cfg or TrainConfig(seed=dataset.config.seed)
    head = init_head(dataset.config.feature_shape, rng=cfg.seed)
    idx, val_idx = _fit_rows(dataset, cfg.seed)
    desc = dataset.descriptors
    val = _Validation(dataset, val_idx, tau, binning)
    # descriptors are frozen: retrieve once, re-score kappas each epoch
    results, success = val.search(desc[val_idx], desc[dataset.splits["db"]])
    return train_post(dataset.head_inputs[idx], desc[idx],
                      dataset.rows.labels[idx], dataset.prototypes, head, cfg,
                      eval_hook=lambda h: val.ece1(results, success, h))


def fit_joint(dataset: SynthDataset, cfg: TrainConfig,
              lmcl: LmclConfig | None = None, tau: float = DEFAULT_TAU,
              binning: BinningConfig | None = None):
    """Jointly train encoder + prototypes, and the kappa head when
    cfg.lam > 0 (the vMF term is its only trainer; at lam = 0
    `train_joint` drops the head and the head returned is None).

    Early stopping tracks validation Recall@1, then, with a head,
    resultant ECE@1, with positives within `tau` and ECE binned by
    `binning`; database descriptors are recomputed from the live encoder
    weights each epoch.  Returns (encoder weights, prototypes, head,
    history).
    """
    lmcl = lmcl or LmclConfig()
    d = dataset.config.descriptor_dim
    m = dataset.raw.shape[1]
    rng = np.random.default_rng(cfg.seed)
    encoder = rng.standard_normal((d, m)) / np.sqrt(m)
    # a generator of its own: the encoder's draws do not depend on it
    head = init_head(dataset.config.feature_shape, rng=cfg.seed)
    idx, val_idx = _fit_rows(dataset, cfg.seed)
    val = _Validation(dataset, val_idx, tau, binning)
    val_raw, db_raw = dataset.raw[val_idx], dataset.raw[dataset.splits["db"]]

    def hook(enc, protos, h):
        results, success = val.search(encode(enc, val_raw),
                                      encode(enc, db_raw))
        if h is None:
            return (recall_at_k(success, 1),)
        return recall_at_k(success, 1), val.ece1(results, success, h)

    return train_joint(dataset.head_inputs[idx], dataset.raw[idx],
                       dataset.rows.labels[idx], encoder, dataset.prototypes,
                       head, cfg, lmcl, eval_hook=hook)


def _average_ranks(x) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their positions."""
    s = np.sort(x)
    return (np.searchsorted(s, x, "left") + np.searchsorted(s, x, "right")
            + 1) / 2


def _spearman(a, b) -> float:
    """Spearman's rho: the Pearson correlation of average ranks (the
    computation scipy.stats.spearmanr performs)."""
    ranks = np.column_stack((_average_ranks(a), _average_ranks(b)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


@dataclass
class QueryEvaluation:
    reports: dict                      # (method, k) -> CalibrationReport
    recalls: dict                      # k -> overall Recall@K
    success: np.ndarray                # (n, K) mark_successes flags
    scored: dict                       # method -> (value, degenerate), (n,) each
    spearman_kappa: float | None       # rank corr of predicted vs true kappa
    unsupported: dict = field(default_factory=dict)  # method -> reason


def search_depth(ks, n: int) -> int:
    """How deep `evaluate_queries` reads a search of a database of `n`
    rows for the K of `ks`: max(max(ks), SUE_K), clipped to n."""
    return min(max(max(ks), SUE_K), n)


def search_splits(descriptors, splits: dict, ks) -> RetrievalResult:
    """The search `evaluate_queries` scores for the K of `ks`: the query
    split's rows of the (N, d) `descriptors` against the db split's,
    `search_depth` deep."""
    db = descriptors[splits["db"]]
    return batch_knn(descriptors[splits["query"]], db,
                     search_depth(ks, len(db)))


def _check_search(results: RetrievalResult, queries: Rows,
                  depth: int) -> None:
    """`results` ranks every row of `queries`, at least `depth` deep."""
    if len(results) != len(queries):
        raise ValueError(f"a search of {len(results)} queries cannot score "
                         f"{len(queries)}")
    if results.ref_indices.shape[1] < depth:
        raise ValueError(f"a top-{results.ref_indices.shape[1]} search is "
                         f"shallower than the search depth {depth}")


def evaluate_queries(db: Rows, queries: Rows, results: RetrievalResult,
                     ks=DEFAULT_KS, binning: BinningConfig | None = None,
                     tau: float = DEFAULT_TAU) -> QueryEvaluation:
    """The query-level evaluation protocol, of every query-level method of
    `scores.METHODS`, on `results`, the search of `queries` against `db`.

    `db` holds the database's poses, and kappas for the kappa-based
    methods; `queries` the queries' poses and kappas (and kappa*, which
    Spearman reads).  A reference is a positive of a query within `tau`
    of its pose.  Methods that lack their inputs (a kappa score without
    kappas, PA or SUE on a one-row database) are reported as unsupported
    and the evaluation continues; any other scorer error propagates.  The
    search must rank every query at least `search_depth(ks, len(db))`
    deep, as `search_splits` does, and SUE spreads the top SUE_K poses
    whatever `ks` lists, so no method's ECE@K depends on the other K.
    The search is scored as given, so one search serves every kappa
    source.  `ks` must list at least one K, each at least 1.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValueError(f"ks must list at least one K >= 1, got {ks}")
    _check_search(results, queries, search_depth(ks, len(db)))
    success = mark_successes(results, db, queries, tau)

    scored = {}
    unsupported = {}
    for method in sc.methods_at(sc.QUERY):
        try:
            scored[method] = sc.score_query(method, results, db,
                                            kappa_q=queries.kappas)
        except sc.MissingInputError as exc:
            unsupported[method] = str(exc)

    reports = {}
    recalls = {}
    for k in ks:
        recalls[k] = recall_at_k(success, k)
        for method, (value, _) in scored.items():
            reports[(method, k)] = ece_at_k(value, success[:, k - 1],
                                            binning_for(method, binning),
                                            k=k, method=method)

    spear = None
    kq, kt = queries.kappas, queries.true_kappa
    # undefined, not NaN, when either side is constant
    if kq is not None and kt is not None and np.ptp(kq) > 0 and np.ptp(kt) > 0:
        spear = _spearman(kq, kt)
    return QueryEvaluation(reports=reports, recalls=recalls, success=success,
                           scored=scored, spearman_kappa=spear,
                           unsupported=unsupported)


@dataclass
class MatchEvaluation:
    reports: dict               # method -> CalibrationReport (match level)
    pairs: dict                 # method -> (value, degenerate), (n, K) each
    positive: np.ndarray        # (n, K) ground-truth positive pairs
    unsupported: dict = field(default_factory=dict)  # method -> reason


def evaluate_matches(db: Rows, queries: Rows, results: RetrievalResult,
                     binning: BinningConfig | None = None,
                     tau: float = DEFAULT_TAU) -> MatchEvaluation:
    """Match-level calibration over the T = K * n pairs of `results`, the
    (n, K) top-K search of `queries` against `db`.

    Scores each pair with every match-level method of `scores.METHODS`
    whose inputs are there (resultant fusion needs both sides' kappas,
    the L2 distance nothing) and files the others as unsupported, with
    the table's reason, as `evaluate_queries` does.  Scoring reads only
    the search's `ref_indices` and `similarities` and each side's Rows:
    `match-eval` passes the `fileio.read_retrieval` of eval's record.
    """
    _check_search(results, queries, 1)
    positive = positive_mask(db, queries, results.ref_indices, tau)

    pairs = {}
    unsupported = {}
    for method in sc.methods_at(sc.MATCH):
        try:
            pairs[method] = sc.score_pairs(method, results, db,
                                           queries.kappas)
        except sc.MissingInputError as exc:
            unsupported[method] = str(exc)

    reports = {}
    for method, (value, _) in pairs.items():
        reports[method] = match_ece_at_k(value, positive,
                                         binning_for(method, binning),
                                         method=method)
    return MatchEvaluation(reports=reports, pairs=pairs, positive=positive,
                           unsupported=unsupported)


def scene_rows(dataset: SynthDataset, head: dict) -> list:
    """The scene's db and query Rows, in that order, with kappas predicted
    by `head`: with `search_splits` of its descriptors, the inputs of
    `evaluate_queries` and `evaluate_matches`."""
    return [dataset.rows.subset(idx).with_kappas(
                predict_kappas(dataset.head_inputs[idx], head))
            for idx in (dataset.splits["db"], dataset.splits["query"])]
