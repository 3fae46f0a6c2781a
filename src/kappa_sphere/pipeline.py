"""End-to-end plumbing on synthetic scenes: fit the kappa head, predict
concentrations, score queries, and produce calibration reports.

The evaluation protocol mirrors the training-time conventions: kappas are
floored at 1.0 when scores are built, kappa-derived scores are clamped
two-sided at the 1st/99th percentiles, naturally one-sided baselines
(L2, PA, SUE) are clamped on the high tail only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import spearmanr

from . import scores as sc
from .calibration import (BinningConfig, BinStrategy, ClampMode, ece_at_k,
                          match_ece_at_k)
from .head import HeadParams, HeadVariant, forward_batch, init_head
from .retrieval import (DescriptorBank, GroundTruth, GroundTruthMode,
                        batch_knn, mark_successes, recall_at_k)
from .synth import SynthDataset
from .training import (LinearEncoder, LmclConfig, TrainConfig, TrainMode,
                       train_joint, train_post)

DEFAULT_KS = (1, 5, 10)
DEFAULT_TAU = 25.0
VALIDATION_FRACTION = 0.1


def binning_for(method: str, num_bins: int = 10,
                strategy: BinStrategy = BinStrategy.EQUAL_WIDTH) -> BinningConfig:
    clamp = (ClampMode.TWO_SIDED if method in sc.TWO_SIDED_METHODS
             else ClampMode.ONE_SIDED_HIGH)
    return BinningConfig(num_bins=num_bins, strategy=strategy, clamp=clamp)


def predict_kappas(features, head: HeadParams) -> np.ndarray:
    kappas, _ = forward_batch(np.asarray(features, dtype=np.float64), head)
    return kappas


def _validation_split(train_idx, seed: int):
    """Carve a fixed 10% of training samples out as calibration validation."""
    rng = np.random.default_rng(seed + 7919)
    train_idx = np.asarray(train_idx)
    perm = rng.permutation(len(train_idx))
    n_val = max(1, int(round(VALIDATION_FRACTION * len(train_idx))))
    return train_idx[perm[n_val:]], train_idx[perm[:n_val]]


def _fit_data(dataset: SynthDataset, seed: int):
    """Training data restricted to the fit portion of the train split; the
    validation portion stays held out.  Returns (data, fit_idx, val_idx)."""
    fit_idx, val_idx = _validation_split(dataset.splits["train"], seed)
    train = dataset.train_data()
    keep = np.isin(dataset.splits["train"], fit_idx)
    for name in ("features", "labels", "descriptors", "raw"):
        setattr(train, name, getattr(train, name)[keep])
    return train, fit_idx, val_idx


def _resultant_ece1(results, db_bank: DescriptorBank, q_kappas) -> float:
    """Resultant-score ECE@1 of marked top-1 results; db_bank.kappas set."""
    scored = [sc.score_query(sc.METHOD_RESULTANT, res, db_bank, kappa_q=kq)
              for res, kq in zip(results, q_kappas)]
    flags = [bool(r.success[0]) for r in results]
    return ece_at_k(scored, flags, binning_for(sc.METHOD_RESULTANT),
                    k=1, method=sc.METHOD_RESULTANT).ece


def _query_ece1(dataset: SynthDataset, head: HeadParams, query_idx, db_idx,
                tau: float = DEFAULT_TAU) -> float:
    """Resultant-score ECE@1 of `query_idx` against `db_idx`."""
    db_bank = dataset.subset_bank(db_idx)
    db_bank.kappas = predict_kappas(dataset.features[db_idx], head)
    q_kappas = predict_kappas(dataset.features[query_idx], head)
    results = batch_knn(dataset.bank.descriptors[query_idx], db_bank, 1,
                        query_ids=dataset.bank.ids[query_idx])
    gt = GroundTruth(mode=GroundTruthMode.DISTANCE_THRESHOLD, tau=tau)
    mark_successes(results, gt, db_bank, query_poses=dataset.bank.poses[query_idx])
    return _resultant_ece1(results, db_bank, q_kappas)


def _recall_and_ece1(dataset, encoder, prototypes, head, fit_idx, val_idx,
                     db_idx, tau=DEFAULT_TAU):
    """Joint-training hook: Recall@1 and resultant ECE@1 on validation
    queries, with database descriptors recomputed from the live encoder."""
    db_desc = encoder.encode(dataset.raw[db_idx])
    db_bank = DescriptorBank(
        descriptors=db_desc, ids=dataset.bank.ids[db_idx],
        labels=dataset.bank.labels[db_idx], poses=dataset.bank.poses[db_idx])
    q_desc = encoder.encode(dataset.raw[val_idx])
    results = batch_knn(q_desc, db_bank, 1, query_ids=dataset.bank.ids[val_idx])
    gt = GroundTruth(mode=GroundTruthMode.DISTANCE_THRESHOLD, tau=tau)
    mark_successes(results, gt, db_bank, query_poses=dataset.bank.poses[val_idx])
    recall1 = recall_at_k(results, 1)
    ece1 = float("nan")
    if head is not None:
        db_bank.kappas = predict_kappas(dataset.features[db_idx], head)
        ece1 = _resultant_ece1(results, db_bank,
                               predict_kappas(dataset.features[val_idx], head))
    return recall1, ece1


def fit_head(dataset: SynthDataset, cfg: TrainConfig | None = None,
             hidden: int = 64, variant: HeadVariant = HeadVariant.AGGREGATION,
             head: HeadParams | None = None):
    """Post-train a kappa head on the scene's train split.

    Early stopping tracks validation ECE@1 (a fixed 10% of training
    queries evaluated against the db split).  Returns (head, history).
    """
    cfg = cfg or TrainConfig(mode=TrainMode.POST_TRAINING, lr=0.05,
                             max_epochs=300, seed=dataset.config.seed)
    if head is None:
        head = init_head(dataset.config.feature_shape, hidden=hidden,
                         variant=variant, rng=cfg.seed)
    train, fit_idx, val_idx = _fit_data(dataset, cfg.seed)
    db_idx = dataset.splits["db"]

    def hook(h):
        return _query_ece1(dataset, h, val_idx, db_idx)

    return train_post(train, dataset.prototypes, head, cfg, eval_hook=hook)


def fit_joint(dataset: SynthDataset, cfg: TrainConfig | None = None,
              lmcl: LmclConfig | None = None, hidden: int = 64,
              encoder: LinearEncoder | None = None,
              head: HeadParams | None = None, with_head: bool = True):
    """Jointly train encoder + prototypes (+ kappa head unless disabled).

    Returns (encoder, prototypes, head, history).
    """
    cfg = cfg or TrainConfig(mode=TrainMode.JOINT_TRAINING, lam=0.01, lr=1e-4,
                             max_epochs=150, seed=dataset.config.seed)
    lmcl = lmcl or LmclConfig()
    d = dataset.config.descriptor_dim
    m = dataset.raw.shape[1]
    rng = np.random.default_rng(cfg.seed)
    if encoder is None:
        encoder = LinearEncoder(rng.standard_normal((d, m)) / np.sqrt(m))
    prototypes = dataset.prototypes
    if with_head and head is None:
        head = init_head(dataset.config.feature_shape, hidden=hidden, rng=cfg.seed)
    if not with_head:
        head = None
    train, fit_idx, val_idx = _fit_data(dataset, cfg.seed)
    db_idx = dataset.splits["db"]

    def hook(enc, protos, h):
        return _recall_and_ece1(dataset, enc, protos, h, fit_idx, val_idx, db_idx)

    return train_joint(train, encoder, prototypes, head, cfg, lmcl,
                       eval_hook=hook)


@dataclass
class QueryEvaluation:
    reports: dict                      # (method, k) -> CalibrationReport
    recalls: dict                      # k -> overall Recall@K
    results: list                      # RetrievalResult per query
    scored: dict                       # method -> list of ScoredQuery
    spearman_kappa: float | None       # rank corr of predicted vs true kappa
    unsupported: dict = field(default_factory=dict)  # method -> reason


def evaluate_queries(bank: DescriptorBank, query_bank: DescriptorBank,
                     ks=DEFAULT_KS, methods=sc.ALL_METHODS,
                     num_bins: int = 10,
                     strategy: BinStrategy = BinStrategy.EQUAL_WIDTH,
                     tau: float = DEFAULT_TAU,
                     gt: GroundTruth | None = None) -> QueryEvaluation:
    """The query-level evaluation protocol.

    `bank` is the reference database (kappas filled for the kappa-based
    methods); `query_bank` carries query descriptors, poses, and kappas.
    Methods that lack their inputs (SUE without poses, a kappa score
    without kappas, PA or SUE on a one-row database) are reported as
    unsupported and the evaluation continues; any other scorer error
    propagates.
    """
    ks = sorted(set(int(k) for k in ks))
    k_max = max(max(ks), 2)
    results = batch_knn(query_bank.descriptors, bank, min(k_max, len(bank)),
                        query_ids=query_bank.ids)
    gt = gt or GroundTruth(mode=GroundTruthMode.DISTANCE_THRESHOLD, tau=tau)
    query_poses = None if query_bank.poses is None else query_bank.poses
    mark_successes(results, gt, bank, query_poses=query_poses)

    scored = {}
    unsupported = {}
    for method in methods:
        try:
            per_query = []
            for i, res in enumerate(results):
                kq = None if query_bank.kappas is None else query_bank.kappas[i]
                per_query.append(sc.score_query(method, res, bank, kappa_q=kq,
                                                k=min(k_max, len(bank))))
            scored[method] = per_query
        except sc.MissingInputError as exc:
            unsupported[method] = str(exc)

    reports = {}
    recalls = {}
    for k in ks:
        flags = [bool(r.success[k - 1]) for r in results]
        recalls[k] = float(np.mean(flags))
        for method, per_query in scored.items():
            cfg = binning_for(method, num_bins=num_bins, strategy=strategy)
            reports[(method, k)] = ece_at_k(per_query, flags, cfg, k=k,
                                            method=method)

    spear = None
    if query_bank.kappas is not None and query_bank.true_kappa is not None:
        rho = spearmanr(query_bank.kappas, query_bank.true_kappa).statistic
        spear = float(rho)
    return QueryEvaluation(reports=reports, recalls=recalls, results=results,
                           scored=scored, spearman_kappa=spear,
                           unsupported=unsupported)


@dataclass
class MatchEvaluation:
    reports: dict          # method -> CalibrationReport (match level)
    pairs: dict            # method -> list of ScoredPair


def evaluate_matches(bank: DescriptorBank, query_bank: DescriptorBank,
                     k: int = 1, num_bins: int = 10,
                     strategy: BinStrategy = BinStrategy.EQUAL_WIDTH,
                     tau: float = DEFAULT_TAU,
                     gt: GroundTruth | None = None) -> MatchEvaluation:
    """Match-level calibration over the T = K * N retrieved pairs.

    Scores each pair with the resultant-fusion kernel and with the
    pairwise L2 distance baseline.
    """
    results = batch_knn(query_bank.descriptors, bank, k, query_ids=query_bank.ids)
    gt = gt or GroundTruth(mode=GroundTruthMode.DISTANCE_THRESHOLD, tau=tau)
    query_poses = None if query_bank.poses is None else query_bank.poses

    pairs = {sc.METHOD_RESULTANT: [], sc.METHOD_L2: []}
    for i, res in enumerate(results):
        pose = None if query_poses is None else query_poses[i]
        mask = gt.positive_mask(res.query_id, pose, bank, res.ref_indices)
        for rank in range(k):
            cos = float(res.similarities[rank])
            positive = bool(mask[rank])
            ref_id = int(res.ref_ids[rank])
            if query_bank.kappas is not None and bank.kappas is not None:
                mu = sc.match_uncertainty(query_bank.kappas[i],
                                          bank.kappas[res.ref_indices[rank]], cos)
                pairs[sc.METHOD_RESULTANT].append(sc.ScoredPair(
                    query_id=res.query_id, ref_id=ref_id, score=mu.value,
                    is_positive=positive, degenerate=mu.degenerate))
            pairs[sc.METHOD_L2].append(sc.ScoredPair(
                query_id=res.query_id, ref_id=ref_id,
                score=sc.l2_distance(cos), is_positive=positive))

    reports = {}
    n = len(results)
    for method, plist in pairs.items():
        if not plist:
            continue
        cfg = binning_for(method, num_bins=num_bins, strategy=strategy)
        reports[method] = match_ece_at_k(plist, k, n, cfg, method=method)
    return MatchEvaluation(reports=reports, pairs=pairs)


def _scene_banks(dataset: SynthDataset, head: HeadParams):
    """The scene's db and query banks with kappas predicted by `head`."""
    banks = []
    for split in ("db", "query"):
        idx = dataset.splits[split]
        bank = dataset.subset_bank(idx)
        bank.kappas = predict_kappas(dataset.features[idx], head)
        banks.append(bank)
    return banks


def scene_query_evaluation(dataset: SynthDataset, head: HeadParams,
                           ks=DEFAULT_KS, **kwargs) -> QueryEvaluation:
    """Convenience wrapper: evaluate a fitted head on the scene's
    query split against its db split."""
    return evaluate_queries(*_scene_banks(dataset, head), ks=ks, **kwargs)


def scene_match_evaluation(dataset: SynthDataset, head: HeadParams,
                           k: int = 1, **kwargs) -> MatchEvaluation:
    return evaluate_matches(*_scene_banks(dataset, head), k=k, **kwargs)
