"""Exact cosine nearest-neighbor retrieval over a descriptor bank,
ground-truth resolution, and Recall@K."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .vmf import check_unit_rows


@dataclass
class DescriptorBank:
    """Parallel arrays describing the reference database.

    true_kappa is filled only by the synthetic generator; kappas holds
    predicted concentrations once a head has been fitted.
    """

    descriptors: np.ndarray            # (N, d), unit rows
    ids: np.ndarray                    # (N,) int
    labels: np.ndarray                 # (N,) int
    poses: np.ndarray | None = None    # (N, 2) scene units
    true_kappa: np.ndarray | None = None
    kappas: np.ndarray | None = None

    def __post_init__(self):
        self.descriptors = check_unit_rows(self.descriptors,
                                           name="descriptor rows")
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = len(self.descriptors)
        for name in ("ids", "labels", "poses", "true_kappa", "kappas"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.int64 if name in ("ids", "labels")
                                 else np.float64)
                if len(arr) != n:
                    raise ValueError(f"{name} length {len(arr)} != descriptor count {n}")
                setattr(self, name, arr)

    def __len__(self):
        return len(self.descriptors)

    def subset(self, indices) -> "DescriptorBank":
        """The rows at `indices`, every per-row field included."""
        indices = np.asarray(indices)
        return DescriptorBank(**{
            name: None if getattr(self, name) is None
            else getattr(self, name)[indices]
            for name in ("descriptors", "ids", "labels", "poses", "true_kappa",
                         "kappas")})


class GroundTruthMode(str, Enum):
    DISTANCE_THRESHOLD = "distance_threshold"
    EXPLICIT_POSITIVES = "explicit_positives"


@dataclass
class GroundTruth:
    mode: GroundTruthMode = GroundTruthMode.DISTANCE_THRESHOLD
    tau: float = 25.0
    positives: dict | None = None  # query id -> set of reference ids

    def __post_init__(self):
        if self.mode is GroundTruthMode.DISTANCE_THRESHOLD and self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.mode is GroundTruthMode.EXPLICIT_POSITIVES and self.positives is None:
            raise ValueError("explicit mode requires a positives map")

    def positive_mask(self, query_id: int, query_pose, bank: DescriptorBank,
                      ref_indices) -> np.ndarray:
        """Boolean mask over `ref_indices` (bank row indices)."""
        ref_indices = np.asarray(ref_indices)
        if self.mode is GroundTruthMode.DISTANCE_THRESHOLD:
            if bank.poses is None or query_pose is None:
                raise ValueError("distance-threshold ground truth requires poses")
            diffs = bank.poses[ref_indices] - np.asarray(query_pose, dtype=np.float64)
            return np.linalg.norm(diffs, axis=1) <= self.tau
        if query_id not in self.positives:
            raise KeyError(f"query {query_id} missing from explicit ground truth")
        pos = self.positives[query_id]
        return np.isin(bank.ids[ref_indices], list(pos))


@dataclass
class RetrievalResult:
    query_id: int
    ref_ids: np.ndarray            # (K,) ranked reference ids
    ref_indices: np.ndarray        # (K,) bank row indices
    similarities: np.ndarray       # (K,) descending cosines
    success: np.ndarray | None = None  # (K,) any-positive-in-prefix flags


def knn(query, bank: DescriptorBank, k: int, query_id: int = -1) -> RetrievalResult:
    """Exact top-k under cosine similarity; ties broken by ascending id."""
    q = np.asarray(query, dtype=np.float64)
    return batch_knn(q[None], bank, k, query_ids=[query_id])[0]


def batch_knn(queries, bank: DescriptorBank, k: int, query_ids=None) -> list:
    """Exact top-k for an (n, d) block of queries, one RetrievalResult each.

    Ranking is by descending cosine, ties broken by ascending reference id.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if query_ids is None:
        query_ids = np.arange(len(queries))
    if not 1 <= k <= len(bank):
        raise ValueError(f"K={k} out of range for bank of {len(bank)}")
    sims = queries @ bank.descriptors.T  # (n, N)
    results = []
    for row, qid in zip(sims, query_ids):
        order = np.lexsort((bank.ids, -row))[:k]
        results.append(RetrievalResult(
            query_id=int(qid),
            ref_ids=bank.ids[order].copy(),
            ref_indices=order,
            similarities=row[order].copy(),
        ))
    return results


def mark_successes(results, gt: GroundTruth, bank: DescriptorBank,
                   query_poses=None) -> None:
    """Fill per-prefix success flags in place.

    success[j] is true when any of ranks 1..j+1 is a ground-truth positive.
    `query_poses` maps position in `results` to the query pose (needed for
    the distance-threshold mode).
    """
    for i, res in enumerate(results):
        pose = None if query_poses is None else query_poses[i]
        mask = gt.positive_mask(res.query_id, pose, bank, res.ref_indices)
        res.success = np.maximum.accumulate(mask)


def recall_at_k(results, k: int) -> float:
    """Fraction of queries with a positive among the top k ranks."""
    if not results:
        raise ValueError("no retrieval results")
    hits = 0
    for res in results:
        if res.success is None:
            raise ValueError("call mark_successes before recall_at_k")
        if len(res.success) < k:
            raise ValueError(f"result for query {res.query_id} has fewer than {k} ranks")
        hits += bool(res.success[k - 1])
    return hits / len(results)
