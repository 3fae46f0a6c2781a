"""Exact cosine nearest-neighbor retrieval over a descriptor bank,
ground truth (references within tau of the query's pose), and Recall@K."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vmf import check_unit_rows

_ROW_BLOCK = 256  # query rows scored per GEMM
_GROUP_FLOOR = 256  # fewest column groups that bound a row's k-th best

DEFAULT_KS = (1, 5, 10)  # the K of Recall@K and ECE@K a run reports
DEFAULT_TAU = 25.0       # pose distance within which a reference is positive
SUE_K = 10               # top-k references whose pose spread is SUE's score


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


def positive_mask(query_poses, bank: DescriptorBank, ref_indices,
                  tau: float) -> np.ndarray:
    """(n, K) mask: is bank row ref_indices[i, j] within `tau` of query i's
    pose (the threshold inclusive)?  `query_poses` is (n, 2), `ref_indices`
    (n, K); `tau` is finite and positive."""
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    if bank.poses is None or query_poses is None:
        raise ValueError("ground truth requires query and reference poses")
    diffs = (bank.poses[np.asarray(ref_indices)]
             - np.asarray(query_poses, dtype=np.float64)[:, None, :])
    return np.linalg.norm(diffs, axis=2) <= tau


@dataclass
class RetrievalResult:
    """Top-K retrieval of n queries; row i holds query i's ranked matches."""

    ref_indices: np.ndarray        # (n, K) ranked bank row indices
    similarities: np.ndarray       # (n, K) descending cosines
    success: np.ndarray | None = None  # (n, K) any-positive-in-prefix flags

    def __len__(self):
        return len(self.ref_indices)


def batch_knn(queries, bank: DescriptorBank, k: int) -> RetrievalResult:
    """Exact top-k under cosine similarity for an (n, d) block of queries.

    Ranking is by descending cosine, ties broken by ascending reference id.
    Rows are scored and ranked _ROW_BLOCK at a time, so no (n, N) matrix
    exists.  One GEMM gives the block's cosines.  Its N columns are folded
    into g = min(N, max(k, _GROUP_FLOOR)) disjoint groups by elementwise
    maximum, and the k-th largest of a row's g group maxima bounds its
    k-th best cosine from below: the k largest maxima are the cosines of k
    distinct columns.  So every column at least as good as the k-th best
    (every tie of the k-th included) passes `block >= bound`.  One flat
    scan gathers those candidates, and only they are sorted.

    A batch of at most _ROW_BLOCK rows is one GEMM.  In a longer batch a
    short tail block is zero-padded to _ROW_BLOCK rows, because BLAS may
    sum a GEMM of only a few rows in another order.  The cosines then equal
    one full `queries @ D.T` bit for bit at the sizes the tests and the
    benchmark pin (d = 64, N = 288 and 9,216), though not at every N.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if not 1 <= k <= len(bank):
        raise ValueError(f"K={k} out of range for bank of {len(bank)}")
    if not np.isfinite(queries).all():
        raise ValueError("query rows contain non-finite entries")
    n, N = len(queries), len(bank)
    g = min(N, max(k, _GROUP_FLOOR))
    order = np.empty((n, k), dtype=np.int64)
    similarities = np.empty((n, k))
    for start in range(0, n, _ROW_BLOCK):
        q = queries[start:start + _ROW_BLOCK]
        h = len(q)
        if n > _ROW_BLOCK and h < _ROW_BLOCK:
            q = np.concatenate([q, np.zeros((_ROW_BLOCK - h, q.shape[1]))])
        block = (q @ bank.descriptors.T)[:h]  # (h, N)
        # group j holds columns j, j + g, j + 2g, ...
        groups = block[:, :g].copy()
        for lo in range(g, N, g):
            w = min(g, N - lo)
            np.maximum(groups[:, :w], block[:, lo:lo + w], out=groups[:, :w])
        groups.partition(g - k, axis=1)
        flat = np.flatnonzero(block >= groups[:, g - k, None])
        rows, cols = np.divmod(flat, N)
        sims = block.ravel()[flat]
        ranked = np.lexsort((bank.ids[cols], -sims, rows))
        # `rows` is ascending and is the lexsort's primary key, so
        # row i's candidates start at the same offset in both
        first = np.searchsorted(rows, np.arange(h))
        top = ranked[first[:, None] + np.arange(k)]
        order[start:start + h] = cols[top]
        similarities[start:start + h] = sims[top]
    return RetrievalResult(ref_indices=order, similarities=similarities)


def mark_successes(results: RetrievalResult, bank: DescriptorBank,
                   query_poses, tau: float) -> None:
    """Fill the (n, K) prefix success flags in place.

    success[i, j] is true when any of query i's ranks 1..j+1 is within
    `tau` of its pose; `query_poses` is (n, 2), row i the pose of query i.
    """
    mask = positive_mask(query_poses, bank, results.ref_indices, tau)
    results.success = np.maximum.accumulate(mask, axis=1)


def recall_at_k(results: RetrievalResult, k: int) -> float:
    """Fraction of queries with a positive among the top k ranks, k >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(results) == 0:
        raise ValueError("no retrieval results")
    if results.success is None:
        raise ValueError("call mark_successes before recall_at_k")
    if results.success.shape[1] < k:
        raise ValueError(f"results have fewer than {k} ranks")
    return float(results.success[:, k - 1].mean())
