"""Exact cosine nearest-neighbor retrieval over a descriptor bank,
ground truth (references within tau of the query's pose), and Recall@K."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vmf import check_unit_rows

_ROW_BLOCK = 256  # query rows scored per GEMM
_GROUP_FLOOR = 256  # fewest column groups that bound a row's k-th best
_TWO_PASS_FLOOR = 1536  # narrowest bank searched in two passes

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
    exists.  A GEMM gives the block's cosines.  Its N columns are folded
    into g = min(N, max(k, _GROUP_FLOOR)) disjoint groups by elementwise
    maximum, and the k-th largest of a row's g group maxima bounds its
    k-th best cosine from below: the k largest maxima are the cosines of k
    distinct columns.  So every column at least as good as the k-th best
    (every tie of the k-th included) passes `block >= bound`.  One flat
    scan gathers those candidates, and only they are sorted.

    A bank of fewer than _TWO_PASS_FLOOR rows is searched in one pass: the
    fold and scan read the block's float64 GEMM.  A wider bank is searched
    in two, with the same result:

    1. Candidates in float32.  The fold and scan read the float32 GEMM of
       the bank and of the block's rows, each scaled to unit length (a
       positive scale keeps a row's order, and a huge, tiny or zero row
       cannot overflow the cast), with each row's bound lowered by 2*eps
       and rounded down.  Let u32 = 2**-24, u64 = 2**-53, gamma_d =
       d*u/(1 - d*u) the error bound of a d-term dot product (Higham, 2nd
       ed., section 3.1), s > 0 a row's scale, q_s its scaled float64 row,
       c32 a float32 cosine and c64 the float64 one.  The float32 GEMM's
       gamma_d and the two input roundings give |c32 - q_s.x| <=
       (d + 2)*u32; the scaling's two roundings give |q_s.x - s*q.x| <=
       2*u64; the float64 GEMM's gamma_d gives |s*c64 - s*q.x| <= d*u64.
       Each holds up to a factor within 1% of 1 for d < 10**5 and bank
       rows within the unit-norm tolerance; float32 underflow adds at most
       d*2**-149, and q's entries are taken large enough (above about
       1e-290) that its float64 products do not underflow.  So eps =
       1.01*(d + 2)*(u32 + u64) bounds |c32 - s*c64|.  The bound is the c32
       of k distinct columns, so the k-th best s*c64 is at least
       bound - eps, and every column of the exact top k, every tie of the
       k-th included, has c32 >= bound - 2*eps.
    2. Float64 cosines of the candidates.  One GEMM of the block's rows
       against the union of its rows' candidate columns, padded to a
       multiple of 8 by repeating a column, gives the cosines ranked.  The
       float32 block is freed first, so the peak stays below one float64
       block of _ROW_BLOCK rows against the whole bank.

    Below _TWO_PASS_FLOOR the float32 pass does not pay for itself, and on
    the default scene's 288-row bank its buffers would raise the peak RSS
    (docs/decisions.md, "Two-pass exact search").

    BLAS (OpenBLAS 0.3.31 here) may sum a GEMM of a few rows, or a partial
    tile of columns, in another order, so blocks are zero-padded to
    _ROW_BLOCK rows: in one pass a short tail block of a longer batch, in
    two passes every block of more than one row (a lone query stays one
    row).  A cosine then does not depend on the other rows and columns of
    its GEMM: a shallow search is a prefix of a deeper one bit for bit,
    and the cosines equal one full `queries @ D.T` bit for bit at the
    sizes the tests and the benchmark pin (d = 64: N = 288; N = 9,216 with
    n >= _ROW_BLOCK; N = 2,072 with n = 1 and 16), though not at every N.
    On a wide bank whose N is not a multiple of 8, the one-pass GEMM sums
    the last N mod 8 columns in a partial tile, so their cosines may
    differ from the two-pass ones in the last bit.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if not 1 <= k <= len(bank):
        raise ValueError(f"K={k} out of range for bank of {len(bank)}")
    D = bank.descriptors
    n, N, d = len(queries), len(bank), D.shape[1]
    if queries.shape[1] != d:
        raise ValueError(f"queries have d={queries.shape[1]}, "
                         f"bank rows d={d}")
    if not np.isfinite(queries).all():
        raise ValueError("query rows contain non-finite entries")
    two_pass = N >= _TWO_PASS_FLOOR
    if two_pass:
        D32 = D.astype(np.float32)
        eps = 1.01 * (d + 2) * (2.0**-24 + 2.0**-53)
        margin = np.nextafter(np.float32(2 * eps), np.float32(np.inf))
    g = min(N, max(k, _GROUP_FLOOR))
    order = np.empty((n, k), dtype=np.int64)
    similarities = np.empty((n, k))
    for start in range(0, n, _ROW_BLOCK):
        q = queries[start:start + _ROW_BLOCK]
        h = len(q)
        if two_pass:
            flat = _candidates(_unit_rows32(q) @ D32.T, k, g, margin)
            rows, cols = np.divmod(flat, N)
            union = np.unique(cols)
            slot = np.searchsorted(union, cols)  # each column's position
            union = np.pad(union, (0, -len(union) % 8), mode="edge")
            sims = (_pad_rows(q, n > 1) @ D[union].T)[rows, slot]
        else:
            block = (_pad_rows(q, n > _ROW_BLOCK) @ D.T)[:h]
            flat = _candidates(block, k, g)
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


def _pad_rows(q, pad: bool) -> np.ndarray:
    """q zero-padded to _ROW_BLOCK rows when `pad` is set."""
    if not pad or len(q) == _ROW_BLOCK:
        return q
    return np.concatenate([q, np.zeros((_ROW_BLOCK - len(q), q.shape[1]))])


def _unit_rows32(q) -> np.ndarray:
    """q's rows scaled to unit length, zero rows left zero, as float32.
    Scaling by the largest entry first keeps the norm finite."""
    top = np.abs(q).max(axis=1, keepdims=True)
    q = q / np.where(top > 0, top, 1.0)
    norm = np.linalg.norm(q, axis=1, keepdims=True)
    return (q / np.where(norm > 0, norm, 1.0)).astype(np.float32)


def _candidates(block, k: int, g: int, margin=0) -> np.ndarray:
    """Flat indices, ascending, of the entries of `block` at least as large
    as their row's k-th largest of g column-group maxima, less `margin`
    (the bound then rounded down)."""
    N = block.shape[1]
    # group j holds columns j, j + g, j + 2g, ...
    groups = block[:, :g].copy()
    for lo in range(g, N, g):
        w = min(g, N - lo)
        np.maximum(groups[:, :w], block[:, lo:lo + w], out=groups[:, :w])
    groups.partition(g - k, axis=1)
    bound = groups[:, g - k, None]
    if margin:
        bound = np.nextafter(bound - margin, -np.inf)
    return np.flatnonzero(block >= bound)


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
