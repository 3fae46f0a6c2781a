"""Exact cosine nearest-neighbor retrieval over a matrix of reference
descriptors, the row record scoring reads, ground truth (references
within tau of the query's pose), and Recall@K."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .vmf import check_unit_rows

_ROW_BLOCK = 256  # query rows scored per GEMM
_GROUP_FLOOR = 256  # fewest column groups that bound a row's k-th best
_TWO_PASS_FLOOR = 1536  # narrowest bank searched in two passes

DEFAULT_KS = (1, 5, 10)  # the K of Recall@K and ECE@K a run reports
DEFAULT_TAU = 25.0       # pose distance within which a reference is positive
SUE_K = 10               # top-k references whose pose spread is SUE's score


@dataclass(frozen=True)
class Rows:
    """What scoring reads of a set of images, row i of each field image
    i's: its pose, and the predicted kappa, generative kappa* and class
    label its producer has.  Descriptors are not a field: they travel as
    bare (N, d) matrices, which only the search and the trainers read.
    """

    poses: np.ndarray                      # (N, 2) scene units
    kappas: np.ndarray | None = None       # (N,) once a head is fitted
    true_kappa: np.ndarray | None = None   # (N,) synthetic scenes only
    labels: np.ndarray | None = None       # (N,) int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and len(value) != len(self.poses):
                raise ValueError(f"{f.name} length {len(value)} != pose "
                                 f"count {len(self.poses)}")

    def __len__(self):
        return len(self.poses)

    def subset(self, indices) -> "Rows":
        """The rows at `indices`, every field included."""
        return Rows(**{f.name: None if getattr(self, f.name) is None
                       else getattr(self, f.name)[indices]
                       for f in fields(self)})

    def with_kappas(self, kappas) -> "Rows":
        """These rows with `kappas` as their predicted kappas."""
        return replace(self, kappas=kappas)


def positive_mask(db: Rows, queries: Rows, ref_indices,
                  tau: float) -> np.ndarray:
    """(n, K) mask: is db row ref_indices[i, j] within `tau` of query i's
    pose (the threshold inclusive)?  `ref_indices` is (n, K); `tau` is
    finite and positive."""
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    diffs = db.poses[np.asarray(ref_indices)] - queries.poses[:, None, :]
    return np.linalg.norm(diffs, axis=2) <= tau


@dataclass(frozen=True)
class RetrievalResult:
    """Top-K retrieval of n queries; row i holds query i's ranked matches."""

    ref_indices: np.ndarray        # (n, K) ranked bank row indices
    similarities: np.ndarray       # (n, K) descending cosines

    def __len__(self):
        return len(self.ref_indices)


def batch_knn(queries, refs, k: int) -> RetrievalResult:
    """Exact top-k under cosine similarity of an (n, d) block of queries
    against the (N, d) unit reference rows `refs`.

    Ranking is by descending cosine, ties broken by ascending reference row.
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
       and rounded down.  The queries are scaled and cast once per call,
       each row on its own, so a block's rows have the bits they would
       have alone.  Let u32 = 2**-24, u64 = 2**-53, gamma_d =
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
       union, in ascending column order, is read from one bool mask over
       the bank's columns, allocated once per call: set at the block's
       candidates, read with flatnonzero, then cleared at them again.  The
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
    # the two-pass eps bound assumes unit rows
    D = check_unit_rows(refs, name="reference rows")
    n, (N, d) = len(queries), D.shape
    if not 1 <= k <= N:
        raise ValueError(f"K={k} out of range for bank of {N}")
    if queries.shape[1] != d:
        raise ValueError(f"queries have d={queries.shape[1]}, "
                         f"bank rows d={d}")
    if not np.isfinite(queries).all():
        raise ValueError("query rows contain non-finite entries")
    two_pass = N >= _TWO_PASS_FLOOR
    if two_pass:
        D32 = D.astype(np.float32)
        q32 = _unit_rows32(queries)
        seen = np.zeros(N, dtype=bool)  # a block's candidate columns
        eps = 1.01 * (d + 2) * (2.0**-24 + 2.0**-53)
        margin = np.nextafter(np.float32(2 * eps), np.float32(np.inf))
    g = min(N, max(k, _GROUP_FLOOR))
    order = np.empty((n, k), dtype=np.int64)
    similarities = np.empty((n, k))
    for start in range(0, n, _ROW_BLOCK):
        q = queries[start:start + _ROW_BLOCK]
        h = len(q)
        if two_pass:
            flat = _candidates(q32[start:start + _ROW_BLOCK] @ D32.T, k, g,
                               margin)
            rows, cols = np.divmod(flat, N)
            seen[cols] = True
            union = np.flatnonzero(seen)  # sorted, each column once
            seen[union] = False  # cleared for the next block
            slot = np.searchsorted(union, cols)  # each column's position
            union = np.pad(union, (0, -len(union) % 8), mode="edge")
            sims = (_pad_rows(q, n > 1) @ D[union].T)[rows, slot]
        else:
            block = (_pad_rows(q, n > _ROW_BLOCK) @ D.T)[:h]
            flat = _candidates(block, k, g)
            rows, cols = np.divmod(flat, N)
            sims = block.ravel()[flat]
        ranked = np.lexsort((cols, -sims, rows))
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
    # in place: a third copy of a whole call's queries would raise the
    # search's peak memory
    q /= np.where(norm > 0, norm, 1.0)
    return q.astype(np.float32)


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


def mark_successes(results: RetrievalResult, db: Rows, queries: Rows,
                   tau: float) -> np.ndarray:
    """The (n, K) prefix success flags of a search of `queries` against
    `db`: success[i, j] is true when any of query i's ranks 1..j+1 is
    within `tau` of its pose."""
    mask = positive_mask(db, queries, results.ref_indices, tau)
    return np.maximum.accumulate(mask, axis=1)


def recall_at_k(success: np.ndarray, k: int) -> float:
    """Fraction of queries with a positive among the top k ranks, k >= 1,
    of the (n, K) `mark_successes` flags `success`."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(success) == 0:
        raise ValueError("no retrieval results")
    if success.shape[1] < k:
        raise ValueError(f"results have fewer than {k} ranks")
    return float(success[:, k - 1].mean())
