"""Exact cosine retrieval, ground truth, and Recall@K."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_sphere.retrieval import (_GROUP_FLOOR, _ROW_BLOCK, _TWO_PASS_FLOOR,
                                    Rows, batch_knn, mark_successes,
                                    positive_mask, recall_at_k)
from oracles import unit_rows


def lexsort_top(sims, k):
    """Each row's top k columns by (-cosine, column): the rule
    perfbench's `top_k` applies with the manifest's ids, which are the
    rows."""
    return np.stack([np.lexsort((np.arange(len(row)), -row))[:k]
                     for row in sims])


def make_bank(rng, n=20, d=8):
    """A bank: its (n, d) unit rows and the Rows of their poses."""
    return unit_rows(rng, n, d), Rows(poses=rng.uniform(0, 500, (n, 2)))


class TestBank:
    # a bank is a bare matrix of unit rows, checked where it enters the
    # search, and a Rows record of what scoring reads of each row
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="kappas length 4 != pose"):
            Rows(poses=np.zeros((5, 2)), kappas=np.ones(4))

    def test_subset_and_kappa_replacement(self):
        rows = Rows(poses=np.arange(8.0).reshape(4, 2),
                    true_kappa=np.arange(4.0), labels=np.arange(4) % 2)
        part = rows.subset([3, 1])
        assert part.poses.tolist() == [[6.0, 7.0], [2.0, 3.0]]
        assert part.true_kappa.tolist() == [3.0, 1.0]
        assert part.labels.tolist() == [1, 1] and part.kappas is None
        swapped = part.with_kappas(np.array([5.0, 6.0]))
        assert swapped.kappas.tolist() == [5.0, 6.0] and part.kappas is None
        assert swapped.poses is part.poses


class TestKnn:
    def test_exhaustive_agreement(self, rng):
        # Ranked rows must equal a brute-force argsort of the full
        # similarity vector for every query.
        D = unit_rows(rng, 30, 6)
        queries = rng.standard_normal((10, 6))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        for q in queries:
            res = batch_knn(q[None], D, k=30)
            np.testing.assert_array_equal(res.ref_indices,
                                          lexsort_top([D @ q], 30))
            assert np.all(np.diff(res.similarities) <= 1e-15)

    def test_tie_broken_by_ascending_row(self):
        z = np.array([1.0, 0.0])
        res = batch_knn(z[None], np.stack([-z, z, z, -z]), k=4)
        np.testing.assert_array_equal(res.ref_indices, [[1, 2, 0, 3]])

    def test_batch_matches_single(self, rng):
        D = unit_rows(rng, 25, 5)
        queries = rng.standard_normal((6, 5))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        batch = batch_knn(queries, D, k=4)
        assert batch.ref_indices.shape == batch.similarities.shape == (6, 4)
        assert len(batch) == 6
        for i in range(6):
            single = batch_knn(queries[i:i + 1], D, k=4)
            np.testing.assert_array_equal(batch.ref_indices[i],
                                          single.ref_indices[0])
            # a one-row GEMM may sum in another order: 1 ulp
            np.testing.assert_allclose(batch.similarities[i],
                                       single.similarities[0], rtol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from([1, 5, _ROW_BLOCK, _ROW_BLOCK + 1,
                              2 * _ROW_BLOCK + 37]),
           size=st.integers(1, 40), dim=st.integers(2, 5),
           levels=st.integers(1, 3), data=st.data())
    def test_matches_full_lexsort_under_heavy_ties(self, seed, n, size, dim,
                                                   levels, data):
        # Quantised and duplicated rows make many exact cosine ties; the
        # ranking must equal a full per-row lexsort by (-cosine, row).
        r = np.random.default_rng(seed)
        x = r.integers(-levels, levels + 1, (size, dim)).astype(float)
        x[~x.any(axis=1), 0] = 1.0
        x[r.integers(0, size, size // 3)] = x[r.integers(0, size, size // 3)]
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        queries = np.concatenate([x, r.integers(-levels, levels + 1,
                                                (n, dim)).astype(float)])[:n]
        k = data.draw(st.integers(1, size), label="k")

        res = batch_knn(queries, x, k)
        sims = queries @ x.T
        expected = lexsort_top(sims, k)
        np.testing.assert_array_equal(res.ref_indices, expected)
        np.testing.assert_array_equal(
            res.similarities, np.take_along_axis(sims, expected, axis=1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           size=st.integers(1, 300) | st.integers(300, 1100),
           n=st.sampled_from([1, 3, _ROW_BLOCK - 1, _ROW_BLOCK,
                              _ROW_BLOCK + 1, _ROW_BLOCK + 40]),
           data=st.data())
    def test_matches_brute_force_at_every_k(self, seed, size, n, data):
        # Banks wider than the group floor and k up to N: the group-max
        # bound must keep every column of each row's top k.  A bank row
        # has 1, 4 or 16 entries of +-1, +-1/2 or +-1/4, and the queries
        # are integer, so every cosine is exact in any summation order and
        # one full GEMM is the reference whatever the blocking.  Cosines
        # take few values and rows repeat, so ties are everywhere.
        r = np.random.default_rng(seed)
        m = r.choice([1, 4, 16], (size, 1))
        on = r.random((size, 16)).argsort(axis=1) < m
        x = np.where(on, r.choice([-1.0, 1.0], (size, 16)) / np.sqrt(m), 0.0)
        x[r.integers(0, size, size // 2)] = x[r.integers(0, size, size // 2)]
        queries = np.concatenate([x[r.integers(0, size, n // 2)],
                                  r.integers(-2, 3, (n - n // 2, 16))])
        k = data.draw(st.integers(1, size) | st.sampled_from([1, size]),
                      label="k")

        res = batch_knn(queries, x, k)
        sims = queries @ x.T
        expected = lexsort_top(sims, k)
        np.testing.assert_array_equal(res.ref_indices, expected)
        np.testing.assert_array_equal(
            res.similarities, np.take_along_axis(sims, expected, axis=1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           size=st.integers(1, 300) | st.integers(_GROUP_FLOOR + 2, 700),
           n=st.sampled_from([1, 37, _ROW_BLOCK, _ROW_BLOCK + 1,
                              2 * _ROW_BLOCK + 37]),
           duplicated=st.booleans(), data=st.data())
    def test_shallow_search_is_a_prefix_of_a_deeper_one(self, seed, size, n,
                                                        duplicated, data):
        # match-eval reuses eval's deeper search on this: for k <= K the
        # top k are the first k columns of the top K, bit for bit.  Random
        # unit rows, so the cosines are those of the GEMM, not exact; with
        # duplicated rows, ties.  K above the group floor folds the columns
        # into another number of groups than k does.
        r = np.random.default_rng(seed)
        x = unit_rows(r, size, 16)
        if duplicated:
            x[r.integers(0, size, size // 2)] = x[r.integers(0, size,
                                                           size // 2)]
        queries = np.concatenate([x[r.integers(0, size, n // 2)],
                                  unit_rows(r, n - n // 2, 16)])
        deep = data.draw(st.integers(1, size)
                         | st.integers(min(size, _GROUP_FLOOR + 1), size),
                         label="K")
        k = data.draw(st.integers(1, deep) | st.sampled_from([1, deep]),
                      label="k")

        shallow, full = batch_knn(queries, x, k), batch_knn(queries, x, deep)
        for name in ("ref_indices", "similarities"):
            np.testing.assert_array_equal(getattr(shallow, name),
                                          getattr(full, name)[:, :k])

    @pytest.mark.parametrize("n", [1, _ROW_BLOCK]
                             + [_ROW_BLOCK + h for h in range(1, 9)])
    def test_blocked_gemm_is_bit_identical_to_full_gemm(self, n):
        # The blocks' cosines must equal one full Q @ D.T bit for bit.  At
        # N = 288 and d = 64, OpenBLAS 0.3.31 sums a GEMM of 1-4 rows in
        # another order, so every tail height up to 8 is pinned here.
        r = np.random.default_rng(n)
        D = unit_rows(r, 288, 64)
        queries = unit_rows(r, n, 64)
        sims = queries @ D.T
        expected = lexsort_top(sims, 10)
        res = batch_knn(queries, D, 10)
        np.testing.assert_array_equal(res.ref_indices, expected)
        np.testing.assert_array_equal(
            res.similarities, np.take_along_axis(sims, expected, axis=1))

    def test_memory_stays_below_the_full_similarity_matrix(self):
        # Blocked search never holds the (n, N) float64 matrix: its peak
        # allocation stays below half of it.
        r = np.random.default_rng(0)
        n, N = 2048, 4096
        D = unit_rows(r, N, 64)
        queries = unit_rows(r, n, 64)
        tracemalloc.start()
        try:
            batch_knn(queries, D, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * N * 8 / 2

    @pytest.mark.parametrize("n", [_ROW_BLOCK, _ROW_BLOCK + 1, 300])
    def test_wide_bank_cosines_equal_one_full_gemm(self, n):
        # eval-30k's shape: above _TWO_PASS_FLOOR the ranked cosines come
        # from a GEMM over candidate columns only, and must still equal one
        # full Q @ D.T bit for bit, tail blocks included.  Cosines computed
        # per pair (ROADMAP item 6's pass 2) would fail this; that change
        # re-pins it.
        N = 9216
        r = np.random.default_rng(n)
        D = unit_rows(r, N, 64)
        queries = unit_rows(r, n, 64)
        sims = queries @ D.T
        expected = lexsort_top(sims, 10)
        res = batch_knn(queries, D, 10)
        np.testing.assert_array_equal(res.ref_indices, expected)
        np.testing.assert_array_equal(
            res.similarities, np.take_along_axis(sims, expected, axis=1))

    @pytest.mark.parametrize("k", [1, 10, 40])
    def test_float32_margin_keeps_every_candidate(self, k):
        # Wide banks whose best columns, normalize(b + delta*e) for delta
        # from 1e-8 to 1e-6, lie within float32 rounding of each other: the
        # float32 pass alone would rank them by its rounding error, so its
        # bound must be lowered by 2*eps to keep every one of the exact top
        # k.  N is a multiple of 8, so one full GEMM is the oracle.
        N = _TWO_PASS_FLOOR + 8 * 67
        r = np.random.default_rng(k)
        x = unit_rows(r, N, 64)
        b, e = unit_rows(r, 2, 64)
        e -= (e @ b) * b
        e /= np.linalg.norm(e)
        near = b + np.geomspace(1e-8, 1e-6, N // 3)[:, None] * e
        x[r.permutation(N)[:N // 3]] = near / np.linalg.norm(
            near, axis=1, keepdims=True)
        close = b + 0.3 * unit_rows(r, 6, 64)
        close /= np.linalg.norm(close, axis=1, keepdims=True)
        queries = np.concatenate([
            b[None], close, np.rint(20 * close[:2]),
            r.integers(-3, 4, (2, 64)), np.zeros((1, 64)),
            1e200 * close[2:4], 1e-200 * close[4:]]).astype(float)
        for n in (1, len(queries)):
            sims = queries[:n] @ x.T
            expected = lexsort_top(sims, k)
            res = batch_knn(queries[:n], x, k)
            np.testing.assert_array_equal(res.ref_indices, expected)
            np.testing.assert_array_equal(
                res.similarities, np.take_along_axis(sims, expected, axis=1))

    @pytest.mark.parametrize("N", [288, 2048])
    def test_repeated_rows_tie_by_ascending_row(self, N):
        # A bank of a few distinct rows, each repeated at scattered
        # columns: every cosine ties with many others, and each query's
        # ranking must be one full Q @ D.T lexsorted by (-cosine, row).
        # N = 288 is searched in one pass, 2,048 in two; both are
        # multiples of 8, so no column is summed in a partial tile.
        r = np.random.default_rng(N)
        D = unit_rows(r, 24, 64)[r.integers(0, 24, N)]
        queries = np.concatenate([D[:19], unit_rows(r, _ROW_BLOCK, 64)])
        for n in (1, 19, len(queries)):
            sims = queries[:n] @ D.T
            for k in (1, 10, 40):
                expected = lexsort_top(sims, k)
                res = batch_knn(queries[:n], D, k)
                np.testing.assert_array_equal(res.ref_indices, expected)
                np.testing.assert_array_equal(
                    res.similarities,
                    np.take_along_axis(sims, expected, axis=1))

    @pytest.mark.parametrize("N", [_TWO_PASS_FLOOR, 2072])
    def test_two_pass_search_keeps_no_state_between_calls(self, N):
        # The float32 queries are made once per call, and each block's
        # candidate union is read from one mask over the bank, cleared
        # after the block.  Run again after other searches, each search
        # gives the bits it gave the first time; a shallower one is a
        # prefix of a deeper one, and a lone query ranks as in its batch.
        r = np.random.default_rng(N)
        D = unit_rows(r, N, 64)
        queries = unit_rows(r, 2 * _ROW_BLOCK + 37, 64)
        calls = [(queries, 10), (queries, 3), (queries[5], 10),
                 (queries[:_ROW_BLOCK + 1], 10)]
        first = [batch_knn(q, D, k) for q, k in calls]
        for (q, k), want in zip(calls[::-1], first[::-1]):
            again = batch_knn(q, D, k)
            for name in ("ref_indices", "similarities"):
                assert (getattr(again, name).tobytes()
                        == getattr(want, name).tobytes())
        full, shallow, alone, head = first
        for name in ("ref_indices", "similarities"):
            np.testing.assert_array_equal(getattr(shallow, name),
                                          getattr(full, name)[:, :3])
            np.testing.assert_array_equal(getattr(head, name),
                                          getattr(full, name)[:len(head)])
        np.testing.assert_array_equal(alone.ref_indices[0],
                                      full.ref_indices[5])
        np.testing.assert_allclose(alone.similarities[0],
                                   full.similarities[5], rtol=1e-14)
        expected = lexsort_top(queries @ D.T, 10)
        np.testing.assert_array_equal(full.ref_indices, expected)

    @pytest.mark.parametrize("N", [_TWO_PASS_FLOOR + 1, 2049, 4096])
    def test_prefix_and_batch_of_one_on_wide_banks(self, N):
        # Above _TWO_PASS_FLOOR the float64 GEMM holds only the candidate
        # columns, which depend on k.  A cosine must not depend on them:
        # for k < K <= 40 the top k are the first k columns of the top K,
        # bit for bit, and a query searched alone gets the indices it gets
        # within its batch.  As in gen's scenes, rows cluster 9 to a class
        # and the queries come class by class, so a shallow search of a
        # few rows holds few columns and a deep one many; BLAS sums such a
        # narrow GEMM of unpadded rows in another order.  Duplicated rows
        # make exact ties.
        r = np.random.default_rng(N)
        centres = unit_rows(r, N // 9 + 1, 64)
        x = centres[np.arange(N) // 9] + 0.3 * unit_rows(r, N, 64)
        x[r.integers(0, N, N // 8)] = x[r.integers(0, N, N // 8)]
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        queries = centres[np.arange(257) // 6] + 0.3 * unit_rows(r, 257, 64)
        for n in (1, 2, 37, 256, 257):
            q = queries[:n]
            deep = [batch_knn(q, x, K) for K in range(1, 41)]
            for K in range(2, 41):
                for k in range(1, K):
                    for name in ("ref_indices", "similarities"):
                        np.testing.assert_array_equal(
                            getattr(deep[k - 1], name),
                            getattr(deep[K - 1], name)[:, :k],
                            err_msg=f"n={n} k={k} K={K}")
            for i in range(n):
                alone = batch_knn(q[i], x, 10)
                np.testing.assert_array_equal(deep[9].ref_indices[i],
                                              alone.ref_indices[0])
                np.testing.assert_allclose(deep[9].similarities[i],
                                           alone.similarities[0], rtol=1e-14)

    def test_memory_stays_below_one_float64_block(self):
        # The float32 pass frees its block before the float64 pass, whose
        # GEMM holds only candidate columns: the peak stays below one
        # float64 block of _ROW_BLOCK rows against the whole bank.
        r = np.random.default_rng(0)
        n, N = 2048, 4096
        D = unit_rows(r, N, 64)
        queries = unit_rows(r, n, 64)
        tracemalloc.start()
        try:
            batch_knn(queries, D, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _ROW_BLOCK * N * 8

    @pytest.mark.parametrize("N", [40, _TWO_PASS_FLOOR])
    def test_rejects_query_width_of_another_bank(self, N):
        r = np.random.default_rng(N)
        with pytest.raises(ValueError,
                           match="queries have d=5, bank rows d=64"):
            batch_knn(unit_rows(r, 3, 5), unit_rows(r, N, 64), k=2)

    @pytest.mark.parametrize("N", [8, _TWO_PASS_FLOOR])
    @pytest.mark.parametrize("case", ["NaN row", "norm 1.5", "1-D"])
    def test_rejects_what_is_not_a_matrix_of_unit_rows(self, case, N):
        # a bank is a bare matrix, checked where it enters the search, in
        # one pass or two: the two-pass eps bound assumes unit rows, and a
        # row of norm 1.5 on a bank searched in two passes would break it
        r = np.random.default_rng(0)
        D = unit_rows(r, N, 64)
        match = "reference rows must be finite and unit-norm; row 7 "
        if case == "NaN row":
            D[7, 3] = np.nan
        elif case == "norm 1.5":
            D[7] *= 1.5
        else:
            D = D[0]
            match = r"reference rows must be an \(N, d\) matrix"
        with pytest.raises(ValueError, match=match):
            batch_knn(unit_rows(r, 3, 64), D, k=2)

    def test_rejects_non_finite_queries(self, rng):
        with pytest.raises(ValueError, match="non-finite"):
            batch_knn([[1.0, np.nan, 0.0]], unit_rows(rng, 5, 3), k=2)

    def test_result_is_frozen(self, rng):
        # a search holds its ranks and cosines alone; success flags are
        # mark_successes' return value, never written onto it
        D = unit_rows(rng, 6, 4)
        res = batch_knn(D[:2], D, k=3)
        assert [f.name for f in dataclasses.fields(res)] == [
            "ref_indices", "similarities"]
        for f in dataclasses.fields(res):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(res, f.name, getattr(res, f.name))

    def test_result_owns_only_its_k_columns(self, rng):
        # The index block is allocated (n, k); no row is a view of a full
        # N-long sort that would keep it alive.
        D = unit_rows(rng, 25, 5)
        res = batch_knn(D[:3], D, k=4)
        for arr in (res.ref_indices, res.similarities):
            assert arr.shape == (3, 4) and arr.base is None

    def test_k_out_of_range(self, rng):
        D = unit_rows(rng, 5, 8)
        with pytest.raises(ValueError):
            batch_knn(D[:1], D, k=0)
        with pytest.raises(ValueError):
            batch_knn(D[:1], D, k=6)


ORIGIN = Rows(np.zeros((1, 2)))  # one query at the origin


class TestGroundTruth:
    def test_distance_threshold(self):
        poses = np.zeros((10, 2))
        poses[:5, 0] = 100.0  # far group
        mask = positive_mask(Rows(poses), ORIGIN, np.arange(10)[None],
                             tau=25.0)
        np.testing.assert_array_equal(mask, [[False] * 5 + [True] * 5])

    def test_batched_rows_match_single_rows(self, rng):
        _, db = make_bank(rng, n=30)
        queries = Rows(rng.uniform(0, 500, (5, 2)))
        idx = rng.integers(0, 30, (5, 7))
        mask = positive_mask(db, queries, idx, tau=150.0)
        assert mask.shape == (5, 7) and mask.any() and not mask.all()
        for i in range(5):
            np.testing.assert_array_equal(
                mask[i], positive_mask(db, queries.subset([i]), idx[i:i + 1],
                                       tau=150.0)[0])

    def test_threshold_is_inclusive(self):
        db = Rows(np.array([[25.0, 0.0], [25.0 + 1e-9, 0.0]]))
        mask = positive_mask(db, ORIGIN, np.arange(2)[None], tau=25.0)
        np.testing.assert_array_equal(mask, [[True, False]])

    def test_requires_poses(self):
        # poses are the record's one required field, so ground truth never
        # meets rows without them
        with pytest.raises(TypeError, match="poses"):
            Rows(kappas=np.ones(3))

    def test_validation(self, rng):
        # a NaN tau would make every reference a negative
        for tau in (0.0, -5.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                positive_mask(make_bank(rng)[1], ORIGIN, np.arange(3)[None],
                              tau=tau)


class TestRecall:
    def test_recall_monotone_in_k(self, rng):
        desc, db = make_bank(rng, n=40, d=6)
        queries = desc[:8] + 0.05 * rng.standard_normal((8, 6))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        results = batch_knn(queries, desc, k=10)
        success = mark_successes(results, db, db.subset(np.arange(8)),
                                 tau=1.0)
        recalls = [recall_at_k(success, k) for k in (1, 5, 10)]
        assert recalls[0] <= recalls[1] <= recalls[2]

    def test_recall_exact_on_constructed_case(self):
        # 3 queries over a 3-item bank; positives chosen so that
        # Recall@1 = 1/3 and Recall@2 = 1.
        e = np.eye(3)
        db = Rows(np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]]))
        queries = np.array([e[0], e[1], e[2]])
        results = batch_knn(queries, e, k=2)
        # rank 2 for every query is row 0 (tie among the two zero-cosine
        # candidates broken by ascending row), so row 0, the one reference
        # within tau of every query, hits at rank 1 only for query 0 and
        # at rank 2 for the others.
        success = mark_successes(results, db, Rows(np.zeros((3, 2))),
                                 tau=25.0)
        assert recall_at_k(success, 1) == pytest.approx(1 / 3)
        assert recall_at_k(success, 2) == pytest.approx(1.0)

    def test_success_is_prefix_cumulative(self, rng):
        desc, db = make_bank(rng, n=10, d=4)
        res = batch_knn(desc[0], desc, k=10)
        # the query stands at row 5's pose, and no other row is that close
        success = mark_successes(res, db, db.subset([5]), tau=1e-6)
        assert np.all(np.diff(success.astype(int), axis=1) >= 0)
        rank = int(np.flatnonzero(res.ref_indices[0] == 5)[0])
        assert success[0].tolist() == [False] * rank + [True] * (10 - rank)

    def test_requires_marked_successes(self):
        with pytest.raises(ValueError, match="no retrieval results"):
            recall_at_k(np.zeros((0, 2), dtype=bool), 1)

    def test_rejects_k_below_one(self, rng):
        # k = 0 would index the last column, the recall at the deepest rank
        desc, db = make_bank(rng, n=4, d=4)
        res = batch_knn(desc, desc, k=2)
        success = mark_successes(res, db, db, tau=1.0)
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                recall_at_k(success, k)
        with pytest.raises(ValueError, match="fewer than 3 ranks"):
            recall_at_k(success, 3)
