"""Exact cosine retrieval, ground truth, and Recall@K."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_sphere.retrieval import (_ROW_BLOCK, DescriptorBank, GroundTruth,
                                    GroundTruthMode, batch_knn, knn,
                                    mark_successes, recall_at_k)


def unit_rows(rng, n, d):
    w = rng.standard_normal((n, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def make_bank(rng, n=20, d=8, with_poses=True):
    return DescriptorBank(
        descriptors=unit_rows(rng, n, d),
        ids=np.arange(100, 100 + n),
        labels=np.arange(n) % 4,
        poses=rng.uniform(0, 500, (n, 2)) if with_poses else None,
    )


class TestBank:
    def test_rejects_non_unit_rows(self, rng):
        with pytest.raises(ValueError):
            DescriptorBank(descriptors=rng.standard_normal((4, 6)) * 2.0,
                           ids=np.arange(4), labels=np.zeros(4))

    def test_rejects_length_mismatch(self, rng):
        bank = make_bank(rng, n=5)
        with pytest.raises(ValueError):
            DescriptorBank(descriptors=bank.descriptors, ids=np.arange(5),
                           labels=np.zeros(5), poses=np.zeros((4, 2)))


class TestKnn:
    def test_exhaustive_agreement(self, rng):
        # Ranked ids must equal a brute-force argsort of the full
        # similarity vector for every query.
        bank = make_bank(rng, n=30, d=6)
        queries = rng.standard_normal((10, 6))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        for q in queries:
            res = knn(q, bank, k=30)
            sims = bank.descriptors @ q
            expected = bank.ids[np.lexsort((bank.ids, -sims))]
            np.testing.assert_array_equal(res.ref_ids, [expected])
            assert np.all(np.diff(res.similarities) <= 1e-15)

    def test_tie_broken_by_ascending_id(self):
        z = np.array([1.0, 0.0])
        bank = DescriptorBank(descriptors=np.stack([z, z, -z]),
                              ids=np.array([7, 3, 1]),
                              labels=np.zeros(3))
        res = knn(z, bank, k=2)
        np.testing.assert_array_equal(res.ref_ids, [[3, 7]])

    def test_batch_matches_single(self, rng):
        bank = make_bank(rng, n=25, d=5)
        queries = rng.standard_normal((6, 5))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        batch = batch_knn(queries, bank, k=4)
        assert batch.ref_ids.shape == batch.similarities.shape == (6, 4)
        np.testing.assert_array_equal(batch.query_ids, np.arange(6))
        for i in range(6):
            single = knn(queries[i], bank, k=4, query_id=i)
            np.testing.assert_array_equal(batch.ref_ids[i], single.ref_ids[0])
            np.testing.assert_array_equal(batch.ref_indices[i],
                                          single.ref_indices[0])
            # matmul vs matvec may differ by 1 ulp
            np.testing.assert_allclose(batch.similarities[i],
                                       single.similarities[0], rtol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from([1, 5, _ROW_BLOCK, _ROW_BLOCK + 1,
                              2 * _ROW_BLOCK + 37]),
           size=st.integers(1, 40), dim=st.integers(2, 5),
           levels=st.integers(1, 3), unique_ids=st.booleans(),
           data=st.data())
    def test_matches_full_lexsort_under_heavy_ties(self, seed, n, size, dim,
                                                   levels, unique_ids, data):
        # Quantised and duplicated rows make many exact cosine ties; the
        # ranking must equal a full per-row lexsort by (-cosine, id).
        r = np.random.default_rng(seed)
        x = r.integers(-levels, levels + 1, (size, dim)).astype(float)
        x[~x.any(axis=1), 0] = 1.0
        x[r.integers(0, size, size // 3)] = x[r.integers(0, size, size // 3)]
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        ids = r.choice(4 * size, size, replace=not unique_ids)
        bank = DescriptorBank(descriptors=x, ids=ids, labels=np.zeros(size))
        queries = np.concatenate([x, r.integers(-levels, levels + 1,
                                                (n, dim)).astype(float)])[:n]
        k = data.draw(st.integers(1, size), label="k")

        res = batch_knn(queries, bank, k)
        sims = queries @ bank.descriptors.T
        expected = np.stack([np.lexsort((ids, -row))[:k] for row in sims])
        np.testing.assert_array_equal(res.ref_indices, expected)
        np.testing.assert_array_equal(
            res.similarities, np.take_along_axis(sims, expected, axis=1))
        np.testing.assert_array_equal(res.ref_ids, ids[expected])

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
        # take few values and rows repeat, so ties are everywhere; ids are
        # a permutation, so the tie order is not the column order.
        r = np.random.default_rng(seed)
        m = r.choice([1, 4, 16], (size, 1))
        on = r.random((size, 16)).argsort(axis=1) < m
        x = np.where(on, r.choice([-1.0, 1.0], (size, 16)) / np.sqrt(m), 0.0)
        x[r.integers(0, size, size // 2)] = x[r.integers(0, size, size // 2)]
        ids = r.permutation(3 * size)[:size]
        bank = DescriptorBank(descriptors=x, ids=ids, labels=np.zeros(size))
        queries = np.concatenate([x[r.integers(0, size, n // 2)],
                                  r.integers(-2, 3, (n - n // 2, 16))])
        k = data.draw(st.integers(1, size) | st.sampled_from([1, size]),
                      label="k")

        res = batch_knn(queries, bank, k)
        sims = queries @ x.T
        expected = np.stack([np.lexsort((ids, -row))[:k] for row in sims])
        np.testing.assert_array_equal(res.ref_indices, expected)
        np.testing.assert_array_equal(
            res.similarities, np.take_along_axis(sims, expected, axis=1))

    @pytest.mark.parametrize("n", [1, _ROW_BLOCK]
                             + [_ROW_BLOCK + h for h in range(1, 9)])
    def test_blocked_gemm_is_bit_identical_to_full_gemm(self, n):
        # The blocks' cosines must equal one full Q @ D.T bit for bit.  At
        # N = 288 and d = 64, OpenBLAS 0.3.31 sums a GEMM of 1-4 rows in
        # another order, so every tail height up to 8 is pinned here.
        r = np.random.default_rng(n)
        bank = DescriptorBank(descriptors=unit_rows(r, 288, 64),
                              ids=np.arange(288), labels=np.zeros(288))
        queries = unit_rows(r, n, 64)
        sims = queries @ bank.descriptors.T
        expected = np.stack([np.lexsort((bank.ids, -row))[:10]
                             for row in sims])
        res = batch_knn(queries, bank, 10)
        np.testing.assert_array_equal(res.ref_indices, expected)
        np.testing.assert_array_equal(
            res.similarities, np.take_along_axis(sims, expected, axis=1))

    def test_memory_stays_below_the_full_similarity_matrix(self):
        # Blocked search never holds the (n, N) float64 matrix: its peak
        # allocation stays below half of it.
        r = np.random.default_rng(0)
        n, N = 2048, 4096
        bank = DescriptorBank(descriptors=unit_rows(r, N, 64),
                              ids=np.arange(N), labels=np.zeros(N))
        queries = unit_rows(r, n, 64)
        tracemalloc.start()
        try:
            batch_knn(queries, bank, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * N * 8 / 2

    def test_rejects_non_finite_queries(self, rng):
        bank = make_bank(rng, n=5, d=3)
        with pytest.raises(ValueError, match="non-finite"):
            batch_knn([[1.0, np.nan, 0.0]], bank, k=2)

    def test_result_owns_only_its_k_columns(self, rng):
        # The index block is allocated (n, k); no row is a view of a full
        # N-long sort that would keep it alive.
        bank = make_bank(rng, n=25, d=5)
        res = batch_knn(bank.descriptors[:3], bank, k=4)
        for arr in (res.ref_indices, res.ref_ids, res.similarities):
            assert arr.shape == (3, 4) and arr.base is None

    def test_k_out_of_range(self, rng):
        bank = make_bank(rng, n=5)
        q = bank.descriptors[0]
        with pytest.raises(ValueError):
            knn(q, bank, k=0)
        with pytest.raises(ValueError):
            knn(q, bank, k=6)


class TestGroundTruth:
    def test_distance_threshold(self, rng):
        bank = make_bank(rng, n=10)
        bank.poses = np.zeros((10, 2))
        bank.poses[:5, 0] = 100.0  # far group
        gt = GroundTruth(tau=25.0)
        mask = gt.positive_mask([0], np.zeros((1, 2)), bank,
                                np.arange(10)[None])
        np.testing.assert_array_equal(mask, [[False] * 5 + [True] * 5])

    def test_batched_rows_match_single_rows(self, rng):
        bank = make_bank(rng, n=30)
        q_poses = rng.uniform(0, 500, (5, 2))
        idx = rng.integers(0, 30, (5, 7))
        gt = GroundTruth(tau=150.0)
        mask = gt.positive_mask(np.arange(5), q_poses, bank, idx)
        assert mask.shape == (5, 7) and mask.any() and not mask.all()
        for i in range(5):
            np.testing.assert_array_equal(
                mask[i], gt.positive_mask([i], q_poses[i:i + 1], bank,
                                          idx[i:i + 1])[0])

    def test_threshold_is_inclusive(self, rng):
        bank = make_bank(rng, n=2)
        bank.poses = np.array([[25.0, 0.0], [25.0 + 1e-9, 0.0]])
        gt = GroundTruth(tau=25.0)
        mask = gt.positive_mask([0], np.zeros((1, 2)), bank, np.arange(2)[None])
        np.testing.assert_array_equal(mask, [[True, False]])

    def test_requires_poses(self, rng):
        bank = make_bank(rng, with_poses=False)
        gt = GroundTruth(tau=25.0)
        with pytest.raises(ValueError):
            gt.positive_mask([0], np.zeros((1, 2)), bank, np.arange(3)[None])

    def test_explicit_positives(self, rng):
        bank = make_bank(rng, n=6)
        gt = GroundTruth(mode=GroundTruthMode.EXPLICIT_POSITIVES,
                         positives={9: {101, 104}})
        mask = gt.positive_mask([9], None, bank, np.arange(6)[None])
        np.testing.assert_array_equal(mask,
                                      [[False, True, False, False, True, False]])
        with pytest.raises(KeyError):
            gt.positive_mask([8], None, bank, np.arange(6)[None])

    def test_validation(self):
        with pytest.raises(ValueError):
            GroundTruth(tau=0.0)
        with pytest.raises(ValueError):
            GroundTruth(mode=GroundTruthMode.EXPLICIT_POSITIVES)


class TestRecall:
    def test_recall_monotone_in_k(self, rng):
        bank = make_bank(rng, n=40, d=6)
        queries = bank.descriptors[:8] + 0.05 * rng.standard_normal((8, 6))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        results = batch_knn(queries, bank, k=10,
                            query_ids=bank.ids[:8])
        gt = GroundTruth(mode=GroundTruthMode.EXPLICIT_POSITIVES,
                         positives={int(i): {int(i)} for i in bank.ids[:8]})
        mark_successes(results, gt, bank)
        recalls = [recall_at_k(results, k) for k in (1, 5, 10)]
        assert recalls[0] <= recalls[1] <= recalls[2]

    def test_recall_exact_on_constructed_case(self):
        # 3 queries over a 3-item bank; positives chosen so that
        # Recall@1 = 1/3 and Recall@2 = 1.
        e = np.eye(3)
        bank = DescriptorBank(descriptors=e, ids=np.arange(3),
                              labels=np.arange(3))
        queries = np.array([e[0], e[1], e[2]])
        results = batch_knn(queries, bank, k=2, query_ids=[0, 1, 2])
        # rank 2 for every query is id 0 (tie among the two zero-cosine
        # candidates broken by ascending id), so positives {0} hit at
        # rank 1 only for query 0 and at rank 2 for the others.
        gt = GroundTruth(mode=GroundTruthMode.EXPLICIT_POSITIVES,
                         positives={0: {0}, 1: {0}, 2: {0}})
        mark_successes(results, gt, bank)
        assert recall_at_k(results, 1) == pytest.approx(1 / 3)
        assert recall_at_k(results, 2) == pytest.approx(1.0)

    def test_success_is_prefix_cumulative(self, rng):
        bank = make_bank(rng, n=10, d=4)
        res = batch_knn(bank.descriptors[0], bank, k=10,
                        query_ids=[int(bank.ids[0])])
        gt = GroundTruth(mode=GroundTruthMode.EXPLICIT_POSITIVES,
                         positives={int(bank.ids[0]): {int(bank.ids[5])}})
        mark_successes(res, gt, bank)
        assert np.all(np.diff(res.success.astype(int), axis=1) >= 0)

    def test_requires_marked_successes(self, rng):
        bank = make_bank(rng, n=4, d=4)
        res = batch_knn(bank.descriptors[0], bank, k=2)
        with pytest.raises(ValueError):
            recall_at_k(res, 1)
        with pytest.raises(ValueError):
            recall_at_k([], 1)
