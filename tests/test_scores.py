"""Uncertainty scores: kappa fusion and the geometric baselines."""

import math

import numpy as np
import pytest

from kappa_sphere import scores as sc
from kappa_sphere.retrieval import SUE_K, RetrievalResult, Rows
from kappa_sphere.vmf import resultant_uncertainty


def make_result(similarities, ref_indices=None):
    """A batch of one query's ranked matches."""
    sims = np.asarray(similarities, dtype=np.float64)
    idx = (np.arange(len(sims)) if ref_indices is None
           else np.asarray(ref_indices))
    return RetrievalResult(ref_indices=idx[None], similarities=sims[None])


def make_rows(rng, n=6, kappas=None):
    """n reference rows at random poses; scorers read no descriptor."""
    return Rows(poses=rng.uniform(0, 100, (n, 2)), kappas=kappas)


class TestFlooring:
    def test_floor_applies_below_one(self):
        assert sc.floor_kappa(0.2) == 1.0
        assert sc.floor_kappa(1.0) == 1.0
        assert sc.floor_kappa(3.5) == 3.5

    def test_query_uncertainty_floors_both_sides(self):
        # kappas below 1 behave exactly like kappa = 1
        a = sc.match_uncertainty(0.01, 0.5, 0.3)
        b = sc.match_uncertainty(1.0, 1.0, 0.3)
        assert a.value == b.value

    def test_inverse_kappa_bounded(self):
        assert sc.query_uncertainty_inverse_kappa(0.1) == 1.0
        assert sc.query_uncertainty_inverse_kappa(50.0) == pytest.approx(0.02)


class TestResultantScores:
    def test_query_matches_closed_form(self):
        got = sc.match_uncertainty(3.0, 4.0, 0.5)
        assert got.value == pytest.approx(1.0 / math.sqrt(37.0), rel=1e-15)

    def test_match_uncertainty_same_fusion(self):
        # the vMF resultant of the floored kappas
        m = sc.match_uncertainty(0.5, 7.0, -0.2)
        assert m == resultant_uncertainty(1.0, 7.0, -0.2)

    def test_more_confident_pair_scores_lower(self):
        weak = sc.match_uncertainty(2.0, 2.0, 0.9).value
        strong = sc.match_uncertainty(200.0, 200.0, 0.9).value
        assert strong < weak


class TestL2:
    # a query's L2 score is the distance of its top match
    def test_closed_form(self, rng):
        res = make_result([0.5, 0.1])
        got = sc.score_query(sc.METHOD_L2, res, make_rows(rng)).value[0]
        assert got == pytest.approx(1.0, rel=1e-15)  # sqrt(2-1)

    def test_perfect_match_is_zero(self):
        assert sc.l2_distance(1.0) == 0.0

    def test_clamps_float_noise(self):
        assert sc.l2_distance(1.0 + 1e-15) == 0.0

    def test_decreasing_in_cosine(self):
        values = sc.l2_distance(np.linspace(-1.0, 1.0, 11))
        assert all(b < a for a, b in zip(values, values[1:]))


class TestPa:
    def test_ratio(self):
        # d = sqrt(2 - 2cos): cos 0.5 -> d1 = 1, cos -1 -> d2 = 2
        res = make_result([0.5, -1.0])
        assert sc.baseline_pa(res)[0] == pytest.approx(1.0 / 2.0, rel=1e-15)

    def test_tie_gives_one(self):
        assert sc.baseline_pa(make_result([0.3, 0.3]))[0] == pytest.approx(1.0)

    def test_both_perfect_gives_one(self):
        assert sc.baseline_pa(make_result([1.0, 1.0]))[0] == 1.0

    def test_needs_two_neighbors(self, rng):
        # the table's input check, before the scorer runs
        with pytest.raises(sc.MissingInputError, match="2 retrieved"):
            sc.score_query(sc.METHOD_PA, make_result([0.9]), make_rows(rng))


class TestSue:
    def test_zero_when_poses_coincide(self, rng):
        bank = Rows(poses=np.tile([10.0, 20.0], (4, 1)))
        res = make_result([0.9, 0.8, 0.7], ref_indices=[0, 1, 2])
        assert sc.baseline_sue(res, bank, k=3)[0] == pytest.approx(0.0, abs=1e-20)

    def test_shift_invariance(self, rng):
        bank = make_rows(rng, n=5)
        res_a = make_result([0.9, 0.5, 0.1], ref_indices=[0, 1, 2])
        res_b = make_result([0.9 - 0.3, 0.5 - 0.3, 0.1 - 0.3],
                            ref_indices=[0, 1, 2])
        a = sc.baseline_sue(res_a, bank, k=3)[0]
        b = sc.baseline_sue(res_b, bank, k=3)[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_hand_computed_two_point(self, rng):
        bank = Rows(poses=np.array([[0.0, 0.0], [10.0, 0.0]]))
        res = make_result([0.2, 0.2], ref_indices=[0, 1])
        # equal weights: mean (5, 0), spread = 2 * 0.5 * 25 = 25
        assert sc.baseline_sue(res, bank, k=2)[0] == pytest.approx(25.0, rel=1e-12)

    def test_sue_log_compression(self):
        assert sc.sue_log(0.0) == 0.0
        assert sc.sue_log(math.e - 1.0) == pytest.approx(1.0, rel=1e-15)


class TestScoreQuery:
    def test_dispatch_consistency(self, rng):
        kappas = np.full(6, 20.0)
        bank = make_rows(rng, n=6, kappas=kappas)
        res = make_result([0.9, 0.7, 0.5], ref_indices=[2, 0, 1])

        kq = np.array([10.0])
        got = sc.score_query(sc.METHOD_RESULTANT, res, bank, kappa_q=kq)
        expected = sc.match_uncertainty(10.0, 20.0, 0.9).value
        assert got.value[0] == expected and not got.degenerate[0]

        assert sc.score_query(sc.METHOD_INV_KAPPA, res, bank,
                              kappa_q=kq).value[0] == pytest.approx(0.1)
        assert sc.score_query(sc.METHOD_L2, res, bank).value == \
            sc.l2_distance(0.9)
        assert sc.score_query(sc.METHOD_PA, res, bank).value == \
            sc.baseline_pa(res)
        assert sc.score_query(sc.METHOD_SUE, res, bank).value == \
            sc.baseline_sue(res, bank, 3)
        assert sc.score_query(sc.METHOD_SUE_LOG, res, bank).value == \
            sc.sue_log(sc.baseline_sue(res, bank, 3))

    def test_sue_spreads_at_most_sue_k_neighbours(self, rng):
        # the neighbourhood is min(SUE_K, K) of the K-deep search scored:
        # a deeper search spreads its top SUE_K poses, a top-1 none
        n = SUE_K + 3
        bank = make_rows(rng, n=n)
        deep = make_result(np.linspace(0.9, 0.1, n))
        got = sc.score_query(sc.METHOD_SUE, deep, bank).value
        assert got == sc.baseline_sue(deep, bank, SUE_K)
        assert got != sc.baseline_sue(deep, bank, n)
        with pytest.raises(sc.MissingInputError, match="2 retrieved"):
            sc.score_query(sc.METHOD_SUE, make_result([0.9]), bank)

    def test_resultant_needs_kappas(self, rng):
        bank = make_rows(rng, kappas=None)
        res = make_result([0.9], ref_indices=[0])
        with pytest.raises(ValueError):
            sc.score_query(sc.METHOD_RESULTANT, res, bank,
                           kappa_q=np.array([5.0]))

    def test_missing_kappas_error_type(self, rng):
        res = make_result([0.9], ref_indices=[0])
        with pytest.raises(sc.MissingInputError, match="kappas"):
            sc.score_query(sc.METHOD_RESULTANT, res, make_rows(rng),
                           kappa_q=np.array([5.0]))
        with pytest.raises(sc.MissingInputError, match="kappa"):
            sc.score_query(sc.METHOD_INV_KAPPA, res, make_rows(rng))

    def test_unknown_method(self, rng):
        bank = make_rows(rng)
        with pytest.raises(ValueError):
            sc.score_query("entropy", make_result([0.5, 0.4]), bank)
        # PA has no match-level form
        with pytest.raises(ValueError, match="match-level method 'pa'"):
            sc.score_pairs(sc.METHOD_PA, make_result([0.5, 0.4]), bank)

    def test_degenerate_flag_propagates(self, rng):
        kappas = np.array([5.0] * 6)
        bank = make_rows(rng, kappas=kappas)
        res = make_result([-1.0, 0.0], ref_indices=[0, 1])
        got = sc.score_query(sc.METHOD_RESULTANT, res, bank,
                             kappa_q=np.array([5.0]))
        assert got.degenerate[0]
        assert got.value[0] == 1e12


class TestElementwise:
    def test_scalar_in_scalar_out(self):
        for value in (sc.floor_kappa(0.5), sc.l2_distance(0.5),
                      sc.sue_log(2.0), sc.query_uncertainty_inverse_kappa(4.0),
                      sc.match_uncertainty(3.0, 4.0, 0.5).value):
            assert np.ndim(value) == 0 and isinstance(value, float)

    def test_arrays_match_scalars(self, rng):
        kq, kr = rng.uniform(0.1, 300.0, (2, 40))
        cos = rng.uniform(-1.0, 1.0, 40)
        batch = sc.match_uncertainty(kq, kr, cos)
        assert batch.value.shape == batch.degenerate.shape == (40,)
        for i in range(40):
            one = sc.match_uncertainty(kq[i], kr[i], cos[i])
            assert (batch.value[i], batch.degenerate[i]) == one
            assert sc.l2_distance(cos)[i] == math.sqrt(2.0 - 2.0 * cos[i])
        v = rng.uniform(0.0, 1e4, 40)
        assert list(sc.sue_log(v)) == [math.log1p(x) for x in v]

    def test_query_and_match_share_one_kernel(self, rng):
        # a query's resultant score is the match score of its top-1 pair
        bank = make_rows(rng, n=12, kappas=rng.uniform(0.1, 300.0, 12))
        sims = -np.sort(-rng.uniform(-1.0, 1.0, (7, 3)), axis=1)
        idx = np.stack([rng.permutation(12)[:3] for _ in range(7)])
        res = RetrievalResult(ref_indices=idx, similarities=sims)
        kq = rng.uniform(0.1, 300.0, 7)
        got = sc.score_query(sc.METHOD_RESULTANT, res, bank, kappa_q=kq)
        pair = sc.match_uncertainty(kq, bank.kappas[idx[:, 0]], sims[:, 0])
        assert got.value.tobytes() == pair.value.tobytes()
        np.testing.assert_array_equal(got.degenerate, pair.degenerate)

    def test_sue_rows_match_single_query_formula(self, rng):
        bank = make_rows(rng, n=12)
        sims = -np.sort(-rng.uniform(-1.0, 1.0, (7, 5)), axis=1)
        idx = np.stack([rng.permutation(12)[:5] for _ in range(7)])
        res = RetrievalResult(ref_indices=idx, similarities=sims)
        got = sc.baseline_sue(res, bank, k=5)
        for i in range(7):
            w = np.exp(sims[i] - sims[i].max())
            w /= w.sum()
            centered = bank.poses[idx[i]] - w @ bank.poses[idx[i]]
            assert got[i] == float(np.sum(w * np.sum(centered ** 2, axis=1)))
