"""Evaluation on (n, K) arrays: batched retrieval, scores and reports."""

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.stats import spearmanr

from kappa_sphere import pipeline
from kappa_sphere import scores as sc
from kappa_sphere.retrieval import SUE_K, RetrievalResult, batch_knn
from kappa_sphere.synth import SceneConfig, generate_scene
from kappa_sphere.training import TrainConfig, TrainMode

SMALL = dict(num_classes=8, images_per_class=10, descriptor_dim=16,
             aliasing_rate=0.25, seed=3)


@pytest.fixture(scope="module")
def fitted():
    dataset = generate_scene(SceneConfig(**SMALL))
    head, _ = pipeline.fit_head(dataset, cfg=TrainConfig(
        mode=TrainMode.POST_TRAINING, lr=0.05, max_epochs=6, warmup=2, seed=3))
    db, query = pipeline.scene_banks(dataset, head)
    return dataset, head, db, query


def test_fit_head_retrieves_once():
    # descriptors are frozen during post-training, so the validation kNN
    # runs once however many epochs the hook scores
    dataset = generate_scene(SceneConfig(**SMALL))
    with mock.patch.object(pipeline, "batch_knn",
                           wraps=pipeline.batch_knn) as knn:
        _, history = pipeline.fit_head(dataset, cfg=TrainConfig(
            mode=TrainMode.POST_TRAINING, lr=0.05, max_epochs=5, warmup=0,
            seed=3))
    assert len(history) == 5
    assert knn.call_count == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gnll_fit_predicts_kappa(seed):
    # the Gaussian-NLL ablation trains the same head, read as kappa with
    # sigma^2 = 1 / kappa: its kappas rank like the scene's kappa* and
    # mostly clear the 1.0 floor the scores apply
    dataset = generate_scene(SceneConfig(seed=seed))
    head, _ = pipeline.fit_head(dataset, TrainConfig(
        mode=TrainMode.GNLL_VARIANT, seed=seed))
    kappas = pipeline.predict_kappas(dataset.head_inputs, head)
    assert spearmanr(kappas, dataset.bank.true_kappa).statistic > 0.9
    assert np.median(kappas) > 1.0


class TestEvaluateQueries:
    def test_rows_match_batches_of_one(self, fitted):
        # every method scores a query the same alone as inside the batch;
        # the search goes SUE_K deep even when ks stops at 5
        _, _, db, query = fitted
        ev = pipeline.evaluate_queries(db, query, ks=(1, 5))
        res = ev.results
        n = len(query)
        assert res.success.shape == (n, SUE_K)
        for method, (value, degenerate) in ev.scored.items():
            assert value.shape == degenerate.shape == (n,)
            for i in (0, n // 2, n - 1):
                row = RetrievalResult(
                    ref_indices=res.ref_indices[i:i + 1],
                    similarities=res.similarities[i:i + 1])
                one = sc.score_query(method, row, db,
                                     kappa_q=query.kappas[i:i + 1], k=SUE_K)
                assert one.value[0] == value[i], (method, i)
        for k in (1, 5):
            assert ev.recalls[k] == float(np.mean(res.success[:, k - 1]))

    @pytest.mark.parametrize("ks", [(), (0, 1), (-1, 5)],
                             ids=["empty", "zero", "negative"])
    def test_rejects_empty_or_nonpositive_ks(self, fitted, ks):
        # ks = (0, 1) would report the deepest rank as "Recall@0"
        _, _, db, query = fitted
        with pytest.raises(ValueError, match="ks"):
            pipeline.evaluate_queries(db, query, ks=ks)

    def test_ece_at_k_does_not_depend_on_the_other_ks(self, fitted):
        # SUE's neighbourhood is SUE_K whatever ks lists, so adding K
        # values leaves every method's report at the others unchanged
        _, _, db, query = fitted
        full = pipeline.evaluate_queries(db, query, ks=(1, 5, 10))
        for ks in ((1,), (5,), (10,), (1, 5)):
            part = pipeline.evaluate_queries(db, query, ks=ks)
            assert set(part.reports) == {(m, k) for m in sc.ALL_METHODS
                                         for k in ks}
            for key, rep in part.reports.items():
                assert rep.to_dict() == full.reports[key].to_dict(), key

    def test_constant_kappa_gives_no_spearman(self, fitted):
        # Spearman is undefined for a constant vector: None, not NaN
        _, _, db, query = fitted
        query = replace(query, kappas=np.ones(len(query)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = pipeline.evaluate_queries(db, query, ks=(1,))
        assert ev.spearman_kappa is None
        assert (sc.METHOD_RESULTANT, 1) in ev.reports


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("n", [2, 3, 10, 97, 1000, 6144])
def test_spearman_equals_scipy_bit_for_bit(n, ties):
    for seed in range(5):
        r = np.random.default_rng([n, seed])
        if ties:
            a = r.integers(0, max(2, n // 4), n).astype(float)
            b = r.integers(0, 3, n).astype(float)
            a[:2], b[:2] = (0.0, 1.0), (1.0, 0.0)  # never constant
        else:
            a, b = r.lognormal(size=n), r.standard_normal(n)
            b += a
        assert pipeline._spearman(a, b) == spearmanr(a, b).statistic


class TestEvaluateMatches:
    def test_pairs_are_the_elementwise_scores(self, fitted):
        _, _, db, query = fitted
        res = batch_knn(query.descriptors, db.descriptors, 3)
        ev = pipeline.evaluate_matches(db, query, res)
        n = len(query)
        assert ev.positive.shape == res.similarities.shape == (n, 3)
        value, degenerate = ev.pairs[sc.METHOD_RESULTANT]
        assert value.shape == degenerate.shape == (n, 3)
        for i, j in ((0, 0), (n // 2, 1), (n - 1, 2)):
            ref = res.ref_indices[i, j]
            one = sc.match_uncertainty(query.kappas[i], db.kappas[ref],
                                       res.similarities[i, j])
            assert one.value == value[i, j]
            dist = np.linalg.norm(db.poses[ref] - query.poses[i])
            assert ev.positive[i, j] == (dist <= pipeline.DEFAULT_TAU)
        np.testing.assert_array_equal(
            ev.pairs[sc.METHOD_L2].value, sc.l2_distance(res.similarities))
        assert ev.reports[sc.METHOD_RESULTANT].total == 3 * n

    def test_without_kappas_only_l2(self, fitted):
        _, _, db, query = fitted
        query = replace(query, kappas=None)
        ev = pipeline.evaluate_matches(
            db, query, batch_knn(query.descriptors, db.descriptors, 2))
        assert set(ev.pairs) == set(ev.reports) == {sc.METHOD_L2}

    def test_given_results_are_scored_as_searched(self, fitted):
        # the caller's search is scored as given and never run again: the
        # first k columns of a deeper one (match-eval's recorded search)
        # score as a top-k search; a search of other queries is refused
        _, _, db, query = fitted
        deep = batch_knn(query.descriptors, db.descriptors, 5)
        prefix = RetrievalResult(
            ref_indices=np.ascontiguousarray(deep.ref_indices[:, :2]),
            similarities=np.ascontiguousarray(deep.similarities[:, :2]))
        searched = pipeline.evaluate_matches(
            db, query, batch_knn(query.descriptors, db.descriptors, 2))
        with mock.patch.object(pipeline, "batch_knn",
                               side_effect=AssertionError("searched")):
            given = pipeline.evaluate_matches(db, query, prefix)
            assert given.reports == searched.reports
            short = RetrievalResult(ref_indices=deep.ref_indices[1:],
                                    similarities=deep.similarities[1:])
            with pytest.raises(ValueError, match=(
                    f"a search of {len(query) - 1} queries cannot score "
                    f"{len(query)}")):
                pipeline.evaluate_matches(db, query, short)
