"""Evaluation on (n, K) arrays: batched retrieval, scores and reports."""

import warnings
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
    db, query = pipeline.scene_rows(dataset, head)
    return dataset, head, db, query


def split_desc(dataset):
    """The scene's db and query descriptors, in that order."""
    return (dataset.descriptors[dataset.splits[name]]
            for name in ("db", "query"))


def default_search(dataset, ks=pipeline.DEFAULT_KS):
    return pipeline.search_splits(dataset.descriptors, dataset.splits, ks)


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
    assert spearmanr(kappas, dataset.rows.true_kappa).statistic > 0.9
    assert np.median(kappas) > 1.0


class TestEvaluateQueries:
    def test_rows_match_batches_of_one(self, fitted):
        # every method scores a query the same alone as inside the batch;
        # the search goes SUE_K deep even when ks stops at 5
        dataset, _, db, query = fitted
        res = default_search(dataset, (1, 5))
        ev = pipeline.evaluate_queries(db, query, res, ks=(1, 5))
        n = len(query)
        assert ev.success.shape == (n, SUE_K)
        for method, (value, degenerate) in ev.scored.items():
            assert value.shape == degenerate.shape == (n,)
            for i in (0, n // 2, n - 1):
                row = RetrievalResult(
                    ref_indices=res.ref_indices[i:i + 1],
                    similarities=res.similarities[i:i + 1])
                one = sc.score_query(method, row, db,
                                     kappa_q=query.kappas[i:i + 1])
                assert one.value[0] == value[i], (method, i)
        for k in (1, 5):
            assert ev.recalls[k] == float(np.mean(ev.success[:, k - 1]))

    @pytest.mark.parametrize("ks", [(), (0, 1), (-1, 5)],
                             ids=["empty", "zero", "negative"])
    def test_rejects_empty_or_nonpositive_ks(self, fitted, ks):
        # ks = (0, 1) would report the deepest rank as "Recall@0"
        dataset, _, db, query = fitted
        with pytest.raises(ValueError, match="ks"):
            pipeline.evaluate_queries(db, query, default_search(dataset),
                                      ks=ks)

    def test_ece_at_k_does_not_depend_on_the_other_ks(self, fitted):
        # SUE's neighbourhood is SUE_K whatever ks lists, so adding K
        # values leaves every method's report at the others unchanged
        dataset, _, db, query = fitted
        full = pipeline.evaluate_queries(db, query, default_search(dataset),
                                         ks=(1, 5, 10))
        for ks in ((1,), (5,), (10,), (1, 5)):
            part = pipeline.evaluate_queries(
                db, query, default_search(dataset, ks), ks=ks)
            assert set(part.reports) == {(m, k) for m in sc.ALL_METHODS
                                         for k in ks}
            for key, rep in part.reports.items():
                assert rep.to_dict() == full.reports[key].to_dict(), key

    def test_one_search_serves_every_kappa_source(self, fitted):
        # kappa-hat, then kappa*, then kappa-hat again, all scored on one
        # search: the search keeps no state between scorings, and the
        # kappa* reports are those of a search of their own
        dataset, _, db, query = fitted
        truth = db.with_kappas(db.true_kappa), \
            query.with_kappas(query.true_kappa)
        results = default_search(dataset)
        first, swapped, again = (
            pipeline.evaluate_queries(*rows, results)
            for rows in ((db, query), truth, (db, query)))
        assert again.reports == first.reports
        assert again.spearman_kappa == first.spearman_kappa
        assert swapped.reports == pipeline.evaluate_queries(
            *truth, default_search(dataset)).reports
        key = (sc.METHOD_RESULTANT, 1)
        assert swapped.reports[key] != first.reports[key]

    def test_constant_kappa_gives_no_spearman(self, fitted):
        # Spearman is undefined for a constant vector: None, not NaN
        dataset, _, db, query = fitted
        query = query.with_kappas(np.ones(len(query)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = pipeline.evaluate_queries(db, query, default_search(dataset),
                                           ks=(1,))
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
        dataset, _, db, query = fitted
        db_desc, q_desc = split_desc(dataset)
        res = batch_knn(q_desc, db_desc, 3)
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
        dataset, _, db, query = fitted
        db_desc, q_desc = split_desc(dataset)
        query = query.with_kappas(None)
        ev = pipeline.evaluate_matches(db, query,
                                       batch_knn(q_desc, db_desc, 2))
        assert set(ev.pairs) == set(ev.reports) == {sc.METHOD_L2}

    def test_given_results_are_scored_as_searched(self, fitted):
        # the caller's search is scored as given and never run again: the
        # first k columns of a deeper one (match-eval's recorded search)
        # score as a top-k search; a search of other queries is refused,
        # and so is one that evaluate_queries would read past the end of
        dataset, _, db, query = fitted
        db_desc, q_desc = split_desc(dataset)
        deep = batch_knn(q_desc, db_desc, SUE_K + 2)

        def prefix(k, rows=slice(None)):
            return RetrievalResult(
                ref_indices=np.ascontiguousarray(deep.ref_indices[rows, :k]),
                similarities=np.ascontiguousarray(deep.similarities[rows, :k]))

        score = {  # each evaluation, and the depth its search has
            "matches": (lambda res: pipeline.evaluate_matches(db, query, res),
                        2),
            "queries": (lambda res: pipeline.evaluate_queries(
                db, query, res, ks=(1, 5)), SUE_K)}
        searched = {name: run(batch_knn(q_desc, db_desc, k))
                    for name, (run, k) in score.items()}
        with mock.patch.object(pipeline, "batch_knn",
                               side_effect=AssertionError("searched")):
            for name, (run, k) in score.items():
                assert run(prefix(k)).reports == searched[name].reports
                short = prefix(k, slice(1, None))
                with pytest.raises(ValueError, match=(
                        f"a search of {len(query) - 1} queries cannot score "
                        f"{len(query)}")):
                    run(short)
            assert pipeline.search_depth((1, 5), len(db)) == SUE_K
            with pytest.raises(ValueError, match=(
                    f"a top-{SUE_K - 1} search is shallower than the search "
                    f"depth {SUE_K}")):
                score["queries"][0](prefix(SUE_K - 1))
