"""Acceptance gate: the eleven project criteria, with their stated
tolerances and runtime budgets.

Criterion 7's ratio clause reads its factor 0.5 against the ECE@1
reduction over L2 that the scene's generative kappa* attains.  The
decisions ledger (docs/decisions.md) records the measurements behind that
reading and a snippet that reproduces them.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from kappa_sphere import scores as sc
from kappa_sphere.bench import run_bench
from kappa_sphere.calibration import (BinningConfig, BinStrategy, ClampMode,
                                      clamp_values, ece_at_k,
                                      ece_bruteforce_oracle, expected_level,
                                      match_ece_at_k)
from kappa_sphere.head import (aggregate, backward_batch, forward_batch,
                               init_head)
from kappa_sphere.pipeline import (evaluate_matches, fit_head, fit_joint,
                                   scene_rows)
from kappa_sphere.retrieval import batch_knn, mark_successes, recall_at_k
from kappa_sphere.synth import SceneConfig, generate_scene
from kappa_sphere.training import (LmclConfig, TrainConfig, TrainMode,
                                   encode, gnll_batch, joint_loss_and_grads,
                                   lmcl_batch, post_loss_and_grads,
                                   train_joint)
from kappa_sphere.vmf import (mle_kappa, sample_vmf, stable_log_partition_grad,
                              vmf_batch_nll)
from oracles import bessel_ratio_exact, finite_diff_check, unit_rows


def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


# --------------------------------------------------------------------------
# Criterion 1: Bessel sandwich.
# For d in {4, 16, 64, 128}, kappa in {0.5, 5, 50, 500}, the exact ratio
# lies within the Amos bounds and stable_log_partition_grad equals the
# upper bound; at d=512, kappa in [1, 1000], relative gap between the
# approximation and the exact ratio <= 1%.  Runtime < 5 s.

def _amos_bounds(d, kappa):
    vt = (d - 1) / 2.0  # = v + 1/2 with v = d/2 - 1
    upper = kappa / (vt + math.hypot(kappa, vt))
    lower = kappa / (vt + math.hypot(kappa, vt + 1.0))
    return lower, upper


def test_criterion_1_bessel_sandwich():
    start = time.perf_counter()
    for d in (4, 16, 64, 128):
        for kappa in (0.5, 5.0, 50.0, 500.0):
            exact = bessel_ratio_exact(d / 2 - 1, kappa)
            lower, upper = _amos_bounds(d, kappa)
            assert lower <= exact <= upper, (d, kappa)
            grad = stable_log_partition_grad(kappa, d)
            assert grad == pytest.approx(upper, rel=1e-14)
    for kappa in np.linspace(1.0, 1000.0, 60):
        exact = bessel_ratio_exact(512 / 2 - 1, float(kappa))
        approx = stable_log_partition_grad(float(kappa), 512)
        assert abs(approx - exact) / exact <= 0.01, kappa
    assert time.perf_counter() - start < 5.0


# --------------------------------------------------------------------------
# Criterion 2: gradient suite.  Every analytic gradient (vMF NLL w.r.t.
# kappa and z; head parameters; LMCL; GNLL; the post-training objective
# that train_post applies, w.r.t. the head; and the joint objective that
# train_joint applies, w.r.t. encoder, prototypes and head) matches central
# finite differences at rel. <= 1e-4 on >= 50 random instances each,
# double precision.  Runtime < 30 s.  Single-sample instances run the
# batched kernels training runs, on one-row inputs.

N_INSTANCES = 50
GRAD_TOL = 1e-4


def _vmf_one(z, mu, kappa):
    """The vMF NLL of one sample: `vmf_batch_nll` on one-row inputs."""
    return vmf_batch_nll(z[None], mu[None], np.array([kappa]))


def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # vMF NLL w.r.t. kappa
    for _ in range(N_INSTANCES):
        d = int(rng.integers(3, 40))
        z, mu = unit(rng, d), unit(rng, d)
        kappa = float(rng.uniform(0.5, 300.0))
        h = 1e-5 * max(1.0, kappa)
        fd = (_vmf_one(z, mu, kappa + h).loss
              - _vmf_one(z, mu, kappa - h).loss) / (2 * h)
        a = float(_vmf_one(z, mu, kappa).kappa[0])
        assert abs(a - fd) / max(abs(a), abs(fd), 1e-6) <= GRAD_TOL

    # vMF NLL w.r.t. z: directional derivative along a geodesic through z
    # (points stay on the sphere, where the loss is defined); for a unit
    # tangent direction t the analytic value is tangent . t.
    for _ in range(N_INSTANCES):
        d = int(rng.integers(3, 40))
        z, mu = unit(rng, d), unit(rng, d)
        kappa = float(rng.uniform(0.5, 100.0))
        t = rng.standard_normal(d)
        t -= z * (z @ t)
        t /= np.linalg.norm(t)
        h = 1e-5
        fd = (_vmf_one(math.cos(h) * z + math.sin(h) * t, mu, kappa).loss
              - _vmf_one(math.cos(h) * z - math.sin(h) * t, mu, kappa).loss
              ) / (2 * h)
        raw = _vmf_one(z, mu, kappa).z[0]
        a = float((raw - z * (z @ raw)) @ t)  # the tangent part of dL/dz
        assert abs(a - fd) / max(abs(a), abs(fd), 1e-6) <= GRAD_TOL

    # head parameters, on the pooled row of one feature map
    shape = (5, 3, 3)
    for _ in range(N_INSTANCES):
        head = init_head(shape, hidden=4, rng=rng)
        head["kappa_b"] = rng.uniform(-1.0, 1.0, 1)
        rows = aggregate(rng.standard_normal((1,) + shape))

        def loss_and_grad(head, rows=rows):
            kappas, cache = forward_batch(rows, head)
            kappa = float(kappas[0])
            return 0.5 * kappa * kappa, backward_batch(cache, head, kappas)

        report = finite_diff_check(loss_and_grad, head, tolerance=GRAD_TOL)
        assert report.passed, report.per_param

    # LMCL (moderate scale keeps finite-difference truncation negligible)
    for _ in range(N_INSTANCES):
        d, c = int(rng.integers(4, 16)), int(rng.integers(3, 8))
        protos = unit_rows(rng, c, d)
        cfg = LmclConfig(scale=float(rng.uniform(2.0, 12.0)), margin=0.2)
        label = int(rng.integers(c))

        def loss_and_grad(params, cfg=cfg, label=label):
            loss, gz, gw = lmcl_batch(params["z"][None], params["w"],
                                      np.array([label]), cfg)
            return loss, {"z": gz[0], "w": gw}

        report = finite_diff_check(
            loss_and_grad, {"z": unit(rng, d), "w": protos},
            tolerance=GRAD_TOL)
        assert report.passed, report.per_param

    # GNLL
    for _ in range(N_INSTANCES):
        d = int(rng.integers(3, 20))
        mu = rng.standard_normal(d)

        def loss_and_grad(params, mu=mu):
            loss, gz, gs2 = gnll_batch(params["z"][None], mu[None],
                                       params["s2"])
            return loss, {"z": gz[0], "s2": gs2}

        report = finite_diff_check(
            loss_and_grad,
            {"z": rng.standard_normal(d),
             "s2": np.array([float(rng.uniform(0.3, 4.0))])},
            tolerance=GRAD_TOL)
        assert report.passed, report.per_param

    # the batched kernels training runs, at batch size > 1: vMF w.r.t.
    # kappa and the ambient z and mu, GNLL w.r.t. z and sigma^2
    for _ in range(N_INSTANCES):
        n, d = int(rng.integers(2, 8)), int(rng.integers(3, 40))

        def loss_and_grad(params):
            out = vmf_batch_nll(params["z"], params["mu"], params["kappa"])
            return out.loss, {"kappa": out.kappa, "z": out.z, "mu": out.mu}

        report = finite_diff_check(
            loss_and_grad, {"z": unit_rows(rng, n, d), "mu": unit_rows(rng, n, d),
                            "kappa": rng.uniform(0.5, 300.0, n)},
            tolerance=GRAD_TOL)
        assert report.passed, report.per_param

        def loss_and_grad(params, mu=rng.standard_normal((n, d))):
            loss, gz, gs2 = gnll_batch(params["z"], mu, params["s2"])
            return loss, {"z": gz, "s2": gs2}

        report = finite_diff_check(
            loss_and_grad, {"z": rng.standard_normal((n, d)),
                            "s2": rng.uniform(0.3, 4.0, n)},
            tolerance=GRAD_TOL)
        assert report.passed, report.per_param

    # the joint objective, exactly as train_joint evaluates it per batch:
    # LMCL through z = normalize(W x), plus lam * vMF with the kappa head,
    # at lam = 0 and lam > 0 (the vMF term reaches the prototypes through
    # np.add.at).
    d, m, b, shape = 6, 5, 6, (5, 3, 3)
    labels = np.array([0, 0, 1, 1, 2, 2])
    lmcl = LmclConfig(scale=6.0, margin=0.2)
    for with_vmf in (False, True):
        for _ in range(N_INSTANCES):
            lam = float(rng.uniform(0.1, 1.0)) if with_vmf else 0.0
            cfg = TrainConfig(lam=lam)
            head = init_head(shape, hidden=4, rng=rng)
            features = aggregate(rng.standard_normal((b,) + shape))
            x = rng.standard_normal((b, m))
            params = {"encoder": rng.standard_normal((d, m)),
                      "prototypes": unit_rows(rng, 3, d)}
            if with_vmf:
                params.update(head)

            def loss_and_grad(params, features=features, x=x, cfg=cfg):
                return joint_loss_and_grads(params, features, x, labels, cfg,
                                            lmcl)

            assert set(loss_and_grad(params)[1]) == set(params)
            report = finite_diff_check(loss_and_grad, params,
                                       tolerance=GRAD_TOL)
            assert report.passed, (with_vmf, report.per_param)

    # the post-training objective, exactly as train_post evaluates it per
    # batch (each sample anchored on its class prototype): the vMF NLL (GNLL_VARIANT: the Gaussian NLL at sigma^2 =
    # 1 / kappa) of frozen descriptors with the head output as kappa,
    # w.r.t. every head parameter.
    for mode in (TrainMode.POST_TRAINING, TrainMode.GNLL_VARIANT):
        cfg = TrainConfig(mode=mode)
        for _ in range(N_INSTANCES):
            params = init_head(shape, hidden=4, rng=rng)
            features = aggregate(rng.standard_normal((b,) + shape))
            z = unit_rows(rng, b, d)

            def loss_and_grad(params, features=features, z=z, cfg=cfg,
                              anchors=unit_rows(rng, 3, d)[labels]):
                return post_loss_and_grads(params, features, z, anchors, cfg)

            assert set(loss_and_grad(params)[1]) == set(params)
            report = finite_diff_check(loss_and_grad, params,
                                       tolerance=GRAD_TOL)
            assert report.passed, (mode, report.per_param)

    assert time.perf_counter() - start < 30.0


# --------------------------------------------------------------------------
# Criterion 3: kappa recovery.  sample_vmf at d=64, kappa=200, n=1e4 ->
# mle_kappa within 5% of 200; per-class recovery on synthetic scenes
# within 10% at 200 images/class.  Runtime < 10 s.

def test_criterion_3_kappa_recovery():
    start = time.perf_counter()
    mu = unit(np.random.default_rng(0), 64)
    samples = sample_vmf(np.tile(mu, (10_000, 1)), np.full(10_000, 200.0),
                         rng_seed=42)
    assert mle_kappa(samples) == pytest.approx(200.0, rel=0.05)

    cfg = SceneConfig(num_classes=4, images_per_class=200, descriptor_dim=64,
                      kappa_min=120.0, kappa_max=120.0, aliasing_rate=0.0,
                      seed=7)
    ds = generate_scene(cfg)
    for cls in range(cfg.num_classes):
        est = mle_kappa(ds.descriptors[ds.rows.labels == cls])
        assert est == pytest.approx(120.0, rel=0.10)
    assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------------------
# Criterion 4: ECE oracle equivalence.  ece_at_k and match_ece_at_k equal
# the brute-force oracle exactly on 1000 randomized instances covering
# both binning strategies and all clamp modes.

def test_criterion_4_ece_oracle_equivalence():
    r = np.random.default_rng(4040)
    strategies = list(BinStrategy)
    modes = list(ClampMode)
    for trial in range(1000):
        k = int(r.integers(1, 4))
        n_queries = int(r.integers(4, 30))
        n = k * n_queries
        m = int(r.integers(2, 12))
        scores = r.uniform(-1.0, 3.0, n)
        if r.random() < 0.25:
            scores = np.round(scores, 1)  # exercise ties and bin edges
        flags = r.integers(0, 2, n)
        cfg = BinningConfig(num_bins=m, strategy=strategies[trial % 2],
                            clamp=modes[trial % 3])
        oracle = ece_bruteforce_oracle(scores, flags, cfg)
        assert ece_at_k(scores, flags, cfg).ece == oracle, trial
        pair_scores = scores.reshape(n_queries, k)  # row i: query i's pairs
        pair_flags = flags.reshape(n_queries, k)
        assert match_ece_at_k(pair_scores, pair_flags, cfg).ece == oracle, trial


# --------------------------------------------------------------------------
# Criterion 5: protocol exactness.  expected_level reproduces the
# C(1)=1.0 and C(M)=0.0 anchors; clamping is idempotent; kappa flooring
# at 1.0 is applied before all score construction.

def test_criterion_5_protocol_exactness(rng):
    for m in (2, 5, 10, 17):
        assert expected_level(1, m) == 1.0
        assert expected_level(m, m) == 0.0

    for mode in ClampMode:
        v = rng.standard_normal(777)
        cfg = BinningConfig(clamp=mode)
        once, _ = clamp_values(v, cfg)
        twice, _ = clamp_values(once, cfg)
        np.testing.assert_array_equal(once, twice)

    # flooring before score construction
    assert sc.floor_kappa(0.3) == 1.0
    assert sc.match_uncertainty(0.3, 0.7, 0.5) == sc.match_uncertainty(1.0, 1.0, 0.5)
    assert sc.match_uncertainty(0.0, 250.0, 0.1) == \
        sc.match_uncertainty(1.0, 250.0, 0.1)
    assert sc.query_uncertainty_inverse_kappa(0.3) == 1.0


# --------------------------------------------------------------------------
# Criterion 6: recall preservation.  After train_post, retrieval rankings
# over the database are bit-identical to the pre-training baseline;
# checked by hashing every query's ranked scene rows and similarities.

def _rankings_digest(dataset, k=10):
    db_idx, q_idx = dataset.splits["db"], dataset.splits["query"]
    desc = dataset.descriptors
    results = batch_knn(desc[q_idx], desc[db_idx], min(k, len(db_idx)))
    h = hashlib.sha256()
    for refs, sims in zip(db_idx[results.ref_indices], results.similarities):
        h.update(refs.tobytes())
        h.update(sims.tobytes())
    return h.hexdigest()


def test_criterion_6_recall_preservation():
    cfg = SceneConfig(num_classes=8, images_per_class=10, descriptor_dim=16,
                      aliasing_rate=0.25, seed=11)
    dataset = generate_scene(cfg)
    before = _rankings_digest(dataset)
    fit_head(dataset, cfg=TrainConfig(mode=TrainMode.POST_TRAINING, lr=0.05,
                                      max_epochs=10, warmup=2, seed=11))
    assert _rankings_digest(dataset) == before


# --------------------------------------------------------------------------
# Criterion 7: directional calibration claim.  On the default synthetic
# scene (C=32, d=64, kappa in [5, 500], aliasing 0.25, seeds {0..4}), the
# post-trained resultant score delivers at least half of the ECE@1
# reduction over the L2 baseline that the generative kappa* delivers:
#     mean L2 - mean resultant(kappa-hat) >= 0.5 x (mean L2 - mean resultant(kappa*)),
# i.e. rho-hat <= (1 + rho*) / 2 with rho = mean resultant ECE@1 / mean L2
# ECE@1; and Spearman(predicted kappa, true kappa*) >= 0.9 on held-out
# queries.  Runtime < 3 min per seed.
#
# The 0.5 is read against kappa*'s reduction, not against zero, because on
# this aliased scene kappa* itself only reaches rho* ~ 0.69; see the
# decisions ledger (docs/decisions.md).  The ratio clause alone accepts a
# constant kappa, which ranks queries as L2 does; the Spearman clause
# rejects it.

def test_criterion_7_directional_calibration_ratio(default_scene_sweep):
    mean_res = float(np.mean([r["resultant_ece1"] for r in default_scene_sweep]))
    mean_l2 = float(np.mean([r["l2_ece1"] for r in default_scene_sweep]))
    mean_true = float(np.mean([r["true_kappa_resultant_ece1"]
                               for r in default_scene_sweep]))
    rho_hat, rho_star = mean_res / mean_l2, mean_true / mean_l2
    detail = (f"rho-hat {rho_hat:.3f}, rho* {rho_star:.3f}, "
              f"bound (1 + rho*)/2 = {(1.0 + rho_star) / 2.0:.3f}")
    assert mean_true < mean_l2, f"kappa* does not improve on L2: {detail}"
    assert mean_l2 - mean_res >= 0.5 * (mean_l2 - mean_true), detail


def test_criterion_7_spearman_and_runtime(default_scene_sweep):
    for row in default_scene_sweep:
        assert row["spearman"] >= 0.9, (row["seed"], row["spearman"])
        assert row["elapsed"] < 180.0, (row["seed"], row["elapsed"])


# --------------------------------------------------------------------------
# Criterion 8: seed stability.  Std of post-trained resultant ECE@1
# across 5 seeds <= 0.02 on the default scene.

def test_criterion_8_seed_stability(default_scene_sweep):
    values = [r["resultant_ece1"] for r in default_scene_sweep]
    assert float(np.std(values)) <= 0.02, values


# --------------------------------------------------------------------------
# Criterion 9: JT non-degradation.  Joint training with lambda=0.01
# achieves Recall@1 >= classification-only Recall@1 - 0.02 on the default
# scene; the lambda=0 trajectory is bit-identical to classification-only.

def _joint_cfg(lam):
    return TrainConfig(lam=lam, lr=1e-4, max_epochs=30, patience=6, warmup=3,
                       seed=0)


def _query_recall1(dataset, encoder):
    db_idx = dataset.splits["db"]
    q_idx = dataset.splits["query"]
    results = batch_knn(encode(encoder, dataset.raw[q_idx]),
                        encode(encoder, dataset.raw[db_idx]), 1)
    return recall_at_k(mark_successes(results, dataset.rows.subset(db_idx),
                                      dataset.rows.subset(q_idx), tau=25.0),
                       1)


def test_criterion_9_joint_training_non_degradation():
    dataset = generate_scene(SceneConfig(seed=0))

    enc_vmf, _, head, _ = fit_joint(dataset, cfg=_joint_cfg(0.01))
    enc_cls, _, _, _ = fit_joint(dataset, cfg=_joint_cfg(0.0))
    assert head is not None

    recall_vmf = _query_recall1(dataset, enc_vmf)
    recall_cls = _query_recall1(dataset, enc_cls)
    assert recall_vmf >= recall_cls - 0.02, (recall_vmf, recall_cls)

    # lambda = 0 with a head present must follow the classification-only
    # trajectory bit-identically (the vMF term is skipped entirely).
    # Compared without an eval hook so the optimization path itself is
    # tested, not checkpoint selection.
    rng = np.random.default_rng(0)
    idx = dataset.splits["train"]
    data = (dataset.head_inputs[idx], dataset.raw[idx],
            dataset.rows.labels[idx])
    encoder = rng.standard_normal(
        (dataset.config.descriptor_dim, dataset.raw.shape[1]))
    head0 = init_head(dataset.config.feature_shape, hidden=8, rng=0)
    cfg = TrainConfig(lam=0.0, lr=1e-4, max_epochs=8, warmup=0, seed=0)
    lmcl = LmclConfig()
    enc_a, pro_a, _, hist_a = train_joint(*data, encoder, dataset.prototypes,
                                          head0, cfg, lmcl)
    enc_b, pro_b, _, hist_b = train_joint(*data, encoder, dataset.prototypes,
                                          None, cfg, lmcl)
    np.testing.assert_array_equal(enc_a, enc_b)
    np.testing.assert_array_equal(pro_a, pro_b)
    assert [r["loss"] for r in hist_a] == [r["loss"] for r in hist_b]


# --------------------------------------------------------------------------
# Criterion 10: match-level discrimination.  Match-level ECE@1 of
# match_uncertainty <= match-level ECE@1 of the L2 pairwise score on the
# aliased scene; additionally, mean match uncertainty of positive pairs <
# mean of negative pairs at equal similarity deciles (count-weighted over
# deciles that contain both kinds of pair).

def test_criterion_10_match_level_discrimination(default_scene_sweep):
    row = default_scene_sweep[0]
    dataset = row["dataset"]
    db, queries = scene_rows(dataset, row["head"])
    db_desc, q_desc = (dataset.descriptors[dataset.splits[name]]
                       for name in ("db", "query"))
    ev = evaluate_matches(db, queries, batch_knn(q_desc, db_desc, 1))
    assert ev.reports[sc.METHOD_RESULTANT].ece <= ev.reports[sc.METHOD_L2].ece

    # decile analysis over k=10 retrieved pairs
    top10 = batch_knn(q_desc, db_desc, 10)
    ev10 = evaluate_matches(db, queries, top10)
    sims = top10.similarities.ravel()
    scores = ev10.pairs[sc.METHOD_RESULTANT].value.ravel()
    flags = ev10.positive.ravel()

    edges = np.quantile(sims, np.linspace(0.0, 1.0, 11))
    weighted_gap = 0.0
    weight_total = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        in_bin = (sims >= lo) & (sims <= hi)
        pos = in_bin & flags
        neg = in_bin & ~flags
        if pos.sum() == 0 or neg.sum() == 0:
            continue
        count = int(in_bin.sum())
        weighted_gap += count * (scores[neg].mean() - scores[pos].mean())
        weight_total += count
    assert weight_total > 0
    assert weighted_gap / weight_total > 0.0


# --------------------------------------------------------------------------
# Criterion 11: bench direction.  Kappa-head forward overhead < 20% of
# the descriptor-path forward at desk scale.

def test_criterion_11_bench_overhead():
    result = run_bench(seed=0)
    assert result.overhead < 0.20, result.to_dict()
