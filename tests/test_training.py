"""Losses, Adam, gradient checking, and the training loops."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from kappa_sphere import pipeline, training
from kappa_sphere.calibration import FieldError
from kappa_sphere.head import aggregate, init_head
from kappa_sphere.synth import SceneConfig, generate_scene
from kappa_sphere.training import (AdamState, LmclConfig, TrainConfig,
                                   TrainMode, _fit, adam_step, gnll_batch,
                                   lmcl_batch, train_joint, train_post)
from oracles import finite_diff_check, unit_rows


def lmcl_one(z, weights, label, cfg):
    """LMCL of one embedding: the batch kernel on one row."""
    loss, grad_z, grad_w = lmcl_batch(z[None], weights, np.array([label]), cfg)
    return loss, grad_z[0], grad_w


def gnll_one(z, mu, sigma_sq):
    """Gaussian NLL of one descriptor: the batch kernel on one row."""
    loss, grad_z, grad_s2 = gnll_batch(z[None], mu[None],
                                       np.array([sigma_sq]))
    return loss, grad_z[0], float(grad_s2[0])


class TestLmcl:
    def test_gradients_finite_diff(self, rng):
        # Moderate scale keeps finite-difference truncation error (which
        # grows like scale^3) well below the 1e-4 tolerance.
        d, c = 10, 6
        protos = unit_rows(rng, c, d)
        z0 = unit_rows(rng, 1, d)[0]
        cfg = LmclConfig(scale=8.0, margin=0.2)

        def loss_and_grad(params):
            # Note: z and the prototype rows are treated as free ambient
            # vectors here; the loss itself is defined off the sphere too.
            loss, gz, gw = lmcl_one(params["z"], params["w"], 2, cfg)
            return loss, {"z": gz, "w": gw}

        report = finite_diff_check(
            loss_and_grad, {"z": z0.copy(), "w": protos.copy()})
        assert report.passed, report.per_param

    def test_margin_penalizes_true_class(self, rng):
        d, c = 8, 5
        protos = unit_rows(rng, c, d)
        z = protos[1].copy()
        with_margin, _, _ = lmcl_one(z, protos, 1, LmclConfig(30.0, 0.35))
        without, _, _ = lmcl_one(z, protos, 1, LmclConfig(30.0, 0.0))
        assert with_margin > without

    def test_shift_invariance_of_softmax(self, rng):
        # The implementation must match the naive formula computed in
        # extended precision even when logits are large.
        d, c = 6, 4
        protos = unit_rows(rng, c, d)
        z = unit_rows(rng, 1, d)[0]
        cfg = LmclConfig(scale=300.0, margin=0.35)
        loss, _, _ = lmcl_one(z, protos, 0, cfg)
        logits = cfg.scale * (protos @ z)
        logits[0] -= cfg.scale * cfg.margin
        big = np.array(logits, dtype=np.longdouble)
        expected = float(np.log(np.exp(big).sum()) - big[0])
        assert math.isfinite(loss)
        assert loss == pytest.approx(expected, rel=1e-10)


class TestGnll:
    def test_stationary_at_mean_square_error(self, rng):
        d = 12
        z = rng.standard_normal(d)
        mu = rng.standard_normal(d)
        s2_star = float(np.sum((z - mu) ** 2)) / d
        _, _, grad_s2 = gnll_one(z, mu, s2_star)
        assert grad_s2 == pytest.approx(0.0, abs=1e-12)
        # and it is a minimum: gradient negative below, positive above
        _, _, below = gnll_one(z, mu, 0.5 * s2_star)
        _, _, above = gnll_one(z, mu, 2.0 * s2_star)
        assert below < 0.0 < above

    def test_gradients_finite_diff(self, rng):
        d = 7
        z0 = rng.standard_normal(d)
        mu = rng.standard_normal(d)

        def loss_and_grad(params):
            loss, gz, gs2 = gnll_one(params["z"], mu, float(params["s2"][0]))
            return loss, {"z": gz, "s2": np.array([gs2])}

        report = finite_diff_check(
            loss_and_grad, {"z": z0.copy(), "s2": np.array([1.7])})
        assert report.passed, report.per_param

class TestAdam:
    def test_first_step_matches_hand_computation(self):
        # With fresh state the bias-corrected first step is
        # lr * g / (|g| + eps) elementwise.
        theta = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -0.1, 2.0])
        state = AdamState(3)
        state.grad[:] = g
        adam_step(theta, state, lr=0.01)
        expected = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(theta, expected, rtol=1e-12)
        assert state.t == 1

    def test_second_step_matches_reference(self):
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05
        theta = np.array([0.7])
        state = AdamState(1)
        ref = 0.7
        m = v = 0.0
        for t, g in enumerate([0.4, -1.1], start=1):
            state.grad[:] = g
            adam_step(theta, state, lr)
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            ref -= lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps)
        assert theta[0] == pytest.approx(ref, rel=1e-12)

    def test_in_place_update(self):
        theta = np.array([1.0, 2.0])
        state = AdamState(2)
        state.grad[:] = 1.0
        adam_step(theta, state, lr=0.1)
        assert not np.array_equal(theta, [1.0, 2.0])

    @staticmethod
    def _fit_with(bad, match):
        # the first batch's gradients fit the arrays, the second's are
        # `bad`: the fit raises at the second step, before theta moves
        seen, live = [], []

        def loss_and_grads(p, rows):
            live.append(p)
            seen.append({key: value.copy() for key, value in p.items()})
            return 0.0, {"w": np.ones(2)} if len(seen) == 1 else bad

        arrays = {"w": np.zeros(2)}
        with pytest.raises(ValueError, match=match):
            _fit(arrays, loss_and_grads, {"rows": np.arange(4)},
                 TrainConfig(batch_size=1, max_epochs=1, warmup=0), None,
                 (("metric", +1),))
        assert len(seen) == 2
        assert not np.array_equal(seen[1]["w"], seen[0]["w"])
        np.testing.assert_array_equal(live[-1]["w"], seen[1]["w"])
        np.testing.assert_array_equal(arrays["w"], np.zeros(2))

    @pytest.mark.parametrize("keys", [("w", "b"), ("b",)])
    def test_gradient_keys_fixed_by_the_arrays(self, keys):
        self._fit_with({key: np.ones(2) for key in keys}, "keys")

    def test_gradient_shape_mismatch(self):
        self._fit_with({"w": np.ones(3)}, r"gradient shape \(3,\) != param "
                       r"shape \(2,\) for 'w'")

    def test_bits_of_the_per_key_formula(self):
        # the allocating per-key update the flat adam_step replaced,
        # verbatim
        def reference(params, grads, state, lr, beta1=0.9, beta2=0.999,
                      eps=1e-8):
            state["t"] += 1
            t = state["t"]
            for key, g in grads.items():
                p = params[key]
                g = np.asarray(g, dtype=np.float64)
                if key not in state["m"]:
                    state["m"][key] = np.zeros_like(p)
                    state["v"][key] = np.zeros_like(p)
                state["m"][key] = beta1 * state["m"][key] + (1 - beta1) * g
                state["v"][key] = (beta2 * state["v"][key]
                                   + (1 - beta2) * g * g)
                m_hat = state["m"][key] / (1 - beta1 ** t)
                v_hat = state["v"][key] / (1 - beta2 ** t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)

        # joint training's keys at the default scene: encoder (d, m),
        # prototypes (C, d) and the head's entries (hidden 64, 8 channels),
        # laid out in one vector as _fit lays them out
        rng = np.random.default_rng(5)
        shapes = {"encoder": (64, 192), "prototypes": (32, 64),
                  "proj_w": (64, 8), "kappa_w": (64,), "kappa_b": (1,)}
        bounds = np.cumsum([0] + [math.prod(s) for s in shapes.values()])
        slices = {key: slice(a, b)
                  for key, a, b in zip(shapes, bounds, bounds[1:])}
        theirs = {k: rng.standard_normal(s) for k, s in shapes.items()}
        theta = np.concatenate([v.reshape(-1) for v in theirs.values()])
        state, ref_state = AdamState(len(theta)), {"m": {}, "v": {}, "t": 0}
        for _ in range(600):
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.uniform(-6, 2)
                     for k, s in shapes.items()}
            for key, sl in slices.items():
                state.grad[sl] = grads[key].reshape(-1)
            adam_step(theta, state, 1e-3)
            reference(theirs, grads, ref_state, 1e-3)
        for key, sl in slices.items():
            assert theta[sl].tobytes() == theirs[key].tobytes(), key
            assert state.m[sl].tobytes() == ref_state["m"][key].tobytes()
            assert state.v[sl].tobytes() == ref_state["v"][key].tobytes()


class TestFiniteDiffCheck:
    def test_accepts_correct_gradient(self):
        def quad(params):
            x = params["x"]
            return float(0.5 * x @ x), {"x": x.copy()}

        report = finite_diff_check(quad, {"x": np.array([0.3, -1.2, 4.0])})
        assert report.passed
        assert report.max_rel_err <= 1e-6

    def test_rejects_wrong_gradient(self):
        def quad(params):
            x = params["x"]
            return float(0.5 * x @ x), {"x": 1.1 * x}

        report = finite_diff_check(quad, {"x": np.array([1.0, 2.0])})
        assert not report.passed
        assert report.max_rel_err > 0.05

    def test_params_restored(self):
        x = np.array([0.5, 1.5])

        def quad(params):
            return float(params["x"] @ params["x"]), {"x": 2 * params["x"]}

        finite_diff_check(quad, {"x": x})
        np.testing.assert_array_equal(x, [0.5, 1.5])


def tiny_data(rng, n=24, c=3, h=2, w=2, d=6, num_classes=4, raw_dim=5):
    """A toy fit's per-sample arrays, under the trainers' argument names,
    and its (C, d) prototypes."""
    labels = np.arange(n) % num_classes
    features = aggregate(rng.standard_normal((n, c, h, w)))
    descriptors = unit_rows(rng, n, d)
    raw = rng.standard_normal((n, raw_dim))
    protos = unit_rows(rng, num_classes, d)
    return (SimpleNamespace(features=features, labels=labels,
                            descriptors=descriptors, raw=raw), protos)


def post(data, *args, **kwargs):
    """`train_post` on the arrays of a `tiny_data`."""
    return train_post(data.features, data.descriptors, data.labels, *args,
                      **kwargs)


def joint(data, *args, **kwargs):
    """`train_joint` on the arrays of a `tiny_data`."""
    return train_joint(data.features, data.raw, data.labels, *args, **kwargs)


class TestFitSamples:
    """`_fit` checks the per-sample arrays before theta is built."""

    @staticmethod
    def _run(monkeypatch, rng, trainer, data, protos):
        # the fit fails before its first Adam step, and leaves every array
        # of the caller as it was
        steps = []
        monkeypatch.setattr(training, "adam_step",
                            lambda *args: steps.append(args))
        head = init_head((3, 2, 2), hidden=4, rng=rng)
        encoder = rng.standard_normal((6, 5))
        arrays = (*vars(data).values(), protos, encoder, *head.values())
        before = [a.copy() for a in arrays]
        cfg = TrainConfig(max_epochs=2, warmup=0)
        try:
            if trainer == "post":
                post(data, protos, head, cfg)
            else:
                joint(data, encoder, protos, head, cfg, LmclConfig())
        finally:
            assert not steps
            for a, b in zip(arrays, before):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("trainer, short, named", [
        ("post", "descriptors", "descriptors"), ("post", "labels", "labels"),
        ("post", "features", "descriptors"), ("joint", "raw", "raw"),
        ("joint", "labels", "labels"), ("joint", "features", "raw")])
    def test_rejects_a_sample_array_of_another_length(
            self, monkeypatch, rng, trainer, short, named):
        # a short descriptor block would otherwise fail mid-fit with a bare
        # IndexError, which the CLI does not report; the lengths are read
        # against the first sample array, the features
        data, protos = tiny_data(rng)
        setattr(data, short, getattr(data, short)[:20])
        rows, n = (24, 20) if short == "features" else (20, 24)
        with pytest.raises(ValueError,
                           match=rf"^{named} has {rows} rows, not {n}$"):
            self._run(monkeypatch, rng, trainer, data, protos)

    @pytest.mark.parametrize("trainer", ["post", "joint"])
    def test_rejects_an_empty_fit(self, monkeypatch, rng, trainer):
        data, protos = tiny_data(rng, n=0)
        with pytest.raises(ValueError, match=r"^empty dataset$"):
            self._run(monkeypatch, rng, trainer, data, protos)

    @pytest.mark.parametrize("trainer", ["post", "joint"])
    def test_rejects_what_is_not_pooled_rows(self, monkeypatch, rng,
                                             trainer):
        # the head reads (n, c) rows: feature maps or a flat vector are
        # refused with their shape by forward_batch, on the first batch
        # (joint training with a head, at lam > 0)
        for bad in (rng.standard_normal((24, 3, 2, 2)),
                    rng.standard_normal(24)):
            data, protos = tiny_data(rng)
            data.features = bad
            # one batch holds all 24 rows
            with pytest.raises(ValueError, match=r"pooled rows of shape "
                               r"\(n, 3\), got shape "
                               + re.escape(str(bad.shape))):
                self._run(monkeypatch, rng, trainer, data, protos)

class TestTrainPost:
    def test_descriptors_untouched(self, rng):
        data, protos = tiny_data(rng)
        before = data.descriptors.copy()
        head = init_head((3, 2, 2), hidden=4, rng=rng)
        cfg = TrainConfig(max_epochs=3, warmup=0)
        post(data, protos, head, cfg)
        np.testing.assert_array_equal(data.descriptors, before)

    def test_loss_decreases(self, rng):
        data, protos = tiny_data(rng, n=48)
        head = init_head((3, 2, 2), hidden=4, rng=rng)
        cfg = TrainConfig(max_epochs=40, lr=0.05, warmup=0)
        _, history = post(data, protos, head, cfg)
        assert history[-1]["loss"] < history[0]["loss"]

    def test_returns_copy_not_input_head(self, rng):
        data, protos = tiny_data(rng)
        head = init_head((3, 2, 2), hidden=4, rng=rng)
        before = {key: value.copy() for key, value in head.items()}
        trained, _ = post(data, protos, head,
                          TrainConfig(max_epochs=2, warmup=0))
        for key in head:
            np.testing.assert_array_equal(head[key], before[key])
            assert trained[key] is not head[key]

    def test_deterministic(self, rng):
        data, protos = tiny_data(rng)
        head = init_head((3, 2, 2), hidden=4, rng=np.random.default_rng(0))
        cfg = TrainConfig(max_epochs=5, seed=7, warmup=0)
        a, _ = post(data, protos, head, cfg)
        b, _ = post(data, protos, head, cfg)
        for key in head:
            np.testing.assert_array_equal(a[key], b[key])

    def test_warmup_excluded_from_checkpointing(self, rng):
        # A hook that is best at epoch 0 and worst afterwards: with
        # warmup=2 the selected checkpoint must come from epoch >= 2.
        data, protos = tiny_data(rng)
        head = init_head((3, 2, 2), hidden=4, rng=rng)
        metrics = iter([0.01, 0.5, 0.3, 0.4, 0.45, 0.5, 0.55])
        seen = []

        def hook(h):
            m = next(metrics)
            seen.append((m, float(h["kappa_b"][0])))
            return m

        cfg = TrainConfig(max_epochs=7, patience=3, warmup=2)
        trained, history = post(data, protos, head, cfg, eval_hook=hook)
        # best eligible metric is 0.3 at epoch index 2
        assert trained["kappa_b"][0] == seen[2][1]
        assert len(history) == 6  # epochs 3,4,5 are stale -> stop at epoch 5

    def test_gnll_variant_runs(self, rng):
        data, protos = tiny_data(rng)
        head = init_head((3, 2, 2), hidden=4, rng=rng)
        cfg = TrainConfig(mode=TrainMode.GNLL_VARIANT, max_epochs=3, warmup=0)
        _, history = post(data, protos, head, cfg)
        assert len(history) == 3
        assert all(math.isfinite(row["loss"]) for row in history)

    def test_unknown_label(self, rng):
        # every label is checked before the first step, and a bad one is
        # located by its row in the fit's data, not in a shuffled batch:
        # -1 must not anchor to row C - 1
        head = init_head((3, 2, 2), hidden=4, rng=rng)
        for bad in (-1, 4):
            data, protos = tiny_data(rng)  # 4 classes
            data.labels[5] = bad
            with pytest.raises(ValueError, match=rf"label {bad} at row 5 "
                               r"outside \[0, 4\)"):
                post(data, protos, head, TrainConfig(max_epochs=2, warmup=0))


class TestEpochBatches:
    def test_index_batches_slice_one_permutation(self):
        # the batches _fit hands loss_and_grads gather, from every sample
        # array in order, the rows of index batches that slice one
        # permutation of the n sample rows, drawn from the config's seed
        n = 70
        seen = []

        def loss_and_grads(params, idx, doubled):
            np.testing.assert_array_equal(doubled, 2 * idx)
            seen.append(idx)
            return 0.0, {"w": np.zeros(1)}

        _fit({"w": np.zeros(1)}, loss_and_grads,
             {"idx": np.arange(n), "doubled": 2 * np.arange(n)},
             TrainConfig(batch_size=32, max_epochs=1, warmup=0, seed=5), None,
             (("metric", +1),))
        perm = np.random.default_rng(5).permutation(n)
        assert [len(b) for b in seen] == [32, 32, 6]
        np.testing.assert_array_equal(np.concatenate(seen), perm)


class TestTrainJoint:
    def test_lambda_zero_matches_classification_only(self, rng):
        data, protos = tiny_data(rng)
        encoder = rng.standard_normal((6, 5))
        head = init_head((3, 2, 2), hidden=4, rng=rng)
        cfg0 = TrainConfig(lam=0.0, max_epochs=4, warmup=0)
        enc_a, pro_a, head_a, _ = joint(data, encoder, protos, head, cfg0,
                                        LmclConfig())
        enc_b, pro_b, _, _ = joint(data, encoder, protos, None, cfg0,
                                   LmclConfig())
        np.testing.assert_array_equal(enc_a, enc_b)
        np.testing.assert_array_equal(pro_a, pro_b)
        # at lam = 0 nothing trains the head, so none comes back
        assert head_a is None

    def test_lambda_zero_watches_recall_only(self):
        # without a head there is no ECE@1 to watch: one phase, which stops
        # `patience` epochs after validation Recall@1 last improved, and no
        # all-NaN ece1 column in the history
        dataset = generate_scene(SceneConfig(num_classes=8, images_per_class=10,
                                             descriptor_dim=16))
        cfg = TrainConfig(lam=0.0, patience=5, warmup=2)
        _, _, head, history = pipeline.fit_joint(dataset, cfg)
        assert head is None
        assert [list(row) for row in history] == \
            [["epoch", "loss", "recall1", "phase"]] * len(history)
        assert {row["phase"] for row in history} == {1}
        recalls = [row["recall1"] for row in history[cfg.warmup:]]
        best = cfg.warmup + int(np.argmax(recalls))
        assert len(history) == best + cfg.patience + 1 < cfg.max_epochs

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_lambda_zero_rejects_a_label_outside_the_classes(self, rng, bad):
        # at lam = 0 no vMF anchor is resolved, so the LMCL term is the
        # only reader of the labels: -1 must not score as class C - 1, and
        # C must not fail with a bare IndexError
        data, protos = tiny_data(rng)  # 4 classes
        data.labels = data.labels.copy()
        data.labels[5] = bad
        cfg0 = TrainConfig(lam=0.0, max_epochs=2, warmup=0)
        with pytest.raises(ValueError,
                           match=rf"label {bad} at row 5 outside \[0, 4\)"):
            joint(data, rng.standard_normal((6, 5)), protos, None, cfg0,
                  LmclConfig())

    def test_loss_decreases(self, rng):
        data, protos = tiny_data(rng, n=48)
        encoder = rng.standard_normal((6, 5))
        head = init_head((3, 2, 2), hidden=4, rng=rng)
        cfg = TrainConfig(lam=0.01, lr=0.01, max_epochs=30, warmup=0)
        _, _, _, history = joint(data, encoder, protos, head, cfg,
                                 LmclConfig())
        assert history[-1]["loss"] < history[0]["loss"]

    def test_prototypes_stay_unit(self, rng):
        data, protos = tiny_data(rng)
        encoder = rng.standard_normal((6, 5))
        head = init_head((3, 2, 2), hidden=4, rng=rng)
        cfg = TrainConfig(max_epochs=3, warmup=0)
        _, pro, _, _ = joint(data, encoder, protos, head, cfg, LmclConfig())
        np.testing.assert_allclose(np.linalg.norm(pro, axis=1), 1.0,
                                   atol=1e-12)

    def test_phased_early_stopping(self, rng):
        data, protos = tiny_data(rng)
        encoder = rng.standard_normal((6, 5))
        head = init_head((3, 2, 2), hidden=4, rng=rng)

        recalls = [0.5, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6]
        eces = [0.3, 0.3, 0.3, 0.3, 0.25, 0.2, 0.3, 0.3, 0.3, 0.3]
        calls = []

        def hook(enc, pro, hd):
            i = len(calls)
            calls.append(i)
            return recalls[i], eces[i]

        cfg = TrainConfig(max_epochs=10, patience=2, warmup=0)
        _, _, _, history = joint(data, encoder, protos, head, cfg,
                                 LmclConfig(), eval_hook=hook)
        phases = [row["phase"] for row in history]
        # recall plateaus after epoch 1 -> phase flips at epoch 3;
        # ece improves at 4,5 then stales at 6,7 -> stop after epoch 7.
        assert phases[:4] == [1, 1, 1, 1]
        assert all(p == 2 for p in phases[4:])
        assert len(history) == 8

    def test_returns_the_checkpoint(self, rng):
        # With an eval hook and lam > 0 the encoder and head come back as
        # they were at the selected epoch, not the last one; the hook sees
        # the live parameters, and the caller's arrays are left as they were.
        data, protos = tiny_data(rng)
        encoder = rng.standard_normal((6, 5))
        head = init_head((3, 2, 2), hidden=4, rng=rng)
        before = {key: value.copy() for key, value in head.items()}
        before.update(encoder=encoder.copy(), prototypes=protos.copy())
        # recall is best at epoch 1 and stale at 2, 3 -> phase 2 from
        # epoch 4, where ECE is best; stale at 5, 6 -> stop after epoch 6
        recalls = [0.5, 0.9, 0.4, 0.4, 0.4, 0.4, 0.4]
        eces = [0.3, 0.3, 0.3, 0.3, 0.2, 0.3, 0.3]
        seen = []

        def hook(enc, pro, hd):
            seen.append((enc.copy(),
                         {key: value.copy() for key, value in hd.items()}))
            return recalls[len(seen) - 1], eces[len(seen) - 1]

        cfg = TrainConfig(lam=0.5, lr=0.05, max_epochs=20, patience=2,
                          warmup=0)
        enc, _, trained, history = joint(data, encoder, protos, head, cfg,
                                         LmclConfig(), eval_hook=hook)
        assert len(history) == len(seen) == 7
        best_enc, best_head = seen[4]
        last_enc, last_head = seen[6]
        np.testing.assert_array_equal(enc, best_enc)
        assert not np.array_equal(enc, last_enc)
        assert set(trained) == set(head)
        for key in head:
            np.testing.assert_array_equal(trained[key], best_head[key])
            assert not np.array_equal(trained[key], last_head[key]), key
            np.testing.assert_array_equal(head[key], before[key])
        np.testing.assert_array_equal(encoder, before["encoder"])
        np.testing.assert_array_equal(protos, before["prototypes"])


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lam=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(warmup=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(FieldError, match=r"^seed must be >= 0, got -3$"):
            TrainConfig(seed=-3)
        with pytest.raises(ValueError):
            LmclConfig(margin=1.0)

    def test_warmup_below_max_epochs(self):
        # with no epoch past the warmup no checkpoint is ever selected, and
        # the fit would hand back its starting parameters as trained
        for warmup, max_epochs in ((10, 5), (3, 3), (0, 0)):
            with pytest.raises(ValueError) as info:
                TrainConfig(warmup=warmup, max_epochs=max_epochs)
            # a constraint between keys (located at the section) only once
            # each key passes its own check
            assert isinstance(info.value, FieldError) == (max_epochs == 0)
        assert str(info.value) == "max_epochs must be >= 1, got 0"
        with pytest.raises(ValueError, match=r"^require warmup < max_epochs, "
                           r"got warmup 10 and max_epochs 5$"):
            TrainConfig(max_epochs=5)
        TrainConfig(warmup=4, max_epochs=5)
