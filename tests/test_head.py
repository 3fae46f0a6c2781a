"""Concentration head: pooling, forward, and hand-written gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_sphere.head import (HeadVariant, _gem, aggregate, backward_batch,
                               forward_batch, init_head, softplus)
from oracles import finite_diff_check

SHAPE = (6, 3, 3)


def gem(fm, p):
    """GeM of one (c, h, w) map, as `aggregate` pools each row."""
    return _gem(np.asarray(fm)[None], p)[2][0]


def kappa_one(fm, head):
    """kappa of one (c, h, w) map: the batch forward on one row."""
    return float(forward_batch(fm[None], head)[0][0])


def grads_one(fm, head, upstream):
    """Parameter gradients of upstream * kappa for one map."""
    _, cache = forward_batch(fm[None], head)
    return backward_batch(cache, head, np.array([upstream]))


def random_head(rng, variant=HeadVariant.AGGREGATION, train_gem_p=False):
    head = init_head(SHAPE, hidden=5, variant=variant, rng=rng)
    head.train_gem_p = train_gem_p
    return head


class TestGemPool:
    def test_p1_is_mean(self):
        fm = np.zeros((1, 1, 2))
        fm[0, 0] = [1.0, 3.0]
        assert gem(fm, 1.0)[0] == pytest.approx(2.0)

    def test_large_p_approaches_max(self):
        fm = np.zeros((1, 1, 2))
        fm[0, 0] = [1.0, 3.0]
        assert gem(fm, 64.0)[0] == pytest.approx(3.0, rel=0.03)

    def test_all_zero_channel(self):
        fm = np.zeros((2, 2, 2))
        np.testing.assert_array_equal(gem(fm, 3.0), [0.0, 0.0])

    def test_negative_values_clipped(self):
        fm = np.full((1, 1, 2), -5.0)
        assert gem(fm, 2.0)[0] == 0.0

    def test_monotone_in_p(self, rng):
        fm = np.abs(rng.standard_normal((3, 4, 4)))
        pooled = [gem(fm, p) for p in (1.0, 2.0, 4.0, 16.0)]
        for a, b in zip(pooled, pooled[1:]):
            assert np.all(b >= a - 1e-12)

    def test_rejects_bad_p(self):
        for bad in (0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="gem_p"):
                init_head(SHAPE, gem_p=bad)


class TestForward:
    def test_softplus_examples(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-12)
        assert softplus(50.0) == pytest.approx(50.0, abs=1e-9)

    def test_zero_weights_give_softplus_bias(self, rng):
        head = random_head(rng)
        head.proj_w = np.zeros_like(head.proj_w)
        head.kappa_b = 1.7
        fm = rng.standard_normal(SHAPE)
        assert kappa_one(fm, head) == pytest.approx(softplus(1.7), rel=1e-12)

    def test_strictly_positive(self, rng):
        for variant in HeadVariant:
            head = random_head(rng, variant)
            for _ in range(20):
                fm = rng.standard_normal(SHAPE) * 10.0
                assert kappa_one(fm, head) > 0.0

    def test_batch_matches_single(self, rng):
        head = random_head(rng)
        fms = rng.standard_normal((4,) + SHAPE)
        kappas, _ = forward_batch(fms, head)
        singles = [kappa_one(fm, head) for fm in fms]
        np.testing.assert_allclose(kappas, singles, rtol=1e-14)

    def test_shape_mismatch(self, rng):
        head = random_head(rng)
        with pytest.raises(ValueError, match="channel count"):
            kappa_one(rng.standard_normal((7, 3, 3)), head)


def _head_loss(fm, head, base):
    """Scalar loss kappa^2 / 2 for gradient checks; upstream = kappa."""

    def loss_and_grad(params):
        base.kappa_w = params["kappa_w"]
        base.kappa_b = float(params["kappa_b"][0])
        if "proj_w" in params:
            base.proj_w = params["proj_w"]
        if "gem_p" in params:
            base.gem_p = float(params["gem_p"][0])
        kappa = kappa_one(fm, base)
        grads = grads_one(fm, base, kappa)
        out = {"kappa_w": grads.kappa_w,
               "kappa_b": np.array([grads.kappa_b])}
        if "proj_w" in params:
            out["proj_w"] = grads.proj_w
        if "gem_p" in params:
            out["gem_p"] = np.array([grads.gem_p])
        return 0.5 * kappa * kappa, out

    return loss_and_grad


class TestGradients:
    @pytest.mark.parametrize("variant", list(HeadVariant))
    def test_finite_difference(self, rng, variant):
        for _ in range(10):
            head = random_head(rng, variant)
            fm = rng.standard_normal(SHAPE)
            params = {"kappa_w": head.kappa_w.copy(),
                      "kappa_b": np.array([head.kappa_b])}
            if variant is HeadVariant.AGGREGATION:
                params["proj_w"] = head.proj_w.copy()
            report = finite_diff_check(_head_loss(fm, head, head), params)
            assert report.passed, report.per_param

    def test_finite_difference_trained_gem_p(self, rng):
        for _ in range(5):
            head = random_head(rng, train_gem_p=True)
            head.gem_p = 2.5
            fm = rng.standard_normal(SHAPE)
            params = {"kappa_w": head.kappa_w.copy(),
                      "kappa_b": np.array([head.kappa_b]),
                      "proj_w": head.proj_w.copy(),
                      "gem_p": np.array([head.gem_p])}
            report = finite_diff_check(_head_loss(fm, head, head), params)
            assert report.passed, report.per_param

    def test_zero_upstream(self, rng):
        head = random_head(rng)
        grads = grads_one(rng.standard_normal(SHAPE), head, 0.0)
        assert grads.kappa_b == 0.0
        np.testing.assert_array_equal(grads.kappa_w, 0.0)
        np.testing.assert_array_equal(grads.proj_w, 0.0)

    def test_linear_only_closed_form(self, rng):
        # gradient = upstream * sigmoid(pre) * (flattened input, 1)
        head = random_head(rng, HeadVariant.LINEAR_ONLY)
        fm = rng.standard_normal(SHAPE)
        flat = fm.reshape(-1)
        pre = float(flat @ head.kappa_w + head.kappa_b)
        sig = 1.0 / (1.0 + math.exp(-pre))
        upstream = 2.3
        grads = grads_one(fm, head, upstream)
        np.testing.assert_allclose(grads.kappa_w, upstream * sig * flat,
                                   rtol=1e-12)
        assert grads.kappa_b == pytest.approx(upstream * sig, rel=1e-12)

    def test_batch_grads_sum_over_samples(self, rng):
        head = random_head(rng)
        fms = rng.standard_normal((3,) + SHAPE)
        upstream = rng.standard_normal(3)
        _, cache = forward_batch(fms, head)
        batched = backward_batch(cache, head, upstream)
        singles = [grads_one(fm, head, float(u))
                   for fm, u in zip(fms, upstream)]
        np.testing.assert_allclose(
            batched.kappa_w, sum(s.kappa_w for s in singles), rtol=1e-12)
        np.testing.assert_allclose(
            batched.proj_w, sum(s.proj_w for s in singles), rtol=1e-12)
        assert batched.kappa_b == pytest.approx(
            sum(s.kappa_b for s in singles), rel=1e-12)


class TestPooledRows:
    """Rows pooled once stand in for per-batch pooling, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_do_not_depend_on_the_batch(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        c = data.draw(st.integers(1, 70), label="c")
        h = data.draw(st.integers(1, 9), label="h")
        w = data.draw(st.integers(1, 9), label="w")
        p = data.draw(st.sampled_from([1.0, 2.0, 3.0])
                      | st.floats(1.0, 8.0), label="p")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fms = rng.standard_normal((n, c, h, w)) * 10.0 ** rng.uniform(-3, 3)
        whole = aggregate(fms, p)["g"]
        height = data.draw(st.integers(1, n), label="height")
        idx = np.array(data.draw(st.permutations(range(n))))[:height]
        part = aggregate(fms[idx], p)["g"]
        assert part.tobytes() == whole[idx].tobytes()

    def test_rows_give_the_maps_kappas_and_gradients(self, rng):
        head = random_head(rng)
        fms = rng.standard_normal((40,) + SHAPE)
        rows = aggregate(fms, head.gem_p)["g"]
        idx = rng.permutation(40)[:17]
        upstream = rng.standard_normal(17)
        k_maps, c_maps = forward_batch(fms[idx], head)
        k_rows, c_rows = forward_batch(rows[idx], head)
        assert k_rows.tobytes() == k_maps.tobytes()
        g_maps = backward_batch(c_maps, head, upstream)
        g_rows = backward_batch(c_rows, head, upstream)
        assert g_rows.proj_w.tobytes() == g_maps.proj_w.tobytes()
        assert g_rows.kappa_w.tobytes() == g_maps.kappa_w.tobytes()
        assert g_rows.kappa_b == g_maps.kappa_b

    def test_rows_rejected_where_the_maps_are_read(self, rng):
        rows = rng.standard_normal((4, SHAPE[0]))
        with pytest.raises(ValueError, match="gem_p"):
            forward_batch(rows, random_head(rng, train_gem_p=True))
        with pytest.raises(ValueError, match="linear-only"):
            forward_batch(rows, random_head(rng, HeadVariant.LINEAR_ONLY))
        with pytest.raises(ValueError, match="channel count"):
            forward_batch(rows[:, 1:], random_head(rng))
