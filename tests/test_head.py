"""Concentration head: pooling, forward, and hand-written gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_sphere.head import (GEM_P, _gem, aggregate, backward_batch,
                               forward_batch, init_head, softplus)
from oracles import finite_diff_check

SHAPE = (6, 3, 3)


def gem(fm, p):
    """GeM of one (c, h, w) map, as `aggregate` pools each row; `fm` is
    left as it was (`_gem` pools in place)."""
    return _gem(np.array(fm, dtype=np.float64)[None], p)[0]


def pooled(rng, n=None):
    """Pooled rows of random (c, h, w) maps: one (c,) row, or (n, c)."""
    fms = rng.standard_normal((1 if n is None else n,) + SHAPE)
    rows = aggregate(fms)
    return rows[0] if n is None else rows


def kappa_one(row, head):
    """kappa of one pooled row: the batch forward on one row."""
    return float(forward_batch(row[None], head)[0][0])


def grads_one(row, head, upstream):
    """Parameter gradients of upstream * kappa for one pooled row."""
    _, cache = forward_batch(row[None], head)
    return backward_batch(cache, head, np.array([upstream]))


def random_head(rng):
    return init_head(SHAPE, hidden=5, rng=rng)


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

    def test_pools_in_place_with_the_bits_of_the_power(self, rng):
        # _gem overwrites its batch and powers only the entries > 0: an
        # exact zero or -0.0 powers to itself and a NaN stays NaN, so the
        # pooled rows keep the bits of max(x, 0) ** p
        x = rng.standard_normal((3, 4, 5, 5))
        x[0, 0, 0, :2] = [0.0, -0.0]
        x[1, 2, 3, 4] = np.nan
        for p in (GEM_P, 2.5):
            want = np.mean(np.maximum(x, 0.0) ** p, axis=(2, 3)) ** (1 / p)
            got = _gem(x.copy(), p)
            np.testing.assert_array_equal(got, want)
            finite = np.isfinite(want)
            assert got[finite].tobytes() == want[finite].tobytes()
            assert np.isnan(got[1, 2])

    def test_monotone_in_p(self, rng):
        fm = np.abs(rng.standard_normal((3, 4, 4)))
        rows = [gem(fm, p) for p in (1.0, 2.0, 4.0, 16.0)]
        for a, b in zip(rows, rows[1:]):
            assert np.all(b >= a - 1e-12)


class TestForward:
    def test_softplus_examples(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-12)
        assert softplus(50.0) == pytest.approx(50.0, abs=1e-9)

    def test_zero_weights_give_softplus_bias(self, rng):
        head = random_head(rng)
        head["proj_w"] = np.zeros_like(head["proj_w"])
        head["kappa_b"] = np.array([1.7])
        assert kappa_one(pooled(rng), head) == pytest.approx(softplus(1.7),
                                                             rel=1e-12)

    def test_strictly_positive(self, rng):
        head = random_head(rng)
        head["proj_w"] *= 10.0
        for _ in range(20):
            assert kappa_one(pooled(rng), head) > 0.0

    def test_batch_matches_single(self, rng):
        head = random_head(rng)
        rows = pooled(rng, 4)
        kappas, _ = forward_batch(rows, head)
        singles = [kappa_one(row, head) for row in rows]
        np.testing.assert_allclose(kappas, singles, rtol=1e-14)

    def test_shape_mismatch(self, rng):
        # rows of another channel count, or a lone 1-D row, are refused
        # with the shape the head expects
        head = random_head(rng)
        expected = rf"expected pooled rows of shape \(n, {SHAPE[0]}\)"
        for bad in (rng.standard_normal((4, SHAPE[0] + 1)),
                    rng.standard_normal(SHAPE[0])):
            with pytest.raises(ValueError, match=expected):
                forward_batch(bad, head)


def _head_loss(row):
    """Scalar loss kappa^2 / 2 for gradient checks; upstream = kappa."""

    def loss_and_grad(head):
        kappa = kappa_one(row, head)
        return 0.5 * kappa * kappa, grads_one(row, head, kappa)

    return loss_and_grad


class TestGradients:
    def test_finite_difference(self, rng):
        for _ in range(10):
            head = random_head(rng)
            head["kappa_b"] = rng.uniform(-1.0, 1.0, 1)
            report = finite_diff_check(_head_loss(pooled(rng)), head)
            assert report.passed, report.per_param

    def test_zero_upstream(self, rng):
        head = random_head(rng)
        grads = grads_one(pooled(rng), head, 0.0)
        assert set(grads) == set(head)
        for key in head:
            np.testing.assert_array_equal(grads[key], 0.0)
            assert grads[key].shape == head[key].shape

    def test_batch_grads_sum_over_samples(self, rng):
        head = random_head(rng)
        rows = pooled(rng, 3)
        upstream = rng.standard_normal(3)
        _, cache = forward_batch(rows, head)
        batched = backward_batch(cache, head, upstream)
        singles = [grads_one(row, head, float(u))
                   for row, u in zip(rows, upstream)]
        for key in head:
            np.testing.assert_allclose(
                batched[key], sum(s[key] for s in singles), rtol=1e-12)


class TestPooledRows:
    """Rows pooled once stand in for per-batch pooling, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_do_not_depend_on_the_batch(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        c = data.draw(st.integers(1, 70), label="c")
        h = data.draw(st.integers(1, 9), label="h")
        w = data.draw(st.integers(1, 9), label="w")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fms = rng.standard_normal((n, c, h, w)) * 10.0 ** rng.uniform(-3, 3)
        whole = aggregate(fms)
        height = data.draw(st.integers(1, n), label="height")
        idx = np.array(data.draw(st.permutations(range(n))))[:height]
        part = aggregate(fms[idx])
        assert part.tobytes() == whole[idx].tobytes()

    def test_rows_rejected_where_the_maps_are_read(self, rng):
        # the head reads pooled rows only: the (n, c, h, w) maps they come
        # from, or rows missing a channel, are refused with the row shape
        head = random_head(rng)
        expected = rf"expected pooled rows of shape \(n, {SHAPE[0]}\)"
        fms = rng.standard_normal((4,) + SHAPE)
        with pytest.raises(ValueError, match=expected):
            forward_batch(fms, head)
        with pytest.raises(ValueError, match=expected):
            forward_batch(aggregate(fms)[:, 1:], head)
        forward_batch(aggregate(fms), head)

    def test_rows_pool_at_gem_p(self, rng):
        fms = rng.standard_normal((5,) + SHAPE)
        u = fms / np.linalg.norm(fms, axis=1, keepdims=True)
        assert aggregate(fms).tobytes() == _gem(u, GEM_P).tobytes()
