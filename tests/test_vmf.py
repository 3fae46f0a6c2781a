"""Core vMF machinery against scipy/quadrature oracles."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ive

from kappa_sphere import synth, vmf
from kappa_sphere.vmf import (DegenerateConcentrationError, mle_kappa,
                              resultant_uncertainty, sample_vmf,
                              stable_log_partition, stable_log_partition_grad,
                              vmf_batch_nll)
from oracles import bessel_ratio_exact, log_density


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def tiled(mu, kappa, n):
    """The sampler's inputs for n draws around one mean and kappa."""
    return np.tile(mu, (n, 1)), np.full(n, kappa)


class TestStableLogPartition:
    def test_closed_form_d3(self):
        # d=3: v_tilde = 1, A(2) = sqrt(5) - log(1 + sqrt(5)).
        expected = math.sqrt(5.0) - math.log(1.0 + math.sqrt(5.0))
        assert stable_log_partition(2.0, 3) == pytest.approx(expected, rel=1e-15)

    def test_zero_kappa(self):
        for d in (3, 16, 130):
            vt = (d - 1) / 2.0
            expected = vt - vt * math.log(2.0 * vt)
            assert stable_log_partition(0.0, d) == pytest.approx(expected)
            assert stable_log_partition_grad(0.0, d) == 0.0

    def test_grad_is_derivative(self):
        # A(k) - A(0) equals the integral of A'(t) dt from 0 to k.
        for kappa in (0.5, 7.0, 300.0):
            integral, err = quad(
                lambda t: stable_log_partition_grad(t, 24), 0.0, kappa)
            diff = stable_log_partition(kappa, 24) - stable_log_partition(0.0, 24)
            assert diff == pytest.approx(integral, abs=max(1e-10, 10 * err))

    def test_grad_upper_bounds_exact_ratio(self):
        for d in (4, 16, 64):
            for kappa in (0.5, 5.0, 50.0, 500.0):
                exact = bessel_ratio_exact(d / 2 - 1, kappa)
                upper = stable_log_partition_grad(kappa, d)
                assert 0.0 < exact < upper < 1.0

    def test_finite_at_extremes(self):
        assert math.isfinite(stable_log_partition(1e8, 2048))
        assert 0.0 < stable_log_partition_grad(1e8, 2048) < 1.0

    def test_rejects_bad_kappa(self):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                stable_log_partition(bad, 8)

    @pytest.mark.parametrize("fn", [stable_log_partition,
                                    stable_log_partition_grad])
    def test_rejects_dimension_below_two(self, fn):
        for d in (1, 0):
            with pytest.raises(ValueError, match="dimension must be >= 2"):
                fn(1.0, d)


def nll_one(z, mu, kappa):
    """The vMF NLL of one sample: the batch kernel on one-row inputs."""
    return vmf_batch_nll(z[None], mu[None], np.array([kappa]))


class TestNll:
    def test_value_and_kappa_grad(self, rng):
        mu = unit(rng.standard_normal(16))
        z = unit(rng.standard_normal(16))
        kappa = 12.5
        expected = stable_log_partition(kappa, 16) - kappa * float(mu @ z)
        assert nll_one(z, mu, kappa).loss == pytest.approx(expected, rel=1e-14)

        h = 1e-6 * kappa
        fd = (nll_one(z, mu, kappa + h).loss
              - nll_one(z, mu, kappa - h).loss) / (2 * h)
        assert nll_one(z, mu, kappa).kappa[0] == pytest.approx(fd, rel=1e-6)

    def test_grad_z(self, rng):
        # the ambient gradients: dL/dz = -kappa mu and dL/dmu = -kappa z
        mu = unit(rng.standard_normal(8))
        z = unit(rng.standard_normal(8))
        grad = nll_one(z, mu, 4.0)
        np.testing.assert_allclose(grad.z[0], -4.0 * mu, rtol=1e-15)
        np.testing.assert_allclose(grad.mu[0], -4.0 * z, rtol=1e-15)

    def test_minimized_at_matching_alignment(self):
        # dL/dkappa = 0 exactly where the Amos ratio equals mu.z.
        mu = np.zeros(32)
        mu[0] = 1.0
        kappa = 80.0
        target = stable_log_partition_grad(kappa, 32)
        z = np.zeros(32)
        z[0] = target
        z[1] = math.sqrt(1.0 - target * target)
        assert nll_one(z, mu, kappa).kappa[0] == pytest.approx(0.0, abs=1e-15)


class TestLogDensity:
    def test_matches_scipy_formula(self, rng):
        d, kappa = 10, 35.0
        mu = unit(rng.standard_normal(d))
        z = unit(rng.standard_normal(d))
        v = d / 2.0 - 1.0
        log_c = (v * math.log(kappa) - (d / 2.0) * math.log(2.0 * math.pi)
                 - (math.log(ive(v, kappa)) + kappa))
        expected = log_c + kappa * float(mu @ z)
        got = log_density(z, mu, kappa)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_normalizes_on_s2(self):
        # d=3: integrate the density over the sphere via the polar angle.
        mu = np.array([0.0, 0.0, 1.0])

        def integrand(theta):
            z = np.array([math.sin(theta), 0.0, math.cos(theta)])
            return math.exp(log_density(z, mu, 7.0)) * 2 * math.pi * math.sin(theta)

        total, err = quad(integrand, 0.0, math.pi)
        assert total == pytest.approx(1.0, abs=max(1e-9, 10 * err))

    def test_uniform_at_zero_kappa(self):
        mu = np.array([1.0, 0.0, 0.0])
        z = unit([1.0, 2.0, 3.0])
        # Uniform density is 1 / (4 pi) on S^2.
        assert log_density(z, mu, 0.0) == pytest.approx(
            -math.log(4.0 * math.pi), rel=1e-14)

    def test_guards(self, rng):
        mu = unit(rng.standard_normal(128))
        with pytest.raises(ValueError):
            log_density(mu, mu, 1.0)


class TestSampling:
    def test_deterministic(self):
        mu, kappas = tiled(unit(np.arange(1, 9)), 25.0, 64)
        a = sample_vmf(mu, kappas, rng_seed=3)
        b = sample_vmf(mu, kappas, rng_seed=3)
        np.testing.assert_array_equal(a, b)

    def test_unit_rows(self):
        samples = sample_vmf(*tiled(unit(np.ones(12)), 3.0, 200), rng_seed=0)
        np.testing.assert_allclose(np.linalg.norm(samples, axis=1), 1.0,
                                   atol=1e-12)

    def test_mean_alignment_matches_bessel_ratio(self):
        # E[mu.z] = I_{d/2}(k) / I_{d/2-1}(k), checked by Monte Carlo.
        d, kappa, n = 16, 40.0, 40000
        mu = unit(np.ones(d))
        samples = sample_vmf(*tiled(mu, kappa, n), rng_seed=11)
        observed = float(np.mean(samples @ mu))
        expected = bessel_ratio_exact(d / 2.0 - 1.0, kappa)
        assert observed == pytest.approx(expected, abs=4.0 / math.sqrt(n))

    def test_zero_kappa_is_isotropic(self):
        mu = unit(np.ones(6))
        samples = sample_vmf(*tiled(mu, 0.0, 20000), rng_seed=5)
        assert abs(float(np.mean(samples @ mu))) < 0.02

    def test_per_row_mean_alignment_matches_bessel_ratio(self, rng):
        # Per-row means and kappas in one call: each kappa's rows have
        # E[mu.z] = I_{d/2}(k) / I_{d/2-1}(k).
        d, per = 64, 10000
        grid = (0.5, 5.0, 50.0, 500.0)
        kappas = np.repeat(grid, per)
        mu = rng.standard_normal((kappas.size, d))
        mu /= np.linalg.norm(mu, axis=1, keepdims=True)
        samples = sample_vmf(mu, kappas, rng_seed=13)
        dots = np.einsum("ij,ij->i", samples, mu).reshape(len(grid), per)
        for kappa, row in zip(grid, dots):
            expected = bessel_ratio_exact(d / 2.0 - 1.0, kappa)
            tol = 4.0 * row.std() / math.sqrt(per)
            assert abs(row.mean() - expected) < tol, kappa

    def test_per_row_inputs_checked(self):
        mu, kappas = tiled(unit(np.ones(4)), 2.0, 3)
        with pytest.raises(ValueError, match="unit-norm"):
            sample_vmf(2.0 * mu, kappas, rng_seed=0)
        nan_row = mu.copy()
        nan_row[1, 0] = math.nan
        with pytest.raises(ValueError, match="finite and unit-norm; row 1"):
            sample_vmf(nan_row, kappas, rng_seed=0)
        with pytest.raises(ValueError, match="kappa"):
            sample_vmf(mu, -kappas, rng_seed=0)
        with pytest.raises(ValueError, match=r"got \(3, 4\) and \(2,\)"):
            sample_vmf(mu, kappas[:2], rng_seed=0)
        with pytest.raises(ValueError, match="d >= 2"):
            sample_vmf(np.ones((3, 1)), kappas, rng_seed=0)
        with pytest.raises(ValueError, match="n >= 1"):
            sample_vmf(mu[:0], kappas[:0], rng_seed=0)


def scalar_draw_oracle(mu, kappa: float, count: int, rng_seed) -> np.ndarray:
    """The per-call sampler that scene synthesis ran before the batched
    kernel, kept verbatim as the stream oracle (scenes call it with count 1):
    `count` draws around the unit d-vector `mu` at one `kappa`."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(rng_seed)
    d, k = mu.shape[0], float(kappa)

    if k == 0.0:
        x = rng.standard_normal((count, d))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    w = np.empty(count)
    dim = d - 1
    b = dim / (math.sqrt(4.0 * k * k + dim * dim) + 2.0 * k)
    x0 = (1.0 - b) / (1.0 + b)
    c = k * x0 + dim * math.log(1.0 - x0 * x0)
    for i in range(count):
        while True:
            zb = rng.beta(dim / 2.0, dim / 2.0)
            wi = (1.0 - (1.0 + b) * zb) / (1.0 - (1.0 - b) * zb)
            u = rng.uniform()
            if k * wi + dim * math.log(1.0 - x0 * wi) - c >= math.log(u):
                w[i] = wi
                break

    # Uniform directions in the hyperplane orthogonal to mu.
    v = rng.standard_normal((count, d))
    v -= np.outer(v @ mu, mu)
    v /= np.linalg.norm(v, axis=1, keepdims=True)

    samples = v * np.sqrt(np.maximum(1.0 - w * w, 0.0))[:, None] + np.outer(w, mu)
    return samples / np.linalg.norm(samples, axis=1, keepdims=True)


def oracle_rows(mu, kappas, rng) -> np.ndarray:
    """n successive count-1 oracle draws on one shared generator."""
    return np.stack([scalar_draw_oracle(m, k, 1, rng)[0]
                     for m, k in zip(mu, kappas)])


STREAM_KAPPAS = (0.0, 1e-3, 5.0, 500.0, 1e5)


def stream_mismatches(sampler, d: int) -> int:
    """Rows where one per-row `sampler` call differs from the oracle rows
    drawn on an identically seeded generator, plus one if the two
    generators end in different states."""
    gen = np.random.default_rng(d)
    kappas = np.concatenate([gen.permutation(np.repeat(STREAM_KAPPAS, 40)),
                             gen.uniform(0.0, 800.0, 200)])
    mu = gen.standard_normal((kappas.size, d))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    got = sampler(mu, kappas, rng_a)
    want = oracle_rows(mu, kappas, rng_b)
    return int(np.any(got != want, axis=1).sum()) + int(
        rng_a.bit_generator.state != rng_b.bit_generator.state)


class TestStream:
    """The batched kernel keeps the per-row stream of the scalar sampler,
    so scenes stay bit for bit what they were."""

    @pytest.mark.parametrize("d", [2, 3, 16, 64])
    def test_batch_equals_successive_scalar_draws(self, d):
        assert stream_mismatches(sample_vmf, d) == 0

    def test_einsum_projection_breaks_the_pin(self):
        # The pin bites: the same kernel with the dot product summed by
        # einsum instead of the stacked matmul no longer matches.
        source = inspect.getsource(vmf.sample_vmf)
        stacked = "(v[:, None, :] @ m[:, :, None])[:, 0]"
        assert stacked in source
        namespace = dict(vmf.__dict__)
        exec(source.replace(stacked, 'np.einsum("ij,ij->i", v, m)[:, None]'),
             namespace)
        assert stream_mismatches(namespace["sample_vmf"], 64) > 0

    @pytest.mark.parametrize("rate, calls", [(0.0, 1), (0.25, 2)])
    def test_scene_draws_in_one_call_per_pass(self, monkeypatch, rate, calls):
        seen = []

        def counting(mu, kappas, rng_seed):
            seen.append(len(kappas))
            return sample_vmf(mu, kappas, rng_seed)

        monkeypatch.setattr(synth, "sample_vmf", counting)
        cfg = synth.SceneConfig(aliasing_rate=rate, seed=2)
        synth.generate_scene(cfg)
        assert len(seen) == calls
        assert seen[0] == cfg.num_classes * cfg.images_per_class

    def test_scene_equals_successive_scalar_draws(self, monkeypatch):
        # Descriptors with the batched kernel equal those of a scene whose
        # every row is drawn by its own oracle call, aliased rows included,
        # and the aliased rows are drawn pair by pair, rows ascending.
        cfg = synth.SceneConfig(num_classes=16, images_per_class=5,
                                descriptor_dim=16, aliasing_rate=0.5, seed=5)
        batched = synth.generate_scene(cfg).descriptors
        drawn = []

        def oracle(mu, kappas, rng):
            drawn.append(kappas)
            return oracle_rows(mu, kappas, rng)

        monkeypatch.setattr(synth, "sample_vmf", oracle)
        ds = synth.generate_scene(cfg)
        np.testing.assert_array_equal(ds.descriptors, batched)
        rows = [np.flatnonzero(ds.rows.labels == b) for _, b in ds.aliased_pairs]
        np.testing.assert_array_equal(
            drawn[1], ds.rows.true_kappa[np.concatenate(rows)])


class TestMle:
    def test_smoke_recovery(self):
        d, kappa = 8, 50.0
        samples = sample_vmf(*tiled(unit(np.ones(d)), kappa, 4000), rng_seed=2)
        assert mle_kappa(samples) == pytest.approx(kappa, rel=0.1)

    def test_degenerate(self):
        row = unit(np.ones(5))
        with pytest.raises(DegenerateConcentrationError):
            mle_kappa(np.tile(row, (10, 1)))


class TestResultant:
    def test_closed_form(self):
        # ka=3, kb=4, cos=0.5 -> magnitude sqrt(9+16+12) = sqrt(37).
        got = resultant_uncertainty(3.0, 4.0, 0.5)
        assert got.value == pytest.approx(1.0 / math.sqrt(37.0), rel=1e-15)
        assert not got.degenerate

    def test_aligned_pair_adds_concentrations(self):
        got = resultant_uncertainty(10.0, 30.0, 1.0)
        assert got.value == pytest.approx(1.0 / 40.0, rel=1e-15)

    def test_exact_cancellation_is_degenerate(self):
        got = resultant_uncertainty(5.0, 5.0, -1.0)
        assert got.degenerate
        assert got.value == 1e12

    def test_cosine_clamped(self):
        # Dot products of unit vectors can exceed 1 by float noise.
        a = resultant_uncertainty(2.0, 2.0, 1.0 + 1e-15)
        b = resultant_uncertainty(2.0, 2.0, 1.0)
        assert a.value == b.value

    @settings(max_examples=60, deadline=None)
    @given(ka=st.floats(0.0, 1e5), kb=st.floats(0.0, 1e5),
           cos=st.floats(-1.0, 1.0))
    def test_symmetry(self, ka, kb, cos):
        assert resultant_uncertainty(ka, kb, cos) == resultant_uncertainty(kb, ka, cos)

    def test_monotone_in_cosine(self):
        values = [resultant_uncertainty(4.0, 6.0, c).value
                  for c in np.linspace(-0.99, 1.0, 25)]
        assert all(b < a for a, b in zip(values, values[1:]))

