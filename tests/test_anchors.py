"""Prototype and batch-centroid anchoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_sphere.anchors import (DegenerateCentroidError, PrototypeSet,
                                  batch_centroid_anchor)
from kappa_sphere.training import TrainConfig, _resolve_anchors


def unit_rows(rng, n, d):
    w = rng.standard_normal((n, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


class TestPrototypeSet:
    def test_validates_unit_rows(self, rng):
        with pytest.raises(ValueError):
            PrototypeSet(rng.standard_normal((4, 8)) * 3.0)

    def test_rejects_nonfinite_rows(self, rng):
        w = unit_rows(rng, 4, 8)
        w[1, 0] = np.nan
        with pytest.raises(ValueError, match="unit-norm"):
            PrototypeSet(w)

    def test_renormalize(self, rng):
        protos = PrototypeSet(unit_rows(rng, 5, 16))
        protos.weights *= 1.5  # simulate an optimizer step off the sphere
        protos.renormalize()
        np.testing.assert_allclose(np.linalg.norm(protos.weights, axis=1), 1.0,
                                   atol=1e-14)

    def test_unknown_label(self, rng):
        # class-prototype anchoring resolves every label of a batch before
        # a loss reads a prototype row
        protos = PrototypeSet(unit_rows(rng, 3, 8))
        z = unit_rows(rng, 2, 8)
        for labels in ([0, 3], [-1, 0]):
            with pytest.raises(KeyError):
                _resolve_anchors(TrainConfig(), protos.weights, z,
                                 np.array(labels))


class TestBatchCentroid:
    def test_single_positive_is_itself(self, rng):
        z = unit_rows(rng, 1, 10)[0]
        np.testing.assert_allclose(batch_centroid_anchor(z), z, rtol=1e-15)

    def test_matches_normalized_mean(self, rng):
        p = unit_rows(rng, 7, 12)
        total = p.sum(axis=0)
        np.testing.assert_allclose(batch_centroid_anchor(p),
                                   total / np.linalg.norm(total), rtol=1e-14)

    def test_antipodal_pair_degenerate(self, rng):
        z = unit_rows(rng, 1, 6)[0]
        with pytest.raises(DegenerateCentroidError):
            batch_centroid_anchor(np.stack([z, -z]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
    def test_permutation_invariant(self, seed, n):
        rng = np.random.default_rng(seed)
        p = unit_rows(rng, n, 5)
        base = batch_centroid_anchor(p)
        shuffled = batch_centroid_anchor(p[rng.permutation(n)])
        np.testing.assert_allclose(shuffled, base, atol=1e-12)
