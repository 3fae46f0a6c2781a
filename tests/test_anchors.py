"""Prototype and batch-centroid anchoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_sphere.training import (DegenerateCentroidError, TrainConfig,
                                   _resolve_anchors, batch_centroid_anchor)


def unit_rows(rng, n, d):
    w = rng.standard_normal((n, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


class TestClassPrototype:
    """Class-prototype anchoring against the (C, d) prototype rows."""

    def test_unknown_label(self, rng):
        # class-prototype anchoring checks every label of a batch before a
        # loss reads a prototype row: -1 must not anchor to row C - 1
        protos = unit_rows(rng, 3, 8)
        z = unit_rows(rng, 2, 8)
        for labels, message in (([0, 3], r"label 3 at row 1 outside \[0, 3\)"),
                                ([-1, 0], r"label -1 at row 0 outside \[0, 3\)")):
            with pytest.raises(ValueError, match=message):
                _resolve_anchors(TrainConfig(), protos, z,
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
