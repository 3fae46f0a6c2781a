"""Synthetic scene generator: determinism, aliasing, splits, recovery."""

import numpy as np
import pytest

from kappa_sphere.retrieval import batch_knn
from kappa_sphere.synth import (SceneConfig, ambiguity_to_kappa,
                                generate_scene, inject_aliasing, split)
from kappa_sphere.vmf import mle_kappa

SMALL = dict(num_classes=8, images_per_class=10, descriptor_dim=16,
             aliasing_rate=0.0)


class TestConfig:
    def test_defaults_match_protocol_scene(self):
        cfg = SceneConfig()
        assert cfg.num_classes == 32
        assert cfg.descriptor_dim == 64
        assert (cfg.kappa_min, cfg.kappa_max) == (5.0, 500.0)
        assert cfg.aliasing_rate == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(kappa_min=0.0)
        with pytest.raises(ValueError):
            SceneConfig(kappa_min=10.0, kappa_max=5.0)
        with pytest.raises(ValueError):
            SceneConfig(pose_spacing=8.0, pose_jitter=5.0)
        with pytest.raises(ValueError):
            SceneConfig(aliasing_rate=1.5)
        with pytest.raises(ValueError, match=r"odd number of classes \(1\)"):
            SceneConfig(num_classes=4)  # 0.25 of 4 classes cannot pair up
        with pytest.raises(ValueError, match="selects no class"):
            SceneConfig(aliasing_rate=0.01)  # 0.32 of 32 classes rounds to 0
        SceneConfig(aliasing_rate=0.0)
        for d in (0, 1):
            with pytest.raises(ValueError, match="descriptor_dim"):
                SceneConfig(descriptor_dim=d)
        for per in (1, 2, 3, 4):
            with pytest.raises(ValueError, match="stratify"):
                SceneConfig(images_per_class=per)
        SceneConfig(images_per_class=5, descriptor_dim=2)

    def test_kappa_link(self):
        cfg = SceneConfig(kappa_min=5.0, kappa_max=500.0)
        assert ambiguity_to_kappa(0.0, cfg) == 500.0
        assert ambiguity_to_kappa(1.0, cfg) == 5.0
        assert ambiguity_to_kappa(0.5, cfg) == pytest.approx(252.5)


class TestDeterminism:
    def test_same_seed_same_scene(self):
        a = generate_scene(SceneConfig(seed=3, **SMALL))
        b = generate_scene(SceneConfig(seed=3, **SMALL))
        np.testing.assert_array_equal(a.bank.descriptors, b.bank.descriptors)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.bank.true_kappa, b.bank.true_kappa)
        for name in a.splits:
            np.testing.assert_array_equal(a.splits[name], b.splits[name])

    def test_different_seed_differs(self):
        a = generate_scene(SceneConfig(seed=0, **SMALL))
        b = generate_scene(SceneConfig(seed=1, **SMALL))
        assert not np.array_equal(a.bank.descriptors, b.bank.descriptors)


class TestScene:
    def test_shapes_and_units(self):
        cfg = SceneConfig(seed=0, **SMALL)
        ds = generate_scene(cfg)
        n = cfg.num_classes * cfg.images_per_class
        assert len(ds) == n
        assert ds.features.shape == (n,) + cfg.feature_shape
        np.testing.assert_allclose(
            np.linalg.norm(ds.bank.descriptors, axis=1), 1.0, atol=1e-12)
        assert ds.bank.true_kappa.min() >= cfg.kappa_min
        assert ds.bank.true_kappa.max() <= cfg.kappa_max

    def test_prototypes_separated(self):
        ds = generate_scene(SceneConfig(seed=0, **SMALL))
        gram = np.abs(ds.prototypes.weights @ ds.prototypes.weights.T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 0.5

    def test_poses_near_class_grid(self):
        cfg = SceneConfig(seed=0, **SMALL)
        ds = generate_scene(cfg)
        expected = ds.class_poses[ds.bank.labels]
        dev = np.abs(ds.bank.poses - expected)
        assert dev.max() <= cfg.pose_jitter

    def test_per_class_kappa_recovery(self):
        # With many images per class at a fixed kappa, the Banerjee MLE
        # recovers the generative concentration within 10%.
        cfg = SceneConfig(num_classes=4, images_per_class=200,
                          descriptor_dim=16, kappa_min=80.0, kappa_max=80.0,
                          aliasing_rate=0.0, seed=1)
        ds = generate_scene(cfg)
        for cls in range(cfg.num_classes):
            idx = ds.bank.labels == cls
            est = mle_kappa(ds.bank.descriptors[idx])
            assert est == pytest.approx(80.0, rel=0.10)


class TestAliasing:
    def test_pair_count(self):
        # rate 0.25 of 8 classes -> 2 classes -> 1 pair
        ds = generate_scene(SceneConfig(seed=0, aliasing_rate=0.25,
                                        num_classes=8, images_per_class=10,
                                        descriptor_dim=16))
        assert len(ds.aliased_pairs) == 1

    def test_rate_one_four_classes_two_pairs(self):
        ds = generate_scene(SceneConfig(seed=2, aliasing_rate=1.0,
                                        num_classes=4, images_per_class=10,
                                        descriptor_dim=16))
        assert len(ds.aliased_pairs) == 2
        involved = {c for pair in ds.aliased_pairs for c in pair}
        assert involved == {0, 1, 2, 3}

    def test_odd_selection_rejected(self):
        # rate 0.25 of 6 classes selects 1.5 -> rounds to odd 2? no: 1.5
        # rounds to 2 (even). Use rate that yields an odd count: 0.5 of 6 = 3.
        ds = generate_scene(SceneConfig(seed=0, num_classes=6,
                                        images_per_class=10,
                                        descriptor_dim=16, aliasing_rate=0.0))
        with pytest.raises(ValueError, match="odd"):
            inject_aliasing(ds, rate=0.5, seed=0)

    def test_aliased_prototypes_shared(self):
        ds = generate_scene(SceneConfig(seed=0, aliasing_rate=0.25,
                                        num_classes=8, images_per_class=10,
                                        descriptor_dim=16))
        a, b = ds.aliased_pairs[0]
        np.testing.assert_array_equal(ds.prototypes.weights[a],
                                      ds.prototypes.weights[b])
        # geographically distinct despite identical appearance
        assert np.linalg.norm(ds.class_poses[a] - ds.class_poses[b]) > 25.0

    def test_aliasing_degrades_top1_label_accuracy(self):
        # Retrieval by descriptor confuses the aliased twin classes.
        base = generate_scene(SceneConfig(seed=5, num_classes=8,
                                          images_per_class=20,
                                          descriptor_dim=16,
                                          aliasing_rate=0.0))
        aliased = generate_scene(SceneConfig(seed=5, num_classes=8,
                                             images_per_class=20,
                                             descriptor_dim=16,
                                             aliasing_rate=0.5))

        def top1_label_accuracy(ds):
            db = ds.subset_bank(ds.splits["db"])
            q = ds.splits["query"]
            results = batch_knn(ds.bank.descriptors[q], db, 1)
            hits = db.labels[results.ref_indices[:, 0]] == ds.bank.labels[q]
            return float(np.mean(hits))

        assert top1_label_accuracy(aliased) < top1_label_accuracy(base) - 0.1


class TestSplit:
    def test_stratified_and_disjoint(self):
        cfg = SceneConfig(seed=0, **SMALL)
        ds = generate_scene(cfg)
        all_idx = np.concatenate([ds.splits[n] for n in ("train", "db", "query")])
        assert len(all_idx) == len(ds)
        assert len(np.unique(all_idx)) == len(ds)
        for name, frac in zip(("train", "db", "query"), (0.5, 0.3, 0.2)):
            labels = ds.bank.labels[ds.splits[name]]
            counts = np.bincount(labels, minlength=cfg.num_classes)
            assert counts.min() >= 1
            # per-class proportions within one image of the target
            assert np.all(np.abs(counts - frac * cfg.images_per_class) <= 1)

    def test_fractions_validated(self):
        ds = generate_scene(SceneConfig(seed=0, **SMALL))
        with pytest.raises(ValueError):
            split(ds, (0.5, 0.5, 0.5), seed=0)

    def test_tiny_class_rejected(self):
        # 2 images per class cannot stratify into 3 nonzero splits; the
        # scene config is refused before generate_scene runs the split.
        with pytest.raises(ValueError, match="stratify"):
            generate_scene(SceneConfig(num_classes=4, images_per_class=2,
                                       descriptor_dim=8, aliasing_rate=0.0))
