"""Synthetic scene generator: determinism, aliasing, splits, recovery."""

import dataclasses
import math

import numpy as np
import pytest

from kappa_sphere.calibration import FieldError
from kappa_sphere.retrieval import DEFAULT_TAU, batch_knn
from kappa_sphere.synth import (SPLIT_NAMES, SceneConfig, ambiguity_to_kappa,
                                generate_scene, split, split_rows,
                                stratified_counts)
from kappa_sphere.vmf import mle_kappa

SMALL = dict(num_classes=8, images_per_class=10, descriptor_dim=16,
             aliasing_rate=0.0)


def _class_grid(cfg: SceneConfig) -> np.ndarray:
    """The (C, 2) grid poses of a scene's classes, which the scene does not
    keep: class j sits at column j % side and row j // side of a square
    grid of side ceil(sqrt(C)), pose_spacing apart."""
    side = math.ceil(math.sqrt(cfg.num_classes))
    j = np.arange(cfg.num_classes)
    return cfg.pose_spacing * np.stack([j % side, j // side], axis=1)


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
        for key, bad in (("pose_jitter", -5.0), ("noise_std", -1.0),
                         ("seed", -3)):
            with pytest.raises(FieldError, match=rf"^{key} must be >= 0, "
                               rf"got {bad}$"):
                SceneConfig(**{key: bad})
        SceneConfig(pose_jitter=0.0, noise_std=0.0, seed=0)
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
        np.testing.assert_array_equal(a.descriptors, b.descriptors)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.rows.true_kappa, b.rows.true_kappa)
        for name in a.splits:
            np.testing.assert_array_equal(a.splits[name], b.splits[name])

    def test_different_seed_differs(self):
        a = generate_scene(SceneConfig(seed=0, **SMALL))
        b = generate_scene(SceneConfig(seed=1, **SMALL))
        assert not np.array_equal(a.descriptors, b.descriptors)


class TestScene:
    def test_shapes_and_units(self):
        cfg = SceneConfig(seed=0, **SMALL)
        ds = generate_scene(cfg)
        n = cfg.num_classes * cfg.images_per_class
        assert len(ds) == n
        assert ds.features.shape == (n,) + cfg.feature_shape
        np.testing.assert_allclose(
            np.linalg.norm(ds.descriptors, axis=1), 1.0, atol=1e-12)
        assert ds.rows.true_kappa.min() >= cfg.kappa_min
        assert ds.rows.true_kappa.max() <= cfg.kappa_max

    def test_built_once(self):
        # no field of a scene is assigned after generate_scene builds it;
        # the cached_property rows still cache on the frozen instance
        ds = generate_scene(SceneConfig(seed=0, **SMALL))
        for f in dataclasses.fields(ds):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ds, f.name, getattr(ds, f.name))
        assert ds.head_inputs is ds.head_inputs and ds.raw is ds.raw
        assert ds.splits is ds.splits

    def test_prototypes_separated(self):
        ds = generate_scene(SceneConfig(seed=0, **SMALL))
        gram = np.abs(ds.prototypes @ ds.prototypes.T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 0.5

    def test_poses_near_class_grid(self):
        cfg = SceneConfig(seed=0, **SMALL)
        ds = generate_scene(cfg)
        expected = _class_grid(cfg)[ds.rows.labels]
        dev = np.abs(ds.rows.poses - expected)
        assert dev.max() <= cfg.pose_jitter

    def test_per_class_kappa_recovery(self):
        # With many images per class at a fixed kappa, the Banerjee MLE
        # recovers the generative concentration within 10%.
        cfg = SceneConfig(num_classes=4, images_per_class=200,
                          descriptor_dim=16, kappa_min=80.0, kappa_max=80.0,
                          aliasing_rate=0.0, seed=1)
        ds = generate_scene(cfg)
        for cls in range(cfg.num_classes):
            idx = ds.rows.labels == cls
            est = mle_kappa(ds.descriptors[idx])
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
        # 0.5 of 6 classes selects 3, which cannot form pairs; the scene
        # config is refused before generate_scene draws anything
        with pytest.raises(ValueError, match="odd"):
            SceneConfig(num_classes=6, aliasing_rate=0.5)

    def test_aliased_prototypes_shared(self):
        cfg = SceneConfig(seed=0, aliasing_rate=0.25, num_classes=8,
                          images_per_class=10, descriptor_dim=16)
        ds = generate_scene(cfg)
        a, b = ds.aliased_pairs[0]
        np.testing.assert_array_equal(ds.prototypes[a],
                                      ds.prototypes[b])
        # geographically distinct despite identical appearance
        grid = _class_grid(cfg)
        assert np.linalg.norm(grid[a] - grid[b]) > DEFAULT_TAU

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
            db, q = ds.splits["db"], ds.splits["query"]
            results = batch_knn(ds.descriptors[q], ds.descriptors[db], 1)
            labels = ds.rows.labels
            hits = labels[db][results.ref_indices[:, 0]] == labels[q]
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
            labels = ds.rows.labels[ds.splits[name]]
            counts = np.bincount(labels, minlength=cfg.num_classes)
            assert counts.min() >= 1
            # per-class proportions within one image of the target
            assert np.all(np.abs(counts - frac * cfg.images_per_class) <= 1)

    def test_tiny_class_rejected(self):
        # 2 images per class cannot stratify into 3 nonzero splits; the
        # scene config is refused before generate_scene runs the split.
        with pytest.raises(ValueError, match="stratify"):
            generate_scene(SceneConfig(num_classes=4, images_per_class=2,
                                       descriptor_dim=8, aliasing_rate=0.0))

    @pytest.mark.parametrize("shuffle_seed", [0, 1, 2])
    def test_labels_in_any_order(self, monkeypatch, shuffle_seed):
        # split finds each class's rows with one stable argsort and writes
        # their codes; the per-class flatnonzero loop it replaced, kept
        # verbatim below, gives the rows split_rows reads from the codes,
        # and leaves the generator in the same state
        ds = generate_scene(SceneConfig(seed=0, **SMALL))
        labels = np.random.default_rng(shuffle_seed).permutation(
            ds.rows.labels)
        real, made = np.random.default_rng, []

        def capture(seed):
            made.append(real(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", capture)
        codes = split(labels, ds.config.num_classes, seed=4)
        monkeypatch.undo()
        assert codes.dtype == np.int8 and codes.shape == labels.shape
        got = split_rows(codes)

        rng = np.random.default_rng(4)
        parts = {name: [] for name in SPLIT_NAMES}
        for cls in range(ds.config.num_classes):
            idx = np.flatnonzero(labels == cls)
            idx = idx[rng.permutation(len(idx))]
            counts = stratified_counts(len(idx))
            start = 0
            for cnt, name in zip(counts, SPLIT_NAMES):
                parts[name].extend(idx[start:start + cnt].tolist())
                start += cnt
        want = {name: np.array(sorted(v), dtype=np.int64)
                for name, v in parts.items()}

        assert set(got) == set(want)
        for name in SPLIT_NAMES:
            assert got[name].dtype == want[name].dtype
            np.testing.assert_array_equal(got[name], want[name])
        assert len(made) == 1
        assert made[0].bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_rejects_a_label_outside_the_classes(self, bad):
        # such a row belongs to no class, so no split would hold it
        labels = np.repeat(np.arange(8), 10)
        labels[13] = bad
        with pytest.raises(ValueError, match=rf"^label {bad} at row 13 "
                           r"outside \[0, 8\)$"):
            split(labels, 8, seed=0)
