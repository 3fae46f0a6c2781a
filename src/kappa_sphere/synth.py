"""Synthetic place-recognition scenes with known ground truth.

Each scene has C geographic classes laid out on a grid of poses, one unit
prototype per class, and per-image concentrations derived from a latent
ambiguity factor.  Descriptors are exact vMF draws around the class
prototype, so estimators and calibration claims can be tested against the
generative truth.  Feature maps carry the ambiguity in channel 0 (through
a fixed smooth monotone embedding) plus Gaussian nuisance channels, so a
pooling + linear head has sufficient signal to recover kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .anchors import PrototypeSet
from .retrieval import DescriptorBank
from .training import TrainData
from .vmf import sample_vmf

DEFAULT_SPLIT = (0.5, 0.3, 0.2)
SPLIT_NAMES = ("train", "db", "query")


@dataclass
class SceneConfig:
    num_classes: int = 32
    images_per_class: int = 30
    descriptor_dim: int = 64
    kappa_min: float = 5.0
    kappa_max: float = 500.0
    pose_spacing: float = 100.0
    pose_jitter: float = 5.0
    aliasing_rate: float = 0.25
    feature_shape: tuple = (8, 4, 4)
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.kappa_min <= self.kappa_max:
            raise ValueError("require 0 < kappa_min <= kappa_max")
        if self.pose_spacing <= 2 * self.pose_jitter:
            raise ValueError("require pose_spacing > 2 * pose_jitter")
        if not 0.0 <= self.aliasing_rate <= 1.0:
            raise ValueError("aliasing_rate must be in [0, 1]")
        if self.num_classes < 2 or self.images_per_class < 1:
            raise ValueError("need at least 2 classes and 1 image per class")
        if self.descriptor_dim < 2:
            raise ValueError(f"descriptor_dim must be >= 2, got {self.descriptor_dim}")
        aliased_class_count(self.aliasing_rate, self.num_classes)
        stratified_counts(DEFAULT_SPLIT, self.images_per_class)
        self.feature_shape = tuple(int(x) for x in self.feature_shape)

    def to_dict(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "images_per_class": self.images_per_class,
            "descriptor_dim": self.descriptor_dim,
            "kappa_min": self.kappa_min,
            "kappa_max": self.kappa_max,
            "pose_spacing": self.pose_spacing,
            "pose_jitter": self.pose_jitter,
            "aliasing_rate": self.aliasing_rate,
            "feature_shape": list(self.feature_shape),
            "noise_std": self.noise_std,
            "seed": self.seed,
        }


@dataclass
class SynthDataset:
    config: SceneConfig
    bank: DescriptorBank               # every image
    features: np.ndarray               # (n, c, h, w)
    raw: np.ndarray                    # (n, m) raw features for joint training
    ambiguity: np.ndarray              # (n,) in [0, 1]
    prototypes: PrototypeSet           # effective (post-aliasing) prototypes
    class_poses: np.ndarray            # (C, 2)
    aliased_pairs: list = field(default_factory=list)
    splits: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.bank)

    def subset_bank(self, indices) -> DescriptorBank:
        return self.bank.subset(indices)

    def train_data(self) -> TrainData:
        idx = self.splits["train"]
        return TrainData(
            features=self.features[idx],
            labels=self.bank.labels[idx],
            descriptors=self.bank.descriptors[idx],
            raw=self.raw[idx],
        )


def ambiguity_to_kappa(ambiguity, config: SceneConfig):
    """Affine decreasing link: high ambiguity means low concentration."""
    a = np.asarray(ambiguity, dtype=np.float64)
    return config.kappa_min + (config.kappa_max - config.kappa_min) * (1.0 - a)


def aliased_class_count(rate: float, num_classes: int) -> int:
    """Classes that aliasing at `rate` pairs up: round(rate * C), which
    must be even, and nonzero when the rate is."""
    involved = round(rate * num_classes)
    if rate > 0.0 and involved == 0:
        raise ValueError(
            f"aliasing rate {rate} selects no class of {num_classes}; "
            "use 0.0 for a scene without aliasing"
        )
    if involved % 2 != 0:
        raise ValueError(
            f"aliasing rate {rate} selects an odd number of classes ({involved}); "
            "cannot form pairs"
        )
    return involved


def stratified_counts(fractions, size: int) -> list:
    """Images of a class of `size` per split: floor(fraction * size), the
    remainder handed to train, db, query in that order.  Every
    nonzero-fraction split must get at least one image."""
    counts = [int(math.floor(f * size)) for f in fractions]
    for i in range(size - sum(counts)):
        counts[i % 3] += 1
    for f, cnt, name in zip(fractions, counts, SPLIT_NAMES):
        if f > 0.0 and cnt == 0:
            raise ValueError(f"a class of {size} images is too small to "
                             f"stratify: no images for {name!r}")
    return counts


def _ambiguity_embedding(a):
    """Fixed smooth monotone map of ambiguity into channel-0 amplitude."""
    return 0.25 + 1.75 * (1.0 - a)


def _sample_prototypes(rng, c: int, d: int, max_abs_cos: float = 0.5,
                       max_rounds: int = 200) -> np.ndarray:
    """Uniform unit prototypes, resampled until min pairwise separation holds."""
    w = rng.standard_normal((c, d))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    for _ in range(max_rounds):
        gram = np.abs(w @ w.T)
        np.fill_diagonal(gram, 0.0)
        bad = np.unique(np.argwhere(gram >= max_abs_cos).ravel())
        if bad.size == 0:
            return w
        w[bad] = rng.standard_normal((bad.size, d))
        w[bad] /= np.linalg.norm(w[bad], axis=1, keepdims=True)
    raise RuntimeError(
        f"could not separate {c} prototypes below |cos| = {max_abs_cos} in d={d}"
    )


def _build_features(rng, ambiguity, shape, noise_std):
    n = len(ambiguity)
    c, h, w = shape
    fm = rng.standard_normal((n, c, h, w)) * noise_std
    fm[:, 0, :, :] = _ambiguity_embedding(ambiguity)[:, None, None]
    return fm


def generate_scene(config: SceneConfig) -> SynthDataset:
    """Deterministic scene generation: prototypes, poses, concentrations,
    descriptors, feature maps, optional aliasing, and the default
    class-stratified train/db/query split."""
    rng = np.random.default_rng(config.seed)
    c_cls = config.num_classes
    d = config.descriptor_dim
    per = config.images_per_class
    n = c_cls * per

    side = math.ceil(math.sqrt(c_cls))
    class_poses = np.array(
        [((j % side) * config.pose_spacing, (j // side) * config.pose_spacing)
         for j in range(c_cls)], dtype=np.float64)
    prototypes = _sample_prototypes(rng, c_cls, d)

    labels = np.repeat(np.arange(c_cls), per)
    ambiguity = rng.uniform(0.0, 1.0, size=n)
    true_kappa = ambiguity_to_kappa(ambiguity, config)
    poses = class_poses[labels] + rng.uniform(
        -config.pose_jitter, config.pose_jitter, size=(n, 2))

    descriptors = sample_vmf((prototypes[labels], true_kappa), n, rng)

    features = _build_features(rng, ambiguity, config.feature_shape, config.noise_std)
    raw = np.concatenate([descriptors, features.reshape(n, -1)], axis=1)

    bank = DescriptorBank(descriptors=descriptors, ids=np.arange(n),
                          labels=labels, poses=poses, true_kappa=true_kappa)
    dataset = SynthDataset(
        config=config, bank=bank, features=features, raw=raw,
        ambiguity=ambiguity, prototypes=PrototypeSet(prototypes),
        class_poses=class_poses,
    )
    if config.aliasing_rate > 0.0:
        dataset = inject_aliasing(dataset, config.aliasing_rate,
                                  seed=int(rng.integers(2**31)))
    split(dataset, DEFAULT_SPLIT, seed=config.seed)
    return dataset


def inject_aliasing(dataset: SynthDataset, rate: float, seed: int,
                    min_pose_distance: float = 25.0) -> SynthDataset:
    """Make a fraction of class pairs perceptually aliased.

    For each selected pair (a, b) with class poses farther apart than
    `min_pose_distance`, class b adopts class a's prototype direction and
    its descriptors are re-sampled around it (same per-image kappa).
    Mutates and returns the dataset.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    if rate == 0.0:
        return dataset
    c_cls = dataset.config.num_classes
    involved = aliased_class_count(rate, c_cls)
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        chosen = rng.permutation(c_cls)[:involved]
        pairs = [(int(chosen[2 * i]), int(chosen[2 * i + 1]))
                 for i in range(involved // 2)]
        dists = [np.linalg.norm(dataset.class_poses[a] - dataset.class_poses[b])
                 for a, b in pairs]
        if all(dist > min_pose_distance for dist in dists):
            break
    else:
        raise ValueError("could not find geographically separated alias pairs")

    protos = dataset.prototypes.weights
    bank = dataset.bank
    for a, b in pairs:
        protos[b] = protos[a]
    if pairs:
        # One draw for every resampled row, pair by pair, rows ascending.
        idx = np.concatenate([np.flatnonzero(bank.labels == b) for _, b in pairs])
        bank.descriptors[idx] = sample_vmf(
            (protos[bank.labels[idx]], bank.true_kappa[idx]), idx.size, rng)
        dataset.raw[idx, :bank.descriptors.shape[1]] = bank.descriptors[idx]
    dataset.aliased_pairs = pairs
    return dataset


def split(dataset: SynthDataset, fractions, seed: int) -> dict:
    """Class-stratified split into train/db/query; stored on the dataset.

    Each class's counts come from `stratified_counts`.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("need 3 fractions summing to 1")
    rng = np.random.default_rng(seed)
    parts = {name: [] for name in SPLIT_NAMES}
    labels = dataset.bank.labels
    for cls in range(dataset.config.num_classes):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        counts = stratified_counts(fractions, len(idx))
        start = 0
        for cnt, name in zip(counts, SPLIT_NAMES):
            parts[name].extend(idx[start:start + cnt].tolist())
            start += cnt
    splits = {name: np.array(sorted(v), dtype=np.int64) for name, v in parts.items()}
    dataset.splits = splits
    return splits
