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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calibration import FieldError
from .head import aggregate
from .retrieval import DEFAULT_TAU, Rows
from .training import check_labels
from .vmf import drawable, sample_vmf

DEFAULT_SPLIT = (0.5, 0.3, 0.2)
SPLIT_NAMES = ("train", "db", "query")
# prototypes are resampled until no two have |cos| >= this, for at most
# PROTOTYPE_ROUNDS rounds
PROTOTYPE_MAX_ABS_COS = 0.5
PROTOTYPE_ROUNDS = 200


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
        if not self.kappa_min > 0:
            raise FieldError("kappa_min", "> 0", self.kappa_min)
        for key in ("pose_jitter", "noise_std", "seed"):
            if not getattr(self, key) >= 0:
                raise FieldError(key, ">= 0", getattr(self, key))
        if not self.kappa_min <= self.kappa_max:
            raise ValueError("require kappa_min <= kappa_max")
        if self.pose_spacing <= 2 * self.pose_jitter:
            raise ValueError("require pose_spacing > 2 * pose_jitter")
        if not 0.0 <= self.aliasing_rate <= 1.0:
            raise FieldError("aliasing_rate", "in [0, 1]", self.aliasing_rate)
        if self.num_classes < 2:
            raise FieldError("num_classes", ">= 2", self.num_classes)
        if self.images_per_class < 1:
            raise FieldError("images_per_class", ">= 1", self.images_per_class)
        if self.descriptor_dim < 2:
            raise FieldError("descriptor_dim", ">= 2", self.descriptor_dim)
        if not drawable(self.kappa_max, self.descriptor_dim):
            raise FieldError("kappa_max", "small enough for the vMF sampler "
                             f"in d={self.descriptor_dim}", self.kappa_max)
        aliased_class_count(self.aliasing_rate, self.num_classes)
        stratified_counts(self.images_per_class)
        self.feature_shape = tuple(int(x) for x in self.feature_shape)


@dataclass(frozen=True)
class SynthDataset:
    config: SceneConfig
    descriptors: np.ndarray            # (n, d) unit rows, every image
    rows: Rows                         # every image's poses, kappa*, labels
    features: np.ndarray               # (n, c, h, w)
    prototypes: np.ndarray             # (C, d) unit rows, post-aliasing
    aliased_pairs: list                # (a, b) class pairs, b aliased to a
    split: np.ndarray                  # (n,) int8 SPLIT_NAMES index per row

    def __len__(self):
        return len(self.descriptors)

    @cached_property
    def splits(self) -> dict:
        """`split_rows` of `split`, derived on first use and kept."""
        return split_rows(self.split)

    @cached_property
    def head_inputs(self) -> np.ndarray:
        """The (n, c) rows the kappa head reads, in `features` row order:
        `aggregate` pools the feature maps on first use and the rows are
        kept.  The backbone is frozen, so a fit, its epoch hooks and the
        final prediction all read one array.
        """
        return aggregate(self.features)

    @cached_property
    def raw(self) -> np.ndarray:
        """The (n, m) joint-training input, `raw_inputs` of `descriptors`
        and `features`: derived on first use and kept, as `head_inputs`
        keeps its pooled rows.  Only joint training reads it, so a scene
        that is generated, recorded or post-trained never builds it.
        (A `cached_property` writes the instance dict, not a field, so it
        works on this frozen dataclass.)
        """
        return raw_inputs(self.descriptors, self.features)


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


def stratified_counts(size: int) -> list:
    """Images of a class of `size` per split: floor(fraction * size) for
    each DEFAULT_SPLIT fraction, the remainder handed to train, db, query
    in that order.  Every split must get at least one image; `size` is a
    scene's images_per_class, so a failure names that key."""
    counts = [int(math.floor(f * size)) for f in DEFAULT_SPLIT]
    for i in range(size - sum(counts)):
        counts[i % 3] += 1
    for cnt, name in zip(counts, SPLIT_NAMES):
        if cnt == 0:
            raise FieldError("images_per_class", "large enough to stratify "
                             f"({name!r} gets no image)", size)
    return counts


def _ambiguity_embedding(a):
    """Fixed smooth monotone map of ambiguity into channel-0 amplitude."""
    return 0.25 + 1.75 * (1.0 - a)


def _sample_prototypes(rng, c: int, d: int) -> np.ndarray:
    """Uniform unit prototypes, resampled until min pairwise separation holds."""
    w = rng.standard_normal((c, d))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    for _ in range(PROTOTYPE_ROUNDS):
        gram = np.abs(w @ w.T)
        np.fill_diagonal(gram, 0.0)
        close = gram >= PROTOTYPE_MAX_ABS_COS
        bad = np.flatnonzero(close.any(axis=0) | close.any(axis=1))
        if bad.size == 0:
            return w
        w[bad] = rng.standard_normal((bad.size, d))
        w[bad] /= np.linalg.norm(w[bad], axis=1, keepdims=True)
    raise ValueError(
        f"could not separate {c} prototypes below |cos| = "
        f"{PROTOTYPE_MAX_ABS_COS} in d={d}; lower scene.num_classes or "
        "raise scene.descriptor_dim")


def raw_inputs(descriptors, features) -> np.ndarray:
    """A scene's joint-training input: each image's descriptor followed by
    its flattened feature maps."""
    return np.concatenate([descriptors, features.reshape(len(features), -1)],
                          axis=1)


def _build_features(rng, ambiguity, shape, noise_std):
    n = len(ambiguity)
    c, h, w = shape
    fm = rng.standard_normal((n, c, h, w))
    fm *= noise_std
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

    descriptors = sample_vmf(prototypes[labels], true_kappa, rng)

    features = _build_features(rng, ambiguity, config.feature_shape, config.noise_std)

    aliased_pairs = [] if config.aliasing_rate == 0.0 else inject_aliasing(
        prototypes, descriptors, labels, true_kappa, class_poses,
        config.aliasing_rate, seed=int(rng.integers(2**31)))
    return SynthDataset(
        config=config, descriptors=descriptors,
        rows=Rows(poses=poses, true_kappa=true_kappa, labels=labels),
        features=features, prototypes=prototypes, aliased_pairs=aliased_pairs,
        split=split(labels, c_cls, seed=config.seed),
    )


def inject_aliasing(prototypes, descriptors, labels, true_kappa, class_poses,
                    rate: float, seed: int) -> list:
    """Make a fraction `rate` > 0 of the classes perceptually aliased, in
    pairs, and return the pairs.

    For each selected pair (a, b) with class poses farther apart than
    DEFAULT_TAU, the default radius within which a reference is a
    positive, class b adopts class a's prototype direction and
    its descriptors are re-sampled around it (same per-image kappa).
    Writes the (C, d) `prototypes` and (n, d) `descriptors` in place;
    `labels` and `true_kappa` give each descriptor row's class and kappa.
    """
    c_cls = len(class_poses)
    involved = aliased_class_count(rate, c_cls)
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        chosen = rng.permutation(c_cls)[:involved]
        pairs = [(int(chosen[2 * i]), int(chosen[2 * i + 1]))
                 for i in range(involved // 2)]
        dists = [np.linalg.norm(class_poses[a] - class_poses[b])
                 for a, b in pairs]
        if all(dist > DEFAULT_TAU for dist in dists):
            break
    else:
        raise ValueError("could not find geographically separated alias pairs")

    for a, b in pairs:
        prototypes[b] = prototypes[a]
    # One draw for every resampled row, pair by pair, rows ascending.
    idx = np.concatenate([np.flatnonzero(labels == b) for _, b in pairs])
    descriptors[idx] = sample_vmf(prototypes[labels[idx]], true_kappa[idx],
                                  rng)
    return pairs


def split(labels, num_classes: int, seed: int) -> np.ndarray:
    """Class-stratified DEFAULT_SPLIT of the rows of `labels`, each in
    [0, num_classes) (else a ValueError naming the row): each row's split
    as its int8 index in SPLIT_NAMES.

    Each class's counts come from `stratified_counts`.  Its rows, ascending,
    are a run of one stable argsort of the labels; each class's shuffle is
    drawn in class order and dealt out to train, db and query in turn.
    """
    labels = check_labels(labels, num_classes)
    rng = np.random.default_rng(seed)
    codes = np.empty(len(labels), dtype=np.int8)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(num_classes + 1))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        idx = order[lo:hi][rng.permutation(hi - lo)]
        codes[idx] = np.repeat(np.int8([0, 1, 2]), stratified_counts(hi - lo))
    return codes


def split_rows(codes) -> dict:
    """Split name -> the ascending rows of the split codes `codes`."""
    return {name: np.flatnonzero(codes == k)
            for k, name in enumerate(SPLIT_NAMES)}
