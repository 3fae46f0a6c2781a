"""Mean-direction anchors for the vMF objective.

Classification-style supervision anchors each sample to its class
prototype; contrastive-style supervision anchors to the normalized
centroid of the sample's positives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vmf import check_unit_rows

CENTROID_EPS = 1e-12


class DegenerateCentroidError(ValueError):
    """The positive set sums to (numerically) zero; no anchor direction exists."""


@dataclass
class PrototypeSet:
    """One unit prototype per geographic class, indexed by dense class id."""

    weights: np.ndarray  # (C, d), unit rows

    def __post_init__(self):
        w = check_unit_rows(self.weights, name="prototype rows")
        if w.shape[0] < 1:
            raise ValueError(f"weights must be a (C, d) matrix, got shape {w.shape}")
        self.weights = w

    def renormalize(self) -> None:
        """Re-project rows onto the sphere (called after optimizer steps)."""
        self.weights /= np.linalg.norm(self.weights, axis=1, keepdims=True)


def batch_centroid_anchor(positives) -> np.ndarray:
    """Normalized sum of positive descriptors, the temporary anchor direction.

    Raises DegenerateCentroidError when the positives cancel (e.g. two
    antipodal descriptors): an arbitrary fallback direction would silently
    corrupt the concentration supervision.
    """
    p = np.asarray(positives, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, :]
    if p.ndim != 2 or p.shape[0] < 1:
        raise ValueError(f"positives must be an (n, d) array, got shape {p.shape}")
    total = p.sum(axis=0)
    norm = np.linalg.norm(total)
    if norm < CENTROID_EPS:
        raise DegenerateCentroidError("positive descriptors cancel; centroid undefined")
    return total / norm
