"""
End-to-end walkthrough: synthetic scene -> kappa head -> calibrated retrieval
=============================================================================

Generates the default synthetic scene (32 classes, 25% aliased), post-trains
the concentration head on frozen descriptors, evaluates retrieval and
rank-based calibration (ECE@1) for the resultant score against the L2
baseline, and writes a reliability diagram as SVG.
"""

import numpy as np

from kappa_sphere.calibration import reliability_svg
from kappa_sphere.pipeline import (evaluate_queries, fit_head, scene_rows,
                                   search_splits)
from kappa_sphere.synth import SceneConfig, generate_scene

# Generate a scene with known per-class ground-truth kappa.  Aliased class
# pairs share a descriptor prototype but sit at distant poses, so some
# top-1 failures are unavoidable no matter how good the descriptors are.
dataset = generate_scene(SceneConfig(seed=0))
print(f"scene: {len(dataset)} images, "
      f"{dataset.config.num_classes} classes, "
      f"{len(dataset.aliased_pairs)} aliased pairs")

# Post-training: the encoder output is frozen; only the kappa head is
# fitted, so the retrieval ranking cannot change.
head, history = fit_head(dataset)
print(f"fit: {len(history)} epochs, final loss {history[-1]['loss']:.4f}")

# Evaluate the query split against the database split, both with the
# kappas the head predicts.  The search reads descriptors alone; scoring
# reads each side's poses and kappas.
db, queries = scene_rows(dataset, head)
results = search_splits(dataset.descriptors, dataset.splits, ks=(1, 5))
ev = evaluate_queries(db, queries, results, ks=(1, 5))
print(f"\nRecall@1 = {ev.recalls[1]:.3f}   Recall@5 = {ev.recalls[5]:.3f}")
print(f"Spearman rho (predicted vs true kappa) = {ev.spearman_kappa:.3f}")

for method in ("resultant", "inv_kappa", "l2", "pa"):
    rep = ev.reports[(method, 1)]
    print(f"ECE@1 [{method:9s}] = {rep.ece:.4f}")

# Reliability diagram for the resultant score: observed recall per bin
# against the rank-anchored expected level (M - i) / (M - 1).
rep = ev.reports[("resultant", 1)]
with open("reliability_resultant_k1.svg", "w") as fh:
    fh.write(reliability_svg(rep))
print("\nwrote reliability_resultant_k1.svg")

counts = np.asarray(rep.bin_counts)
print(f"bins: {len(counts)} ({rep.strategy.value}), "
      f"{int(counts.sum())} queries, clamp bounds "
      f"[{rep.clamp_bounds[0]:.4g}, {rep.clamp_bounds[1]:.4g}]")
