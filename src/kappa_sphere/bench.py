"""Latency benchmark: descriptor path vs descriptor + kappa path.

The descriptor path is the head's aggregation step (per-position L2
normalization, GeM pooling at `head.GEM_P`) followed by a linear
projection to the unit descriptor.  The kappa path adds the head proper
(`head.kappa_from_pooled`, which `head.forward_batch` runs) on the
already-pooled vector, which is how the head is deployed: aggregation
work is shared, the head only appends two small linear maps and a
softplus.

Protocol: a fixed number of warmup runs per path, then the timed runs
split into interleaved repeats (descriptor and kappa blocks alternate,
swapping which goes first), reporting the median latency of each path
and the median of the per-repeat relative overheads.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .head import aggregate, init_head, kappa_from_pooled
from .training import encode

WARMUP_RUNS = 20
TIMED_RUNS = 200
REPEATS = 20

# realistic backbone output: 512 channels on a 7x7 grid, 512-d descriptor
CHANNELS = 512
GRID = 7
DESCRIPTOR_DIM = 512
HIDDEN = 64


@dataclass
class BenchResult:
    descriptor_ms: float
    combined_ms: float
    overhead: float            # median over repeats of (comb - desc) / desc
    channels: int
    grid: int
    descriptor_dim: int
    warmup_runs: int
    timed_runs: int

    def to_dict(self) -> dict:
        return asdict(self)


def run_bench(seed: int) -> BenchResult:
    """Time the descriptor path and the descriptor + kappa path."""
    rng = np.random.default_rng(seed)
    fms = rng.standard_normal((1, CHANNELS, GRID, GRID))
    encoder = (rng.standard_normal((DESCRIPTOR_DIM, CHANNELS))
               / np.sqrt(CHANNELS))
    head = init_head((CHANNELS, GRID, GRID), HIDDEN, rng=rng)

    def descriptor_path():
        encode(encoder, aggregate(fms))

    def combined_path():
        g = aggregate(fms)
        encode(encoder, g)
        kappa_from_pooled(g, head)

    def block_ms(fn, runs):
        start = time.perf_counter()
        for _ in range(runs):
            fn()
        return (time.perf_counter() - start) / runs * 1e3

    for fn in (descriptor_path, combined_path):
        block_ms(fn, WARMUP_RUNS)
    runs = TIMED_RUNS // REPEATS
    desc, comb = [], []
    for r in range(REPEATS):
        if r % 2:
            comb.append(block_ms(combined_path, runs))
            desc.append(block_ms(descriptor_path, runs))
        else:
            desc.append(block_ms(descriptor_path, runs))
            comb.append(block_ms(combined_path, runs))
    desc, comb = np.array(desc), np.array(comb)
    return BenchResult(
        descriptor_ms=float(np.median(desc)), combined_ms=float(np.median(comb)),
        overhead=float(np.median((comb - desc) / desc)),
        channels=CHANNELS, grid=GRID, descriptor_dim=DESCRIPTOR_DIM,
        warmup_runs=WARMUP_RUNS, timed_runs=TIMED_RUNS,
    )
