"""Rank-based calibration of uncertainty scores (ECE@K).

Protocol: percentile-clamp the scores, partition them into M bins
(equal-width over the clamped range by default, or near-equal-count
quantile bins), anchor each bin to an expected success level
C(B_i) = (M - i) / (M - 1), and accumulate the mass-weighted absolute
gap between observed per-bin recall and the anchor.

Percentile convention (used identically by the fast path and the
brute-force oracle): inclusive order statistics -- the high bound is the
sorted value at index floor((n - 1) * p / 100), the low bound at
ceil((n - 1) * p / 100).  Linear interpolation would place the bound
between two order statistics, and re-clamping would then pull the bound
inward; taking the order statistic on the retained side makes clamping
exactly idempotent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from enum import Enum

import numpy as np

CLAMP_LOW_PCT = 1.0
CLAMP_HIGH_PCT = 99.0


class BinStrategy(str, Enum):
    EQUAL_WIDTH = "equal_width"
    QUANTILE = "quantile"


class ClampMode(str, Enum):
    TWO_SIDED = "two_sided"
    ONE_SIDED_HIGH = "one_sided_high"
    NONE = "none"


class FieldError(ValueError):
    """A field whose value fails a check of that field alone: `key` must be
    `want` but is `value` (with no `value`, `want` is the whole message).
    Carries the key, so a run config or a report locates the failure at it."""

    def __init__(self, key: str, want: str, value=MISSING):
        super().__init__(want if value is MISSING
                         else f"{key} must be {want}, got {value!r}")
        self.key = key


def json_value(key: str, value, like):
    """`value`, as JSON holds the field `key` of the type of `like`,
    checked: an enum is built from its value, a tuple takes an array of
    len(like) positive integers, a number keeps its JSON type (an int may
    stand for a float; a bool is no number) and a float is finite.  Any
    other value is a FieldError at `key`."""
    kind = type(like)
    if isinstance(like, Enum):
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise FieldError(key, f"one of {[m.value for m in kind]}",
                             value) from None
    if kind is tuple:
        want = f"an array of {len(like)} positive integers"
        ok = (isinstance(value, list) and len(value) == len(like)
              and set(map(type, value)) <= {int} and min(value) >= 1)
    else:
        want = "a finite float" if kind is float else kind.__name__
        ok = (type(value) in {float: (int, float)}.get(kind, (kind,))
              and (kind is not float or abs(value) <= sys.float_info.max))
    if not ok:
        raise FieldError(key, want, value)
    return tuple(value) if kind is tuple else value


@dataclass
class BinningConfig:
    num_bins: int = 10
    strategy: BinStrategy = BinStrategy.EQUAL_WIDTH
    clamp: ClampMode = ClampMode.TWO_SIDED

    def __post_init__(self):
        if self.num_bins < 2:
            raise FieldError("num_bins", ">= 2", self.num_bins)


def _clamp_indices(n: int) -> tuple:
    """Order-statistic indices (low, high) of the clamp bounds among n
    sorted values: high at floor((n-1) * 99 / 100), low at
    ceil((n-1) * 1 / 100) but never above high (n = 2 would invert them)."""
    high = int(math.floor((n - 1) * CLAMP_HIGH_PCT / 100.0))
    return min(int(math.ceil((n - 1) * CLAMP_LOW_PCT / 100.0)), high), high


def clamp_values(values, config: BinningConfig):
    """Percentile-clamp scores; returns (clamped array, (low, high) bounds).

    Bounds are None where the mode leaves that tail open.  Idempotent:
    clamping already-clamped values is a no-op.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("no values to clamp")
    if config.clamp is ClampMode.NONE:
        return v.copy(), (None, None)
    s = np.sort(v)
    i_low, i_high = _clamp_indices(len(s))
    high = float(s[i_high])
    low = None
    out = np.minimum(v, high)
    if config.clamp is ClampMode.TWO_SIDED:
        low = float(s[i_low])
        out = np.maximum(out, low)
    return out, (low, high)


def bin_assign(values, config: BinningConfig) -> np.ndarray:
    """Assign each value a bin index 1..M (1 = most certain / lowest score).

    Equal-width: M equal intervals over [min, max] of the values; a value
    on an interior edge goes to the upper bin; all-equal values land in
    bin 1.  Quantile: stable sort, then M contiguous groups with sizes as
    equal as possible (earlier groups take the remainder).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("no values to bin")
    m = config.num_bins
    if config.strategy is BinStrategy.QUANTILE:
        sizes = len(v) // m + (np.arange(m) < len(v) % m)
        bins = np.empty(len(v), dtype=np.int64)
        bins[np.argsort(v, kind="stable")] = np.repeat(np.arange(1, m + 1),
                                                       sizes)
        return bins
    lo = float(v.min())
    hi = float(v.max())
    if hi == lo:
        return np.ones(len(v), dtype=np.int64)
    edges = lo + (hi - lo) * (np.arange(1, m) / m)
    return np.searchsorted(edges, v, side="right").astype(np.int64) + 1


def expected_level(i: int, m: int) -> float:
    """Rank-anchored expectation C(B_i) = (M - i)/(M - 1); C(1)=1, C(M)=0.
    An array of bin indices `i` gives the array of their levels."""
    if m < 2:
        raise ValueError("need at least 2 bins")
    if np.min(i) < 1 or np.max(i) > m:
        raise ValueError(f"bin index {i} out of range 1..{m}")
    return (m - i) / (m - 1)


@dataclass
class CalibrationReport:
    method: str
    k: int
    num_bins: int
    strategy: BinStrategy
    clamp: ClampMode
    clamp_bounds: tuple
    bin_counts: list
    bin_observed: list       # None for empty bins
    bin_expected: list
    ece: float
    total: int
    level: str = "query"     # "query" or "match"

    def to_dict(self) -> dict:
        return {**asdict(self), "strategy": self.strategy.value,
                "clamp": self.clamp.value, "clamp_bounds": list(self.clamp_bounds)}

    @classmethod
    def from_dict(cls, doc: dict) -> "CalibrationReport":
        """Inverse of `to_dict`, for an entry as JSON holds it.  A missing
        or unknown key, a field not of the type of `_LIKE`'s (`json_value`),
        num_bins < 2, or a list field not of `_LISTS`'s items (2 in
        clamp_bounds, num_bins in a bin list) is a FieldError at its key."""
        names = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls) if f.default is MISSING}
        for what, keys in (("missing", required - set(doc)),
                           ("unknown", set(doc) - names)):
            if keys:
                key = sorted(keys)[0]
                raise FieldError(key, f"{what} key {key!r}")
        values = {key: json_value(key, value, getattr(_LIKE, key))
                  for key, value in doc.items() if key not in _LISTS}
        BinningConfig(values["num_bins"])  # num_bins >= 2
        for key, (types, want) in _LISTS.items():
            n = 2 if key == "clamp_bounds" else values["num_bins"]
            if (not isinstance(doc[key], list) or len(doc[key]) != n
                    or not set(map(type, doc[key])) <= types):
                raise FieldError(key, f"a list of {n} {want}", doc[key])
        return cls(**{**doc, **values,
                      "clamp_bounds": tuple(doc["clamp_bounds"])})


# a report whose fields other than the lists have the types `from_dict`
# takes for them
_LIKE = CalibrationReport("", 1, 2, BinStrategy.EQUAL_WIDTH, ClampMode.NONE,
                          (), [], [], [], 0.0, 0)
# a list field's item types (a bool is no number; null is an empty bin's
# observed recall, or an open clamp bound) and their name
_NUMBER = {int, float}
_LISTS = {"clamp_bounds": (_NUMBER | {type(None)}, "numbers or nulls"),
          "bin_counts": ({int}, "integers"),
          "bin_observed": (_NUMBER | {type(None)}, "numbers or nulls"),
          "bin_expected": (_NUMBER, "numbers")}


def _ece_report(scores, flags, config: BinningConfig, k: int, method: str,
                level: str) -> CalibrationReport:
    """Shared fast path: clamp, bin, aggregate."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=np.float64)
    if scores.shape != flags.shape:
        raise ValueError("scores and success flags length mismatch")
    clamped, bounds = clamp_values(scores, config)
    bins = bin_assign(clamped, config)
    m = config.num_bins
    n = len(scores)
    counts = np.bincount(bins, minlength=m + 1)[1:]
    hits = np.bincount(bins, weights=flags, minlength=m + 1)[1:]
    filled = counts > 0
    observed = np.divide(hits, counts, out=np.zeros(m), where=filled)
    expected = expected_level(np.arange(1, m + 1), m)
    # an empty bin adds 0.0; cumsum adds the terms in bin order
    ece = np.cumsum(counts / n * np.abs(observed - expected))[-1]
    return CalibrationReport(
        method=method, k=k, num_bins=m, strategy=config.strategy,
        clamp=config.clamp, clamp_bounds=bounds, bin_counts=counts.tolist(),
        bin_observed=np.where(filled, observed, None).tolist(),
        bin_expected=expected.tolist(), ece=float(ece), total=n, level=level,
    )


def ece_at_k(scores, successes, config: BinningConfig,
             k: int = 1, method: str = "") -> CalibrationReport:
    """Query-level ECE@K from (n,) scores and success-at-K flags."""
    return _ece_report(scores, successes, config, k, method, "query")


def match_ece_at_k(scores, positives, config: BinningConfig,
                   method: str = "") -> CalibrationReport:
    """Match-level ECE@K over the T = n * K retrieved pairs.

    `scores` and `positives` are (n, K): row i holds query i's pairs.
    Each pair is binned by its match uncertainty; per-bin accuracy is the
    fraction of ground-truth-positive pairs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or np.shape(positives) != scores.shape:
        raise ValueError(f"expected (n, K) scores and positives, got "
                         f"{scores.shape} and {np.shape(positives)}")
    return _ece_report(scores.ravel(), np.ravel(positives), config,
                       scores.shape[1], method, "match")


def ece_bruteforce_oracle(scores, flags, config: BinningConfig) -> float:
    """Independent naive re-computation of the ECE value: pure-Python
    sorting, clamping, partitioning, and per-bin recounting.  Shares no
    code with the fast path; used for exact-equality testing.
    """
    vals = [float(x) for x in np.asarray(scores, dtype=np.float64)]
    succ = [float(x) for x in np.asarray(flags, dtype=np.float64)]
    if len(vals) != len(succ) or not vals:
        raise ValueError("bad inputs")
    n = len(vals)
    m = config.num_bins

    # clamping (same inclusive order-statistic convention as the fast path)
    if config.clamp is not ClampMode.NONE:
        svals = sorted(vals)
        hi_i = int(math.floor((n - 1) * 99.0 / 100.0))
        hi_b = svals[hi_i]
        vals = [min(x, hi_b) for x in vals]
        if config.clamp is ClampMode.TWO_SIDED:
            lo_b = svals[min(int(math.ceil((n - 1) * 1.0 / 100.0)), hi_i)]
            vals = [max(x, lo_b) for x in vals]

    # partitioning
    assignment = [0] * n
    if config.strategy is BinStrategy.QUANTILE:
        order = sorted(range(n), key=lambda idx: vals[idx])
        pos = 0
        for i in range(m):
            size = n // m + (1 if i < n % m else 0)
            for j in order[pos:pos + size]:
                assignment[j] = i + 1
            pos += size
    else:
        lo = min(vals)
        hi = max(vals)
        if hi == lo:
            assignment = [1] * n
        else:
            for j, x in enumerate(vals):
                b = m
                for i in range(1, m):
                    if x < lo + (hi - lo) * (i / m):
                        b = i
                        break
                assignment[j] = b

    # per-bin recount
    ece = 0.0
    for i in range(1, m + 1):
        members = [j for j in range(n) if assignment[j] == i]
        if not members:
            continue
        acc = sum(succ[j] for j in members) / len(members)
        expected = (m - i) / (m - 1)
        ece += (len(members) / n) * abs(acc - expected)
    return ece


def reliability_svg(report: CalibrationReport, width: int = 420,
                    height: int = 420) -> str:
    """Minimal deterministic SVG: observed recall vs expected level per bin,
    with the identity diagonal."""
    pad = 40
    span = min(width, height) - 2 * pad

    def sx(x):
        return pad + x * span

    def sy(y):
        return height - pad - y * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{pad}" y="{height - pad - span}" width="{span}" height="{span}" '
        'fill="none" stroke="#888"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}" '
        'stroke="#bbb" stroke-dasharray="4 3"/>',
    ]
    pts = []
    for i in range(report.num_bins):
        obs = report.bin_observed[i]
        if obs is None:
            continue
        exp = report.bin_expected[i]
        pts.append((sx(exp), sy(obs)))
        parts.append(f'<circle cx="{sx(exp):.2f}" cy="{sy(obs):.2f}" r="4" '
                     'fill="#1f77b4"/>')
    if len(pts) > 1:
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="#1f77b4"/>')
    parts.append(
        f'<text x="{pad}" y="{pad - 12}" font-size="13" font-family="sans-serif">'
        f'{report.method} ECE@{report.k} = {report.ece:.4f}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
