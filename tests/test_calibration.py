"""ECE@K protocol: clamping, binning, anchors, oracle equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_sphere.calibration import (BinningConfig, BinStrategy,
                                      CalibrationReport, ClampMode,
                                      FieldError, clamp_values, bin_assign,
                                      ece_at_k, ece_bruteforce_oracle,
                                      expected_level,
                                      match_ece_at_k, reliability_svg)


class TestClamp:
    def test_two_sided_bounds_match_numpy_percentiles(self, rng):
        v = rng.standard_normal(500)
        cfg = BinningConfig(clamp=ClampMode.TWO_SIDED)
        clamped, (lo, hi) = clamp_values(v, cfg)
        # bounds are inclusive order statistics (so clamping is idempotent)
        assert lo == np.percentile(v, 1.0, method="higher")
        assert hi == np.percentile(v, 99.0, method="lower")
        assert clamped.min() == lo and clamped.max() == hi

    def test_one_sided_leaves_low_tail(self, rng):
        v = rng.standard_normal(500)
        cfg = BinningConfig(clamp=ClampMode.ONE_SIDED_HIGH)
        clamped, (lo, hi) = clamp_values(v, cfg)
        assert lo is None
        assert clamped.min() == v.min()
        assert clamped.max() == hi

    def test_none_mode_is_identity(self, rng):
        v = rng.standard_normal(50)
        clamped, bounds = clamp_values(v, BinningConfig(clamp=ClampMode.NONE))
        np.testing.assert_array_equal(clamped, v)
        assert bounds == (None, None)

    @pytest.mark.parametrize("mode", list(ClampMode))
    def test_idempotent_bit_exact(self, rng, mode):
        v = rng.standard_normal(311)
        cfg = BinningConfig(clamp=mode)
        once, _ = clamp_values(v, cfg)
        twice, _ = clamp_values(once, cfg)
        np.testing.assert_array_equal(once, twice)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            clamp_values([], BinningConfig())

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6) | st.integers(-3, 3),
                           min_size=1, max_size=300),
           mode=st.sampled_from(list(ClampMode)))
    def test_idempotent_property(self, values, mode):
        # Heavy ties included: re-clamping clamped values changes nothing,
        # and the low bound never sits above the high one.
        cfg = BinningConfig(clamp=mode)
        once, (lo, hi) = clamp_values(values, cfg)
        twice, _ = clamp_values(once, cfg)
        np.testing.assert_array_equal(once, twice)
        if lo is not None:
            assert lo <= hi

    def test_two_values_keep_ordered_bounds(self):
        # At n = 2 the low order statistic would sit above the high one.
        clamped, (lo, hi) = clamp_values([0.0, 1.0], BinningConfig())
        assert (lo, hi) == (0.0, 0.0)
        np.testing.assert_array_equal(clamped, [0.0, 0.0])


class TestBinAssign:
    def test_symmetric_split(self):
        cfg = BinningConfig(num_bins=2, clamp=ClampMode.NONE)
        bins = bin_assign([0.1, 0.2, 0.8, 0.9], cfg)
        np.testing.assert_array_equal(bins, [1, 1, 2, 2])

    def test_all_equal_land_in_bin_one(self):
        cfg = BinningConfig(num_bins=10)
        np.testing.assert_array_equal(bin_assign([3.0] * 7, cfg), [1] * 7)

    def test_equal_width_matches_interval_oracle(self, rng):
        # independent oracle: explicit interval membership per value
        cfg = BinningConfig(num_bins=10, clamp=ClampMode.NONE)
        v = rng.uniform(-3.0, 5.0, 200)
        bins = bin_assign(v, cfg)
        lo, hi = v.min(), v.max()
        for x, b in zip(v, bins):
            expected = 10
            for i in range(1, 10):
                if x < lo + (hi - lo) * i / 10:
                    expected = i
                    break
            assert b == expected

    def test_interior_edge_goes_up(self):
        # values 0..10, M=2, edge at 5: the edge value joins bin 2
        cfg = BinningConfig(num_bins=2, clamp=ClampMode.NONE)
        bins = bin_assign(np.arange(11.0), cfg)
        np.testing.assert_array_equal(bins[:5], 1)
        np.testing.assert_array_equal(bins[5:], 2)

    @settings(max_examples=200, deadline=None)
    @given(lo=st.integers(-1000, 1000), width=st.integers(1, 1000),
           m=st.integers(2, 20),
           extra=st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_interior_edge_goes_up_property(self, lo, width, m, extra):
        # Edge i is lo + (hi - lo) * (i / m).  A value on it lands in bin
        # i + 1; the float just below it lands in bin i.
        hi = lo + m * width
        edges = lo + (hi - lo) * (np.arange(1, m) / m)
        below = np.nextafter(edges, -np.inf)
        v = np.concatenate([[lo, hi], edges, below,
                            lo + (hi - lo) * np.asarray(extra)])
        bins = bin_assign(v, BinningConfig(num_bins=m, clamp=ClampMode.NONE))
        np.testing.assert_array_equal(bins[2:m + 1], np.arange(2, m + 1))
        np.testing.assert_array_equal(bins[m + 1:2 * m], np.arange(1, m))
        assert bins[0] == 1 and bins[1] == m

    def test_quantile_near_equal_counts(self, rng):
        cfg = BinningConfig(num_bins=4, strategy=BinStrategy.QUANTILE)
        bins = bin_assign(rng.standard_normal(10), cfg)
        counts = np.bincount(bins, minlength=5)[1:]
        np.testing.assert_array_equal(counts, [3, 3, 2, 2])

    def test_quantile_respects_order(self, rng):
        cfg = BinningConfig(num_bins=3, strategy=BinStrategy.QUANTILE)
        v = rng.standard_normal(60)
        bins = bin_assign(v, cfg)
        order = np.argsort(v, kind="stable")
        assert np.all(np.diff(bins[order]) >= 0)


class TestExpectedLevel:
    def test_anchors(self):
        assert expected_level(1, 10) == 1.0
        assert expected_level(10, 10) == 0.0

    def test_linear_in_between(self):
        m = 10
        levels = [expected_level(i, m) for i in range(1, m + 1)]
        np.testing.assert_allclose(np.diff(levels), -1.0 / (m - 1), rtol=1e-15)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            expected_level(0, 10)
        with pytest.raises(ValueError):
            expected_level(11, 10)
        with pytest.raises(ValueError):
            expected_level(1, 1)


class TestEceAtK:
    def test_hand_computed_example(self):
        # bin1 recall 1.0 vs C=1.0; bin2 recall 0.5 vs C=0.0 -> ECE 0.25
        cfg = BinningConfig(num_bins=2, clamp=ClampMode.NONE)
        rep = ece_at_k([0.1, 0.2, 0.8, 0.9], [1, 1, 1, 0], cfg, k=1,
                       method="l2")
        assert rep.ece == pytest.approx(0.25, abs=1e-15)
        assert rep.bin_counts == [2, 2]
        assert rep.bin_observed == [1.0, 0.5]
        assert rep.bin_expected == [1.0, 0.0]

    def test_all_success_single_bin(self):
        cfg = BinningConfig(num_bins=10, clamp=ClampMode.NONE)
        rep = ece_at_k([0.5] * 6, [1] * 6, cfg)
        assert rep.ece == 0.0
        assert rep.bin_counts[0] == 6
        assert rep.bin_observed[1] is None  # empty bins contribute nothing

    def test_perfectly_rank_calibrated_is_zero(self):
        # Construct bins whose recall matches the anchor exactly.
        m = 4
        cfg = BinningConfig(num_bins=m, clamp=ClampMode.NONE)
        scores, flags = [], []
        per_bin = 6
        for i in range(1, m + 1):
            level = expected_level(i, m)
            hits = round(level * per_bin)
            centers = np.linspace(i - 0.9, i - 0.1, per_bin)
            scores.extend(centers)
            flags.extend([1] * hits + [0] * (per_bin - hits))
        rep = ece_at_k(scores, flags, cfg)
        assert rep.ece == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ece_at_k([0.1, 0.2], [1], BinningConfig())

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_quantile_invariant_to_monotone_transform(self, seed):
        r = np.random.default_rng(seed)
        scores = r.uniform(0.1, 5.0, 40)
        flags = r.integers(0, 2, 40)
        cfg = BinningConfig(num_bins=5, strategy=BinStrategy.QUANTILE,
                            clamp=ClampMode.NONE)
        base = ece_at_k(scores, flags, cfg).ece
        for transform in (np.log, np.sqrt, lambda x: 3.0 * x + 1.0):
            assert ece_at_k(transform(scores), flags, cfg).ece == \
                pytest.approx(base, abs=1e-15)

    def test_permutation_invariant(self, rng):
        scores = rng.uniform(0, 1, 50)
        flags = rng.integers(0, 2, 50)
        cfg = BinningConfig()
        base = ece_at_k(scores, flags, cfg).ece
        perm = rng.permutation(50)
        assert ece_at_k(scores[perm], flags[perm], cfg).ece == \
            pytest.approx(base, abs=1e-15)


class TestMatchEce:
    def test_hand_case_matches_oracle(self):
        scores = [0.1, 0.15, 0.3, 0.45, 0.6, 0.7, 0.85, 0.9]
        flags = [1, 1, 1, 0, 1, 0, 0, 0]
        cfg = BinningConfig(num_bins=4, clamp=ClampMode.NONE)
        # 4 queries x K = 2 pairs, row-major
        rep = match_ece_at_k(np.reshape(scores, (4, 2)),
                             np.reshape(flags, (4, 2)), config=cfg)
        assert rep.level == "match"
        assert rep.k == 2
        assert rep.total == 8
        assert rep.ece == ece_bruteforce_oracle(scores, flags, cfg)

    def test_pair_count_enforced(self):
        # scores and positives must be the same (n, K) block
        with pytest.raises(ValueError):
            match_ece_at_k(np.array([0.1, 0.2]), np.array([1, 0]),
                           config=BinningConfig())
        with pytest.raises(ValueError):
            match_ece_at_k(np.zeros((4, 3)), np.zeros((3, 4)),
                           config=BinningConfig())


def _draws():
    """The 1000 random instances the oracle tests share: both strategies,
    every clamp mode, ties, and n < M (empty bins) among them."""
    r = np.random.default_rng(999)
    strategies = list(BinStrategy)
    modes = list(ClampMode)
    for trial in range(1000):
        n = int(r.integers(5, 60))
        m = int(r.integers(2, 12))
        scores = r.uniform(-2.0, 2.0, n)
        if r.random() < 0.2:  # exercise ties
            scores = np.round(scores, 1)
        flags = r.integers(0, 2, n)
        yield trial, scores, flags, BinningConfig(
            num_bins=m, strategy=strategies[trial % 2], clamp=modes[trial % 3])


def _recount(scores, flags, cfg):
    """(bin_counts, bin_observed) by one mask per bin over the clamp and
    the bin assignment of the fast path."""
    bins = bin_assign(clamp_values(scores, cfg)[0], cfg)
    flags = np.asarray(flags, dtype=np.float64)
    masks = [bins == i for i in range(1, cfg.num_bins + 1)]
    return ([int(mask.sum()) for mask in masks],
            [float(flags[mask].mean()) if mask.any() else None
             for mask in masks])


class TestOracleEquivalence:
    def test_randomized_exact_equality(self):
        # 1000 instances across both strategies and all clamp modes.
        for trial, scores, flags, cfg in _draws():
            fast = ece_at_k(scores, flags, cfg).ece
            oracle = ece_bruteforce_oracle(scores, flags, cfg)
            assert fast == oracle, (trial, cfg)

    def test_bin_lists_match_a_recount(self):
        # the per-bin lists, not only the ECE, equal a mask-per-bin
        # recount, with None exactly where a bin is empty
        short = dict.fromkeys(BinStrategy, 0)
        for trial, scores, flags, cfg in _draws():
            rep = ece_at_k(scores, flags, cfg)
            counts, observed = _recount(scores, flags, cfg)
            assert rep.bin_counts == counts, (trial, cfg)
            assert rep.bin_observed == observed, (trial, cfg)
            assert [obs is None for obs in rep.bin_observed] == \
                [count == 0 for count in counts]
            assert {type(count) for count in rep.bin_counts} == {int}
            short[cfg.strategy] += len(scores) < cfg.num_bins
        assert min(short.values()) > 0, short  # empty bins under both

    def test_match_bin_lists_match_a_recount(self):
        # bool positives in (n, K) blocks: the lists are the recount of
        # the row-major pairs
        for trial, scores, flags, cfg in _draws():
            k = 1 + trial % 3
            t = len(scores) // k * k
            rep = match_ece_at_k(scores[:t].reshape(-1, k),
                                 flags[:t].reshape(-1, k).astype(bool), cfg)
            assert (rep.bin_counts, rep.bin_observed) == \
                _recount(scores[:t], flags[:t], cfg), (trial, cfg)

    def test_single_bin_edge_case(self):
        cfg = BinningConfig(num_bins=2, clamp=ClampMode.NONE)
        assert ece_at_k([1.0, 1.0], [1, 0], cfg).ece == \
            ece_bruteforce_oracle([1.0, 1.0], [1, 0], cfg)


class TestReport:
    def test_roundtrip_dict(self):
        cfg = BinningConfig(num_bins=2, clamp=ClampMode.NONE)
        rep = ece_at_k([0.1, 0.9], [1, 0], cfg, k=5, method="resultant")
        d = rep.to_dict()
        assert d["method"] == "resultant" and d["k"] == 5
        assert d["strategy"] == "equal_width"
        assert (rep.bin_counts[0], rep.bin_observed[0],
                rep.bin_expected[0]) == (1, 1.0, 1.0)

    def test_from_dict_inverts_to_dict(self):
        for clamp in ClampMode:
            cfg = BinningConfig(num_bins=4, clamp=clamp)
            rep = ece_at_k([0.1, 0.5, 0.9, 0.95, 3.0], [1, 1, 0, 0, 1], cfg,
                           k=5, method="resultant")
            assert CalibrationReport.from_dict(rep.to_dict()) == rep

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("clamp"), "missing key 'clamp'"),
        (lambda doc: doc.update(foo=1), "unknown key 'foo'"),
        (lambda doc: doc.update(strategy="bogus"), "'bogus'"),
        (lambda doc: doc.update(clamp_bounds=5),
         "clamp_bounds must be a list of 2 numbers or nulls, got 5"),
        (lambda doc: doc.update(clamp_bounds=[0.1]), "clamp_bounds must be"),
        (lambda doc: doc.update(num_bins=3),
         r"bin_counts must be a list of 3 integers, got \[2, 0\]"),
        (lambda doc: doc.update(num_bins="2"),
         "num_bins must be int, got '2'"),
        (lambda doc: doc.update(num_bins=1), "num_bins must be >= 2, got 1"),
        (lambda doc: doc.update(total=True),
         "total must be int, got True"),
        (lambda doc: doc.update(ece=False),
         "ece must be a finite float, got False"),
        (lambda doc: doc.update(k=1.0), "k must be int, got 1.0"),
        (lambda doc: doc.update(method=None), "method must be str, got None"),
        (lambda doc: doc.update(level=["query"]),
         r"level must be str, got \['query'\]"),
        (lambda doc: doc.update(bin_observed=[1.0, "0"]),
         "bin_observed must be a list of 2 numbers or nulls"),
        (lambda doc: doc.update(bin_expected=[1.0, None]),
         "bin_expected must be a list of 2 numbers"),
        (lambda doc: doc.update(clamp="both"), "clamp must be one of")])
    def test_from_dict_rejects_a_malformed_entry(self, edit, message):
        # a FieldError the CLI locates at the field, not a TypeError or
        # KeyError
        doc = ece_at_k([0.1, 0.9], [1, 0], BinningConfig(num_bins=2)).to_dict()
        edit(doc)
        with pytest.raises(FieldError, match=message) as exc:
            CalibrationReport.from_dict(doc)
        assert exc.value.key in str(exc.value)  # names the field

    def test_from_dict_defaults_the_level(self):
        doc = ece_at_k([0.1, 0.9], [1, 0], BinningConfig(num_bins=2)).to_dict()
        del doc["level"]
        assert CalibrationReport.from_dict(doc).level == "query"

    def test_svg_is_deterministic_and_wellformed(self):
        cfg = BinningConfig(num_bins=3, clamp=ClampMode.NONE)
        rep = ece_at_k([0.1, 0.5, 0.9], [1, 1, 0], cfg, method="l2")
        svg = reliability_svg(rep)
        assert svg == reliability_svg(rep)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "ECE@" in svg
