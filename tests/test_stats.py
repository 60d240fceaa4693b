import math
import time
import tracemalloc

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segscreen import stats
from segscreen.stats import (
    StatisticalParams,
    bh_fdr,
    derive_seed,
    energy_distance,
    ks_statistic,
    ks_two_sample,
    median_heuristic,
    mmd2_unbiased,
    subsample,
    two_sample_test,
)

from oracles import (
    bh_keep_bruteforce,
    dense_two_sample_test,
    ecdf_distance,
    energy_by_definition,
    median_distance_by_definition,
    mmd2_by_definition,
    permutation_test,
    within_kernel_sum_by_definition,
)


class TestMedianHeuristic:
    def test_single_pair(self):
        assert median_heuristic([0.0, 2.0]) == 2.0

    def test_three_points_sorted_distances(self):
        # distances {1, 2, 3} -> median 2
        assert median_heuristic([0.0, 1.0, 3.0]) == 2.0

    def test_constant_data_falls_back_to_one(self):
        assert median_heuristic([0.5] * 10) == 1.0

    def test_rejects_tiny_pool(self):
        with pytest.raises(ValueError):
            median_heuristic([1.0])

    def test_large_pool_median_is_exact(self):
        # Every point counts at any pool size: 2100 points, 2.2M pairs.
        rng = np.random.default_rng(50)
        xs = np.sort(rng.normal(size=2100))
        pairs = np.concatenate([xs[i + 1:] - xs[i] for i in range(xs.size - 1)])
        assert median_heuristic(xs[rng.permutation(xs.size)]) == float(np.median(pairs))

    def test_equals_median_by_definition_exactly(self):
        rng = np.random.default_rng(49)
        for _ in range(50):
            data = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 120)))
            assert median_heuristic(data) == median_distance_by_definition(data)

    @pytest.mark.parametrize("size", [2, 3, 50, 51, 300])
    @pytest.mark.parametrize("data", ["continuous", "rounded", "two_valued"])
    def test_selection_equals_definition_at_pool_sizes(self, size, data):
        # Odd and even pair counts (1, 3, 1225, 1275, 44850), with and
        # without tied distances.
        rng = np.random.default_rng(size)
        sample = {"continuous": rng.normal(size=size),
                  "rounded": np.round(rng.uniform(size=size), 2),
                  "two_valued": rng.choice([0.25, 0.75], size=size)}[data]
        assert median_heuristic(sample) == median_distance_by_definition(sample)

    def test_selection_finds_every_order_statistic(self):
        rng = np.random.default_rng(47)
        for sample in (rng.normal(size=23), np.round(rng.uniform(size=24), 1),
                       rng.choice([0.0, 0.3, 1.0], size=17), np.full(6, 2.0)):
            xs = np.sort(sample)
            diffs = sorted(xs[j] - xs[i] for i in range(xs.size) for j in range(i + 1, xs.size))
            assert [stats._kth_difference(xs, k) for k in range(len(diffs))] == diffs

    @pytest.mark.parametrize("shape", [(4, 2), (2, 2, 2)])
    def test_rejects_samples_that_are_not_1d(self, shape):
        with pytest.raises(ValueError, match="1-D"):
            median_heuristic(np.zeros(shape))
        with pytest.raises(ValueError, match="1-D"):
            two_sample_test(np.zeros(shape), np.zeros(shape))


class TestMmd2Unbiased:
    def test_identical_degenerate_sets(self):
        assert mmd2_unbiased([0.0, 0.0], [0.0, 0.0], sigma=1.0) == 0.0

    def test_closed_form_value(self):
        # c chosen so the cross-kernel equals 1/2: full statistic is exactly 1.
        c = math.sqrt(2.0 * math.log(2.0))
        assert mmd2_unbiased([0.0, 0.0], [c, c], sigma=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            x = rng.normal(size=rng.integers(2, 9))
            y = rng.normal(size=rng.integers(2, 9))
            sigma = float(rng.uniform(0.5, 2.0))
            assert mmd2_unbiased(x, y, sigma) == pytest.approx(
                mmd2_by_definition(x, y, sigma), abs=1e-12
            )

    def test_mean_near_zero_under_null(self):
        rng = np.random.default_rng(52)
        vals = []
        for _ in range(100):
            x = rng.normal(size=60)
            y = rng.normal(size=60)
            sigma = median_heuristic(np.concatenate([x, y]))
            vals.append(mmd2_unbiased(x, y, sigma))
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) < 3 * se

    def test_size_violations_rejected(self):
        with pytest.raises(ValueError):
            mmd2_unbiased([1.0], [0.0, 1.0], sigma=1.0)


class TestEnergyDistance:
    def test_identical_pairs(self):
        assert energy_distance([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_single_points(self):
        assert energy_distance([0.0], [2.0]) == 4.0

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            x = rng.normal(size=rng.integers(1, 8))
            y = rng.normal(size=rng.integers(1, 8))
            assert energy_distance(x, y) == pytest.approx(energy_by_definition(x, y), abs=1e-12)

    def test_shift_increases_statistic(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            x = rng.normal(size=40)
            y = rng.normal(size=40)
            assert energy_distance(x, y + 2.0) > energy_distance(x, y)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            energy_distance([], [1.0])


class TestPermutationTest:
    def test_identical_multisets_saturate(self):
        x = [0.1, 0.2, 0.3, 0.4]
        stat = lambda a, b: mmd2_unbiased(a, b, sigma=1.0)
        assert permutation_test(x, x, stat, permutations=99, seed=0) == 1.0

    def test_zero_exceedances_give_smoothed_minimum(self):
        rng = np.random.default_rng(55)
        x = rng.normal(0.0, 0.1, size=40)
        y = rng.normal(10.0, 0.1, size=40)
        sigma = median_heuristic(np.concatenate([x, y]))
        stat = lambda a, b: mmd2_unbiased(a, b, sigma)
        assert permutation_test(x, y, stat, permutations=199, seed=1) == pytest.approx(1 / 200)

    def test_p_is_count_plus_one_over_b_plus_one(self):
        rng = np.random.default_rng(56)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        sigma = median_heuristic(np.concatenate([x, y]))
        stat = lambda a, b: mmd2_unbiased(a, b, sigma)
        p = permutation_test(x, y, stat, permutations=37, seed=2)
        count = round(p * 38) - 1
        assert 0 <= count <= 37
        assert p == (count + 1) / 38

    def test_relabeling_invariance_at_equal_sizes(self):
        rng = np.random.default_rng(57)
        x = rng.normal(size=20)
        y = rng.normal(0.5, 1.0, size=20)
        sigma = median_heuristic(np.concatenate([x, y]))
        stat = lambda a, b: mmd2_unbiased(a, b, sigma)
        p_xy = permutation_test(x, y, stat, permutations=199, seed=3)
        p_yx = permutation_test(y, x, stat, permutations=199, seed=3)
        assert p_xy == p_yx


class TestTwoSampleTest:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(58)
        x = rng.normal(size=100)
        y = rng.normal(size=120)
        a = two_sample_test(x, y, StatisticalParams(), 9)
        b = two_sample_test(x, y, StatisticalParams(), 9)
        assert (a.statistic_observed, a.p_value, a.bandwidth_sigma) == (
            b.statistic_observed, b.p_value, b.bandwidth_sigma)

    def test_fast_path_statistic_matches_direct(self):
        rng = np.random.default_rng(59)
        x = rng.normal(size=50)
        y = rng.normal(1.0, 1.0, size=60)
        out = two_sample_test(x, y, StatisticalParams(), 4)
        direct = mmd2_by_definition(x, y, out.bandwidth_sigma)
        assert out.statistic_observed == pytest.approx(direct, abs=1e-10)

    def test_energy_fast_path_matches_direct(self):
        rng = np.random.default_rng(60)
        x = rng.normal(size=30)
        y = rng.normal(size=45)
        out = two_sample_test(x, y, StatisticalParams(statistic="energy"), 5)
        assert out.statistic_observed == pytest.approx(energy_by_definition(x, y), abs=1e-10)
        assert out.bandwidth_sigma is None  # energy has no kernel bandwidth

    def test_null_p_roughly_uniform(self):
        rng = np.random.default_rng(61)
        ps = []
        for i in range(60):
            x = rng.normal(size=50)
            y = rng.normal(size=50)
            ps.append(two_sample_test(x, y, StatisticalParams(permutations=99), i).p_value)
        assert np.mean(ps) > 0.3  # not systematically anti-conservative
        assert min(ps) >= 1 / 100

    @pytest.mark.parametrize("statistic", ["mmd2", "energy"])
    def test_p_value_equals_slow_reference(self, statistic):
        # At a pooled size <= 2000 neither subsampling nor the median
        # heuristic draws from the RNG, so the fast path and the reference
        # see the same permutation stream.
        rng = np.random.default_rng(64)
        for i in range(10):
            x = rng.normal(0.0, 1.0, size=int(rng.integers(2, 60)))
            y = rng.normal(float(rng.uniform(0, 1)), 1.0, size=int(rng.integers(2, 80)))
            params = StatisticalParams(permutations=49, statistic=statistic)
            out = two_sample_test(x, y, params, i)
            if statistic == "mmd2":
                stat = lambda a, b: mmd2_unbiased(a, b, out.bandwidth_sigma)
            else:
                stat = energy_distance
            assert out.p_value == permutation_test(x, y, stat, params.permutations, seed=i)

    def test_mmd2_equals_dense_reference_exactly(self):
        # Sigma and the p-value equal those of the full pooled matrix:
        # pooled sizes up to 1500 and one of 2140, where the median
        # heuristic subsamples and the row sums take many blocks. Summing
        # each unordered pair once reassociates the kernel sums, so the
        # statistic agrees to its last digits; near 0 it cancels, and
        # there the dense reference itself is off the exactly rounded
        # value by about 1e-12 relative, hence the absolute floor.
        rng = np.random.default_rng(71)
        sizes = [(int(rng.integers(2, 200)), int(rng.integers(2, 1300))) for _ in range(8)]
        for i, (m, n) in enumerate(sizes + [(40, 2100)]):
            x = rng.normal(0.0, 1.0, size=m)
            y = rng.normal(float(rng.uniform(0.0, 0.5)), 1.0, size=n)
            out = two_sample_test(x, y, StatisticalParams(permutations=49), i)
            stat, sigma, p_value = dense_two_sample_test(x, y, permutations=49, seed=i)
            assert out.statistic_observed == pytest.approx(stat, rel=1e-12, abs=1e-15)
            assert (out.bandwidth_sigma, out.p_value) == (sigma, p_value)

    def test_energy_matches_dense_reference(self):
        rng = np.random.default_rng(72)
        for i in range(8):
            x = rng.normal(0.0, 1.0, size=int(rng.integers(1, 200)))
            y = rng.normal(float(rng.uniform(0.0, 0.5)), 1.0, size=int(rng.integers(1, 1300)))
            out = two_sample_test(x, y, StatisticalParams(permutations=49, statistic="energy"), i)
            stat, sigma, p_value = dense_two_sample_test(x, y, permutations=49,
                                                         statistic="energy", seed=i)
            assert out.statistic_observed == pytest.approx(stat, rel=1e-10)
            assert (out.bandwidth_sigma, out.p_value) == (sigma, p_value)

    def test_kernel_blocks_split_rows_and_within_sums(self, monkeypatch):
        # With a 64-value budget the pooled row sums and each permutation's
        # half-kernel are summed in many row blocks; only the within-set sums
        # change, in their last digits.
        monkeypatch.setattr(stats, "KERNEL_BLOCK_ELEMENTS", 64)
        rng = np.random.default_rng(73)
        for i in range(5):
            x = rng.normal(size=int(rng.integers(9, 40)))
            y = rng.normal(0.5, 1.0, size=int(rng.integers(9, 60)))
            out = two_sample_test(x, y, StatisticalParams(permutations=49), i)
            stat, sigma, p_value = dense_two_sample_test(x, y, permutations=49, seed=i)
            assert out.statistic_observed == pytest.approx(stat, rel=1e-12, abs=1e-15)
            assert (out.bandwidth_sigma, out.p_value) == (sigma, p_value)

    @pytest.mark.parametrize("budget", [stats.KERNEL_BLOCK_ELEMENTS, 64])
    def test_half_kernel_equals_within_sum_by_definition(self, monkeypatch, budget):
        # m + 2 * (circulant half-kernel) against the exactly rounded sum
        # over ordered pairs, odd and even m, for a batch of three sets, in
        # one block or many.
        monkeypatch.setattr(stats, "KERNEL_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(76)
        sizes = list(range(2, 10)) + [int(v) for v in rng.integers(10, 301, size=6)] + [200, 201]
        for m in sizes:
            sets = rng.normal(size=(3, m))
            sigma = float(rng.uniform(0.2, 2.0))
            s_aa = stats._within_sum(stats._prescale(np.sort(sets, axis=1), sigma))
            expected = [m + within_kernel_sum_by_definition(x, sigma) for x in sets]
            assert s_aa == pytest.approx(expected, rel=1e-13), m

    def test_mmd2_larger_first_set_matches_references(self):
        # With m > n the p-value and sigma equal the dense reference, the
        # statistic the exactly rounded definition up to the tie rule's
        # scale TIE_TOLERANCE * total / n^2 (total <= (m + n)^2): the second
        # set's within-set sum is derived from the pool total. The last
        # pair's pool exceeds 2000 points, so the median is subsampled.
        rng = np.random.default_rng(77)
        for i, (m, n) in enumerate([(300, 20), (150, 149), (60, 2), (500, 3), (2100, 40)]):
            x = rng.normal(0.0, 1.0, size=m)
            y = rng.normal(float(rng.uniform(0.0, 0.5)), 1.0, size=n)
            out = two_sample_test(x, y, StatisticalParams(permutations=19), i)
            stat, sigma, p_value = dense_two_sample_test(x, y, permutations=19, seed=i)
            assert (out.bandwidth_sigma, out.p_value) == (sigma, p_value)
            if m + n <= 600:
                assert out.statistic_observed == pytest.approx(
                    mmd2_by_definition(x, y, sigma), rel=1e-12,
                    abs=stats.TIE_TOLERANCE * ((m + n) / n) ** 2)

    @pytest.mark.parametrize("statistic", ["mmd2", "energy"])
    def test_peak_memory_stays_flat(self, statistic):
        # 4000 + 4000 points: the pooled matrix alone would take 488 MiB.
        rng = np.random.default_rng(74)
        x, y = rng.normal(size=4000), rng.normal(0.1, 1.0, size=4000)
        tracemalloc.start()
        try:
            two_sample_test(x, y, StatisticalParams(permutations=19, statistic=statistic))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("statistic", ["mmd2", "energy"])
    def test_ties_match_oracles(self, statistic):
        # Two- and three-valued samples: many permutations reach the same
        # multiset, or another one with the same statistic, through other
        # summation orders. The oracle sums each statistic exactly rounded.
        rng = np.random.default_rng(75)
        for i in range(8):
            levels = [0.0, 1.0] if i % 2 == 0 else [0.2, 0.5, 0.9]
            m = int(rng.integers(2, 25))
            n = m if i % 4 < 2 else int(rng.integers(2, 25))
            x, y = rng.choice(levels, size=m), rng.choice(levels, size=n)
            params = StatisticalParams(permutations=99, statistic=statistic)
            out = two_sample_test(x, y, params, i)
            pooled = np.concatenate([x, y]).tolist()
            if statistic == "mmd2":
                sigma = out.bandwidth_sigma
                stat = lambda a, b: mmd2_by_definition(a, b, sigma)
                pair = lambda u, v: math.exp(-((u - v) ** 2) / (2.0 * sigma * sigma))
            else:
                stat, pair = energy_by_definition, lambda u, v: abs(u - v)
            total = math.fsum(pair(u, v) for u in pooled for v in pooled)
            assert out.p_value == permutation_test(x, y, stat, params.permutations, seed=i,
                                                   tie_scale=total / n**2)
            assert out.p_value == dense_two_sample_test(x, y, params.permutations,
                                                        statistic=statistic, seed=i)[2]
            if m == n:
                assert two_sample_test(y, x, params, i).p_value == out.p_value

    def test_subsampling_respects_cap(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        out = two_sample_test(x, y, StatisticalParams(sample_cap=100, permutations=19), 0)
        assert out.p_value >= 1 / 20

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StatisticalParams(permutations=5)
        with pytest.raises(ValueError):
            StatisticalParams(statistic="hotelling")

    def test_quadratic_scaling_bound(self):
        # One test at 2n points should cost no more than ~quadratic over n.
        rng = np.random.default_rng(63)
        def runtime(n):
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                two_sample_test(x, y, StatisticalParams(permutations=49), 0)
                best = min(best, time.perf_counter() - t0)
            return best
        t1, t2 = runtime(150), runtime(300)
        assert t2 / t1 < 10.0  # quadratic predicts 4; generous slack for noise


class TestSequentialStop:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), family=st.integers(1, 5),
           alpha=st.sampled_from([0.01, 0.05, 0.1, 0.2]), permutations=st.integers(19, 99),
           statistic=st.sampled_from(stats.STATISTIC_KINDS))
    def test_stopped_run_keeps_full_run_decisions(self, seed, family, alpha, permutations,
                                                  statistic):
        # Each family member runs in full and stopped at alpha, the latter
        # also in 64-value chunks. A p <= alpha is the full run's, a larger
        # one the bound (h + 1) / (B + 1) above alpha, and BH keeps the same
        # candidates. A stopped run ends at the h-th exceedance of the
        # oracle's replay of the same stream.
        rng = np.random.default_rng(seed)
        full, stopped = [], []
        for i in range(family):
            x = rng.normal(float(rng.uniform(0.0, 1.5)), 1.0, size=int(rng.integers(2, 30)))
            y = rng.normal(size=int(rng.integers(2, 60)))
            params = StatisticalParams(permutations=permutations, statistic=statistic)
            full.append(two_sample_test(x, y, params, seed + i))
            stopped.append(two_sample_test(x, y, params, seed + i, stop_above=alpha))
            with mock.patch.object(stats, "KERNEL_BLOCK_ELEMENTS", 64):
                small = two_sample_test(x, y, params, seed + i, stop_above=alpha)
            assert (small.p_value, small.permutations_run) == (stopped[-1].p_value,
                                                               stopped[-1].permutations_run)
            f, s = full[-1], stopped[-1]
            assert f.permutations_run == permutations
            if f.p_value <= alpha:
                assert (s.p_value, s.permutations_run) == (f.p_value, permutations)
                continue
            h = round(s.p_value * (permutations + 1)) - 1
            assert h / (permutations + 1) <= alpha < s.p_value <= f.p_value
            pooled = np.concatenate([x, y])
            pairs = np.abs(pooled[:, None] - pooled[None, :])
            if statistic == "mmd2":
                stat = lambda a, b: mmd2_unbiased(a, b, f.bandwidth_sigma)
                pairs = np.exp(-pairs**2 / (2.0 * f.bandwidth_sigma**2))
            else:
                stat = energy_distance
            run = s.permutations_run
            for b, count in ((run, h), (run - 1, h - 1)):
                if b > 0:
                    p = permutation_test(x, y, stat, b, seed=seed + i,
                                         tie_scale=pairs.sum() / y.size**2)
                    assert round(p * (b + 1)) - 1 == count
        assert (bh_fdr([f.p_value for f in full], alpha).tolist()
                == bh_fdr([s.p_value for s in stopped], alpha).tolist())

    def test_family_permutations(self):
        # The fewest B >= 19 whose smallest p-value 1 / (B + 1) bh_fdr keeps
        # as a lone candidate among K, also where alpha / K rounds below
        # 1 / ceil(K / alpha) (alpha = 0.03, K = 9).
        assert stats.family_permutations(199, 0.05, 10) == 199
        assert stats.family_permutations(199, 0.05, 11) == 219
        assert stats.family_permutations(19, 0.05, 0) == 19
        for alpha in (0.01, 0.03, 0.05, 0.1, 0.3):
            for k in range(1, 300):
                b = stats.family_permutations(19, alpha, k)
                assert bh_fdr([1.0 / (b + 1)] + [1.0] * (k - 1), alpha)[0]
                assert b == 19 or not bh_fdr([1.0 / b] + [1.0] * (k - 1), alpha)[0]


class TestBhFdr:
    def test_worked_example(self):
        kept = bh_fdr([0.01, 0.02, 0.2], alpha=0.05)
        assert kept.tolist() == [True, True, False]

    def test_all_ones_keep_none(self):
        assert not bh_fdr([1.0, 1.0, 1.0], alpha=0.05).any()

    def test_single_p_at_alpha(self):
        assert bh_fdr([0.04], alpha=0.05).tolist() == [True]
        assert bh_fdr([0.06], alpha=0.05).tolist() == [False]

    def test_empty_input(self):
        assert bh_fdr([], alpha=0.05).size == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bh_fdr([0.0, 0.5], alpha=0.05)
        with pytest.raises(ValueError):
            bh_fdr([0.5, 1.2], alpha=0.05)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(64)
        for _ in range(200):
            k = int(rng.integers(1, 51))
            p = rng.uniform(1e-6, 1.0, size=k)
            alpha = float(rng.uniform(0.01, 0.2))
            assert bh_fdr(p, alpha).tolist() == bh_keep_bruteforce(p.tolist(), alpha)

    def test_ties_keep_prefix_by_original_index(self):
        p = [0.04, 0.04, 0.9]
        kept = bh_fdr(p, alpha=0.05)
        # both tied values qualify at rank 2 (0.04 <= 0.05*2/3? no: 0.0333) ->
        # only rank 1 threshold 0.0167 < 0.04, so nothing kept
        assert kept.tolist() == bh_keep_bruteforce(p, 0.05)


class TestKsTwoSample:
    def test_identical_multisets(self):
        assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0
        assert ks_two_sample([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint_supports(self):
        assert ks_statistic([0, 0, 0], [1, 1, 1]) == 1.0

    def test_statistic_matches_ecdf_oracle(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            x = rng.normal(size=rng.integers(3, 20))
            y = rng.normal(size=rng.integers(3, 20))
            assert ks_statistic(x, y) == pytest.approx(ecdf_distance(x, y), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    def test_tiny_distance_is_no_evidence(self):
        # sqrt(n_eff) * D is about 5e-4 here, where P(K > lambda) is 1 to
        # double precision: one stray background pixel is no evidence.
        control = np.full(200, 0.05)
        background = np.append(np.full(30000, 0.05), 0.9)
        assert ks_two_sample(control, background) > 0.99

    def test_p_clamped_to_unit_interval(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            p = ks_two_sample(x, y)
            assert 0.0 < p <= 1.0

    def test_null_p_values_not_anticonservative(self):
        # The two-sample KS statistic is lattice-valued at m = n = 100, so
        # its p-values cannot be exactly uniform (an exact-distribution
        # oracle fails a literal uniformity KS too). The operative
        # property is one-sided: P(p <= t) must not exceed t by more
        # than sampling noise.
        rng = np.random.default_rng(67)
        ps = np.sort([ks_two_sample(rng.normal(size=100), rng.normal(size=100))
                      for _ in range(500)])
        n = len(ps)
        d_plus = float((np.arange(1, n + 1) / n - ps).max())
        critical = math.sqrt(-math.log(0.01) / 2.0) / math.sqrt(n)
        assert d_plus < critical
        assert np.mean(ps <= 0.05) <= 0.05 + 2 * math.sqrt(0.05 * 0.95 / n)
        assert 0.4 < ps.mean() < 0.65


class TestSubsample:
    def test_under_cap_unchanged(self):
        rng = np.random.default_rng(68)
        data = rng.normal(size=100)
        out = subsample(data, 4000, seed=0)
        assert np.array_equal(out.ravel(), data)

    def test_over_cap_draws_subset(self):
        rng = np.random.default_rng(69)
        data = rng.normal(size=10000)
        out = subsample(data, 4000, seed=0)
        assert out.shape[0] == 4000
        assert np.isin(out.ravel(), data).all()
        assert len(np.unique(out.ravel())) == 4000  # without replacement

    def test_same_seed_same_output(self):
        rng = np.random.default_rng(70)
        data = rng.normal(size=500)
        assert np.array_equal(subsample(data, 100, seed=3), subsample(data, 100, seed=3))

    def test_cap_below_two_rejected(self):
        with pytest.raises(ValueError):
            subsample([1.0, 2.0], 1, seed=0)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        a = derive_seed(7, "img1", 0)
        assert a == derive_seed(7, "img1", 0)
        assert a != derive_seed(7, "img1", 1)
        assert a != derive_seed(8, "img1", 0)
