"""The reference implementations against hand-worked cases and literal loops."""

import itertools
import math

import numpy as np

import refs


def test_median_pairwise_distance_by_hand():
    # Pairs of [0, 1, 3]: 1, 3, 2 -> median 2.
    assert refs.median_pairwise_distance([0.0, 1.0, 3.0]) == 2.0
    # Four points give six distances 1, 2, 3, 1, 2, 1 -> median (1 + 2) / 2.
    assert refs.median_pairwise_distance([0.0, 1.0, 2.0, 3.0]) == 1.5
    assert refs.median_pairwise_distance([0.4, 0.4, 0.4]) == 1.0  # constant data


def test_mmd2_matches_double_loop():
    rng = np.random.default_rng(3)
    x, y, sigma = rng.normal(0, 1, 7), rng.normal(0.5, 1, 9), 0.8

    def k(a, b):
        return math.exp(-(a - b) ** 2 / (2 * sigma * sigma))

    t1 = sum(k(a, b) for i, a in enumerate(x) for j, b in enumerate(x) if i != j) / (7 * 6)
    t2 = sum(k(a, b) for i, a in enumerate(y) for j, b in enumerate(y) if i != j) / (9 * 8)
    t3 = 2 * sum(k(a, b) for a in x for b in y) / (7 * 9)
    value, scale = refs.mmd2_unbiased(x, y, sigma)
    assert math.isclose(value, t1 + t2 - t3, rel_tol=1e-12)
    assert math.isclose(scale, t1 + t2 + t3, rel_tol=1e-12)


def test_bh_keep_by_hand():
    # K = 4, alpha = 0.1: thresholds 0.025, 0.05, 0.075, 0.1. The third
    # smallest (0.07) qualifies, so the three smallest are kept even
    # though the second (0.06) misses its own threshold.
    assert refs.bh_keep([0.07, 0.01, 0.5, 0.06], 0.1) == [True, True, False, True]
    assert refs.bh_keep([0.5, 0.6], 0.05) == [False, False]


def test_label8_joins_diagonals_only_within_reach():
    bits = np.zeros((5, 6), dtype=bool)
    bits[0, 0] = bits[1, 1] = True  # diagonal neighbours: one component
    bits[3, 3] = bits[3, 5] = True  # a gap of one column: two components
    comps = sorted(sorted(map(tuple, c)) for c in refs.label8(bits))
    assert comps == [[(0, 0), (1, 1)], [(3, 3)], [(3, 5)]]


def test_label8_partitions_random_images():
    rng = np.random.default_rng(5)
    bits = rng.random((20, 20)) < 0.3
    comps = refs.label8(bits)
    pixels = [tuple(p) for c in comps for p in c]
    assert len(pixels) == len(set(pixels)) == int(bits.sum())
    # No pixel of one component touches a pixel of another.
    owner = {p: i for i, c in enumerate(comps) for p in map(tuple, c)}
    for (r, c), i in owner.items():
        for dr, dc in itertools.product((-1, 0, 1), repeat=2):
            assert owner.get((r + dr, c + dc), i) == i


def test_dice_conventions():
    empty = np.zeros((3, 3), dtype=bool)
    one = empty.copy()
    one[1, 1] = True
    assert refs.dice(empty, empty) == 1.0
    assert refs.dice(one, empty) == 0.0
    assert refs.dice(one, one) == 1.0
