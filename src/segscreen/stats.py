"""Two-sample screening statistics: MMD, energy distance, permutation
p-values, Benjamini-Hochberg FDR control and Kolmogorov-Smirnov testing.

Samples are 1-D numpy arrays of scalar features; the pipeline's feature
is min-max normalized intensity, one value per pixel. Every statistic
is built from the pairwise distances |x_i - x_j|, and none holds the
(m + n)^2 pooled matrix: memory is O((m + n) + block), time per
permutation O(m^2 / 2) for MMD^2 and O(m log m) for energy, with m the
first set's size.

- The MMD^2 kernel bandwidth is the exact median pairwise distance of
  the observed pool, selected from the sorted pool in O(N log N)
  (Croux & Rousseeuw 1992), and held fixed across permutations, which
  preserves exchangeability under the null.
- The Gaussian kernel is evaluated on the pool prescaled once by
  1 / (sigma sqrt 2), once per unordered pair and in bounded blocks:
  upper-triangle row blocks for the pooled row sums, and per
  permutation a circulant half-kernel of the first set.
- The energy statistic's distance sums come from sorted prefix sums
  (Huo & Szekely 2016); it has no bandwidth.

Each permutation draws its first set with one
``rng.choice(N, m, replace=False)`` call, in order. Permutations run in
chunks whose statistics are computed together as (chunk, m) arrays;
the observed statistic is a chunk of one. A chunk of c permutations
stays within KERNEL_BLOCK_ELEMENTS values, counted as
c * ((m - 1) // 2) * m kernel values for MMD^2 and c * N for energy; a
single larger MMD^2 permutation is split into blocks of band rows.

Given a stop level, a test ends at the h-th permuted statistic that
reaches the observed one, h the number of attainable p-values
k / (B + 1) at or below that level (Besag & Clifford 1991). Its p-value
is then certain to exceed the level, and it reports the lower bound
(h + 1) / (B + 1) and the index of that exceedance as the permutations
run; neither depends on the chunk size. BH never keeps a p-value above
alpha, and such a p-value does not change the rank of any p <= alpha,
so a screen stopped at alpha makes the decisions of the full run on
the same stream.

A permuted statistic that reaches the observed one up to a rounding
tolerance (TIE_TOLERANCE) counts as a tie. Smoothed counting
(count + 1) / (B + 1) keeps every p-value strictly positive.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

# Most float64 values in one on-the-fly block of the Gaussian kernel, and in
# one chunk of permutations' statistics (1 MiB).
# The pooled row sums compute each row block's diagonal square twice, about
# KERNEL_BLOCK_ELEMENTS / 2 values per test on top of the N^2 / 2 pairs: at
# N = 1440 that is 6 % more with this budget and 50 % more with 8 MiB.
KERNEL_BLOCK_ELEMENTS = 1 << 17
# A permuted statistic ties the observed one when it falls short of it by
# at most TIE_TOLERANCE * max(|observed|, total / n^2), with ``total`` the
# sum of the pooled matrix and n the second set's size. The first term is
# scipy's rule (stats/_resampling.py). The second keeps ties when the
# statistic cancels to near zero: both statistics are differences of block
# means, and s_bb = total - s_aa - 2 s_ab carries the rounding of the total,
# so equal statistics reached through different splits or summation orders
# differ by a few eps * total / n^2.
TIE_TOLERANCE = 100 * np.finfo(np.float64).eps
STATISTIC_KINDS = ("mmd2", "energy")
# Fewest points per set each statistic is defined for: the unbiased MMD^2
# excludes the diagonal, so it needs a pair within each set.
MIN_SAMPLE_SIZE = {"mmd2": 2, "energy": 1}


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 64-bit seed from a base seed plus context labels.

    Unlike Python's salted hash(), this is reproducible across
    processes, so parallel and serial runs draw identical streams.
    """
    text = ":".join([str(int(base_seed))] + [str(p) for p in parts])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def as_sample(points) -> np.ndarray:
    """Coerce a 1-D sample of finite scalar features to float64."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"sample must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return arr


def subsample(points, cap: int, seed) -> np.ndarray:
    """Uniform without-replacement draw of at most ``cap`` points."""
    if cap < 2:
        raise ValueError(f"subsample cap must be >= 2, got {cap}")
    arr = as_sample(points)
    if arr.size <= cap:
        return arr
    return arr[np.random.default_rng(seed).choice(arr.size, size=cap, replace=False)]


def _row_bounds(xs: np.ndarray, value: float, strict: bool) -> np.ndarray:
    # Row i of a sorted pool holds the differences xs[j] - xs[i], j > i.
    # For each row, the first column j at which the difference is no longer
    # < value (strict) or <= value, so the row holds j - i - 1 of them.
    # searchsorted on xs[i] + value finds it up to the rounding of that sum;
    # the loops settle it on the subtraction itself, stepping over whole
    # runs of tied values.
    rows = np.arange(xs.size)
    within = np.less if strict else np.less_equal
    cols = np.maximum(np.searchsorted(xs, xs + value, side="left" if strict else "right"), rows + 1)
    while True:
        i = np.flatnonzero(cols < xs.size)
        i = i[within(xs[cols[i]] - xs[i], value)]
        if not i.size:
            break
        cols[i] = np.searchsorted(xs, xs[cols[i]], side="right")
    while True:
        i = np.flatnonzero(cols > rows + 1)
        i = i[~within(xs[cols[i] - 1] - xs[i], value)]
        if not i.size:
            break
        cols[i] = np.maximum(np.searchsorted(xs, xs[cols[i] - 1], side="left"), i + 1)
    return cols


def _kth_difference(xs: np.ndarray, k: int) -> float:
    # The k-th smallest (from 0) difference xs[j] - xs[i], i < j, of a
    # sorted sample, by selection over the rows (Croux & Rousseeuw 1992).
    # Row i keeps candidate columns [lo_i, hi_i): every difference left of
    # them is below the answer, every one right of them above it. Each
    # round pivots on the weighted median of the candidates' row midpoints,
    # which drops at least a quarter of them; a few left are selected
    # directly.
    n = xs.size
    rows = np.arange(n)
    lo, hi = rows + 1, np.full(n, n)
    while True:
        width = hi - lo
        left = int((lo - rows - 1).sum())
        if width.sum() <= n:
            cols = np.arange(width.sum()) + np.repeat(lo - (np.cumsum(width) - width), width)
            candidates = xs[cols] - xs[np.repeat(rows, width)]
            return float(np.partition(candidates, k - left)[k - left])
        live = np.flatnonzero(width)
        mids = xs[lo[live] + (width[live] - 1) // 2] - xs[live]
        order = np.argsort(mids)
        weight = np.cumsum(width[live][order])
        pivot = mids[order[np.searchsorted(weight, weight[-1] / 2)]]
        below = _row_bounds(xs, pivot, strict=True)
        if k < int((below - rows - 1).sum()):
            hi = below
            continue
        upto = _row_bounds(xs, pivot, strict=False)
        if k < int((upto - rows - 1).sum()):
            return float(pivot)
        lo = upto


def median_heuristic(pooled) -> float:
    """Median of pairwise distances |x_i - x_j|, i < j, over the pooled sample.

    Selected exactly from the sorted pool in O(N log N) time and O(N)
    memory, without listing the N(N - 1)/2 distances; an even count
    averages the two middle ones, as np.median does. Constant data (zero
    median) falls back to sigma = 1 so the kernel degenerates to a
    constant and the test never rejects.
    """
    arr = as_sample(pooled)
    if arr.size < 2:
        raise ValueError("median heuristic needs at least 2 points")
    xs = np.sort(arr)
    pairs = xs.size * (xs.size - 1) // 2
    med = _kth_difference(xs, (pairs - 1) // 2)
    if pairs % 2 == 0:
        # The next order statistic is med itself when more than pairs // 2
        # differences are <= med, else the smallest difference above med:
        # the first column past med in some row.
        upto = _row_bounds(xs, med, strict=False)
        nxt = med
        if int((upto - np.arange(xs.size) - 1).sum()) <= pairs // 2:
            rows = np.flatnonzero(upto < xs.size)
            nxt = float((xs[upto[rows]] - xs[rows]).min())
        med = (med + nxt) / 2
    return med if med > 0.0 else 1.0


# -- Pooled-matrix statistics without the matrix -----------------------------
#
# Both MMD^2 and the energy statistic are functions of one pooled pairwise
# matrix (kernel values, respectively distances). A split of the pool into
# the two sets only re-partitions its rows and columns, so the split's block
# sums follow from three numbers: the within-set sum s_aa of the first set,
# the sum of its rows, and the matrix total. None of them needs the
# (m + n)^2 matrix. The row sums come once per test over the sorted pool:
# Gaussian kernel values of each unordered pair computed once, in
# upper-triangle row blocks of at most KERNEL_BLOCK_ELEMENTS values, and
# distance rows in closed form (Huo & Szekely 2016). s_aa comes per split
# from the first set alone: for MMD^2 its circulant half-kernel, for energy
# the prefix-sum identity over its sorted values.


def _prescale(xs: np.ndarray, sigma: float) -> np.ndarray:
    # On z = x / (sigma sqrt 2) the Gaussian kernel exp(-|x_i - x_j|^2 /
    # (2 sigma^2)) is exp(-(z_i - z_j)^2): no divide per kernel value.
    return xs * (np.sqrt(0.5) / sigma)


def _exp_neg_square(k: np.ndarray) -> np.ndarray:
    # exp(-k^2) in place. Squaring needs no abs() first: d * d and |d| * |d|
    # are the same double.
    np.multiply(k, k, out=k)
    np.negative(k, out=k)
    return np.exp(k, out=k)


def _kernel_row_sums(z: np.ndarray) -> np.ndarray:
    # Row sums of the kernel of a sorted, prescaled pool. Rows [s, e) meet
    # columns [s, N) in one block: its row sums go to its own rows and the
    # column sums of its part right of the diagonal square to the later rows,
    # so only the square is computed twice.
    n = z.size
    step = max(1, KERNEL_BLOCK_ELEMENTS // n)
    sums = np.zeros(n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        block = _exp_neg_square(z[None, start:] - z[start:stop, None])
        sums[start:stop] += block.sum(axis=1)
        sums[stop:] += block[:, stop - start:].sum(axis=0)
    # Tied points have equal rows; give them the same bits, so that a split's
    # row sum depends on which values it holds, not on which tied copies.
    return sums[np.searchsorted(z, z, side="left")]


def _within_sum(z: np.ndarray) -> np.ndarray:
    # Per row of a (c, m) array of sorted, prescaled sets, the kernel summed
    # over all ordered pairs, diagonal included: m + 2 sum_{i<j}. The pairs
    # (i, i + k mod m) for k = 1..h, h = (m - 1) // 2, hold each unordered
    # pair once, plus the half-row k = m / 2 when m is even. Band row k - 1
    # of a set is z[k .. k + m) of the set doubled: a strided view, no index
    # matrix. Bands of more than KERNEL_BLOCK_ELEMENTS values are split into
    # blocks of band rows.
    c, m = z.shape
    h = (m - 1) // 2
    doubled = np.concatenate([z, z[:, :h]], axis=1)
    size = doubled.itemsize
    step = max(1, KERNEL_BLOCK_ELEMENTS // (c * m))
    half = np.zeros(c)
    for start in range(0, h, step):
        band = np.ndarray((c, min(step, h - start), m), dtype=doubled.dtype, buffer=doubled,
                          offset=(start + 1) * size, strides=(doubled.strides[0], size, size))
        half += _exp_neg_square(band - z[:, None, :]).sum(axis=(1, 2))
    if m % 2 == 0:
        half += _exp_neg_square(z[:, m // 2:] - z[:, :m // 2]).sum(axis=1)
    return m + 2.0 * half


def _pooled_matrix(kind: str, pooled: np.ndarray,
                   sigma: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The pool's stable sort order, the sorted pool (prescaled for MMD^2) and
    # the row sums of its pooled pairwise matrix, in sorted order.
    order = np.argsort(pooled, kind="stable")
    xs = pooled[order]
    if kind == "mmd2":
        xs = _prescale(xs, sigma)
        return order, xs, _kernel_row_sums(xs)
    # sum_j |v - x_j| = v (2f - N) + S - 2 S_f, where f points lie below v
    # and S_f is their sum. Tied points share f, so their row sums are equal.
    below = np.searchsorted(xs, xs, side="left")
    prefix = np.concatenate([[0.0], np.cumsum(xs)])
    return order, xs, xs * (2 * below - xs.size) + (prefix[-1] - 2.0 * prefix[below])


def _stat_from_blocks(kind: str, xs: np.ndarray, sums: np.ndarray, total: float,
                      ranks: np.ndarray) -> np.ndarray:
    # The statistics of the splits whose first sets are the rows of the
    # (c, m) array ``ranks``: sorted ranks into the sorted pool xs
    # (prescaled for MMD^2), the rest of the pool forming the second set;
    # ``sums`` are the row sums of xs and ``total`` their sum. Sorted ranks
    # make every sum a function of the first set's multiset.
    m = ranks.shape[1]
    n = xs.size - m
    values = xs[ranks]
    if kind == "mmd2":
        s_aa = _within_sum(values)
    else:
        # A set's k-th smallest value exceeds k others and falls short of
        # m - 1 - k, once per ordered pair.
        s_aa = 2.0 * (values * (2 * np.arange(m) - (m - 1))).sum(axis=1)
    s_ab = sums[ranks].sum(axis=1) - s_aa
    s_bb = total - s_aa - 2.0 * s_ab
    if kind == "mmd2":
        # Gaussian kernel diagonal is exactly m (resp. n) ones.
        t1 = (s_aa - m) / (m * (m - 1))
        t2 = (s_bb - n) / (n * (n - 1))
        return t1 + t2 - 2.0 * s_ab / (m * n)
    # Energy: the distance diagonal is zero, so block sums are already
    # sums over ordered pairs i != i'.
    dxx = s_aa / (m * (m - 1)) if m > 1 else 0.0
    dyy = s_bb / (n * (n - 1)) if n > 1 else 0.0
    return 2.0 * s_ab / (m * n) - dxx - dyy


def _check_sizes(kind: str, m: int, n: int) -> None:
    need = MIN_SAMPLE_SIZE[kind]
    if m < need or n < need:
        raise ValueError(f"{kind} needs >= {need} points per set, got {m} and {n}")


def _statistic(kind: str, x, y, sigma: float | None = None) -> float:
    xa, ya = as_sample(x), as_sample(y)
    _check_sizes(kind, xa.size, ya.size)
    # The observed statistic of a test without permutations.
    order, xs, row_sums = _pooled_matrix(kind, np.concatenate([xa, ya]), sigma)
    return _fast_permutation_pvalue(kind, xs, row_sums, order, xa.size, 0, None, None)[0]


def mmd2_unbiased(x, y, sigma: float) -> float:
    """Unbiased squared maximum mean discrepancy with a Gaussian kernel.

    The three-term U-statistic excludes diagonal terms in the within-set
    sums, so the estimate can be negative.
    """
    if sigma <= 0:
        raise ValueError(f"bandwidth must be positive, got {sigma}")
    return _statistic("mmd2", x, y, sigma)


def energy_distance(x, y) -> float:
    """Two-sample energy statistic: 2 E|X-Y| - E|X-X'| - E|Y-Y'|.

    Within-set means run over ordered pairs i != i' and are 0 for a
    singleton set.
    """
    return _statistic("energy", x, y)


def _fast_permutation_pvalue(
    kind: str,
    xs: np.ndarray,
    row_sums: np.ndarray,
    order: np.ndarray,
    m: int,
    permutations: int,
    rng: np.random.Generator | None,
    stop_above: float | None,
) -> tuple[float, float, int]:
    # xs, row_sums and order as _pooled_matrix returns them; the first m
    # points of the pool are the first set. Returns the observed statistic,
    # the p-value and the permutations run.
    total = float(row_sums.sum())
    observed = float(_stat_from_blocks(kind, xs, row_sums, total,
                                       np.flatnonzero(order < m)[None, :])[0])
    floor = observed - TIE_TOLERANCE * max(abs(observed), total / (xs.size - m) ** 2)
    # Stop at the h-th exceedance, h the number of attainable p-values
    # k / (B + 1) at or below stop_above. It is counted rather than taken as
    # floor(stop_above * (B + 1)): that product can round below an integer
    # (0.29 * 100 = 28.999...), and the reported (h + 1) / (B + 1) would then
    # equal stop_above instead of exceeding it.
    h = permutations + 1
    if stop_above is not None:
        h = int(np.count_nonzero(np.arange(1, permutations + 2) / (permutations + 1) <= stop_above))
    per_permutation = (m - 1) // 2 * m if kind == "mmd2" else xs.size
    chunk = max(1, KERNEL_BLOCK_ELEMENTS // max(1, per_permutation))
    count = run = 0
    while run < permutations and count < h:
        # A chunk holds no more permutations than the h - count it takes at
        # least to reach h, so a stop falls on a chunk's last permutation
        # and none is drawn past it. Drawing from the sorted pool makes the
        # stream a function of the pooled multiset rather than the input
        # ordering, so swapping the two samples (at equal sizes) yields the
        # identical p-value.
        ranks = np.empty((min(chunk, permutations - run, h - count), m), dtype=np.int64)
        for row in ranks:
            row[:] = rng.choice(xs.size, m, replace=False)
        ranks.sort(axis=1)
        count += int(np.count_nonzero(_stat_from_blocks(kind, xs, row_sums, total, ranks) >= floor))
        run += len(ranks)
    return observed, (count + 1) / (permutations + 1), run


@dataclass(frozen=True)
class StatisticalParams:
    """The screen's statistical settings: the ``statistical`` config section
    and the settings of each candidate test. Building one checks them."""

    alpha: float = 0.05
    permutations: int = 199
    sample_cap: int = 4000
    tau_ks: float = 0.05
    statistic: str = "mmd2"

    def __post_init__(self) -> None:
        if self.permutations < 19:
            raise ValueError(f"need >= 19 permutations for usable resolution, got {self.permutations}")
        if self.sample_cap < 2:
            raise ValueError(f"sample cap must be >= 2, got {self.sample_cap}")
        if self.statistic not in STATISTIC_KINDS:
            raise ValueError(f"statistic must be one of {STATISTIC_KINDS}, got {self.statistic!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (0.0 < self.tau_ks <= 1.0):
            raise ValueError(f"tau_ks must lie in (0, 1], got {self.tau_ks}")


@dataclass(frozen=True)
class TestOutcome:
    """Observed statistic and permutation p-value of one test;
    ``bandwidth_sigma`` is the MMD^2 kernel bandwidth, None for energy;
    ``permutations_run`` is B unless the test stopped early."""

    __test__ = False  # not a pytest class, despite the name

    statistic_observed: float
    p_value: float
    bandwidth_sigma: float | None
    permutations_run: int


def two_sample_test(x, y, params: StatisticalParams = StatisticalParams(), seed: int = 0,
                    stop_above: float | None = None) -> TestOutcome:
    """Run the configured two-sample screen on one candidate/control pair.

    Both sets are capped by uniform subsampling, the MMD^2 bandwidth
    comes from the median heuristic on the observed pooled sample, and
    the permutation p-value uses smoothed counting. With ``stop_above``
    set, the test stops once its p-value is certain to exceed that level,
    at the h-th exceedance with h the number of attainable p-values
    k / (B + 1) at or below it, and reports the lower bound
    (h + 1) / (B + 1); a p-value at or below the level equals that of the
    full run. Runs the statistic, B and sample cap of ``params``;
    deterministic given (inputs, params, seed).
    """
    rng = np.random.default_rng(seed)
    xa = subsample(x, params.sample_cap, rng)
    ya = subsample(y, params.sample_cap, rng)
    _check_sizes(params.statistic, xa.size, ya.size)
    pooled = np.concatenate([xa, ya])
    sigma = median_heuristic(pooled) if params.statistic == "mmd2" else None
    order, xs, row_sums = _pooled_matrix(params.statistic, pooled, sigma)
    observed, p_value, run = _fast_permutation_pvalue(params.statistic, xs, row_sums, order,
                                                      xa.size, params.permutations, rng,
                                                      stop_above)
    return TestOutcome(statistic_observed=observed, p_value=float(p_value),
                       bandwidth_sigma=sigma, permutations_run=run)


def family_permutations(permutations: int, alpha: float, family_size: int) -> int:
    """Permutations per test in a BH family of ``family_size`` tests.

    B_K = max(B, ceil(K / alpha) - 1), so that the smallest p-value
    1 / (B_K + 1) passes BH's rank-1 threshold alpha / K and a lone
    candidate can be kept (Phipson & Smyth 2010); it equals B for
    K <= alpha (B + 1). The loop settles the rounding of K / alpha
    against the threshold as bh_fdr computes it.
    """
    b = max(permutations, math.ceil(family_size / alpha) - 1)
    while family_size and 1.0 / (b + 1) > alpha / family_size:
        b += 1
    return b


def bh_fdr(p_values, alpha: float) -> np.ndarray:
    """Benjamini-Hochberg keep/reject decisions at FDR level alpha.

    Sorts ascending (ties broken by original index), finds the largest i
    with p_(i) <= alpha * i / K and keeps exactly the i smallest
    p-values; keeps none when no index qualifies.
    """
    p = np.asarray(p_values, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"p-values must be a 1D sequence, got shape {p.shape}")
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValueError("p-values must lie in (0, 1]")
    k = p.size
    order = np.argsort(p, kind="stable")
    thresholds = alpha * np.arange(1, k + 1) / k
    qualifying = np.nonzero(p[order] <= thresholds)[0]
    kept = np.zeros(k, dtype=bool)
    if qualifying.size:
        kept[order[: qualifying[-1] + 1]] = True
    return kept


def ks_statistic(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup_t |ECDF_x - ECDF_y|."""
    xa = np.sort(np.asarray(x, dtype=np.float64).ravel())
    ya = np.sort(np.asarray(y, dtype=np.float64).ravel())
    if xa.size == 0 or ya.size == 0:
        raise ValueError("KS test needs non-empty samples")
    grid = np.concatenate([xa, ya])
    cdf_x = np.searchsorted(xa, grid, side="right") / xa.size
    cdf_y = np.searchsorted(ya, grid, side="right") / ya.size
    return float(np.abs(cdf_x - cdf_y).max())


def ks_two_sample(x, y) -> float:
    """Asymptotic two-sample KS p-value with effective size mn/(m+n),
    clamped to (0, 1]."""
    m, n = np.size(x), np.size(y)
    d = ks_statistic(x, y)
    return float(max(kolmogorov(np.sqrt(m * n / (m + n)) * d), np.finfo(np.float64).tiny))
