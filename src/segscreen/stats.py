"""Two-sample screening statistics: MMD, energy distance, permutation
p-values, Benjamini-Hochberg FDR control and Kolmogorov-Smirnov testing.

Samples are 1-D numpy arrays of scalar features; the pipeline's feature
is min-max normalized intensity, one value per pixel. Every statistic
is built from the pairwise distances |x_i - x_j|. The MMD^2 kernel
bandwidth is estimated once from the observed pooled sample via the
median heuristic and held fixed across permutations, which preserves
exchangeability under the null; the energy statistic has no bandwidth.
Smoothed counting (count + 1) / (B + 1) keeps every p-value strictly
positive.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

MEDIAN_HEURISTIC_MAX_POINTS = 2000
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


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a[:, None] - b[None, :]
    return np.abs(d, out=d)


def median_heuristic(pooled, max_points: int = MEDIAN_HEURISTIC_MAX_POINTS, seed=0) -> float:
    """Median of pairwise distances |x_i - x_j|, i < j, over the pooled sample.

    Large pools are uniformly subsampled to bound the quadratic distance
    computation. Constant data (zero median) falls back to sigma = 1 so
    the kernel degenerates to a constant and the test never rejects.
    """
    arr = as_sample(pooled)
    if arr.size < 2:
        raise ValueError("median heuristic needs at least 2 points")
    if arr.size > max_points:
        arr = subsample(arr, max_points, seed)
    med = float(np.median(_distances(arr, arr)[np.triu_indices(arr.size, k=1)]))
    return med if med > 0.0 else 1.0


# -- Pooled-matrix statistics ------------------------------------------------
#
# Both MMD^2 and the energy statistic are functions of one pooled pairwise
# matrix (kernel values, respectively distances), so a split of the pool
# into the two sets only re-partitions its rows/columns. Block sums via
# precomputed row sums make each split O(m^2 + n) instead of O((m + n)^2).


def _pooled_matrix(kind: str, pooled: np.ndarray, sigma: float | None) -> np.ndarray:
    matrix = _distances(pooled, pooled)
    if kind == "mmd2":
        # Gaussian kernel exp(-d^2 / (2 sigma^2)), built in place.
        np.multiply(matrix, matrix, out=matrix)
        np.divide(matrix, -2.0 * sigma * sigma, out=matrix)
        np.exp(matrix, out=matrix)
    return matrix


def _stat_from_blocks(kind: str, matrix: np.ndarray, row_sums: np.ndarray, total: float,
                      a_idx: np.ndarray) -> float:
    # The statistic of the split that puts the pool's rows a_idx in the
    # first set, from the block sums s_aa, s_ab, s_bb of the matrix.
    m, n = a_idx.size, matrix.shape[0] - a_idx.size
    s_aa = float(matrix[np.ix_(a_idx, a_idx)].sum())
    s_ab = float(row_sums[a_idx].sum()) - s_aa
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
    matrix = _pooled_matrix(kind, np.concatenate([xa, ya]), sigma)
    row_sums = matrix.sum(axis=1)
    return _stat_from_blocks(kind, matrix, row_sums, float(row_sums.sum()), np.arange(xa.size))


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
    matrix: np.ndarray,
    m: int,
    permutations: int,
    rng: np.random.Generator,
    canonical: np.ndarray,
) -> tuple[float, float]:
    row_sums = matrix.sum(axis=1)
    total = float(row_sums.sum())
    observed = _stat_from_blocks(kind, matrix, row_sums, total, np.arange(m))
    count = 0
    for _ in range(permutations):
        perm = canonical[rng.permutation(canonical.size)]
        if _stat_from_blocks(kind, matrix, row_sums, total, perm[:m]) >= observed:
            count += 1
    return observed, (count + 1) / (permutations + 1)


@dataclass(frozen=True)
class TestConfig:
    """Knobs for one candidate-vs-control test."""

    __test__ = False  # not a pytest class, despite the name

    permutations: int = 199
    sample_cap: int = 4000
    statistic: str = "mmd2"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.permutations < 19:
            raise ValueError(f"need >= 19 permutations for usable resolution, got {self.permutations}")
        if self.sample_cap < 2:
            raise ValueError(f"sample cap must be >= 2, got {self.sample_cap}")
        if self.statistic not in STATISTIC_KINDS:
            raise ValueError(f"statistic must be one of {STATISTIC_KINDS}, got {self.statistic!r}")


@dataclass
class TestOutcome:
    """Observed statistic, permutation p-value and the BH decision;
    ``bandwidth_sigma`` is the MMD^2 kernel bandwidth, None for energy."""

    __test__ = False  # not a pytest class, despite the name

    statistic_observed: float
    p_value: float
    bandwidth_sigma: float | None
    bh_kept: bool = False


def two_sample_test(x, y, config: TestConfig = TestConfig()) -> TestOutcome:
    """Run the configured two-sample screen on one candidate/control pair.

    Both sets are capped by uniform subsampling, the MMD^2 bandwidth
    comes from the median heuristic on the observed pooled sample, and
    the permutation p-value uses smoothed counting. Deterministic given
    (inputs, config.seed); bh_kept is left False for a later
    multiple-testing pass to fill in.
    """
    rng = np.random.default_rng(config.seed)
    xa = subsample(x, config.sample_cap, rng)
    ya = subsample(y, config.sample_cap, rng)
    _check_sizes(config.statistic, xa.size, ya.size)
    pooled = np.concatenate([xa, ya])
    sigma = median_heuristic(pooled, seed=rng) if config.statistic == "mmd2" else None
    matrix = _pooled_matrix(config.statistic, pooled, sigma)
    # Sorting the pool makes the shuffle stream a function of the pooled
    # multiset rather than the input ordering, so swapping the two samples
    # (at equal sizes) yields the identical p-value.
    observed, p_value = _fast_permutation_pvalue(
        config.statistic, matrix, xa.size, config.permutations, rng, np.argsort(pooled, kind="stable")
    )
    return TestOutcome(statistic_observed=float(observed), p_value=float(p_value), bandwidth_sigma=sigma)


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
