"""Two-sample screening statistics: MMD, energy distance, permutation
p-values, Benjamini-Hochberg FDR control and Kolmogorov-Smirnov testing.

Samples are numpy arrays, shape (n,) for scalar features or (n, d) for
vector features. The kernel bandwidth is estimated once from the
observed pooled sample via the median heuristic and held fixed across
permutations, which preserves exchangeability under the null. Smoothed
counting (count + 1) / (B + 1) keeps every p-value strictly positive.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

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
    """Coerce to a float64 (n, d) sample matrix; scalars become d=1."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"sample must be 1D or 2D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return arr


def subsample(points, cap: int, seed) -> np.ndarray:
    """Uniform without-replacement draw of at most ``cap`` points."""
    if cap < 2:
        raise ValueError(f"subsample cap must be >= 2, got {cap}")
    arr = as_sample(points)
    n = arr.shape[0]
    if n <= cap:
        return arr
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=cap, replace=False)
    return arr[idx]


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    an = np.sum(a * a, axis=1)[:, None]
    bn = np.sum(b * b, axis=1)[None, :]
    return np.maximum(an + bn - 2.0 * (a @ b.T), 0.0)


def median_heuristic(pooled, max_points: int = MEDIAN_HEURISTIC_MAX_POINTS, seed=0) -> float:
    """Median of pairwise Euclidean distances over the pooled sample.

    Large pools are uniformly subsampled to bound the quadratic distance
    computation. Constant data (zero median) falls back to sigma = 1 so
    the kernel degenerates to a constant and the test never rejects.
    """
    arr = as_sample(pooled)
    if arr.shape[0] < 2:
        raise ValueError("median heuristic needs at least 2 points")
    if arr.shape[0] > max_points:
        arr = subsample(arr, max_points, seed)
    d2 = _pairwise_sq_dists(arr, arr)
    iu = np.triu_indices(arr.shape[0], k=1)
    med = float(np.median(np.sqrt(d2[iu])))
    return med if med > 0.0 else 1.0


def gaussian_kernel(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """k(u, v) = exp(-||u - v||^2 / (2 sigma^2))."""
    if sigma <= 0:
        raise ValueError(f"bandwidth must be positive, got {sigma}")
    return np.exp(-_pairwise_sq_dists(a, b) / (2.0 * sigma * sigma))


def mmd2_unbiased(x, y, sigma: float) -> float:
    """Unbiased squared maximum mean discrepancy with a Gaussian kernel.

    The three-term U-statistic excludes diagonal terms in the within-set
    sums, so the estimate can be negative.
    """
    xa, ya = as_sample(x), as_sample(y)
    m, n = xa.shape[0], ya.shape[0]
    if m < 2 or n < 2:
        raise ValueError(f"unbiased MMD^2 needs >= 2 points per set, got {m} and {n}")
    kxx = gaussian_kernel(xa, xa, sigma)
    kyy = gaussian_kernel(ya, ya, sigma)
    kxy = gaussian_kernel(xa, ya, sigma)
    t1 = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    t2 = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    t3 = 2.0 * kxy.sum() / (m * n)
    return float(t1 + t2 - t3)


def energy_distance(x, y) -> float:
    """Two-sample energy statistic: 2 E||X-Y|| - E||X-X'|| - E||Y-Y'||.

    Within-set means run over ordered pairs i != i' and are 0 for a
    singleton set.
    """
    xa, ya = as_sample(x), as_sample(y)
    m, n = xa.shape[0], ya.shape[0]
    if m < 1 or n < 1:
        raise ValueError("energy distance needs non-empty samples")
    dxy = np.sqrt(_pairwise_sq_dists(xa, ya)).mean()
    dxx = np.sqrt(_pairwise_sq_dists(xa, xa)).sum() / (m * (m - 1)) if m > 1 else 0.0
    dyy = np.sqrt(_pairwise_sq_dists(ya, ya)).sum() / (n * (n - 1)) if n > 1 else 0.0
    return float(2.0 * dxy - dxx - dyy)


def _canonical_order(pooled: np.ndarray) -> np.ndarray:
    # Lexicographic row order makes the shuffle stream a function of the
    # pooled multiset rather than the input ordering, so swapping the two
    # samples (at equal sizes) yields the identical p-value.
    return np.lexsort(pooled.T[::-1])


# -- Fast permutation path -------------------------------------------------
#
# Both MMD^2 and the energy statistic are functions of one pooled pairwise
# matrix (kernel values, respectively distances), so permutations only
# re-partition its rows/columns. Block sums via precomputed row sums make
# each permutation O(m^2 + n) instead of O((m + n)^2).


def _block_sums(matrix: np.ndarray, row_sums: np.ndarray, total: float, a_idx: np.ndarray):
    s_aa = float(matrix[np.ix_(a_idx, a_idx)].sum())
    s_ab = float(row_sums[a_idx].sum()) - s_aa
    s_bb = total - s_aa - 2.0 * s_ab
    return s_aa, s_ab, s_bb


def _stat_from_blocks(kind: str, s_aa: float, s_ab: float, s_bb: float, m: int, n: int) -> float:
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


def _pooled_matrix(kind: str, pooled: np.ndarray, sigma: float) -> np.ndarray:
    if kind == "mmd2":
        return gaussian_kernel(pooled, pooled, sigma)
    return np.sqrt(_pairwise_sq_dists(pooled, pooled))


def _fast_permutation_pvalue(
    kind: str,
    matrix: np.ndarray,
    m: int,
    permutations: int,
    rng: np.random.Generator,
    canonical: np.ndarray | None = None,
) -> tuple[float, float]:
    n = matrix.shape[0] - m
    row_sums = matrix.sum(axis=1)
    total = float(row_sums.sum())
    observed = _stat_from_blocks(kind, *_block_sums(matrix, row_sums, total, np.arange(m)), m, n)
    if canonical is None:
        canonical = np.arange(m + n)
    count = 0
    for _ in range(permutations):
        perm = canonical[rng.permutation(m + n)]
        stat = _stat_from_blocks(kind, *_block_sums(matrix, row_sums, total, perm[:m]), m, n)
        if stat >= observed:
            count += 1
    return observed, (count + 1) / (permutations + 1)


@dataclass(frozen=True)
class TestConfig:
    """Knobs for one candidate-vs-control test."""

    __test__ = False  # not a pytest class, despite the name

    permutations: int = 199
    alpha: float = 0.05
    sample_cap: int = 4000
    statistic: str = "mmd2"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.permutations < 19:
            raise ValueError(f"need >= 19 permutations for usable resolution, got {self.permutations}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.sample_cap < 2:
            raise ValueError(f"sample cap must be >= 2, got {self.sample_cap}")
        if self.statistic not in STATISTIC_KINDS:
            raise ValueError(f"statistic must be one of {STATISTIC_KINDS}, got {self.statistic!r}")


@dataclass
class TestOutcome:
    """Observed statistic, permutation p-value and the BH decision."""

    __test__ = False  # not a pytest class, despite the name

    statistic_observed: float
    p_value: float
    bandwidth_sigma: float
    bh_kept: bool = False


def two_sample_test(x, y, config: TestConfig = TestConfig()) -> TestOutcome:
    """Run the configured two-sample screen on one candidate/control pair.

    Both sets are capped by uniform subsampling, the bandwidth comes
    from the median heuristic on the observed pooled sample, and the
    permutation p-value uses smoothed counting. Deterministic given
    (inputs, config.seed); bh_kept is left False for a later
    multiple-testing pass to fill in.
    """
    rng = np.random.default_rng(config.seed)
    xa = subsample(x, config.sample_cap, rng)
    ya = subsample(y, config.sample_cap, rng)
    m, n = xa.shape[0], ya.shape[0]
    need = MIN_SAMPLE_SIZE[config.statistic]
    if m < need or n < need:
        raise ValueError(f"{config.statistic} needs >= {need} points per set, got {m} and {n}")
    pooled = np.vstack([xa, ya])
    sigma = median_heuristic(pooled, seed=rng)
    matrix = _pooled_matrix(config.statistic, pooled, sigma)
    observed, p_value = _fast_permutation_pvalue(
        config.statistic, matrix, m, config.permutations, rng, canonical=_canonical_order(pooled)
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


def _kolmogorov_survival(lam: float, terms: int = 20) -> float:
    # Alternating series for P(K > lam); 20 terms are exact to ~1e-10
    # once lam exceeds 0.2, and tiny lam means p ~ 1 anyway.
    if lam < 1e-8:
        return 1.0
    k = np.arange(1, terms + 1, dtype=np.float64)
    total = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2))
    return float(total)


def ks_two_sample(x, y) -> float:
    """Asymptotic two-sample KS p-value with effective size mn/(m+n),
    clamped to (0, 1]."""
    xa = np.asarray(x, dtype=np.float64).ravel()
    ya = np.asarray(y, dtype=np.float64).ravel()
    d = ks_statistic(xa, ya)
    n_eff = xa.size * ya.size / (xa.size + ya.size)
    p = _kolmogorov_survival(np.sqrt(n_eff) * d)
    return float(min(max(p, np.finfo(np.float64).tiny), 1.0))
