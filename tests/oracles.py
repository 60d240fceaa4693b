"""Independent reference implementations used as test oracles.

These deliberately mirror none of the library's code paths: flood fill
instead of labeling, explicit rule evaluation instead of vectorized
sorting, direct definition sums and pair-by-pair distance lists instead
of selection and prefix sums, one statistic evaluation per permutation,
the full pooled matrix instead of kernels computed on the fly, and
zero-padded full-frame canvases instead of max-pasting crops.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from segscreen.segmentor import SegmentorRequest

VIEWS = ("identity", "flip_lr", "flip_tb")
# A permuted statistic ties the observed one when it falls short of it by
# at most TIE_TOLERANCE * max(|observed|, scale): scipy's relative rule
# (stats/_resampling.py) with a floor for statistics that cancel to near 0.
TIE_TOLERANCE = 100 * np.finfo(np.float64).eps


def flood_fill_components(bits: np.ndarray) -> list[set[tuple[int, int]]]:
    """BFS flood fill over 8-neighborhoods; returns pixel sets of (x, y)."""
    h, w = bits.shape
    seen = np.zeros_like(bits, dtype=bool)
    comps = []
    for y in range(h):
        for x in range(w):
            if not bits[y, x] or seen[y, x]:
                continue
            queue = [(x, y)]
            seen[y, x] = True
            comp = set()
            while queue:
                cx, cy = queue.pop()
                comp.add((cx, cy))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        nx, ny = cx + dx, cy + dy
                        if 0 <= nx < w and 0 <= ny < h and bits[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            queue.append((nx, ny))
            comps.append(comp)
    return comps


def bh_keep_bruteforce(p_values, alpha: float) -> list[bool]:
    """Evaluate p_(i) <= alpha*i/K for every rank explicitly, keep the
    i* smallest p-values (ties by original index)."""
    k = len(p_values)
    order = sorted(range(k), key=lambda i: (p_values[i], i))
    i_star = 0
    for rank, idx in enumerate(order, start=1):
        if p_values[idx] <= alpha * rank / k:
            i_star = rank
    kept = [False] * k
    for idx in order[:i_star]:
        kept[idx] = True
    return kept


def median_distance_by_definition(points) -> float:
    """Median of |x_i - x_j| over the pairs i < j, listed one by one;
    1.0 when that median is 0."""
    x = [float(v) for v in points]
    med = statistics.median(abs(x[i] - x[j]) for i in range(len(x)) for j in range(i + 1, len(x)))
    return med if med > 0.0 else 1.0


def gaussian_kernel(u: float, v: float, sigma: float) -> float:
    return math.exp(-((u - v) ** 2) / (2.0 * sigma * sigma))


def within_kernel_sum_by_definition(x, sigma: float) -> float:
    """Gaussian kernel summed over the ordered pairs i != j of one set,
    exactly rounded."""
    x = [float(v) for v in x]
    return math.fsum(gaussian_kernel(x[i], x[j], sigma)
                     for i in range(len(x)) for j in range(len(x)) if i != j)


def mmd2_by_definition(x, y, sigma: float) -> float:
    """Literal double loops over the U-statistic definition, each sum
    exactly rounded, so equal multisets give equal bits."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    m, n = len(x), len(y)
    t1 = within_kernel_sum_by_definition(x, sigma) / (m * (m - 1))
    t2 = within_kernel_sum_by_definition(y, sigma) / (n * (n - 1))
    t3 = 2.0 * math.fsum(gaussian_kernel(u, v, sigma) for u in x for v in y) / (m * n)
    return t1 + t2 - t3


def energy_by_definition(x, y) -> float:
    """2 E|X-Y| - E|X-X'| - E|Y-Y'| from exactly rounded pair sums."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    m, n = len(x), len(y)
    dxy = math.fsum(abs(x[i] - y[j]) for i in range(m) for j in range(n)) / (m * n)
    dxx = (math.fsum(abs(x[i] - x[j]) for i in range(m) for j in range(m) if i != j)
           / (m * (m - 1))) if m > 1 else 0.0
    dyy = (math.fsum(abs(y[i] - y[j]) for i in range(n) for j in range(n) if i != j)
           / (n * (n - 1))) if n > 1 else 0.0
    return 2.0 * dxy - (dxx + dyy)


def ecdf_distance(x, y) -> float:
    """Sup-norm ECDF distance evaluated on the pooled value set."""
    xs = sorted(float(v) for v in x)
    ys = sorted(float(v) for v in y)
    best = 0.0
    for t in xs + ys:
        fx = sum(1 for v in xs if v <= t) / len(xs)
        fy = sum(1 for v in ys if v <= t) / len(ys)
        best = max(best, abs(fx - fy))
    return best


def permutation_test(x, y, statistic_fn, permutations: int = 199, seed=0,
                     tie_scale: float = 0.0) -> float:
    """Permutation p-value for any two-sample statistic of 1-D samples.

    Pools the samples, splits them into the original sizes B times, each
    time drawing the first set's positions with one
    ``rng.choice(N, m, replace=False)``, and counts permuted statistics
    that reach the observed one up to the tie tolerance, taken against
    ``tie_scale`` where that exceeds |observed|; returns the smoothed
    estimate (count + 1) / (B + 1). The statistic callable must close over
    any bandwidth so it is not re-estimated per permutation. The pooled
    values are sorted first, as the library orders them, so that both draw
    the same partitions from the same seed.
    """
    if permutations < 1:
        raise ValueError(f"need at least 1 permutation, got {permutations}")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    m = xa.size
    observed = float(statistic_fn(xa, ya))
    floor = observed - TIE_TOLERANCE * max(abs(observed), tie_scale)
    pooled = np.sort(np.concatenate([xa, ya]))
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(permutations):
        first = np.zeros(pooled.size, dtype=bool)
        first[rng.choice(pooled.size, m, replace=False)] = True
        if float(statistic_fn(pooled[first], pooled[~first])) >= floor:
            count += 1
    return (count + 1) / (permutations + 1)


def _draw(arr: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    return arr if arr.size <= cap else arr[rng.choice(arr.size, size=cap, replace=False)]


def dense_two_sample_test(x, y, permutations: int = 199, sample_cap: int = 4000,
                          statistic: str = "mmd2", seed=0) -> tuple[float, float | None, float]:
    """The permutation screen over the full (m + n)^2 pooled matrix.

    Same draws from ``seed`` as the library: the two subsamples, then per
    permutation one ``rng.choice`` of the first set's positions in the
    sorted pool. Sigma is np.median over every pair. Returns (statistic,
    sigma, p-value); sigma is None for energy.
    """
    rng = np.random.default_rng(seed)
    xa = _draw(np.asarray(x, dtype=float), sample_cap, rng)
    ya = _draw(np.asarray(y, dtype=float), sample_cap, rng)
    pooled = np.concatenate([xa, ya])
    matrix = np.abs(pooled[:, None] - pooled[None, :])
    sigma = None
    if statistic == "mmd2":
        sigma = float(np.median(matrix[np.triu_indices(pooled.size, k=1)]))
        sigma = sigma if sigma > 0.0 else 1.0
        np.multiply(matrix, matrix, out=matrix)
        np.divide(matrix, -2.0 * sigma * sigma, out=matrix)
        np.exp(matrix, out=matrix)
    observed, p_value = dense_permutation_pvalue(statistic, matrix, xa.size, permutations, rng,
                                                 np.argsort(pooled, kind="stable"))
    return observed, sigma, p_value


def _dense_statistic(kind: str, matrix: np.ndarray, row_sums: np.ndarray, total: float,
                     a_idx: np.ndarray) -> float:
    m, n = a_idx.size, matrix.shape[0] - a_idx.size
    s_aa = float(matrix[np.ix_(a_idx, a_idx)].sum())
    s_ab = float(row_sums[a_idx].sum()) - s_aa
    s_bb = total - s_aa - 2.0 * s_ab
    if kind == "mmd2":
        return (s_aa - m) / (m * (m - 1)) + (s_bb - n) / (n * (n - 1)) - 2.0 * s_ab / (m * n)
    dxx = s_aa / (m * (m - 1)) if m > 1 else 0.0
    dyy = s_bb / (n * (n - 1)) if n > 1 else 0.0
    return 2.0 * s_ab / (m * n) - dxx - dyy


def dense_permutation_pvalue(kind: str, matrix: np.ndarray, m: int, permutations: int,
                             rng: np.random.Generator, canonical: np.ndarray) -> tuple[float, float]:
    """Observed statistic and p-value from block sums of the pooled matrix;
    each permutation's first set holds the points at ``rng.choice``
    positions of the pool in ``canonical`` order."""
    row_sums = matrix.sum(axis=1)
    total = float(row_sums.sum())
    observed = _dense_statistic(kind, matrix, row_sums, total, np.arange(m))
    floor = observed - TIE_TOLERANCE * max(abs(observed), total / (matrix.shape[0] - m) ** 2)
    count = 0
    for _ in range(permutations):
        first = canonical[rng.choice(canonical.size, m, replace=False)]
        if _dense_statistic(kind, matrix, row_sums, total, first) >= floor:
            count += 1
    return observed, (count + 1) / (permutations + 1)


def fuse_by_definition(segmentor, image_id, prompt, boxes, frame, rule) -> np.ndarray:
    """TTA fusion from its definition: each support and view on its own
    full-frame canvas, zero outside the support's box, the views fused
    per pixel by ``rule``, then the max over supports.

    A view-agnostic backend is asked for the identity view each time and
    its answer used as the view's prediction, since flipping and flipping
    back is the identity.
    """
    width, height = frame
    native = getattr(segmentor, "reinfers_views", False)
    unflip = {"identity": lambda a: a, "flip_lr": lambda a: a[:, ::-1],
              "flip_tb": lambda a: a[::-1, :]}
    supports = []
    for box in [None] + list(boxes):
        x0, y0, x1, y1 = (0, 0, width, height) if box is None else box.as_tuple()
        canvases = []
        for kind in VIEWS:
            request = SegmentorRequest(image_id=image_id, prompt=prompt, crop=box,
                                       transform=kind if native else "identity")
            raw = segmentor.segment(request).values
            canvas = np.zeros((height, width))
            canvas[y0:y1, x0:x1] = unflip[kind](raw) if native else raw
            canvases.append(canvas)
        stack = np.stack(canvases)
        if rule == "max":
            supports.append(stack.max(axis=0))
        elif rule == "mean":
            supports.append(stack.mean(axis=0))
        else:
            supports.append(np.sort(stack, axis=0)[len(VIEWS) // 2])
    return np.stack(supports).max(axis=0)
