"""Reference implementations the workload checks compare against.

They follow the textbook definitions and share no code with segscreen:
direct differences instead of the |a|^2 + |b|^2 - 2ab expansion, the
U-statistic over explicit kernel blocks, BH by evaluating every rank,
labeling by breadth-first search over true pixels.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def median_pairwise_distance(points) -> float:
    """Median of |x_i - x_j| over all pairs i < j of a 1-D sample; 1.0
    when that median is 0 (the documented fallback for constant data)."""
    x = np.asarray(points, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 points")
    d = np.concatenate([np.abs(x[i + 1:] - x[i]) for i in range(x.size - 1)])
    med = float(np.median(d))
    return med if med > 0.0 else 1.0


def mmd2_unbiased(x, y, sigma: float) -> tuple[float, float]:
    """Unbiased MMD^2 with k(u, v) = exp(-(u - v)^2 / (2 sigma^2)).

    MMD^2_u = sum_{i != j} k(x_i, x_j) / (m (m - 1))
            + sum_{i != j} k(y_i, y_j) / (n (n - 1))
            - 2 sum_{i, j} k(x_i, y_j) / (m n).
    Returns (value, scale), where scale is the sum of the three terms'
    magnitudes: the size against which rounding in the value is judged.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    m, n = x.size, y.size

    def k(a, b):
        return np.exp(-((a[:, None] - b[None, :]) ** 2) / (2.0 * sigma * sigma))

    kxx, kyy = k(x, x), k(y, y)
    t1 = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    t2 = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    t3 = 2.0 * k(x, y).sum() / (m * n)
    return float(t1 + t2 - t3), float(abs(t1) + abs(t2) + abs(t3))


def bh_keep(p_values, alpha: float) -> list[bool]:
    """Benjamini-Hochberg by the rule: with p sorted ascending (ties by
    index), keep the i* smallest, i* the largest rank with p_(i) <= alpha i / K."""
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


def label8(bits: np.ndarray) -> list[np.ndarray]:
    """8-connected components of a boolean image, each an (N, 2) array of
    (row, col) pixels, by breadth-first search from each unvisited pixel
    in raster order."""
    h, w = bits.shape
    seen = np.zeros_like(bits, dtype=bool)
    comps = []
    for r0, c0 in np.argwhere(bits):
        if seen[r0, c0]:
            continue
        seen[r0, c0] = True
        queue, comp = deque([(int(r0), int(c0))]), []
        while queue:
            r, c = queue.popleft()
            comp.append((r, c))
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and bits[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        queue.append((rr, cc))
        comps.append(np.array(comp, dtype=np.int64))
    return comps


def dice(pred: np.ndarray, gt: np.ndarray) -> float:
    """2 |P and G| / (|P| + |G|), and 1.0 when both masks are empty."""
    p, g = int(pred.sum()), int(gt.sum())
    if p + g == 0:
        return 1.0
    return 2.0 * int(np.logical_and(pred, gt).sum()) / (p + g)
