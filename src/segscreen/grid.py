"""Core 2D grid and mask types shared by every stage of the pipeline.

Conventions fixed here and relied on everywhere else:

- Arrays are row-major with shape (height, width); a pixel is addressed
  as (x, y) = (column, row).
- Grid values are stored as float64 internally regardless of on-disk
  precision, because permutation statistics are sensitive to
  accumulation error.
- Grids and masks are immutable after construction and therefore safe
  to share across concurrent workers.
- Wherever a thresholding rule is stated with ">=", the comparison is
  inclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ScalarGrid:
    """2D field of finite real values with physical pixel spacing.

    ``values`` has shape (height, width). ``spacing`` is (s_x, s_y) in
    mm per pixel, both strictly positive. Probability maps additionally
    keep every value in [0, 1]; intensity images may hold any finite
    values.
    """

    values: np.ndarray
    spacing: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"grid values must be 2D and non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid values must all be finite")
        sx, sy = float(self.spacing[0]), float(self.spacing[1])
        if not (np.isfinite(sx) and np.isfinite(sy) and sx > 0 and sy > 0):
            raise ValueError(f"spacing must be strictly positive and finite, got {self.spacing}")
        object.__setattr__(self, "values", _readonly(arr))
        object.__setattr__(self, "spacing", (sx, sy))

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def frame(self) -> tuple[int, int]:
        """Frame dimensions as (width, height)."""
        return (self.width, self.height)

    def is_probability_map(self) -> bool:
        return bool(np.all(self.values >= 0.0) and np.all(self.values <= 1.0))

    def crop(self, x0: int, y0: int, x1: int, y1: int) -> "ScalarGrid":
        """Sub-grid over the half-open pixel window [x0, x1) x [y0, y1)."""
        if not (0 <= x0 < x1 <= self.width and 0 <= y0 < y1 <= self.height):
            raise ValueError(f"crop window ({x0},{y0},{x1},{y1}) outside {self.width}x{self.height} frame")
        return ScalarGrid(self.values[y0:y1, x0:x1], self.spacing)


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Boolean pixel mask; shape and addressing match ScalarGrid."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits)
        if arr.dtype != np.bool_:
            arr = arr.astype(np.bool_)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"mask bits must be 2D and non-empty, got shape {arr.shape}")
        object.__setattr__(self, "bits", _readonly(arr))

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def frame(self) -> tuple[int, int]:
        return (self.width, self.height)

    @property
    def count(self) -> int:
        """Number of true pixels."""
        return int(np.count_nonzero(self.bits))

    def is_empty(self) -> bool:
        return self.count == 0

    @classmethod
    def full(cls, width: int, height: int, value: bool = False) -> "BinaryMask":
        return cls(np.full((height, width), bool(value), dtype=np.bool_))

    def union(self, other: "BinaryMask") -> "BinaryMask":
        if other.frame != self.frame:
            raise ValueError(f"mask dimensions differ: {self.frame} vs {other.frame}")
        return BinaryMask(np.logical_or(self.bits, other.bits))


def binarize(grid: ScalarGrid, tau: float) -> BinaryMask:
    """Threshold a probability map: a bit is set exactly where value >= tau."""
    tau = float(tau)
    if not (0.0 <= tau <= 1.0):
        raise ValueError(f"threshold must lie in [0, 1], got {tau}")
    return BinaryMask(grid.values >= tau)


def positive_ratio(grid: ScalarGrid, domain: BinaryMask, tau: float) -> float:
    """Fraction of domain pixels whose grid value is >= tau.

    Raises ValueError for an empty domain; callers that hold a
    degenerate ROI are expected to fall back to the full frame.
    """
    if domain.frame != grid.frame:
        raise ValueError(f"domain dimensions {domain.frame} do not match grid {grid.frame}")
    total = domain.count
    if total == 0:
        raise ValueError("positive_ratio over an empty domain: ROI is degenerate")
    hits = int(np.count_nonzero(grid.values[domain.bits] >= float(tau)))
    return hits / total
