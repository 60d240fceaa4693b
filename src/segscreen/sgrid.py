"""SGRID v1: portable on-disk format for grids and masks.

Layout: one ASCII header line
    ``SGRID v1 <width> <height> <spacing_x_mm> <spacing_y_mm> float32 little\\n``
followed by exactly width*height little-endian float32 values in
row-major order. Masks are stored as grids whose values are 0.0 or 1.0.
Read-write round trips are bit-exact.
"""

from __future__ import annotations

import os

import numpy as np

from .grid import BinaryMask, ScalarGrid

_MAGIC = "SGRID"
_VERSION = "v1"
_DTYPE = "float32"
_ORDER = "little"


def write_sgrid(path: str | os.PathLike, grid: ScalarGrid) -> None:
    header = (
        f"{_MAGIC} {_VERSION} {grid.width} {grid.height} "
        f"{grid.spacing[0]!r} {grid.spacing[1]!r} {_DTYPE} {_ORDER}\n"
    )
    payload = np.ascontiguousarray(grid.values, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def write_mask(path: str | os.PathLike, mask: BinaryMask, spacing: tuple[float, float] = (1.0, 1.0)) -> None:
    write_sgrid(path, ScalarGrid(mask.bits.astype(np.float64), spacing))


def read_sgrid(path: str | os.PathLike) -> ScalarGrid:
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            text = header.decode("ascii").rstrip("\n")
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: header is not ASCII") from err
        fields = text.split(" ")
        if len(fields) != 8 or fields[0] != _MAGIC or fields[1] != _VERSION:
            raise ValueError(f"{path}: not an SGRID v1 file (header {text!r})")
        try:
            width, height = int(fields[2]), int(fields[3])
            sx, sy = float(fields[4]), float(fields[5])
        except ValueError as err:
            raise ValueError(f"{path}: malformed SGRID header fields") from err
        if fields[6] != _DTYPE or fields[7] != _ORDER:
            raise ValueError(f"{path}: unsupported dtype/order {fields[6]}/{fields[7]}")
        if width < 1 or height < 1:
            raise ValueError(f"{path}: invalid dimensions {width}x{height}")
        expected = width * height * 4
        payload = fh.read(expected + 1)
        if len(payload) < expected:
            raise ValueError(f"{path}: truncated payload, expected {expected} bytes got {len(payload)}")
        if len(payload) > expected:
            raise ValueError(f"{path}: trailing data after payload")
    values = np.frombuffer(payload, dtype="<f4").reshape(height, width)
    try:
        return ScalarGrid(values.astype(np.float64), (sx, sy))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def read_mask(path: str | os.PathLike) -> BinaryMask:
    grid = read_sgrid(path)
    vals = grid.values
    if not np.all((vals == 0.0) | (vals == 1.0)):
        raise ValueError(f"{path}: mask payload contains values outside {{0.0, 1.0}}")
    return BinaryMask(vals == 1.0)
