"""Minimal SGRID v1 reader and writer, written from the format description.

Header line ``SGRID v1 <width> <height> <sx> <sy> float32 little``, then
row-major little-endian float32 values.
"""

from __future__ import annotations

import numpy as np


def write_sgrid(path: str, values: np.ndarray, spacing: tuple[float, float]) -> None:
    arr = np.ascontiguousarray(values, dtype="<f4")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"SGRID v1 {w} {h} {spacing[0]!r} {spacing[1]!r} float32 little\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_sgrid(path: str) -> tuple[np.ndarray, bytes]:
    """Return (float32 values, raw payload bytes)."""
    with open(path, "rb") as fh:
        fields = fh.readline().decode("ascii").split()
        payload = fh.read()
    if fields[:2] != ["SGRID", "v1"] or fields[6:] != ["float32", "little"]:
        raise ValueError(f"{path}: not an SGRID v1 float32 file")
    w, h = int(fields[2]), int(fields[3])
    if len(payload) != w * h * 4:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {w * h * 4}")
    return np.frombuffer(payload, dtype="<f4").reshape(h, w), payload
