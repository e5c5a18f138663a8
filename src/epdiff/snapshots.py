"""Binary snapshot format for velocity fields.

Layout (little-endian throughout): magic bytes ``EPDF``, u32 format version
(1), u32 K, u32 J, f64 alpha, f64 t, then K*J f64 for component 1 followed by
K*J f64 for component 2, row-major with k fastest.  Writing and reading
round-trip bit-exactly.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import FieldPair, GridSpec

__all__ = ["write_snapshot", "read_snapshot"]

MAGIC = b"EPDF"
VERSION = 1
_HEADER = struct.Struct("<4sIIIdd")


def write_snapshot(u: FieldPair, t: float, path) -> None:
    """Write a velocity field and its time stamp to ``path``."""
    grid = u.grid
    header = _HEADER.pack(MAGIC, VERSION, grid.K, grid.J, grid.alpha, float(t))
    payload = u.values.astype("<f8", copy=False).tobytes()
    try:
        Path(path).write_bytes(header + payload)
    except OSError as exc:
        raise OSError(f"failed to write snapshot {path}: {exc}") from exc


def read_snapshot(path) -> tuple[FieldPair, float]:
    """Read a snapshot back; returns (velocity, t)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise OSError(f"failed to read snapshot {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise ValueError(f"snapshot {path} is truncated")
    magic, version, k, j, alpha, t = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"snapshot {path} has bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"snapshot {path} has unsupported version {version}")
    expected = _HEADER.size + 2 * k * j * 8
    if len(raw) != expected:
        raise ValueError(
            f"snapshot {path} has {len(raw)} bytes, expected {expected}"
        )
    grid = GridSpec(k, j, alpha)
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    return FieldPair.from_arrays(grid, *data.reshape((2,) + grid.shape)), t
