"""Unit-energy discrete signal sets (square QAM and PSK)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._checks import integer, require

__all__ = ["Constellation", "make_qam", "make_psk", "from_name", "KNOWN_NAMES"]

KNOWN_NAMES = ("qam4", "qam16", "qam64", "psk2", "psk4", "psk8")


@dataclass(frozen=True, eq=False)
class Constellation:
    """A set of 2^M complex points with unit average energy.

    points follow a fixed Gray-coded ordering (deterministic output, but the
    mutual information only ever sums over the unordered set).  grid_levels
    is set for square QAM, where points = {a + jb : a, b in grid_levels};
    the mutual-information engine exploits that product structure.
    """

    points: np.ndarray
    bits_per_symbol: int
    grid_levels: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Read-only copies: a caller's own arrays are never frozen, and a
        # shared constellation (from_name caches one per name) cannot be written.
        pts = _frozen(self.points, complex)
        object.__setattr__(self, "points", pts)
        if self.grid_levels is not None:
            object.__setattr__(self, "grid_levels", _frozen(self.grid_levels, float))
        object.__setattr__(self, "bits_per_symbol", require("bits_per_symbol", self.bits_per_symbol, integer, least=1))
        M = self.bits_per_symbol
        if pts.shape != (2**M,):
            raise ValueError(f"expected 2^{M} points, got shape {pts.shape}")
        if len(np.unique(pts)) != pts.size:
            raise ValueError("constellation points must be distinct")
        energy = float(np.mean(np.abs(pts) ** 2))
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"average energy must be 1, got {energy!r}")

    @property
    def size(self) -> int:
        return self.points.size


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of values as an array of dtype."""
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


def make_qam(M: int) -> Constellation:
    """Square 2^(M/2) x 2^(M/2) Gray-coded QAM, scaled to unit average energy.

    M must be even and at most 8 (no cross constellations).
    """
    M = require("M", M, integer)
    if M < 2 or M % 2 != 0:
        raise ValueError(f"square QAM needs an even number of bits, got M={M}")
    if M > 8:
        raise ValueError(f"QAM supported up to M=8, got M={M}")
    side = 2 ** (M // 2)
    # Odd-integer levels -(side-1) ... (side-1); mean energy 2(side^2-1)/3.
    raw = 2.0 * np.arange(side) - (side - 1)
    scale = math.sqrt(2.0 * (side**2 - 1) / 3.0)
    levels = raw / scale
    # Point hi * side + lo is levels[gray(hi)] + j levels[gray(lo)], gray(k) = k ^ (k >> 1).
    k = np.arange(side)
    g = levels[k ^ (k >> 1)]
    return Constellation((g[:, None] + 1j * g[None, :]).ravel(), M, grid_levels=levels)


def make_psk(M: int) -> Constellation:
    """2^M phase-shift-keyed points e^(2 pi j k / 2^M), all unit modulus."""
    M = require("M", M, integer, least=1)
    n = 2**M
    pts = np.exp(2j * np.pi * np.arange(n) / n)
    if M == 1:
        pts = pts.real.astype(complex)  # exact {+1, -1}
    return Constellation(pts, M)


@lru_cache(maxsize=16)
def from_name(name: str) -> Constellation:
    """The cached Constellation of a CLI/config name such as "qam16" or "psk8"."""
    key = name.strip().lower()
    for prefix, maker in (("qam", make_qam), ("psk", make_psk)):
        if key.startswith(prefix):
            try:
                size = int(key[len(prefix) :])
            except ValueError:
                break
            M = size.bit_length() - 1
            if 2**M != size:
                raise ValueError(f"constellation size must be a power of two: {name!r}")
            return maker(M)
    raise ValueError(f"unknown constellation {name!r} (known: {', '.join(KNOWN_NAMES)})")
