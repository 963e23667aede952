"""Seeded Monte Carlo estimators for outage probabilities.

Both estimators draw fading-gain vectors from the counter-based chunk
streams in the fading module and tally outage events as exact integer
counts, so a given (seed, n, parameters) triple reproduces bit-identical
results for any worker count.  mc_outage scores each sample with the
discrete-input mutual information (quadrature per sample); mc_lower_bound
replaces it with the min{M, log2(1 + gamma rho)} cap, which needs no
quadrature and simulates the event behind the analytical bound.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fading
from .bound import ChannelSpec
from .constellation import Constellation
from .mutual_info import QuadratureRule, Snr, hermite_rule, mi_discrete_array

__all__ = ["McEstimate", "MC_QUAD_ORDER", "mc_outage", "mc_lower_bound"]

# Order of the per-sample quadrature: its bias is far below the Monte Carlo
# noise for any n <= 1e7, and it keeps the per-sample cost low.
MC_QUAD_ORDER = 32


@dataclass(frozen=True)
class McEstimate:
    """Binomial-proportion estimate; its standard error follows from p_hat and n."""

    p_hat: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("need at least one sample")

    @property
    def std_err(self) -> float:
        return math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.n_samples)

    @classmethod
    def from_count(cls, count: int, n: int, seed: int) -> "McEstimate":
        return cls(count / n, n, seed)


def _count_chunks(n: int, seed: int, stream_id: int, workers: int, chunk_counter) -> int:
    """Sum chunk_counter(first, count) over the fixed chunk partition of [0, n)."""
    chunks = [
        (lo, min(fading.CHUNK, n - lo))
        for lo in range(0, n, fading.CHUNK)
    ]
    if workers <= 1:
        return sum(chunk_counter(lo, cnt) for lo, cnt in chunks)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(lambda c: chunk_counter(*c), chunks))


def mc_outage(
    snr: Snr,
    spec: ChannelSpec,
    c: Constellation,
    q: QuadratureRule | None = None,
    n: int = 10**5,
    seed: int = 0,
    stream_id: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Estimate Pr((1/B) sum_b I(gamma_b rho) < R) with discrete-input MI."""
    if c.bits_per_symbol != spec.M:
        raise ValueError(f"constellation carries {c.bits_per_symbol} bits but spec.M = {spec.M}")
    if q is None:
        q = hermite_rule(MC_QUAD_ORDER)
    rho = snr.rho
    rate = spec.rate

    def chunk_counter(first: int, count: int) -> int:
        gains = fading.gain_block(spec.fading, seed, first, count, width=spec.B, stream_id=stream_id)
        mi = mi_discrete_array(gains.ravel() * rho, c, q).reshape(count, spec.B)
        return int(np.count_nonzero(mi.mean(axis=1) < rate))

    return McEstimate.from_count(_count_chunks(n, seed, stream_id, workers, chunk_counter), n, seed)


def mc_lower_bound(
    snr: Snr,
    spec: ChannelSpec,
    n: int = 10**6,
    seed: int = 0,
    stream_id: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Estimate Pr((1/B) sum_b min{M, log2(1 + gamma_b rho)} < R)."""
    rho = snr.rho
    rate = spec.rate
    cap = float(spec.M)

    def chunk_counter(first: int, count: int) -> int:
        gains = fading.gain_block(spec.fading, seed, first, count, width=spec.B, stream_id=stream_id)
        mi = np.minimum(cap, np.log2(1.0 + gains * rho))
        return int(np.count_nonzero(mi.mean(axis=1) < rate))

    return McEstimate.from_count(_count_chunks(n, seed, stream_id, workers, chunk_counter), n, seed)
