"""Seeded Monte Carlo estimators for outage probabilities.

Both estimators draw fading-gain vectors from the counter-based chunk
streams in the fading module and tally outage events as exact integer
counts, so a given (seed, n, parameters) triple reproduces bit-identical
results for any worker count.  mc_outage scores each sample with the
discrete-input mutual information; mc_lower_bound replaces it with the
min{M, log2(1 + gamma rho)} cap, which needs no quadrature and simulates the
event behind the analytical bound.

mc_outage decides most samples without quadrature at their own SNRs.  Each
per-block SNR v lies between two nodes of the fixed geometric grid
2^(k/_NODES_PER_OCTAVE), and the computed I(rho) is nondecreasing, so the
mean of the MI values at the lower nodes bounds a sample's mean MI from
below and the mean at the upper nodes bounds it from above.  One quadrature
call per chunk evaluates the nodes the chunk touches; only samples whose
bracket straddles the rate are evaluated at their exact SNRs, with the same
test as direct evaluation.  Each MI value does not depend on the batch it is
computed in, so every event count equals that of direct quadrature.
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

# Order of the MI quadrature: its bias is far below the Monte Carlo noise for
# any n <= 1e7, and it keeps the cost of each evaluated SNR low.
MC_QUAD_ORDER = 32

# Bracket nodes per octave of SNR.  A finer grid leaves fewer samples
# undecided but puts more nodes in every chunk, so small chunks fall back to
# direct evaluation.  8 ran fastest of 8, 16 and 32 on a mix of 1950-sample
# qam16 and 24-sample psk8 points, and of 4, 8, 16 and 32 only 4 came close
# on 1e6-sample qam16 estimates; 8 leaves about 1-7% of samples undecided.
_NODES_PER_OCTAVE = 8

# Margin on the bracket tests.  It absorbs the rounding of the row means and
# of the node SNRs (a node may miss its value by an ulp, which moves I by
# ~1e-15); a sample within it of the rate is always evaluated exactly.
_MARGIN = 1e-9


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


def _count_chunks(n: int, workers: int, chunk_counter) -> int:
    """Sum chunk_counter(first, count) over the fixed chunk partition of [0, n)."""
    chunks = [
        (lo, min(fading.CHUNK, n - lo))
        for lo in range(0, n, fading.CHUNK)
    ]
    if workers <= 1:
        return sum(chunk_counter(lo, cnt) for lo, cnt in chunks)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(lambda c: chunk_counter(*c), chunks))


def _count_outage_rows(v: np.ndarray, rate: float, c: Constellation, q: QuadratureRule) -> int:
    """Number of rows of per-block SNRs v whose mean MI is below rate.

    Decides each row from the MI at its values' bracketing nodes when it
    can, and evaluates the rest directly.  A zero SNR has log2 = -inf and
    both of its nodes at 2^-inf = 0, so it is bracketed by I(0) itself.
    When the chunk touches at least as many nodes as it has values, the
    nodes cost more than the values, so every row is evaluated directly.
    """
    with np.errstate(divide="ignore"):
        keys, where = np.unique(np.floor(_NODES_PER_OCTAVE * np.log2(v)), return_inverse=True)
    nodes = np.union1d(keys, keys + 1.0)
    if nodes.size >= v.size:
        mi = mi_discrete_array(v, c, q)
        return int(np.count_nonzero(mi.mean(axis=1) < rate))
    node_mi = mi_discrete_array(np.exp2(nodes / _NODES_PER_OCTAVE), c, q)
    where = where.reshape(v.shape)
    lower = node_mi[np.searchsorted(nodes, keys)][where].mean(axis=1)
    upper = node_mi[np.searchsorted(nodes, keys + 1.0)][where].mean(axis=1)
    decided_out = upper < rate - _MARGIN
    open_rows = ~decided_out & (lower < rate + _MARGIN)
    count = int(np.count_nonzero(decided_out))
    if open_rows.any():
        mi = mi_discrete_array(v[open_rows], c, q)
        count += int(np.count_nonzero(mi.mean(axis=1) < rate))
    return count


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
    """Estimate Pr((1/B) sum_b I(gamma_b rho) < R) with discrete-input MI.

    The count is that of evaluating I at every sample's SNRs; most samples
    are decided from bracketing grid nodes instead (see the module notes).
    That needs I(rho) under the rule q to be nondecreasing.  It is for every
    built-in constellation under hermite_rule at each order checked, from 1
    to 256, on a grid of 64 points per octave over 2^-40 to 2^40.
    """
    if c.bits_per_symbol != spec.M:
        raise ValueError(f"constellation carries {c.bits_per_symbol} bits but spec.M = {spec.M}")
    if q is None:
        q = hermite_rule(MC_QUAD_ORDER)
    rho = snr.rho
    rate = spec.rate

    def chunk_counter(first: int, count: int) -> int:
        gains = fading.gain_block(spec.fading, seed, first, count, width=spec.B, stream_id=stream_id)
        return _count_outage_rows(gains * rho, rate, c, q)

    return McEstimate.from_count(_count_chunks(n, workers, chunk_counter), n, seed)


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

    return McEstimate.from_count(_count_chunks(n, workers, chunk_counter), n, seed)
