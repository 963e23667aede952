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
below and the mean at the upper nodes bounds it from above.  A BracketTable
holds I(0) and the MI at every node of a window around the SNRs it serves,
from one quadrature call; one table serves every chunk of an mc_outage call,
and the CLI builds one for every point of a command.  The window is sized
from what the table serves: it spans the gains outside of which at most one
octave of nodes' worth of the values it scores is expected, and it starts
no lower than the SNR below which I is no wider than a bracket (see
_window).  A v below the window is bracketed by [I(0), I(lowest node)] and
one above it by [I(highest node), M], which holds because the computed I is
also clamped to [0, M]; so the window decides only how many samples are
left open, never a count.  Only samples whose bracket straddles the rate
are evaluated at their exact SNRs, with the same test as direct
evaluation.  Each MI value does not depend on the batch it is computed in,
so every event count equals that of direct quadrature.
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

__all__ = ["McEstimate", "MC_QUAD_ORDER", "BracketTable", "mc_outage", "mc_lower_bound"]

# Order of the MI quadrature: its bias is far below the Monte Carlo noise for
# any n <= 1e7, and it keeps the cost of each evaluated SNR low.
MC_QUAD_ORDER = 32

# Bracket nodes per octave of SNR.  Doubling it halves the undecided
# samples and doubles the nodes of every table, so the best spacing grows
# with the share of samples near the rate, which a table cannot know before
# they are drawn.  On the mc-outage benchmark (24-sample psk8 and 1950-sample
# qam16 points) 16 ran 7-14% faster than 8 in three pairs of timed runs, and
# 32 ran from 3% slower to 16% faster than 16; but at 32 a 1e6-sample qam16
# estimate in the tail (m=1, 15 dB, R=1) evaluates 481 values, against 240
# at 16 and 152 at 8.
_NODES_PER_OCTAVE = 16

# Highest node key: 2^(key / _NODES_PER_OCTAVE) is the largest finite node.
_TOP_KEY = _NODES_PER_OCTAVE * 1024 - 1

# Margin on the bracket tests.  It absorbs the rounding of the row means and
# of the node SNRs (a node may miss its value by an ulp, which moves I by
# ~1e-15); a sample within it of the rate is always evaluated exactly.
_MARGIN = 1e-9

_LN2 = math.log(2.0)


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


def _count_direct(v: np.ndarray, rate: float, c: Constellation, q: QuadratureRule) -> int:
    """Number of rows of per-block SNRs v whose mean MI, evaluated at v, is below rate."""
    mi = mi_discrete_array(v, c, q)
    return int(np.count_nonzero(mi.mean(axis=1) < rate))


def _window(rho_lo: float, rho_hi: float, values: int, m: float) -> tuple[int, int]:
    """First and last node key of the table scoring `values` SNRs rho gamma, rho in [rho_lo, rho_hi].

    With P nodes per octave, the window ends where at most P of the values,
    one octave of nodes' worth, are expected beyond it: one more octave would
    cost P evaluations to tighten the brackets of fewer values than that,
    each of which leaves its row undecided only when the row's mean MI is
    near the rate.  The ends come from bounds on the tails of the gain gamma
    (Gamma with shape m and mean 1), so each is at or beyond the exact one:

        P(gamma < g) <= (m g)^m / Gamma(m + 1),   P(gamma > g) <= (g e^(1-g))^m  (g >= 1).

    It also starts no lower than the SNR ln 2 / P.  Below it I(v) <= v log2 e
    <= 1/P bits, so the bracket [I(0), I(lowest node)] of a value below the
    window is no wider than a bracket inside it can be: by the I-MMSE
    relation dI/dlog2 v <= v / (1 + v) < 1 bit per octave.  The window keeps
    at least one node, and it is empty (last < first) only when rho_hi is 0,
    whose values are exact 0s that I(0) brackets.
    """
    if rho_hi <= 0:
        return 0, -1
    lo = rho_lo if rho_lo > 0 else rho_hi
    tail = min(_NODES_PER_OCTAVE / values, 1.0)
    log2_g_lo = min((math.lgamma(m + 1.0) + math.log(tail)) / m - math.log(m), 0.0) / _LN2
    # Newton from above on m (g - 1 - ln g) = -ln(tail); the function is convex for g >= 1.
    excess, g = -math.log(tail) / m, 1.0
    if excess > 0:
        g = 1.0 + excess + math.sqrt(2.0 * excess)
        for _ in range(50):
            step = (g - 1.0 - math.log(g) - excess) / (1.0 - 1.0 / g)
            g -= step
            if step < 1e-12 * g:
                break
    last = min(math.ceil(_NODES_PER_OCTAVE * (math.log2(rho_hi) + math.log2(g))), _TOP_KEY)
    first = math.floor(_NODES_PER_OCTAVE * max(math.log2(lo) + log2_g_lo, math.log2(_LN2 / _NODES_PER_OCTAVE)))
    return min(first, last), last


class BracketTable:
    """I(0) and the MI at the grid nodes around [rho_lo, rho_hi] under (c, q).

    The window is sized for `values` per-block SNRs rho gamma, rho in
    [rho_lo, rho_hi], under Nakagami-m gains (see _window).  Built by one
    mi_discrete_array call and only read afterwards, so one table serves any
    number of chunks and threads, at any SNR: the window sets how many
    samples are decided from it, never a count.
    """

    def __init__(self, c: Constellation, q: QuadratureRule, rho_lo: float, rho_hi: float, values: int, m: float) -> None:
        self.c = c
        self.q = q
        self._first, last = _window(rho_lo, rho_hi, values, m)
        nodes = np.exp2(np.arange(self._first, last + 1) / _NODES_PER_OCTAVE)
        mi = mi_discrete_array(np.concatenate(([0.0], nodes)), c, q)
        # Slot 0 is I(0), slots 1..size the nodes, slot size + 1 the cap M.
        self._size = nodes.size
        self._values = np.append(mi, float(c.bits_per_symbol))

    @staticmethod
    def pays(rho_lo: float, rho_hi: float, values: int, m: float) -> bool:
        """Whether the table for these arguments has fewer nodes than it has values to score."""
        first, last = _window(rho_lo, rho_hi, values, m)
        return last - first + 1 < values

    def count_rows(self, v: np.ndarray, rate: float) -> int:
        """Number of rows of per-block SNRs v whose mean MI is below rate.

        Decides each row from its values' brackets when it can and
        evaluates the rest directly.  A zero SNR is bracketed by I(0) on
        both sides.
        """
        # slot is the slot of node k = floor(P log2 v), the one at or below v;
        # a lower node under the window reads I(0), an upper one above it M.
        with np.errstate(divide="ignore"):
            slot = np.floor(_NODES_PER_OCTAVE * np.log2(v)) - (self._first - 1)
        lower_slot = np.clip(slot, 0, self._size).astype(np.intp)
        upper_slot = np.where(v > 0, np.clip(slot + 1, 1, self._size + 1), 0).astype(np.intp)
        lower = self._values[lower_slot].mean(axis=1)
        upper = self._values[upper_slot].mean(axis=1)
        decided_out = upper < rate - _MARGIN
        open_rows = ~decided_out & (lower < rate + _MARGIN)
        count = int(np.count_nonzero(decided_out))
        if open_rows.any():
            count += _count_direct(v[open_rows], rate, self.c, self.q)
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
    table: BracketTable | None = None,
) -> McEstimate:
    """Estimate Pr((1/B) sum_b I(gamma_b rho) < R) with discrete-input MI.

    The count is that of evaluating I at every sample's SNRs; most samples
    are decided from a BracketTable instead (see the module notes).  That
    needs I(rho) under the rule q to be nondecreasing.  It is for every
    built-in constellation under hermite_rule at every order from 1 to 256,
    on a grid of 64 points per octave over 2^-40 to 2^40, checked with PSK
    evaluated at one point per symmetry orbit.

    table, built for the same c and q, may serve other SNRs too; without
    one, every chunk reads one table built for snr and the n B values,
    unless that table would have at least as many nodes as there are
    values, which are then all evaluated directly.
    """
    if c.bits_per_symbol != spec.M:
        raise ValueError(f"constellation carries {c.bits_per_symbol} bits but spec.M = {spec.M}")
    if q is None:
        q = hermite_rule(MC_QUAD_ORDER)
    rho = snr.rho
    rate = spec.rate
    values, m = n * spec.B, spec.fading.m
    if table is None and BracketTable.pays(rho, rho, values, m):
        table = BracketTable(c, q, rho, rho, values, m)
    if table is not None and (table.c is not c or table.q is not q):
        raise ValueError("bracket table was built for another constellation or quadrature rule")

    def chunk_counter(first: int, count: int) -> int:
        v = fading.gain_block(spec.fading, seed, first, count, width=spec.B, stream_id=stream_id) * rho
        return table.count_rows(v, rate) if table is not None else _count_direct(v, rate, c, q)

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
