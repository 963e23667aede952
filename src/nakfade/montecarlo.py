"""Seeded Monte Carlo estimators for outage probabilities.

Both estimators take a grid of SNRs and run one chunk loop (_estimate): it
splits n samples into chunks of fading.CHUNK rows, the last one partial,
draws each with one fading.gain_block call, scores the chunk at every SNR
of the grid, and tallies outage events as exact integer counts, one per
SNR.  So the SNRs share their draws (common random numbers): each point
keeps its marginal law and its standard error, the points of one grid are
positively correlated, and since every sample's score is nondecreasing in
the SNR, the estimated curve is nonincreasing in it.  A chunk's rows depend
only on (seed, chunk, width, count), so no count depends on the worker
count, a given (seed, n, parameters) triple reproduces bit-identical
results, and a point's count is that of a one-SNR call at the same seed.
Each call checks its SNRs, n, seed and workers (_checked) before any draw
or MI evaluation.
The chunks of one estimate are spread over min(workers, chunks) threads,
the package's only thread pool; `mc --workers` reaches it, and a one-chunk
estimate runs in the calling thread.  mc_outages scores each sample with
the discrete-input mutual information; mc_lower_bounds replaces it with the
min{M, log2(1 + gamma rho)} cap, which needs no quadrature and simulates
the event behind the analytical bound; it takes one log per group of blocks
of a row, not one per block.

mc_outages decides most samples without quadrature at their own SNRs.  Each
per-block SNR v lies between two nodes of the fixed geometric grid
2^(k/_NODES_PER_OCTAVE), and the computed I(rho) is nondecreasing, so the
mean of the MI values at the lower nodes bounds a sample's mean MI from
below and the mean at the upper nodes bounds it from above.  A BracketTable
holds I(0) and the MI at every node of a window around the SNRs it is built
for, from one quadrature call.  Every mc_outages call builds one table for
its own SNRs and n, shared by all its chunks and SNRs.  The window spans
the gains outside of which at most one octave of nodes' worth of the values
the table scores is expected, and it starts no lower than the SNR below
which I is no wider than a bracket (see _window).
A v below the window is bracketed by [I(0), I(lowest node)] and one above
it by [I(highest node), M], which holds because the computed I is also
clamped to [0, M]; so the window decides only how many samples are left
open, never a count.  Only samples whose bracket straddles the rate
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
from ._checks import integer, require
from .bound import ChannelSpec
from .constellation import Constellation
from .mutual_info import QuadratureRule, Snr, hermite_rule, mi_discrete_array

__all__ = ["McEstimate", "MC_QUAD_ORDER", "mc_outages", "mc_lower_bounds"]

# Order of the MI quadrature, the only one `mc` uses: its bias is far below
# the Monte Carlo noise for any n <= 1e7, and it keeps the cost of each
# evaluated SNR low.  Orders 32 and 96 gave the same event count at all 96
# mc-outage benchmark points of seeds 1, 2 and 77, and at the 20 points of
# 1e5 samples of qam16, psk8, qam64 and psk4 at m = 2, R = 1 and 0 to 20 dB.
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

# Bits a capped block product may reach: 2^1000 stays below the float range.
_CAP_PRODUCT_BITS = 1000


@dataclass(frozen=True)
class McEstimate:
    """Binomial-proportion estimate from `events` outage events in `n_samples` draws."""

    events: int
    n_samples: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_samples", require("n_samples", self.n_samples, integer, least=1))
        object.__setattr__(self, "events", require("events", self.events, integer, least=0, most=self.n_samples))

    @property
    def p_hat(self) -> float:
        return self.events / self.n_samples

    @property
    def std_err(self) -> float:
        return math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.n_samples)


def _checked(snrs, n: int, seed: int, workers: int) -> tuple[list[float], int, int, int]:
    """The linear SNRs of snrs, a nonempty sequence of Snr, and the checked n, seed and workers."""
    rhos = [snr.rho for snr in snrs]
    if not rhos:
        raise ValueError("snrs must hold at least one SNR")
    return rhos, require("n", n, integer, least=1), fading.checked_seed(seed), require("workers", workers, integer, least=1)


def _estimate(spec: ChannelSpec, n: int, seed: int, workers: int, count_rows) -> list[McEstimate]:
    """One estimate per entry of count_rows(gains), an integer count per SNR, summed over the chunks of n draws of spec's B gains."""

    def count_chunk(chunk: int) -> np.ndarray:
        count = min(fading.CHUNK, n - chunk * fading.CHUNK)
        return count_rows(fading.gain_block(spec.fading, seed, chunk, count, width=spec.B))

    chunks = range(-(-n // fading.CHUNK))
    threads = min(workers, len(chunks))
    if threads <= 1:
        counts = sum(map(count_chunk, chunks))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = sum(pool.map(count_chunk, chunks))
    return [McEstimate(int(k), n) for k in counts]


def _window(rho_lo: float, rho_hi: float, values: int, m: float) -> tuple[int, int]:
    """First and last node key of the table scoring `values` SNRs rho gamma, rho in [rho_lo, rho_hi].

    With P nodes per octave, the window ends where at most P of the values,
    one octave of nodes' worth, are expected beyond it: one more octave would
    cost P evaluations to tighten the brackets of fewer values than that,
    each of which leaves its row undecided only when the row's mean MI is
    near the rate.  The ends come from bounds on the tails of the gain gamma
    (Gamma with shape m and mean 1), so each is at or beyond the exact one:

        P(gamma < g) <= (m g)^m / Gamma(m + 1),   P(gamma > g) <= (g e^(1-g))^m  (g >= 1).

    With c = ln(values / P) / m (0 if values <= P), the first bound is
    P / values at ln g = ln Gamma(m + 1) / m - c - ln m, and the second at
    most that at g = 1 + c + s, s = sqrt(2c): 1 + s + s^2/2 <= e^s gives
    ln g <= s, so m (g - 1 - ln g) >= m c.  The window also starts no lower
    than the SNR ln 2 / P.  Below it I(v) <= v log2 e <= 1/P bits, so the
    bracket [I(0), I(lowest node)] of a value below the window is no wider
    than a bracket inside it can be: by the I-MMSE relation
    dI/dlog2 v <= v / (1 + v) < 1 bit per octave.  The window keeps at
    least one node, and it is empty (last < first) only when rho_hi is 0,
    whose values are exact 0s that I(0) brackets.
    """
    if rho_hi <= 0:
        return 0, -1
    c = max(math.log(values / _NODES_PER_OCTAVE), 0.0) / m
    log2_g_lo = min(math.lgamma(m + 1.0) / m - c - math.log(m), 0.0) / _LN2
    g_hi = 1.0 + c + math.sqrt(2.0 * c)
    last = min(math.ceil(_NODES_PER_OCTAVE * (math.log2(rho_hi) + math.log2(g_hi))), _TOP_KEY)
    first = math.floor(_NODES_PER_OCTAVE * max(math.log2(rho_lo if rho_lo > 0 else rho_hi) + log2_g_lo, math.log2(_LN2 / _NODES_PER_OCTAVE)))
    return min(first, last), last


class BracketTable:
    """I(0) and the MI at the grid nodes around the SNRs rhos under (c, q).

    The window is sized for n samples of spec's B Nakagami-m gains at each
    of rhos (see _window), a nonempty list of checked SNRs.  Built by one
    mi_discrete_array call and only read afterwards, so any number of
    chunks and threads may read one table, at any SNR: the window sets how
    many samples are decided from it, never a count.
    """

    def __init__(self, c: Constellation, q: QuadratureRule, rhos: list[float], n: int, spec: ChannelSpec) -> None:
        self.c = c
        self.q = q
        self._first, last = _window(min(rhos), max(rhos), len(rhos) * n * spec.B, spec.fading.m)
        nodes = np.exp2(np.arange(self._first, last + 1) / _NODES_PER_OCTAVE)
        mi = mi_discrete_array(np.concatenate(([0.0], nodes)), c, q)
        # Slot 0 is I(0), slots 1..size the nodes, slot size + 1 the cap M.
        self._size = nodes.size
        self._values = np.append(mi, float(c.bits_per_symbol))

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
            mi = mi_discrete_array(v[open_rows], self.c, self.q)
            count += int(np.count_nonzero(mi.mean(axis=1) < rate))
        return count


def mc_outages(
    snrs,
    spec: ChannelSpec,
    c: Constellation,
    q: QuadratureRule | None = None,
    n: int = 10**5,
    seed: int = 0,
    workers: int = 1,
) -> list[McEstimate]:
    """Estimate Pr((1/B) sum_b I(gamma_b rho) < R) with discrete-input MI at every SNR of snrs, from shared draws.

    Each count is that of evaluating I at every sample's SNRs; most samples
    are decided from a BracketTable instead (see the module notes).  That
    needs I(rho) under the rule q to be nondecreasing.  It is for every
    built-in constellation at orders 1-8, 16, 24, 32, 48, 64, 96, 128, 192
    and 256, and for psk16, psk32 and qam256 at MC_QUAD_ORDER, on a grid of
    64 points per octave over 2^-40 to 2^40.
    Every chunk reads one table built for snrs and n.
    """
    if c.bits_per_symbol != spec.M:
        raise ValueError(f"constellation carries {c.bits_per_symbol} bits but spec.M = {spec.M}")
    rhos, n, seed, workers = _checked(snrs, n, seed, workers)
    if q is None:
        q = hermite_rule(MC_QUAD_ORDER)
    rate = spec.rate
    table = BracketTable(c, q, rhos, n, spec)
    return _estimate(spec, n, seed, workers, lambda gains: np.array([table.count_rows(gains * rho, rate) for rho in rhos]))


def mc_lower_bounds(
    snrs,
    spec: ChannelSpec,
    n: int = 10**6,
    seed: int = 0,
    workers: int = 1,
) -> list[McEstimate]:
    """Estimate Pr((1/B) sum_b min{M, log2(1 + gamma_b rho)} < R) at every SNR of snrs, from shared draws.

    A row's sum is taken as sum_g log2(prod_{b in g} min(2^M, 1 + gamma_b rho))
    over groups g of at most 1000 // M blocks: one log per group
    instead of one per block.  Each factor lies in [1, 2^M], so no group's
    product exceeds 2^1000, and an all-capped row sums to exactly BM.  An
    M > 1000 takes groups of one block, and from M = 1024 on, where 2^M is
    past the float range, no finite factor is capped.
    """
    rhos, n, seed, workers = _checked(snrs, n, seed, workers)
    B, M = spec.B, spec.M
    threshold = B * spec.rate
    cap = 2.0**M if M < 1024 else math.inf
    group = max(_CAP_PRODUCT_BITS // M, 1)

    def count_rows(gains: np.ndarray) -> np.ndarray:
        # Every SNR reads the same gains, so each writes its factors into one scratch array.
        factors = np.empty_like(gains)
        counts = np.empty(len(rhos), dtype=np.int64)
        for i, rho in enumerate(rhos):
            np.multiply(gains, rho, out=factors)
            factors += 1.0
            np.minimum(factors, cap, out=factors)
            total = np.zeros(len(factors))
            for lo in range(0, B, group):
                # Column by column: numpy's product over a short row axis is slow.
                prod = factors[:, lo].copy()
                for b in range(lo + 1, min(lo + group, B)):
                    prod *= factors[:, b]
                total += np.log2(prod)
            counts[i] = np.count_nonzero(total < threshold)
        return counts

    return _estimate(spec, n, seed, workers, count_rows)


# Only the benchmark uses these: bench/run.py calls mc_outage, bench/tracing.py wraps both, and ROADMAP items 8/19 drop both.
def mc_outage(
    snr: Snr,
    spec: ChannelSpec,
    c: Constellation,
    q: QuadratureRule | None = None,
    n: int = 10**5,
    seed: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Estimate the outage with discrete-input MI at one SNR point (see mc_outages)."""
    return mc_outages([snr], spec, c, q, n, seed, workers)[0]


def mc_lower_bound(
    snr: Snr,
    spec: ChannelSpec,
    n: int = 10**6,
    seed: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Estimate the capped-rate outage at one SNR point (see mc_lower_bounds)."""
    return mc_lower_bounds([snr], spec, n, seed, workers)[0]
