"""Nakagami-m fading statistics.

The fading power gain gamma = |h|^2 of a Nakagami-m channel is
Gamma-distributed with shape m and scale 1/m (unit mean), so its cdf is the
regularized incomplete gamma P(m, m gamma).  This module provides that
incomplete-gamma pair, plus a chunk-seeded block sampler: gain_block draws
the leading rows of one CHUNK-row chunk from that chunk's own generator, so
a chunk's rows depend only on (seed, stream_id, chunk, width, count) and a
caller may draw its chunks in any order and in any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer, real, require

__all__ = [
    "NakagamiParam",
    "reg_gamma_pq",
    "gain_block",
]

# Iteration control.  A series point stops once its latest term is below
# 2^-55 of its partial sum: every later term is smaller still, and adding a
# term below half the sum's last place leaves a float sum unchanged.  A
# continued-fraction point stops at its own first |delta - 1| < 1e-15 and
# keeps the value it had then.  So a value depends only on (a, x), never on
# the other points of its call.
_SERIES_EPS = 2.0**-55
_FRACTION_EPS = 1e-15
_MAX_ITER = 500

# Rows per separately seeded chunk.  Fixed, so that the rows of a chunk never
# depend on how many chunks a caller draws.
CHUNK = 4096


@dataclass(frozen=True)
class NakagamiParam:
    """Nakagami shape parameter m (dimensionless, > 0).  m = 1 is Rayleigh."""

    m: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", require("Nakagami shape m", self.m, real, above=0))


def _reg_p_series(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, x) by power series.

    For ascending x in (0, a + 1), where the terms fall from the first on.
    Later points need more terms, so the points still iterating sit at the
    end: each step works only from the first of them on, and a point behind
    it that has stopped adds terms that leave its sum unchanged.
    """
    term = np.full_like(x, 1.0 / a)
    total = term.copy()
    ap = a
    first = 0
    for _ in range(_MAX_ITER):
        ap += 1.0
        t, s = term[first:], total[first:]
        t *= x[first:] / ap
        s += t
        stopped = t < _SERIES_EPS * s
        k = int(stopped.argmin())
        if stopped[k]:
            break
        first += k
    else:
        raise ArithmeticError(f"incomplete gamma series failed to converge (a={a})")
    return total * np.exp(-x + a * np.log(x) - math.lgamma(a))


def _reg_q_contfrac(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized upper incomplete gamma Q(a, x) by Lentz continued fraction.

    For ascending finite x >= a + 1, where the fraction converges in a few
    dozen terms, and the sooner the larger x is: each step works only up to
    the last point still iterating, and a point before it that has stopped
    keeps its value.
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / np.where(np.abs(b) < tiny, tiny, b)
    h = d.copy()
    live = np.ones(x.size, dtype=bool)
    end = x.size
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        bs, cs, ds = b[:end], c[:end], d[:end]
        bs += 2.0
        ds *= an
        ds += bs
        ds[np.abs(ds) < tiny] = tiny
        np.divide(an, cs, out=cs)
        cs += bs
        cs[np.abs(cs) < tiny] = tiny
        np.divide(1.0, ds, out=ds)
        delta = ds * cs
        np.multiply(h[:end], delta, out=h[:end], where=live[:end])
        live[:end] &= np.abs(delta - 1.0) >= _FRACTION_EPS
        still = np.flatnonzero(live[:end])
        if still.size == 0:
            break
        end = int(still[-1]) + 1
    else:
        raise ArithmeticError(f"incomplete gamma continued fraction failed to converge (a={a})")
    return np.exp(-x + a * np.log(x) - math.lgamma(a)) * h


def reg_gamma_pq(a: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(P(a,x), Q(a,x)), the smaller value v of the two within a relative
    error of 5e-14 + 2.2e-16 |ln v|, so within 2.1e-13 for any normal float.

    The series evaluates P directly for x < a+1 and the continued fraction
    evaluates Q for x >= a+1, so the small tail never comes from a
    1 - (1 - tiny) subtraction.  x = 0 gives (0, 1) and x = inf gives (1, 0)
    without iterating.  The points are visited in ascending x, and each
    value depends only on (a, x): a point's value is the same in any call.
    """
    arr = np.asarray(x, dtype=float)
    a = require("incomplete gamma's a", a, real, above=0)
    if np.any(np.isnan(arr)):
        raise ValueError("incomplete gamma requires x to be a number, got NaN")
    if np.any(arr < 0):
        raise ValueError("incomplete gamma requires x >= 0")
    flat = arr.ravel()
    # A stable sort finds the sorted runs that a block of SNR grids is made of.
    order = np.argsort(flat, kind="stable")
    xs = flat[order]
    # Sorted x: zeros, then the series range, the fraction range and infinities.
    pos = int(np.searchsorted(xs, 0.0, side="right"))
    lo, hi = np.searchsorted(xs, [a + 1.0, np.inf])
    p = np.empty_like(xs)
    q = np.empty_like(xs)
    p[:pos], q[:pos] = 0.0, 1.0
    if lo > pos:
        p[pos:lo] = _reg_p_series(a, xs[pos:lo])
        q[pos:lo] = 1.0 - p[pos:lo]
    if hi > lo:
        q[lo:hi] = _reg_q_contfrac(a, xs[lo:hi])
        p[lo:hi] = 1.0 - q[lo:hi]
    p[hi:], q[hi:] = 1.0, 0.0
    out_p = np.empty_like(p)
    out_q = np.empty_like(q)
    out_p[order], out_q[order] = p, q
    return out_p.reshape(arr.shape), out_q.reshape(arr.shape)


def reg_gamma_p(a: float, x):
    """Regularized lower incomplete gamma P(a, x) = 1 - Gamma(a,x)/Gamma(a)."""
    p, _ = reg_gamma_pq(a, x)
    return float(p) if np.isscalar(x) else p


def _chunk_rng(seed: int, stream_id: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(seed, stream_id, chunk_index))
    return np.random.Generator(np.random.SFC64(ss))


def gain_block(
    p: NakagamiParam,
    seed: int,
    chunk: int,
    count: int,
    width: int = 1,
    stream_id: int = 0,
) -> np.ndarray:
    """The first `count` rows of chunk `chunk` of the gain stream, each row `width` draws.

    A chunk holds CHUNK rows, so 0 <= count <= CHUNK, and its rows come from
    its own SFC64 generator, seeded from (seed, stream_id, chunk).  No two
    seeds in [0, 2^64) share a stream; any other seed is a ValueError.  Each
    draw is Gamma(shape=m, scale=1/m), a standard Gamma draw times 1/m;
    numpy samples the standard Gamma by Marsaglia-Tsang for m >= 1 and by
    rejection with an exponential proposal for m < 1.
    """
    count = require("count", count, integer, least=0, most=CHUNK)
    seed = require("seed", seed, integer, least=0, most=2**64 - 1)
    chunk, width, stream_id = (require(k, v, integer, least=0) for k, v in (("chunk", chunk), ("width", width), ("stream_id", stream_id)))
    m = p.m
    out = _chunk_rng(seed, stream_id, chunk).standard_gamma(m, size=(count, width))
    out *= 1.0 / m
    return out
