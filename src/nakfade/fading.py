"""Nakagami-m fading statistics.

The fading power gain gamma = |h|^2 of a Nakagami-m channel is
Gamma-distributed with shape m and scale 1/m (unit mean), so its cdf is the
regularized incomplete gamma P(m, m gamma).  This module provides that
incomplete-gamma pair, plus a counter-based seeded block sampler whose
draws are reproducible independent of how the sample range is partitioned
across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NakagamiParam",
    "reg_gamma_p",
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

# Samples per counter-keyed chunk.  Fixed so that draw i depends only on
# (seed, stream_id, i) and never on how a range of draws is split up.
CHUNK = 4096


@dataclass(frozen=True)
class NakagamiParam:
    """Nakagami shape parameter m (dimensionless, > 0).  m = 1 is Rayleigh."""

    m: float

    def __post_init__(self) -> None:
        m = self.m
        if not isinstance(m, (int, float)) or isinstance(m, bool):
            raise ValueError(f"Nakagami shape must be a real number, got {m!r}")
        if not math.isfinite(m) or m <= 0:
            raise ValueError(f"Nakagami shape must be positive and finite, got {m}")


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
    """(P(a,x), Q(a,x)) with full relative accuracy in whichever is small.

    The series evaluates P directly for x < a+1 and the continued fraction
    evaluates Q for x >= a+1, so the small tail never comes from a
    1 - (1 - tiny) subtraction.  x = 0 gives (0, 1) and x = inf gives (1, 0)
    without iterating.  The points are visited in ascending x, and each
    value depends only on (a, x): a point's value is the same in any call.
    """
    arr = np.asarray(x, dtype=float)
    if a <= 0:
        raise ValueError(f"incomplete gamma requires a > 0, got a={a}")
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
    ss = np.random.SeedSequence(entropy=(seed & 0xFFFFFFFFFFFFFFFF, stream_id, chunk_index))
    return np.random.Generator(np.random.Philox(ss))


def gain_block(
    p: NakagamiParam,
    seed: int,
    first: int,
    count: int,
    width: int = 1,
    stream_id: int = 0,
) -> np.ndarray:
    """Rows [first, first+count) of the gain stream, each row `width` draws.

    Row i is a pure function of (seed, stream_id, width, i): draws come from
    Philox generators keyed per fixed-size chunk of CHUNK rows, so any
    partition of a range across workers reproduces the same values.  Each
    draw is Gamma(shape=m, scale=1/m); numpy's generator implements the
    squeeze/rejection sampler for m >= 1 and the uniform power boost for
    m < 1.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    m = p.m
    out = np.empty((count, width))
    if count == 0:
        return out
    last = first + count - 1
    for c in range(first // CHUNK, last // CHUNK + 1):
        rng = _chunk_rng(seed, stream_id, c)
        lo = max(first, c * CHUNK)
        hi = min(first + count, (c + 1) * CHUNK)
        # The generator fills rows in order from one stream, so drawing only
        # up to row hi gives the same rows as a full chunk; rows before lo
        # are still drawn because they advance the stream.
        vals = rng.gamma(shape=m, scale=1.0 / m, size=(hi - c * CHUNK, width))
        out[lo - first : hi - first] = vals[lo - c * CHUNK :]
    return out
