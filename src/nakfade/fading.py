"""Nakagami-m fading statistics.

The fading power gain gamma = |h|^2 of a Nakagami-m channel is
Gamma-distributed with shape m and scale 1/m (unit mean).  This module
provides the incomplete-gamma machinery behind its pdf/cdf, plus a
counter-based seeded block sampler whose draws are reproducible independent
of how the sample range is partitioned across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NakagamiParam",
    "reg_gamma_p",
    "reg_gamma_pq",
    "gain_pdf",
    "gain_cdf",
    "gain_block",
    "rician_k_to_m",
]

# Iteration control for the series / continued-fraction evaluations.
_TERM_EPS = 1e-15
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

    Valid (and fast) for x < a + 1.  Vectorized over x; terms are iterated
    until the largest term-to-sum ratio drops below 1e-15.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    if not pos.any():
        return out
    xp = x[pos]
    ap = a
    term = np.full_like(xp, 1.0 / a)
    total = term.copy()
    for _ in range(_MAX_ITER):
        ap += 1.0
        term = term * (xp / ap)
        total += term
        if np.max(term / total) < _TERM_EPS:
            break
    else:
        raise ArithmeticError(f"incomplete gamma series failed to converge (a={a})")
    out[pos] = total * np.exp(-xp + a * np.log(xp) - math.lgamma(a))
    return out


def _reg_q_contfrac(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized upper incomplete gamma Q(a, x) by Lentz continued fraction.

    Valid for x >= a + 1, where the fraction converges in a few dozen terms.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return np.zeros_like(x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / np.where(np.abs(b) < tiny, tiny, b)
    h = d.copy()
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.max(np.abs(delta - 1.0)) < _TERM_EPS:
            break
    else:
        raise ArithmeticError(f"incomplete gamma continued fraction failed to converge (a={a})")
    return np.exp(-x + a * np.log(x) - math.lgamma(a)) * h


def reg_gamma_pq(a: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(P(a,x), Q(a,x)) with full relative accuracy in whichever is small.

    The series evaluates P directly for x < a+1 and the continued fraction
    evaluates Q for x >= a+1, so the small tail never comes from a
    1 - (1 - tiny) subtraction.
    """
    arr = np.asarray(x, dtype=float)
    if a <= 0:
        raise ValueError(f"incomplete gamma requires a > 0, got a={a}")
    if np.any(arr < 0):
        raise ValueError("incomplete gamma requires x >= 0")
    p = np.empty_like(arr)
    q = np.empty_like(arr)
    lo = arr < a + 1.0
    if lo.any():
        ps = _reg_p_series(a, arr[lo])
        p[lo] = ps
        q[lo] = 1.0 - ps
    hi = ~lo
    if hi.any():
        qc = _reg_q_contfrac(a, arr[hi])
        q[hi] = qc
        p[hi] = 1.0 - qc
    return p, q


def reg_gamma_p(a: float, x):
    """Regularized lower incomplete gamma P(a, x) = 1 - Gamma(a,x)/Gamma(a)."""
    p, _ = reg_gamma_pq(a, x)
    return float(p) if np.isscalar(x) else p


def gain_pdf(xi, p: NakagamiParam):
    """Pdf of the fading power gain: m^m xi^(m-1) e^(-m xi) / Gamma(m).

    For m < 1 the density diverges at xi = 0; the singularity is integrable
    and this returns +inf there.  Callers that need probabilities near zero
    should integrate the cdf instead of point-evaluating (see the pmf
    construction in the bound module).
    """
    m = p.m
    arr = np.asarray(xi, dtype=float)
    out = np.zeros_like(arr)
    pos = arr > 0
    xp = arr[pos]
    out[pos] = np.exp(m * math.log(m) + (m - 1.0) * np.log(xp) - m * xp - math.lgamma(m))
    at_zero = arr == 0
    if at_zero.any():
        if m < 1:
            out[at_zero] = np.inf
        elif m == 1:
            out[at_zero] = 1.0
    return float(out) if np.isscalar(xi) else out


def gain_cdf(xi, p: NakagamiParam):
    """Cdf of the fading power gain: 1 - Gamma(m, m xi)/Gamma(m) for xi >= 0.

    Computed through the regularized P(m, m xi), so it stays accurate in the
    deep lower tail (no 1 - (1 - tiny) cancellation).
    """
    m = p.m
    arr = np.asarray(xi, dtype=float)
    out = np.zeros_like(arr)
    pos = arr > 0
    if pos.any():
        out[pos] = reg_gamma_p(m, m * arr[pos])
    return float(out) if np.isscalar(xi) else out


def rician_k_to_m(k: float) -> NakagamiParam:
    """Nakagami shape approximating Rician fading with factor K: m = (K+1)^2/(2K+1)."""
    if not (k >= 0):
        raise ValueError(f"Rician K factor must be >= 0, got {k}")
    return NakagamiParam((k + 1.0) ** 2 / (2.0 * k + 1.0))


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
