"""High-SNR behavior: Singleton bound, SNR exponents, and the coding-gain
constant of the outage lower bound.

The bound decays as K * SNR^(-m d_B(R)), where d_B is the Singleton bound
and K collects the SNR-free limit of the dominant mixture term:

    K = F_Ybar(BR - (B - d_B) M) C(B, B - d_B) (m (2^M-1))^(m d_B) / (m Gamma(m))^d_B

with Ybar a sum of d_B copies of the SNR-free limit law of A, whose cdf is
((2^xi - 1)/(2^M - 1))^m on [0, M].  Random codes with block length growing
like lambda * ln(SNR) achieve an exponent that saturates at m d_B(R) as
lambda grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound import DEFAULT_CELLS, ChannelSpec, TabulatedPmf, cdf_Y_at, convolve_power
from .fading import NakagamiParam
from .mutual_info import Snr

__all__ = [
    "BlockLengthScale",
    "singleton_bound",
    "optimal_exponent",
    "asymptotic_cdf_A",
    "coding_gain",
    "asymptote",
    "random_coding_exponent",
]

_LN2 = math.log(2.0)

# Rates where B(1 - R/M) is within this of an integer sit on a diversity
# discontinuity: the floor in d_B(R) must see the integer, not float fuzz.
_DISCONT_TOL = 1e-9


def _diversity_arg(B: int, M: int, R: float) -> float:
    """B(1 - R/M), snapped to integers within 1e-9 to absorb float fuzz."""
    v = B * (M - R) / M
    snapped = round(v)
    return float(snapped) if abs(v - snapped) < _DISCONT_TOL else v


def singleton_bound(B: int, M: int, R: float) -> int:
    """Maximum block diversity of rate-R codes: 1 + floor(B(1 - R/M))."""
    if B < 1 or M < 1:
        raise ValueError("B and M must be positive integers")
    if not (0.0 < R <= M):
        raise ValueError(f"rate must lie in (0, M={M}], got {R}")
    return 1 + int(math.floor(_diversity_arg(B, M, R)))


@dataclass(frozen=True)
class BlockLengthScale:
    """Block-length growth rate lambda = lim L(SNR)/ln(SNR), lambda >= 0."""

    lam: float

    def __post_init__(self) -> None:
        if not (self.lam >= 0):
            raise ValueError(f"block-length scale must be >= 0, got {self.lam}")


def optimal_exponent(spec: ChannelSpec) -> float:
    """Optimal SNR exponent m d_B(R) of the outage probability."""
    return spec.fading.m * singleton_bound(spec.B, spec.M, spec.rate)


def asymptotic_cdf_A(xi, M: int, m: NakagamiParam):
    """SNR-free limit cdf of A: ((2^xi - 1)/(2^M - 1))^m on [0, M]."""
    arr = np.asarray(xi, dtype=float)
    out = np.zeros_like(arr)
    mid = (arr > 0) & (arr < M)
    out[mid] = ((2.0 ** arr[mid] - 1.0) / (2.0**M - 1.0)) ** m.m
    out[arr >= M] = 1.0
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(xi) else out


def coding_gain(spec: ChannelSpec, n_cells: int = DEFAULT_CELLS) -> float:
    """SNR-free prefactor K of the bound's power-law decay.

    Convolves the limit pmf of A d_B(R) times (the dominant mixture term
    keeps d_B below-cap blocks), evaluates its cdf at BR - (B - d_B) M, and
    multiplies the closed-form constants in log space.
    """
    B, M, R, m = spec.B, spec.M, spec.rate, spec.fading.m
    d = singleton_bound(B, M, R)
    pmf = TabulatedPmf.from_cdf(lambda xi: asymptotic_cdf_A(xi, M, spec.fading), M, n_cells)
    f_y = cdf_Y_at(convolve_power(pmf, d), B * R - (B - d) * M)
    log_k = (
        math.lgamma(B + 1)
        - math.lgamma(B - d + 1)
        - math.lgamma(d + 1)
        + m * d * math.log(m * (2.0**M - 1.0))
        - d * (math.log(m) + math.lgamma(m))
    )
    return f_y * math.exp(log_k)


def asymptote(snr: Snr, spec: ChannelSpec, n_cells: int = DEFAULT_CELLS) -> float:
    """High-SNR power law K * rho^(-m d_B(R)) of the outage lower bound."""
    if snr.rho <= 0:
        raise ValueError("asymptote requires rho > 0")
    return coding_gain(spec, n_cells) * snr.rho ** -optimal_exponent(spec)


def random_coding_exponent(spec: ChannelSpec, scale: BlockLengthScale) -> float:
    """Achievable SNR exponent of random codes with L(SNR) ~ lambda ln SNR.

    Below lambda = m/(M ln 2) the exponent is block-length limited at
    lambda B M ln2 (1 - R/M); above it, the fading statistics limit all but
    the fractional part of B(1 - R/M).  (Natural-log convention for the
    block-length scale.)
    """
    B, M, R, m = spec.B, spec.M, spec.rate, spec.fading.m
    if not (0.0 < R <= M):
        raise ValueError(f"rate must lie in (0, M={M}], got {R}")
    lam = scale.lam
    v = _diversity_arg(B, M, R)
    d = 1 + int(math.floor(v))
    if lam * M * _LN2 < m:
        return lam * B * M * _LN2 * (1.0 - R / M)
    return m * (d - 1) + min(m, lam * M * _LN2 * (v - d + 1))

