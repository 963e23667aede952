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

from .bound import DEFAULT_CELLS, ChannelSpec, _cell_edges, build_pmf_A, cdf_Y_at, convolve_power, diversity_arg, log_binomial, singleton_bound
from .mutual_info import Snr

__all__ = [
    "BlockLengthScale",
    "singleton_bound",
    "optimal_exponent",
    "coding_gain",
    "power_law",
    "asymptote",
    "random_coding_exponent",
]

_LN2 = math.log(2.0)


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


def coding_gain(spec: ChannelSpec, n_cells: int = DEFAULT_CELLS) -> float:
    """SNR-free prefactor K of the bound's power-law decay.

    Convolves A's limit pmf, which build_pmf_A tabulates as it does the
    bound's law, d_B(R) times (the dominant mixture term keeps d_B below-cap
    blocks), evaluates its cdf at BR - (B - d_B) M, and multiplies the
    closed-form constants in log space.
    """
    B, M, R, m = spec.B, spec.M, spec.rate, spec.fading.m
    d = singleton_bound(B, M, R)
    edges = _cell_edges(M, n_cells)
    pmf = build_pmf_A(((2.0**edges - 1.0) / (2.0**M - 1.0)) ** m, M)
    f_y = cdf_Y_at(convolve_power(pmf, d), B * R - (B - d) * M)
    log_k = log_binomial(B)[B - d] + m * d * math.log(m * (2.0**M - 1.0)) - d * (math.log(m) + math.lgamma(m))
    try:
        return f_y * math.exp(log_k)
    except OverflowError:
        log10_factor = log_k / math.log(10.0)
        log10_k = math.log10(f_y) + log10_factor if f_y > 0 else -math.inf
        raise ArithmeticError(f"coding gain K overflows a float: log10 K = {log10_k:.6g} (cdf {f_y:.6g} times 10^{log10_factor:.6g})") from None


def power_law(gain: float, exponent: float, snr: Snr) -> float:
    """gain * rho^-exponent, raising ArithmeticError where it overflows a float.

    At low SNR the product, or rho^-exponent alone, leaves the float range;
    the error names the SNR and log10 of the value.
    """
    try:
        value = gain * snr.rho**-exponent
    except OverflowError:
        value = math.inf if gain > 0 else 0.0
    if value == math.inf:
        log10_value = math.log10(gain) - exponent * math.log10(snr.rho)
        raise ArithmeticError(f"asymptote overflows a float at snr_db {snr.db:.6g}: log10 asymptote = {log10_value:.6g}")
    return value


def asymptote(snr: Snr, spec: ChannelSpec, n_cells: int = DEFAULT_CELLS) -> float:
    """High-SNR power law K * rho^(-m d_B(R)) of the outage lower bound."""
    if snr.rho <= 0:
        raise ValueError("asymptote requires rho > 0")
    return power_law(coding_gain(spec, n_cells), optimal_exponent(spec), snr)


def random_coding_exponent(spec: ChannelSpec, scale: BlockLengthScale) -> float:
    """Achievable SNR exponent of random codes with L(SNR) ~ lambda ln SNR.

    Below lambda = m/(M ln 2) the exponent is block-length limited at
    lambda B M ln2 (1 - R/M); above it, the fading statistics limit all but
    the fractional part of B(1 - R/M).  (Natural-log convention for the
    block-length scale.)
    """
    B, M, R, m = spec.B, spec.M, spec.rate, spec.fading.m
    d = singleton_bound(B, M, R)
    lam = scale.lam
    if lam * M * _LN2 < m:
        return lam * B * M * _LN2 * (1.0 - R / M)
    return m * (d - 1) + min(m, lam * M * _LN2 * (diversity_arg(B, M, R) - d + 1))

