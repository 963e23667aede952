"""High-SNR behavior: Singleton bound, SNR exponents, and the coding-gain
constant of the outage lower bound.

The bound decays as K * SNR^(-m d_B(R)), where d_B is the Singleton bound
and K is the SNR-free limit of the bound's dominant capped-count term, the
one with B - d_B blocks at the cap: bound._by_capped_count at t = B - d_B on
A's limit law, whose cdf is ((2^xi - 1)/(2^M - 1))^m on [0, M], log p = 0
and log q = m ln(m (2^M - 1)) - ln Gamma(m + 1), the limit of q SNR^m.
K and every asymptote leave log space through bound.exp_checked.  Random
codes with block length growing like lambda * ln(SNR) achieve an exponent
that saturates at m d_B(R) as lambda grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._checks import integer, real, require
from .bound import DEFAULT_CELLS, ChannelSpec, _by_capped_count, _cell_edges, build_pmf_A, exp_checked
# Unused here: bench/tracing.py patches asymptotics.convolve_power and asymptotics.cdf_Y_at; ROADMAP item 19's tracer half drops them.
from .bound import cdf_Y_at, convolve_power
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

# Rates where B(1 - R/M) is within this of an integer sit on a diversity
# discontinuity: the floor in d_B(R) must see the integer, not float fuzz.
_DISCONT_TOL = 1e-9


def diversity_arg(B: int, M: int, R: float) -> float:
    """B(1 - R/M), snapped to integers within 1e-9 to absorb float fuzz."""
    v = B * (M - R) / M
    snapped = round(v)
    return float(snapped) if abs(v - snapped) < _DISCONT_TOL else v


def singleton_bound(B: int, M: int, R: float) -> int:
    """Maximum block diversity of rate-R codes: 1 + floor(B(1 - R/M)).

    R > 0, so the diversity is at most B even where the snap lifts a
    B(1 - R/M) just below B to B itself.
    """
    B, M = require("B", B, integer, least=1), require("M", M, integer, least=1)
    R = require("R", R, real, above=0, most=M)
    return min(B, 1 + int(math.floor(diversity_arg(B, M, R))))


@dataclass(frozen=True)
class BlockLengthScale:
    """Block-length growth rate lambda = lim L(SNR)/ln(SNR), lambda >= 0."""

    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", require("block-length scale lam", self.lam, real, least=0))


def optimal_exponent(spec: ChannelSpec) -> float:
    """Optimal SNR exponent m d_B(R) of the outage probability."""
    return spec.fading.m * singleton_bound(spec.B, spec.M, spec.rate)


def coding_gain(spec: ChannelSpec, n_cells: int = DEFAULT_CELLS) -> float:
    """SNR-free prefactor K of the bound's power-law decay: its capped-count
    sum at the one count t = B - d_B(R), on A's limit law tabulated by build_pmf_A.
    K is exactly 0 only where no d-fold sum of the lattice reaches the read;
    a zero read above that, or a K outside the normal floats, is an ArithmeticError.
    """
    B, M, R, m = spec.B, spec.M, spec.rate, spec.fading.m
    d = singleton_bound(B, M, R)
    pmf = build_pmf_A(((2.0 ** _cell_edges(M, n_cells) - 1.0) / (2.0**M - 1.0)) ** m, M)
    log_k = _by_capped_count(pmf, 0.0, m * math.log(m * (2.0**M - 1.0)) - math.lgamma(m + 1), B, [B - d], B * R, M)
    # The read at x = BR - (B - d) M sees a d-fold sum, d h/2 or more, above (d - 1) h/2: only underflow zeroes it.
    if log_k == -math.inf and B * R - (B - d) * M > (d - 1) * pmf.grid_step / 2:
        raise ArithmeticError(f"coding gain K cannot be computed: the limit law's cell masses underflow a float at m = {m:g}")
    return exp_checked(log_k, "coding gain K")


def power_law(gain: float, exponent: float, snr: Snr) -> float:
    """gain * rho^-exponent, formed in log space, never from rho^-exponent alone;
    outside the normal floats, ArithmeticError names the SNR and log10 of the value."""
    gain, exponent = require("gain", gain, real, least=0), require("exponent", exponent, real)
    return exp_checked((math.log(gain) if gain else -math.inf) - exponent * math.log(snr.rho), "asymptote", f" at snr_db {snr.db:.6g}")


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

