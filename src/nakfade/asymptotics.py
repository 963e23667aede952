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
import sys

from ._checks import integer, real, require
from .bound import DEFAULT_CELLS, ChannelSpec, _by_capped_count, _cell_edges, _zero_read, build_pmf_A, exp_checked
# Unused here: bench/tracing.py patches asymptotics.convolve_power and asymptotics.cdf_Y_at; ROADMAP item 19's tracer half drops them.
from .bound import cdf_Y_at, convolve_power
from .mutual_info import Snr

__all__ = [
    "singleton_bound",
    "optimal_exponent",
    "coding_gain",
    "asymptotes",
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


def optimal_exponent(spec: ChannelSpec) -> float:
    """Optimal SNR exponent m d_B(R) of the outage probability."""
    return spec.fading.m * singleton_bound(spec.B, spec.M, spec.rate)


def coding_gain(spec: ChannelSpec, n_cells: int = DEFAULT_CELLS) -> float:
    """SNR-free prefactor K of the bound's power-law decay: its capped-count
    sum at the one count t = B - d_B(R), on A's limit law tabulated by build_pmf_A.
    A zero read, a K outside the normal floats or a 2^M past them is an ArithmeticError.
    """
    B, M, R, m = spec.B, spec.M, spec.rate, spec.fading.m
    if M >= sys.float_info.max_exp:
        raise ArithmeticError(f"coding gain K cannot be computed at M = {M}: 2^M overflows a float")
    d = singleton_bound(B, M, R)
    pmf = build_pmf_A(((2.0 ** _cell_edges(M, n_cells) - 1.0) / (2.0**M - 1.0)) ** m, M)
    log_q = m * math.log(m * (2.0**M - 1.0)) - math.lgamma(m + 1)
    log_k = _by_capped_count(pmf, 0.0, log_q, B, [B - d], B * R, M, "coding gain K", f" at rate {R:.6g}")
    if log_k == -math.inf:
        underflow = f"coding gain K cannot be computed: the limit law's cell masses underflow a float at m = {m:g}"
        raise _zero_read(pmf, d, B * R - (B - d) * M, "coding gain K", f" at rate {R:.6g}", underflow)
    return exp_checked(log_k, "coding gain K")


def asymptotes(snrs: list[Snr], spec: ChannelSpec, n_cells: int = DEFAULT_CELLS) -> list[float]:
    """High-SNR power law K * rho^(-m d_B(R)) of the outage lower bound at each SNR.

    Any rho <= 0 is refused before K is computed, and K is computed once for
    the grid.  Each value is formed in log space, never from rho^(-m d_B(R))
    alone; outside the normal floats, ArithmeticError names the SNR and
    log10 of the value.
    """
    if any(snr.rho <= 0 for snr in snrs):
        raise ValueError("asymptote requires rho > 0")
    log_gain, exponent = math.log(coding_gain(spec, n_cells)), optimal_exponent(spec)
    return [exp_checked(log_gain - exponent * math.log(snr.rho), "asymptote", f" at snr_db {snr.db:.6g}") for snr in snrs]


def random_coding_exponent(spec: ChannelSpec, lam: float) -> float:
    """Achievable SNR exponent of random codes with L(SNR) ~ lam ln SNR, lam >= 0.

    Below lambda = m/(M ln 2) the exponent is block-length limited at
    lambda B M ln2 (1 - R/M); above it, the fading statistics limit all but
    the fractional part of B(1 - R/M).  (Natural-log convention for the
    block-length scale.)
    """
    B, M, R, m = spec.B, spec.M, spec.rate, spec.fading.m
    lam = require("block-length scale lam", lam, real, least=0)
    d = singleton_bound(B, M, R)
    if lam * M * _LN2 < m:
        return lam * B * M * _LN2 * (1.0 - R / M)
    return m * (d - 1) + min(m, lam * M * _LN2 * (diversity_arg(B, M, R) - d + 1))

