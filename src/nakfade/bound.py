"""Analytical lower bound on the outage probability of a block-fading channel.

Capping the per-block mutual information at min{M, log2(1 + gamma SNR)}
splits the B blocks into those above the cap (a binomial count with success
rate p) and those below, whose capped rates are i.i.d. copies of a variable
A on [0, M].  The bound is a binomial mixture of cdf values of sums of A,
and each sum's distribution comes from FFT self-convolution of A's
tabulated cell masses:

    P_out_lower = sum_{t=0}^{ceil(BR/M)-1} F_{Y_t}(BR - tM) C(B,t) p^t (1-p)^(B-t)

with Y_t the sum of B - t copies of A.  Only p and A's law depend on the
SNR, so outage_lower_bounds evaluates a whole rate grid at one SNR from a
single pmf: each Y_t is convolved once and read at every rate that needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fading import NakagamiParam, reg_gamma_p, reg_gamma_pq
from .mutual_info import Snr

__all__ = [
    "ChannelSpec",
    "TabulatedPmf",
    "BinomialMixture",
    "BoundResult",
    "DEFAULT_CELLS",
    "success_rate",
    "conditional_cdf_A",
    "build_pmf_A",
    "convolve_power",
    "cdf_Y_at",
    "outage_lower_bound",
    "outage_lower_bounds",
]

# Grid cells over [0, M]; doubling this moves acceptance-grid bound values
# by well under 1e-4 relative.
DEFAULT_CELLS = 4096


@dataclass(frozen=True)
class ChannelSpec:
    """Problem instance: B fading blocks, 2^M-ary input, shape m, rate R."""

    B: int
    M: int
    fading: NakagamiParam
    rate: float

    def __post_init__(self) -> None:
        if self.B < 1:
            raise ValueError(f"need at least one fading block, got B={self.B}")
        if self.M < 1:
            raise ValueError(f"need at least one bit per symbol, got M={self.M}")
        if not (0.0 < self.rate <= self.M):
            raise ValueError(f"rate must lie in (0, M={self.M}], got {self.rate}")


@dataclass(frozen=True, eq=False)
class TabulatedPmf:
    """Cell masses of a continuous variable on a uniform grid.

    Cell k holds the probability of [origin + k*step, origin + (k+1)*step).
    Freshly built pmfs start at origin = 0; convolution outputs carry the
    half-cell alignment offset (see convolve_power).  The masses must not
    change after construction: their forward FFTs are cached per size.
    """

    grid_step: float
    masses: np.ndarray
    origin: float = 0.0
    _spectra: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", masses)
        if self.grid_step <= 0:
            raise ValueError(f"grid step must be positive, got {self.grid_step}")
        if masses.ndim != 1 or masses.size < 1:
            raise ValueError("masses must be a nonempty 1-D array")
        if masses.min() < 0:
            raise ValueError("cell masses must be nonnegative")
        if abs(masses.sum() - 1.0) > 1e-9:
            raise ValueError(f"cell masses must sum to 1, got {masses.sum()!r}")

    @classmethod
    def from_cdf(cls, cdf, top: float, n_cells: int) -> "TabulatedPmf":
        """Cell masses on [0, top] as differences of cdf at the n_cells + 1 cell edges.

        Per-cell probabilities are exact, so a density that blows up at an
        edge (gamma^(m-1) at zero for m < 1) never gets point-evaluated.
        """
        if n_cells < 2:
            raise ValueError(f"need at least 2 cells, got {n_cells}")
        grid = np.linspace(0.0, float(top), n_cells + 1)
        return cls(top / n_cells, np.diff(cdf(grid)))

    @property
    def n_cells(self) -> int:
        return self.masses.size

    def spectrum(self, size: int) -> np.ndarray:
        """rfft of the masses zero-padded to size, computed once per size.

        Threads sharing a pmf may both compute a missing size; they store
        the same array, so neither result is lost or wrong.
        """
        freq = self._spectra.get(size)
        if freq is None:
            freq = np.fft.rfft(self.masses, size)
            freq.flags.writeable = False
            self._spectra[size] = freq
        return freq


@dataclass(frozen=True, eq=False)
class BinomialMixture:
    """Binomial(B, p) weights used to mix the conditional-sum cdf values."""

    success_rate: float
    B: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not (0.0 <= self.success_rate <= 1.0):
            raise ValueError(f"success rate must be in [0, 1], got {self.success_rate}")
        if w.shape != (self.B + 1,) or w.min() < 0 or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be B+1 nonnegative values summing to 1")

    @classmethod
    def from_rates(cls, p: float, B: int, one_minus_p: float | None = None) -> "BinomialMixture":
        """Weights C(B,t) p^t (1-p)^(B-t).

        Passing 1-p explicitly preserves relative accuracy at high SNR,
        where p is within rounding of 1.  Coefficients go through log-gamma
        so large B cannot overflow.
        """
        q = 1.0 - p if one_minus_p is None else one_minus_p
        t = np.arange(B + 1)
        logw = math.lgamma(B + 1) - np.array([math.lgamma(i + 1) + math.lgamma(B - i + 1) for i in t])
        if p > 0:
            logw = logw + t * math.log(p)
        else:
            logw[1:] = -np.inf
        if q > 0:
            logw = logw + (B - t) * math.log(q)
        else:
            logw[:-1] = -np.inf
        return cls(p, B, np.exp(logw))


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Bound value plus its per-term decomposition (t, F_Yt, weight, product)."""

    value: float
    per_term: list

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"bound value must be in [0, 1], got {self.value}")


def _success_rate_pair(snr: Snr, spec: ChannelSpec) -> tuple[float, float]:
    """(p, 1-p) for the cap-exceeded event, each with full relative accuracy."""
    if snr.rho <= 0:
        raise ValueError("success rate requires rho > 0")
    m = spec.fading.m
    x = m * (2.0**spec.M - 1.0) / snr.rho
    q_low, p_hi = reg_gamma_pq(m, x)  # regularized lower, upper
    return float(p_hi), float(q_low)


def success_rate(snr: Snr, spec: ChannelSpec) -> float:
    """p = Pr(gamma > (2^M - 1)/SNR) = Gamma(m, m (2^M-1)/rho) / Gamma(m)."""
    return _success_rate_pair(snr, spec)[0]


def conditional_cdf_A(xi, snr: Snr, spec: ChannelSpec):
    """Cdf of A = log2(1 + gamma SNR) given gamma <= (2^M - 1)/SNR.

    Equals F_gamma((2^xi - 1)/SNR) / F_gamma((2^M - 1)/SNR) on (0, M],
    0 below and 1 above.  Both factors are regularized lower incomplete
    gammas, so the ratio keeps full relative accuracy at high SNR.
    """
    return _conditional_cdf_A(xi, snr, spec, None)


def _conditional_cdf_A(xi, snr: Snr, spec: ChannelSpec, den: float | None):
    """conditional_cdf_A, with den = F_gamma((2^M - 1)/SNR) if the caller has it."""
    if snr.rho <= 0:
        raise ValueError("conditional cdf requires rho > 0")
    m = spec.fading.m
    M = spec.M
    arr = np.asarray(xi, dtype=float)
    if den is None:
        den = reg_gamma_p(m, m * (2.0**M - 1.0) / snr.rho)
    if den <= 0.0:
        raise ArithmeticError("conditioning probability underflowed; SNR too large for this grid")
    out = np.zeros_like(arr)
    mid = (arr > 0) & (arr < M)
    if mid.any():
        out[mid] = reg_gamma_p(m, m * (2.0 ** arr[mid] - 1.0) / snr.rho) / den
    out[arr >= M] = 1.0
    out = np.minimum(out, 1.0)
    return float(out) if np.isscalar(xi) else out


def build_pmf_A(
    snr: Snr, spec: ChannelSpec, n_cells: int = DEFAULT_CELLS, *, _den: float | None = None
) -> TabulatedPmf:
    """Tabulate A's cell masses on [0, M] as cdf differences.

    outage_lower_bounds passes the conditioning probability it already
    computed as _den, the same value conditional_cdf_A would compute.
    """
    return TabulatedPmf.from_cdf(lambda grid: _conditional_cdf_A(grid, snr, spec, _den), spec.M, n_cells)


def convolve_power(pmf: TabulatedPmf, n: int) -> TabulatedPmf:
    """Distribution of the sum of n independent copies, by zero-padded FFT.

    The mass sequence is self-convolved to length n(N-1)+1 at the same
    step.  Cell masses represent left-edge-quantized values, so the output
    support is shifted by (n-1)/2 cells to keep cell midpoints aligned with
    the sum of input-cell midpoints; tiny negative FFT residue (>= -1e-12)
    is clamped and the masses renormalized.
    """
    if n < 1:
        raise ValueError(f"convolution power must be >= 1, got {n}")
    if n == 1:
        return pmf
    masses = pmf.masses
    N = masses.size
    out_len = n * (N - 1) + 1
    size = 1 << (n * N - 1).bit_length()
    out = np.fft.irfft(pmf.spectrum(size) ** n, size)[:out_len]
    if out.min() < -1e-12:
        raise ArithmeticError(f"FFT convolution produced mass {out.min()} below tolerance")
    out = np.maximum(out, 0.0)
    out /= out.sum()
    origin = n * pmf.origin + (n - 1) * pmf.grid_step / 2.0
    return TabulatedPmf(pmf.grid_step, out, origin)


def cdf_Y_at(pmf: TabulatedPmf, x: float) -> float:
    """Piecewise-linear cdf of a tabulated pmf at x.

    Full cells below x count whole; the straddling cell contributes its
    linear fraction (the tabulated variable is continuous, so a step cdf
    would bias threshold evaluations by O(step)).
    """
    rel = (x - pmf.origin) / pmf.grid_step
    if rel <= 0.0 or x <= 0.0:
        return 0.0
    if rel >= pmf.n_cells:
        return 1.0
    j = int(rel)
    frac = rel - j
    return float(pmf.masses[:j].sum() + pmf.masses[j] * frac)


def threshold_terms(spec: ChannelSpec) -> int:
    """Number of nonzero terms in the bound: ceil(BR/M)."""
    return int(math.ceil(spec.B * spec.rate / spec.M - 1e-12))


def outage_lower_bounds(
    snr: Snr, B: int, M: int, fading: NakagamiParam, rates, n_cells: int = DEFAULT_CELLS
) -> list[BoundResult]:
    """Evaluate the outage lower bound at one SNR point for every rate.

    p, the binomial weights and pmf_A do not depend on the rate, so they are
    built once.  The loop runs over the mixture terms: Y_{B-t} is convolved
    once, read at every rate that still has a term t, and dropped before the
    next power.  Terms with t >= ceil(BR/M) have BR - tM <= 0 and vanish
    because A is positive, so each rate stops at ceil(BR/M) - 1.  Every rate
    sums its terms in ascending t, so a value does not depend on which other
    rates share the call.
    """
    specs = [ChannelSpec(B, M, fading, r) for r in rates]
    if not specs:
        return []
    p, q = _success_rate_pair(snr, specs[0])
    mix = BinomialMixture.from_rates(p, B, one_minus_p=q)
    pmf_a = build_pmf_A(snr, specs[0], n_cells, _den=q)
    n_terms = [threshold_terms(s) for s in specs]
    per_term = [[] for _ in specs]
    totals = [0.0] * len(specs)
    for t in range(max(n_terms)):
        pmf_y = convolve_power(pmf_a, B - t)
        weight = float(mix.weights[t])
        for i, s in enumerate(specs):
            if t < n_terms[i]:
                f_y = cdf_Y_at(pmf_y, B * s.rate - t * M)
                product = f_y * weight
                per_term[i].append((t, f_y, weight, product))
                totals[i] += product
        del pmf_y
    results = []
    for total, terms in zip(totals, per_term):
        if not math.isfinite(total):
            raise ArithmeticError("outage bound evaluated to a non-finite value")
        results.append(BoundResult(min(max(total, 0.0), 1.0), terms))
    return results


def outage_lower_bound(snr: Snr, spec: ChannelSpec, n_cells: int = DEFAULT_CELLS) -> BoundResult:
    """Evaluate the outage lower bound at one SNR point and one rate."""
    return outage_lower_bounds(snr, spec.B, spec.M, spec.fading, [spec.rate], n_cells)[0]
