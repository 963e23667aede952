"""Analytical lower bound on the outage probability of a block-fading channel.

Capping the per-block mutual information at min{M, log2(1 + gamma SNR)}
splits the B blocks into those above the cap (a binomial count with success
rate p) and those below, whose capped rates are i.i.d. copies of a variable
A on [0, M].  The bound is a binomial mixture of cdf values of sums of A,
and each sum's distribution comes from FFT self-convolution of A's
tabulated cell masses:

    P_out_lower = sum_{t=0}^{ceil(BR/M)-1} F_{Y_t}(BR - tM) C(B,t) p^t (1-p)^(B-t)

with Y_t the sum of B - t copies of A.  Only p and A's law depend on the
SNR.  outage_lower_bounds, the one evaluator, tabulates its SNRs in blocks,
one incomplete-gamma call per block that also gives p and 1 - p, and
evaluates the whole rate grid at each SNR from that SNR's single pmf: each
Y_t is convolved once and read at every rate that needs it, in one
ConvolutionWorkspace that holds the SNR's buffers and, for one FFT size at a
time, the pmf's spectrum and its repeated squarings.  A power's spectrum is
the product of the squarings for the set bits of its exponent.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Nothing here calls reg_gamma_p: bench/tracing.py wraps bound.reg_gamma_p, and ROADMAP item 8 drops both.
from .fading import NakagamiParam, reg_gamma_p, reg_gamma_pq
from .mutual_info import Snr

__all__ = [
    "ChannelSpec",
    "TabulatedPmf",
    "ConvolutionWorkspace",
    "BoundResult",
    "DEFAULT_CELLS",
    "binomial_weights",
    "build_pmf_A",
    "tabulate_A",
    "convolve_power",
    "cdf_Y_at",
    "outage_lower_bound",
    "outage_lower_bounds",
]

# Grid cells over [0, M]; doubling this moves acceptance-grid bound values
# by well under 1e-4 relative.
DEFAULT_CELLS = 4096

# Grid points per incomplete-gamma call when tabulating A: 4 SNRs at the
# default cells.  Blocks of 8 to 256 SNRs were no faster and held more
# memory; one SNR per call was about 20% slower on bound-curve.
_BLOCK_POINTS = 1 << 14


@dataclass(frozen=True)
class ChannelSpec:
    """Problem instance: B fading blocks, 2^M-ary input, shape m, rate R."""

    B: int
    M: int
    fading: NakagamiParam
    rate: float

    def __post_init__(self) -> None:
        for name in ("B", "M"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
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
    half-cell alignment offset (see convolve_power).  A pmf does not change
    its masses; one that convolve_power returns through a caller's
    ConvolutionWorkspace wraps a view of the workspace's buffer, which the
    next power on that workspace overwrites.
    """

    grid_step: float
    masses: np.ndarray
    origin: float = 0.0

    def __post_init__(self) -> None:
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", masses)
        if not (0 < self.grid_step < math.inf):
            raise ValueError(f"grid step must be positive and finite, got {self.grid_step}")
        if masses.ndim != 1 or masses.size < 1:
            raise ValueError("masses must be a nonempty 1-D array")
        # Written so that NaN fails them too.
        if not (masses.min() >= 0):
            raise ValueError("cell masses must be nonnegative")
        total = masses.sum()
        if not (abs(total - 1.0) <= 1e-9):
            raise ValueError(f"cell masses must sum to 1, got {total!r}")

    @property
    def n_cells(self) -> int:
        return self.masses.size


class ConvolutionWorkspace:
    """Scratch space for the convolution powers of one pmf.

    Holds, for the FFT size asked for last, the pmf's rfft at that size and
    its repeated squarings spec, spec^2, spec^4, ..., built as far as the
    powers asked for need; a new size replaces them, since the evaluator
    asks for sizes in descending order.  At B = 32 and 4096 cells the ladder
    of the largest size is six spectra of 65 537 bins, about 6 MB.  One
    complex and one real buffer grow to the largest size asked for, so a run
    of powers allocates no per-power arrays.  It belongs to one evaluation
    and is not shared between threads.
    """

    def __init__(self, pmf: TabulatedPmf) -> None:
        self.pmf = pmf
        self._size = 0
        self._ladder: list[np.ndarray] = []
        self._freq = np.empty(0, dtype=complex)
        self._real = np.empty(0)

    def squarings(self, size: int, count: int) -> list[np.ndarray]:
        """spec^(2^k) for k = 0..count-1, spec the rfft of the masses zero-padded to size.

        The rfft is computed once per size, and each squaring once per size
        and rung, so a value does not depend on the powers asked for before.
        """
        if size != self._size:
            spec = np.fft.rfft(self.pmf.masses, size)
            spec.flags.writeable = False
            self._size, self._ladder = size, [spec]
        while len(self._ladder) < count:
            square = np.square(self._ladder[-1])
            square.flags.writeable = False
            self._ladder.append(square)
        return self._ladder

    def buffers(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Complex (size // 2 + 1) and real (size) views of the two buffers."""
        if self._real.size < size:
            self._freq = np.empty(size // 2 + 1, dtype=complex)
            self._real = np.empty(size)
        return self._freq[: size // 2 + 1], self._real[:size]


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Bound value plus its per-term decomposition (t, F_Yt, weight, product)."""

    value: float
    per_term: list


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
    if B < 1 or M < 1:
        raise ValueError("B and M must be positive integers")
    if not (0.0 < R <= M):
        raise ValueError(f"rate must lie in (0, M={M}], got {R}")
    return min(B, 1 + int(math.floor(diversity_arg(B, M, R))))


def threshold_terms(spec: ChannelSpec) -> int:
    """Number of nonzero terms in the bound: ceil(BR/M) = B + 1 - d_B(R)."""
    return spec.B + 1 - singleton_bound(spec.B, spec.M, spec.rate)


def log_binomial(B: int) -> np.ndarray:
    """ln C(B, t) for t = 0..B, through log-gamma so large B cannot overflow."""
    return math.lgamma(B + 1) - np.array([math.lgamma(t + 1) + math.lgamma(B - t + 1) for t in range(B + 1)])


def binomial_weights(p: float, q: float, B: int) -> np.ndarray:
    """Binomial(B, p) weights C(B,t) p^t q^(B-t) for t = 0..B, with q = 1-p.

    q is passed apart from p so that it keeps its relative accuracy at high
    SNR, where p is within rounding of 1; the weights are formed in log space.
    """
    t = np.arange(B + 1)
    logw = log_binomial(B)
    if p > 0:
        logw = logw + t * math.log(p)
    else:
        logw[1:] = -np.inf
    if q > 0:
        logw = logw + (B - t) * math.log(q)
    else:
        logw[:-1] = -np.inf
    return np.exp(logw)


def _underflow(snr: Snr) -> ArithmeticError:
    return ArithmeticError(f"conditioning probability underflowed at snr_db {snr.db:.6g}; SNR too large for this grid")


def build_pmf_A(levels: np.ndarray, M: int) -> TabulatedPmf:
    """A's cell masses on [0, M] as differences of levels / levels[-1] at the cell edges.

    levels holds A's cdf, times a positive factor, at the interior edges xi
    of at least 2 cells and then at M: the bound's F_gamma((2^xi - 1)/SNR),
    or the coding gain's limit law ((2^xi - 1)/(2^M - 1))^m.  Per-cell
    probabilities are exact, so a density that blows up at 0 (m < 1) is
    never point-evaluated.
    """
    if levels.size < 2:
        raise ValueError(f"need at least 2 cells, got {levels.size}")
    cdf = np.empty(levels.size + 1)
    cdf[0] = 0.0
    np.minimum(levels[:-1] / levels[-1], 1.0, out=cdf[1:-1])
    cdf[-1] = 1.0
    return TabulatedPmf(M / levels.size, np.diff(cdf))


def _cell_edges(M: int, n_cells: int) -> np.ndarray:
    """The right edges of n_cells >= 2 equal cells over [0, M]: the interior edges, then M."""
    if n_cells < 2:
        raise ValueError(f"need at least 2 cells, got {n_cells}")
    return np.linspace(0.0, M, n_cells + 1)[1:]


def tabulate_A(snrs, spec: ChannelSpec, n_cells: int = DEFAULT_CELLS):
    """Yield (pmf_A, p, 1 - p) at each SNR, in order.

    The SNRs are tabulated in blocks of about _BLOCK_POINTS grid points, each
    by one reg_gamma_pq call over every SNR's interior cell edges and its cap
    m(2^M - 1)/rho.  The cap's (Q, P) is (p, 1 - p), each with full relative
    accuracy, and its P the conditioning probability.  A value of reg_gamma_pq
    depends only on its (a, x), so no result depends on the block.
    """
    snrs = list(snrs)
    if any(s.rho <= 0 for s in snrs):
        raise ValueError("tabulating A requires rho > 0")
    m = spec.fading.m
    # At an SNR so small that the argument overflows, inf is its right
    # limit: P(m, inf) = 1.
    with np.errstate(over="ignore"):
        scaled = m * (2.0 ** _cell_edges(spec.M, n_cells) - 1.0)
    per_block = max(1, _BLOCK_POINTS // n_cells)
    for first in range(0, len(snrs), per_block):
        block = snrs[first : first + per_block]
        with np.errstate(over="ignore"):
            x = scaled / np.array([[s.rho] for s in block])
        levels, tails = reg_gamma_pq(m, x)
        for snr, level, tail in zip(block, levels, tails):
            if level[-1] <= 0.0:
                raise _underflow(snr)
            yield build_pmf_A(level, spec.M), float(tail[-1]), float(level[-1])


def convolve_power(pmf: TabulatedPmf, n: int, workspace: ConvolutionWorkspace | None = None) -> TabulatedPmf:
    """Distribution of the sum of n independent copies, by zero-padded FFT.

    The mass sequence is self-convolved to length n(N-1)+1 at the same
    step.  The spectrum's n-th power is the product, in ascending k, of the
    workspace's squarings spec^(2^k) for the set bits k of n: popcount(n) - 1
    multiplies into the complex buffer, on squarings shared by every power
    of the same FFT size.  Cell masses represent left-edge-quantized values,
    so the output support is shifted by (n-1)/2 cells to keep cell midpoints
    aligned with the sum of input-cell midpoints; tiny negative FFT residue
    (>= -1e-12) is clamped and the masses renormalized.

    The power runs in place in workspace, a ConvolutionWorkspace of pmf, and
    the result's masses are a view of its real buffer: valid until the next
    power on that workspace.  Without one, a fresh workspace is made and
    the result owns its masses.
    """
    if n < 1:
        raise ValueError(f"convolution power must be >= 1, got {n}")
    if n == 1:
        return pmf
    if workspace is None:
        workspace = ConvolutionWorkspace(pmf)
    elif workspace.pmf is not pmf:
        raise ValueError("workspace holds the spectra of another pmf")
    N = pmf.n_cells
    out_len = n * (N - 1) + 1
    size = 1 << (n * N - 1).bit_length()
    freq, real = workspace.buffers(size)
    power = None
    for k, rung in enumerate(workspace.squarings(size, n.bit_length())):
        if n >> k & 1:
            power = rung if power is None else np.multiply(power, rung, out=freq)
    out = np.fft.irfft(power, size, out=real)[:out_len]
    if out.min() < -1e-12:
        raise ArithmeticError(f"FFT convolution produced mass {out.min()} below tolerance")
    np.maximum(out, 0.0, out=out)
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


def outage_lower_bounds(
    snrs, B: int, M: int, fading: NakagamiParam, rates, n_cells: int = DEFAULT_CELLS
) -> list[list[BoundResult]]:
    """Evaluate the outage lower bound at every SNR for every rate: [snr][rate].

    tabulate_A gives each SNR's pmf_A, p and 1 - p, which do not depend on
    the rate.  At each SNR the loop runs over the mixture terms: Y_{B-t} is
    convolved once, in one ConvolutionWorkspace for the SNR (the squarings
    of pmf_A's spectrum at the current FFT size, and two buffers of the
    first, largest power's size), and read at every rate that still has a
    term t before the next power overwrites it.  Terms with t >= ceil(BR/M)
    have BR - tM <= 0 and vanish because A is positive, so each rate stops
    at t = B - d_B(R) (see threshold_terms).  Every rate sums its terms in ascending t, so a value
    depends neither on the other rates nor on the other SNRs of the call.
    """
    specs = [ChannelSpec(B, M, fading, r) for r in rates]
    if not specs:
        return [[] for _ in snrs]
    n_terms = [threshold_terms(s) for s in specs]
    out = []
    for pmf_a, p, q in tabulate_A(snrs, specs[0], n_cells):
        weights = binomial_weights(p, q, B)
        workspace = ConvolutionWorkspace(pmf_a)
        per_term = [[] for _ in specs]
        totals = [0.0] * len(specs)
        for t in range(max(n_terms)):
            pmf_y = convolve_power(pmf_a, B - t, workspace)
            weight = float(weights[t])
            for i, s in enumerate(specs):
                if t < n_terms[i]:
                    f_y = cdf_Y_at(pmf_y, B * s.rate - t * M)
                    product = f_y * weight
                    per_term[i].append((t, f_y, weight, product))
                    totals[i] += product
        results = []
        for total, terms in zip(totals, per_term):
            if not math.isfinite(total):
                raise ArithmeticError("outage bound evaluated to a non-finite value")
            results.append(BoundResult(min(max(total, 0.0), 1.0), terms))
        out.append(results)
    return out


def outage_lower_bound(snr: Snr, spec: ChannelSpec, n_cells: int = DEFAULT_CELLS) -> BoundResult:
    """Evaluate the outage lower bound at one SNR point and one rate."""
    return outage_lower_bounds([snr], spec.B, spec.M, spec.fading, [spec.rate], n_cells)[0][0]
