"""Analytical lower bound on the outage probability of a block-fading channel.

Capping the per-block mutual information at min{M, log2(1 + gamma SNR)}
gives a per-block variable X on [0, M]: an atom of mass p at M, and with
mass 1 - p a variable A, tabulated as exact masses of N cells of width h,
cell k at its midpoint (k + 1/2)h.  Only p and A's law depend on the SNR.
The bound is P(X_1 + ... + X_B < BR), read by _log_cdf_sum with a width-h
linear kernel from one FFT power of X's law tilted by e^(-theta v)/Z, theta
solving B E_theta[X] = BR, so that the read sits in the bulk of the tilted
sum, not in its far left tail, where FFT round-off would decide it; the tilt
is undone in log space.  The sums are split by the parity of their number of
below-cap blocks (convolve_power).  A read the power cannot resolve is summed
over the capped-block counts (_by_capped_count), one term of which is the
coding gain; each reported value leaves log space through exp_checked.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._checks import integer, real, require
# Nothing here calls reg_gamma_p: bench/tracing.py wraps bound.reg_gamma_p, and ROADMAP item 19's tracer half drops both.
from .fading import NakagamiParam, reg_gamma_p, reg_gamma_pq
from .mutual_info import Snr

__all__ = ["ChannelSpec", "BoundResult", "DEFAULT_CELLS", "outage_lower_bound", "outage_lower_bounds"]

# Grid cells over [0, M]; doubling this moves acceptance-grid bound values
# by well under 1e-4 relative.
DEFAULT_CELLS = 4096

# Grid points per incomplete-gamma call when tabulating A: 4 SNRs at the
# default cells.  Blocks of 8 to 256 SNRs were no faster and held more
# memory; one SNR per call was about 20% slower on bound-curve.
_BLOCK_POINTS = 1 << 14

# A read whose Chernoff bound is at least 1e-4 is at least about 1e-6 (the bound is 10-100 times above it),
# where the untilted power's round-off of about 1e-16 costs at most 1e-10 relative.
_LOG_UNTILTED = math.log(1e-4)
# The wrapped tilted mass allowed on a shortened transform and the read weight
# below which a sum is skipped, e^-39.2 and e^-46.1 of the read's scale;
# theta h where x/n is at most the smallest value (neighbours differ by e^-50);
# and the read, in units of its round-off, below which it is summed by count.
_LOG_ALIAS, _LOG_WINDOW, _THETA_CAP, _RESOLVED = 39.2, 46.1, 50.0, 1e6


@dataclass(frozen=True)
class ChannelSpec:
    """Problem instance: B fading blocks, 2^M-ary input, shape m, rate R."""

    B: int
    M: int
    fading: NakagamiParam
    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "B", require("B", self.B, integer, least=1))
        object.__setattr__(self, "M", require("M", self.M, integer, least=1))
        if not isinstance(self.fading, NakagamiParam):
            raise ValueError(f"fading must be a NakagamiParam, got {self.fading!r}")
        object.__setattr__(self, "rate", require("rate", self.rate, real, above=0, most=self.M))


@dataclass(frozen=True, eq=False)
class TabulatedPmf:
    """Cell masses of a variable on a uniform grid, plus an atom at its top.

    Cell k holds the probability of [k*step, (k+1)*step), and the kernel
    places it at the cell's midpoint; atom is the probability of the value
    n_cells*step exactly (the capped per-block law's p at M).
    """

    grid_step: float
    masses: np.ndarray
    atom: float = 0.0

    def __post_init__(self) -> None:
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "grid_step", require("grid step", self.grid_step, real, above=0))
        if masses.ndim != 1 or masses.size < 1:
            raise ValueError("masses must be a nonempty 1-D array")
        # Written so that NaN fails them too.
        if not (masses.min() >= 0 and self.atom >= 0):
            raise ValueError("cell masses must be nonnegative")
        total = masses.sum() + self.atom
        if not (abs(total - 1.0) <= 1e-9):
            raise ValueError(f"cell masses must sum to 1, got {total!r}")

    @property
    def n_cells(self) -> int:
        return self.masses.size


@dataclass(frozen=True, eq=False)
class TiltedLaw:
    """A law on the half-step lattice of grid_step, tilted toward x: in each
    class (masses, offset), masses[j] is the tilted mass of the value
    v = (j + offset) grid_step, and e^(log_scale + theta (v - x)) times it
    is v's untilted mass.  noise bounds the round-off of a read's tilted sum."""

    grid_step: float
    classes: tuple
    theta: float
    x: float
    log_scale: float
    noise: float = 0.0


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Bound value at one SNR and rate."""

    value: float


def build_pmf_A(levels: np.ndarray, M: int) -> TabulatedPmf:
    """A's cell masses on [0, M] as differences of levels / levels[-1] at the cell edges.

    levels holds A's cdf, times a positive factor, at the interior edges xi
    of at least 2 cells and then at M: the bound's F_gamma((2^xi - 1)/SNR),
    or the coding gain's limit law ((2^xi - 1)/(2^M - 1))^m.  Per-cell
    probabilities are exact, so a density that blows up at 0 (m < 1) is
    never point-evaluated.
    """
    require("n_cells", levels.size, integer, least=2)
    cdf = np.empty(levels.size + 1)
    cdf[0] = 0.0
    np.minimum(levels[:-1] / levels[-1], 1.0, out=cdf[1:-1])
    cdf[-1] = 1.0
    return TabulatedPmf(M / levels.size, np.diff(cdf))


def _cell_edges(M: int, n_cells: int) -> np.ndarray:
    """The right edges of n_cells >= 2 equal cells over [0, M]: the interior edges, then M."""
    return np.linspace(0.0, M, require("n_cells", n_cells, integer, least=2) + 1)[1:]


def tabulate_A(snrs, spec: ChannelSpec, n_cells: int = DEFAULT_CELLS):
    """Yield (pmf_A, p, 1 - p) at each SNR, in order.

    The SNRs are tabulated in blocks of about _BLOCK_POINTS grid points, each
    by one reg_gamma_pq call over every SNR's interior cell edges and its cap
    m(2^M - 1)/rho.  The cap's (Q, P) is (p, 1 - p), each to reg_gamma_pq's
    relative accuracy, and its P the conditioning probability.  A value of
    reg_gamma_pq depends only on its (a, x), so no result depends on the block.
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
                raise ArithmeticError(f"conditioning probability underflowed at snr_db {snr.db:.6g}; SNR too large for this grid")
            yield build_pmf_A(level, spec.M), float(tail[-1]), float(level[-1])


def tilt(pmf: TabulatedPmf, n: int, x: float) -> TiltedLaw:
    """pmf's values that a read of the n-fold sum at x can see, tilted toward x/n.

    Values at or above x + h/2 cannot reach the read, as none is negative.
    theta is 0 where the untilted mean is at most x/n; otherwise it solves
    n E_theta[X] = x to within half the sum's standard deviation by Newton's
    method on 1/E_theta[X] (exact for a Gamma-like law, whose tilted mean is
    shape/theta), kept in a bisection bracket, growing at most 4-fold a step
    and stopping after 100 steps or at _THETA_CAP/h, which it reaches where
    x/n is at most the smallest value.
    """
    h, N = pmf.grid_step, pmf.n_cells
    kept = min(N, max(0, math.ceil(x / h)))
    masses, dev = pmf.masses[:kept], (np.arange(kept) + 0.5) * h - x / n
    atom = pmf.atom > 0 and N * h < x + h / 2
    if atom:
        masses, dev = np.append(masses, pmf.atom), np.append(dev, N * h - x / n)
    total = masses.sum()
    if not total > 0:
        return TiltedLaw(h, (), _THETA_CAP / h, x / n, -math.inf)
    theta, log_z, mean = 0.0, math.log(total), masses @ dev / total
    if mean > 0:
        dev2 = dev * dev
        lo, hi, var = 0.0, math.inf, masses @ dev2 / total - mean * mean
        with np.errstate(divide="ignore"):
            log_m = np.log(masses)
        for _ in range(100):
            if abs(mean) <= 0.5 * math.sqrt(max(var, 0.0) / n) or theta >= _THETA_CAP / h:
                break
            lo, hi = (theta, hi) if mean > 0 else (lo, theta)
            step = mean * (x / n + mean) / (x / n * var) if var > 0 else math.inf
            theta = theta + step if lo < theta + step < hi else (lo + hi) / 2
            theta = min(theta, 4 * lo + 16 / (dev[-1] - dev[0] + h), _THETA_CAP / h)
            masses = log_m - theta * dev
            top = masses.max()
            masses -= top
            total = np.exp(masses, out=masses).sum()
            mean = masses @ dev / total
            var = masses @ dev2 / total - mean * mean
            log_z = top + math.log(total)
    classes = ((masses[:kept] / total, 0.5),) + (((masses[kept:] / total, N),) if atom else ())
    return TiltedLaw(h, classes, float(theta), x / n, float(log_z))


def _fft_length(n: int) -> int:
    """The smallest of 2^a, 3 * 2^a and 5 * 2^a that is at least n >= 1."""
    return min(odd << max(0, -(-n // odd) - 1).bit_length() for odd in (1, 3, 5))


@functools.lru_cache(maxsize=8)
def _half_step(size: int) -> np.ndarray:
    """s = e^(-i pi f/size) for f = 0..size//2, read-only."""
    s = np.exp(-1j * np.pi / size * np.arange(size // 2 + 1))
    s.flags.writeable = False
    return s


def _power(spec: np.ndarray, n: int) -> np.ndarray:
    """spec^n as the product, in ascending k, of the squarings spec^(2^k) for
    the set bits k of n; spec is overwritten."""
    power = None
    for k in range(n.bit_length()):
        if k:
            np.multiply(spec, spec, out=spec)
        if n >> k & 1:
            if power is None:
                power = spec if n >> k == 1 else spec.copy()
            else:
                power *= spec
    return power


def convolve_power(law: TiltedLaw, n: int) -> TiltedLaw:
    """The law of the sum of n copies of a tilted per-block law, less the
    all-capped sum n M, which the read never counts, by one FFT power.

    The transform has n N points with the atom (the all-capped sum lands on
    index n N modulo the length, where it is subtracted) and n(K - 1) + 1
    without it, so that no other sum wraps.  A tilted law's transform stops
    at y/h, past which, by the Chernoff bound P_theta(sum >= y) <= e^(-theta
    (y - x)) / Z^n, the wrapped mass is below e^-39.2 of the read's scale.
    Residue below -1e-12 raises ArithmeticError.
    """
    n = require("n", n, integer, least=1)
    h, theta, x, log_scale = law.grid_step, law.theta, n * law.x, n * law.log_scale
    if not law.classes or n == 1:
        return TiltedLaw(h, law.classes[:1], theta, x, log_scale)
    (cells, _), *capped = law.classes
    atom, atom_cell = (float(capped[0][0][0]), int(capped[0][1])) if capped else (0.0, 0)
    need = n * atom_cell if atom else n * (cells.size - 1) + 1
    if theta > 0:
        need = min(need, math.ceil((x + h / 2 + (_LOG_ALIAS - log_scale) / theta) / h))
    size = _fft_length(need)
    spec = np.fft.rfft(cells, size)
    if atom:
        s, period = _half_step(size), size // math.gcd(size, atom_cell)
        spec *= s
        # atom e^(-2 pi i f N/size), built from its period size/gcd(size, N).
        capped = atom * np.tile(np.exp(-2j * np.pi / size * (np.arange(period) * atom_cell % size)), size // 2 // period + 1)[: size // 2 + 1]
        plus, minus = _power(capped + spec, n), _power(np.subtract(capped, spec, out=capped), n)
        even = np.fft.irfft(np.add(plus, minus, out=spec), size) * 0.5
        odd = np.fft.irfft(np.multiply(np.subtract(plus, minus, out=plus), np.conj(s), out=plus), size) * 0.5
        even[n * atom_cell % size] -= atom**n
        classes = ((even, 0.0), (odd, 0.5))
    else:
        classes = ((np.fft.irfft(_power(spec, n), size), n / 2),)
    if (residue := min(masses.min() for masses, _ in classes)) < -1e-12:
        raise ArithmeticError(f"FFT convolution produced mass {residue} below tolerance")
    return TiltedLaw(h, classes, theta, x, log_scale, max(-residue, 0.0) * math.sqrt(sum(m.size for m, _ in classes)))


def cdf_Y_at(law: TiltedLaw, x: float) -> float:
    """Natural log of the law's cdf at x, -inf where it is 0.

    A value v counts clip((x - v)/h + 1/2, 0, 1): whole below x - h/2 and a
    linear fraction within h/2 of x, which reads a sum of cell midpoints as
    the cdf of the continuous sum interpolated over its cell.  A tilted law's
    values are weighted by e^(theta (v - law.x)), and those whose weight is
    below e^-46.1 are skipped.
    """
    h, theta, total = law.grid_step, law.theta, 0.0
    for masses, offset in law.classes:
        rel = x / h + (0.5 - offset)
        if rel <= 0.0:
            continue
        top = min(int(rel), masses.size)
        first = max(0, top - math.ceil(_LOG_WINDOW / (theta * h))) if theta else 0
        window = masses[first : top + 1]
        if theta:
            window = window * np.exp(theta * h * (np.arange(first, first + window.size) + offset - law.x / h))
        total += window[: top - first].sum() + (window[-1] * (rel - top) if top < masses.size else 0.0)
    return law.log_scale + math.log(total) if total > 0 else -math.inf


_LOG_NORMAL = math.log(sys.float_info.min), math.log(sys.float_info.max)


def exp_checked(log_value: float, name: str, where: str = "") -> float:
    """e^log_value as a float: a value below the smallest normal float (-inf too) or past the largest (or NaN) raises
    ArithmeticError naming where it arose and log10 of the value, denoted by the last word of name."""
    if not _LOG_NORMAL[0] <= log_value <= _LOG_NORMAL[1]:
        kind = "underflows" if log_value < _LOG_NORMAL[0] else "overflows"
        raise ArithmeticError(f"{name} {kind} a float{where}: log10 {name.split()[-1]} = {log_value / math.log(10.0):.6g}")
    return math.exp(log_value)


def _zero_read(pmf: TabulatedPmf, n: int, x: float, name: str, where: str, underflow: str) -> ArithmeticError:
    """The error for a -inf read at x of pmf's n-fold sum: no sum is below x + h/2 (the least is n h/2), or masses underflow."""
    need = (n - 1) * pmf.n_cells * pmf.grid_step / (2 * x)  # the cell count above which n h/2 < x + h/2
    if pmf.n_cells > need:
        return ArithmeticError(underflow)
    return ArithmeticError(f"{name} cannot be computed{where}: no sum of {n} cells reaches its read; more than {need:.6g} cells resolve it")


def _log_cdf_sum(law: TabulatedPmf, n: int, x: float, shared: dict | None = None) -> tuple[float, bool, TiltedLaw]:
    """log P(X_1 + ... + X_n < x) for n copies of law, whether the read resolves it, and the power read, which the caller
    holds until its next read (freeing it before the next is built cost bound-wide about 20% in page faults).  A tilt
    toward x keeping the atom, with Chernoff bound e^(theta (x + h/2)) Z^n >= 1e-4, reads shared[n], law's untilted power."""
    tilted = tilt(law, n, x)
    if len(tilted.classes) < 2 or n * tilted.log_scale + tilted.theta * tilted.grid_step / 2 < _LOG_UNTILTED:
        power = convolve_power(tilted, n)
    else:  # tilted toward n times its top value, the law keeps every value and theta is 0
        shared = {} if shared is None else shared
        power = shared[n] = shared.get(n) or convolve_power(tilt(law, n, n * law.n_cells * law.grid_step), n)
    log_f = cdf_Y_at(power, x)
    return log_f, not power.noise or log_f - power.log_scale > math.log(_RESOLVED * power.noise), power


def _by_capped_count(pmf_a: TabulatedPmf, log_p: float, log_q: float, n: int, counts, x: float, M: int) -> float:
    """log of the sum over t in counts of C(n, t) p^t q^(n - t) P(A_1 + ... + A_(n - t) < x - t M),
    t of n blocks capped, each read from the tilted power of n - t copies of A, which has no atom."""
    logs = [math.lgamma(n + 1) - math.lgamma(t + 1) - math.lgamma(n - t + 1) + (t * log_p if t else 0.0) + (n - t) * log_q
            + _log_cdf_sum(pmf_a, n - t, x - t * M)[0] for t in counts if x - t * M > 0]
    top = max(logs, default=-math.inf)
    return top + math.log(sum(math.exp(v - top) for v in logs)) if top > -math.inf else -math.inf


def outage_lower_bounds(
    snrs, B: int, M: int, fading: NakagamiParam, rates, n_cells: int = DEFAULT_CELLS
) -> list[list[BoundResult]]:
    """Evaluate the outage lower bound at every SNR for every rate: [snr][rate].

    Each rate reads its SNR's capped per-block law at BR through _log_cdf_sum, and a read it
    does not resolve is summed over the capped-block counts; a value depends only on its SNR
    and rate.  A zero read or a value outside the normal floats raises ArithmeticError naming both.
    """
    snrs, spec = list(snrs), ChannelSpec(B, M, fading, M)  # checks B, M and fading even with no rates
    specs = [replace(spec, rate=r) for r in rates]
    if not specs:
        return [[] for _ in snrs]
    B, M = spec.B, spec.M
    out = []
    for snr, (pmf_a, p, q) in zip(snrs, tabulate_A(snrs, spec, n_cells)):
        law = TabulatedPmf(pmf_a.grid_step, q * pmf_a.masses, p)
        shared, results = {}, []
        for s in specs:
            x = B * s.rate
            log_f, resolved, power = _log_cdf_sum(law, B, x, shared)  # power: held until the next read
            if not resolved:
                log_f = _by_capped_count(pmf_a, math.log(p) if p > 0 else -math.inf, math.log(q), B, range(B) if p > 0 else [0], x, M)
            where = f" at snr_db {snr.db:.6g}, rate {s.rate:.6g}"
            if log_f == -math.inf:
                raise _zero_read(law, B, x, "outage bound", where, f"outage bound cannot be computed{where}: its cell masses underflow a float")
            results.append(BoundResult(min(exp_checked(log_f, "outage bound p_out_lower", where), 1.0)))
        out.append(results)
    return out


def outage_lower_bound(snr: Snr, spec: ChannelSpec, n_cells: int = DEFAULT_CELLS) -> BoundResult:
    """Evaluate the outage lower bound at one SNR point and one rate."""
    return outage_lower_bounds([snr], spec.B, spec.M, spec.fading, [spec.rate], n_cells)[0][0]
