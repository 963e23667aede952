"""Analytical lower bound on the outage probability of a block-fading channel.

Capping the per-block mutual information at min{M, log2(1 + gamma SNR)}
gives a per-block variable X on [0, M]: an atom of mass p at M, and with
mass 1 - p a variable A, tabulated as exact masses of N cells of width h,
cell k at its midpoint (k + 1/2)h.  Only p and A's law depend on the SNR.
The bound is P(X_1 + ... + X_B < BR), read by _log_cdf_sum with a width-h
linear kernel from X's law tilted by e^(-theta v)/Z, theta solving
B E_theta[X] = BR, so that the read sits in the bulk of the tilted sum, not
in its far left tail, where FFT round-off would decide it; the tilt is
undone in log space.  The B-fold sum is read as two half sums, of a =
floor(B/2) and b = B - a blocks: P(S_a + S_b < x) is the sum over u of
P(S_a = u) P(S_b < x - u), so both powers come from one FFT of half the
B-fold length (convolve_power) and are joined by one positive dot product per
pair of classes (cdf_Y_at).  A half of at most two blocks is built from the
cells' own convolution powers, one inverse transform at most; a larger half
with the atom is split by the parity of its number of below-cap blocks.  A
read the powers cannot resolve is summed over the capped-block counts
(_by_capped_count), one term of which is the coding gain; each reported
value leaves log space through exp_checked.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._checks import integer, real, require
# Nothing here calls reg_gamma_p: bench/tracing.py wraps bound.reg_gamma_p, and ROADMAP item 19's tracer half drops both.
from .fading import NakagamiParam, reg_gamma_p, reg_gamma_pq
from .mutual_info import Snr

__all__ = ["ChannelSpec", "DEFAULT_CELLS", "outage_lower_bounds"]

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
# The tilted mass each half sum may wrap on a shortened transform, e^-39.2 of
# the read's scale; theta h where x/n is at most the smallest value
# (neighbours differ by e^-50); and the read, in units of its round-off, below
# which it is summed by count.
_LOG_ALIAS, _THETA_CAP, _RESOLVED = 39.2, 50.0, 1e6


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
    is v's untilted mass."""

    grid_step: float
    classes: tuple
    theta: float
    x: float
    log_scale: float


@dataclass(frozen=True, eq=False)
class PairedPower:
    """The law of a sum of n copies of a tilted per-block law as two independent
    half sums, of a = floor(n/2) and b = n - a copies: halves is ((classes,
    capped), (classes, capped)) for a then b, one object for even n.  Each
    class (masses, offset, sums) holds the tilted mass masses[j] of the value
    (j + offset) grid_step and the running sums of _prefix_sums; capped holds
    the half's all-capped sum as such a class of one value, or nothing.
    e^(log_scale + theta (v - x)) times a pair's tilted mass is the untilted
    mass of its sum v.  noise bounds the round-off of a read's tilted sum."""

    grid_step: float
    halves: tuple
    theta: float
    x: float
    log_scale: float
    noise: float = 0.0


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


def _prefix_sums(masses: np.ndarray, decay: float) -> np.ndarray:
    """E[k], the sum over j < k of masses[j] e^(-decay (k - 1 - j)), for k = 0..masses.size: running sums in
    which each mass fades by e^-decay a cell, plain prefix sums at decay 0.

    A fading sum is the prefix sum of masses[j] e^(decay j) over e^(decay k), formed in rows over which
    e^(decay j) stays at most e^600; each row takes the last sum of the row before it, and a mass that
    would reach further has faded below e^-550 and is dropped."""
    size = masses.size
    sums = np.empty(size + 1)
    sums[0] = 0.0
    if not decay:
        np.cumsum(masses, out=sums[1:])
        return sums
    rows = math.ceil(decay * size / 600.0)
    width = -(-size // rows)
    whole = rows * width == size
    run = sums[1:].reshape(rows, width) if whole else np.zeros((rows, width))
    run.reshape(-1)[:size] = masses
    grow = np.arange(width, dtype=float)
    np.exp(np.multiply(grow, decay, out=grow), out=grow)
    run *= grow
    np.cumsum(run, axis=1, out=run)
    run /= grow
    if rows > 1:
        run[1:] += run[:-1, -1:] / (grow * math.exp(decay))
    if not whole:
        sums[1:] = run.reshape(-1)[:size]
    return sums


def _powers(spec: np.ndarray, counts: list) -> dict:
    """{c: spec^c} for one or two consecutive ascending counts; spec is overwritten."""
    first, *rest = counts
    powers = {first: _power(spec.copy() if rest else spec, first)}
    if rest:
        powers[rest[0]] = np.multiply(powers[first], spec, out=spec)
    return powers


def convolve_power(law: TiltedLaw, n: int) -> PairedPower:
    """The sum of n copies of a tilted per-block law as a pairing of its a- and
    b-fold half sums, a = floor(n/2) and b = n - a, each less its all-capped sum
    count M, which it holds apart as a class of one value (the sum of no copies,
    for n = 1, is that value 0).  The read never counts the pair of two
    all-capped half sums, whose sum is n M.

    A half of c <= 2 copies is built from the cells' own convolution powers:
    with j of its copies below the cap, its class is C(c, j) atom^(c - j) C^*j,
    so one copy is the cells themselves, and two are C * C, one transform, and
    2 atom C, the cells again, top cells further up.  Without the atom a half
    of c copies is the transform's spec^c.  With it, a half of c >= 3 copies
    comes from the same rfft, split by the parity of its number of below-cap
    blocks.  For odd n the b spectrum is the a spectrum times the law's.  The
    cells start at the lowest with mass, L cells up, so that no round-off lands
    below the least sum.  The transform has b(N - L) points with a parity split
    (an all-capped half sum lands on index count (N - L) modulo the length,
    where it is subtracted) and b(K - L - 1) + 1 otherwise, so that no other sum
    wraps.  A tilted law's transform stops where, by the Chernoff bound
    P_theta(S_c >= y) <= e^(-theta (y - c x/n)) / Z^c for each transformed
    count c, the wrapped mass of each half is below e^-39.2 of the read's
    scale.  Residue below -1e-12 raises ArithmeticError.
    """
    n = require("n", n, integer, least=1)
    h, theta, a, b = law.grid_step, law.theta, n // 2, n - n // 2
    power = functools.partial(PairedPower, h, theta=theta, x=n * law.x, log_scale=n * law.log_scale)
    if not law.classes:
        return power((((), ()), ((), ())))
    (cells, _), *capped = law.classes
    atom, atom_cell = (float(capped[0][0][0]), int(capped[0][1])) if capped else (0.0, 0)
    # No sum of count copies lies below count times the lowest cell with mass, and the atom sits top cells above it.
    low = int(np.argmax(cells > 0))
    cells, top = cells[low:], atom_cell - low

    def half(count: int, classes) -> tuple:
        """A half sum of count copies from its classes (masses, offset from count lowest cells), with its running sums,
        and its all-capped sum, whose running sums are 0 and its one mass (the sum of no copies is all capped)."""
        mass = atom**count
        all_capped = ((np.array([mass]), count * atom_cell, np.array([0.0, mass])),) if mass else ()
        return tuple((m, offset + count * low, _prefix_sums(m, theta * h)) for m, offset in classes), all_capped

    # Each count's classes (masses, offset from count lowest cells), and apart those that a transform rounds.
    built, transformed = {0: [], 1: [(cells, 0.5)]}, {}
    counts = [c for c in dict.fromkeys((a, b)) if c > 1]
    plain, split = [c for c in counts if not atom or c == 2], [c for c in counts if atom and c > 2]
    if counts:
        need = b * top if split else b * (cells.size - 1) + 1
        if theta > 0:
            cut = (math.ceil((c * law.x + h / 2 + (_LOG_ALIAS - c * law.log_scale) / theta) / h) - c * low for c in counts)
            need = max(1, min(need, max(cut)))
        size = _fft_length(need)
        spec = np.fft.rfft(cells, size)
    if plain:
        for c, spec_c in _powers(spec.copy() if split else spec, plain).items():
            transformed[c] = [(np.fft.irfft(spec_c, size), c / 2)]
            built[c] = transformed[c] + ([(2 * atom * cells, 0.5 + top)] if atom else [])
    if split:
        s, period = _half_step(size), size // math.gcd(size, top)
        spec *= s
        # atom e^(-2 pi i f top/size), built from its period size/gcd(size, top).
        capped = atom * np.tile(np.exp(-2j * np.pi / size * (np.arange(period) * top % size)), size // 2 // period + 1)[: size // 2 + 1]
        plus, minus = capped + spec, np.subtract(capped, spec, out=capped)
        for (c, plus), minus in zip(_powers(plus, split).items(), _powers(minus, split).values()):
            even = np.fft.irfft(plus + minus, size) * 0.5
            odd = np.fft.irfft(np.multiply(np.subtract(plus, minus, out=plus), np.conj(s), out=plus), size) * 0.5
            even[c * top % size] -= atom**c
            built[c] = transformed[c] = [(even, 0.0), (odd, 0.5)]

    halves = {c: half(c, built[c]) for c in dict.fromkeys((a, b))}
    if (residue := min((m.min() for part in transformed.values() for m, _ in part), default=0.0)) < -1e-12:
        raise ArithmeticError(f"FFT convolution produced mass {residue} below tolerance")
    # Each half's round-off meets read weights of at most 1.
    noise = 2 * max(-residue, 0.0) * math.sqrt(sum(m.size for m, _ in transformed.get(b, ())))
    return power((halves[a], halves[b]), noise=noise)


def _pair(first: tuple, second: tuple, x: float, h: float, decay: float) -> float:
    """The sum, over a value u of the class first and t of second, of their tilted masses times e^(theta (u + t - x))
    clip((x - u - t)/h + 1/2, 0, 1), decay being theta h: for each u, second's running sums read at x - u.

    All of a value's kernel fraction falls on the sums of one lattice index, so the read at x - u of second is its
    running sum there (scaled by e^(-theta h (frac + 1/2))) plus that fraction of the next mass; beyond second's last
    value the running sums fade from its last, and so do first's masses, which first's running sums give at once."""
    (ma, oa, sa), (mb, ob, sb) = first, second
    rel = x / h + (0.5 - oa - ob)
    if rel <= 0.0:
        return 0.0
    top = int(rel)
    frac = rel - top
    lo, hi = max(0, top - mb.size + 1), min(top, ma.size - 1)
    total = 0.0
    if lo <= hi:
        # einsum, unlike a BLAS dot, runs on this thread alone and reads the reversed view in place.
        pairs, k = ma[hi : lo - 1 if lo else None : -1], slice(top - hi, top - lo + 1)
        total = float(np.einsum("i,i", pairs, sb[k]) + frac * math.exp(decay) * np.einsum("i,i", pairs, mb[k]))
    if lo:
        i = min(lo - 1, ma.size - 1)
        total += float(sa[i + 1] * sb[-1]) * math.exp(-decay * (lo - 1 - i))
    return total * math.exp(-decay * (frac + 0.5))


def cdf_Y_at(power: PairedPower, x: float) -> float:
    """Natural log of the power's cdf at x, -inf where it is 0.

    A sum v counts clip((x - v)/h + 1/2, 0, 1): whole below x - h/2 and a
    linear fraction within h/2 of x, which reads a sum of cell midpoints as
    the cdf of the continuous sum interpolated over its cell.  The cdf of
    S_a + S_b is the sum over u of P(S_a = u) P(S_b < x - u): each class of
    one half is paired with each class of the other, but for the two
    all-capped ones.  A tilted pair is weighted by e^(theta (u + t - x)),
    split between the halves so that no weight exceeds e^(theta h / 2).
    Equal halves (even n) read each unordered pair of classes once, an
    unequal pair counting twice.
    """
    h, decay = power.grid_step, power.theta * power.grid_step
    (a, a_capped), (b, b_capped) = power.halves
    if power.halves[0] is power.halves[1]:
        pairs = [(p, p, 1) for p in a] + [(p, q, 2) for i, p in enumerate(a) for q in a[i + 1 :]] + [(p, q, 2) for p in a_capped for q in a]
    else:
        pairs = [(p, q, 1) for p in a + a_capped for q in b] + [(p, q, 1) for p in a for q in b_capped]
    total = sum(k * _pair(p, q, x, h, decay) for p, q, k in pairs)
    return power.log_scale + power.theta * (x - power.x) + math.log(total) if total > 0 else -math.inf


_LOG_NORMAL = math.log(sys.float_info.min), math.log(sys.float_info.max)


def exp_checked(log_value: float, name: str, where: str = "") -> float:
    """e^log_value as a float: a value below the smallest normal float (-inf too) or past the largest (or NaN) raises
    ArithmeticError naming where it arose and log10 of the value, denoted by the last word of name."""
    if not _LOG_NORMAL[0] <= log_value <= _LOG_NORMAL[1]:
        kind = "underflows" if log_value < _LOG_NORMAL[0] else "overflows"
        raise ArithmeticError(f"{name} {kind} a float{where}: log10 {name.split()[-1]} = {log_value / math.log(10.0):.6g}")
    return math.exp(log_value)


def _zero_read(pmf: TabulatedPmf, n: int, x: float, name: str, where: str, underflow: str) -> ArithmeticError:
    """The error for a -inf read at x of pmf's n-fold sum: no sum is below x + h/2 (the least is n h/2), or masses underflow.

    A subnormal x can put the cell count that resolves the read past the float range; the message then says so."""
    need = (n - 1) * pmf.n_cells * pmf.grid_step / (2 * x)  # the cell count above which n h/2 < x + h/2
    if pmf.n_cells > need:
        return ArithmeticError(underflow)
    resolve = f"more than {need:.6g} cells resolve it" if math.isfinite(need) else "no finite grid resolves it"
    return ArithmeticError(f"{name} cannot be computed{where}: no sum of {n} cells reaches its read; {resolve}")


def _log_cdf_sum(law: TabulatedPmf, n: int, x: float, shared: dict | None = None) -> tuple[float, float, PairedPower]:
    """log P(X_1 + ... + X_n < x) for n copies of law, the log of its round-off floor, and the paired power read, which
    the caller holds until its next read (freeing it before the next is built cost bound-wide about 20% in page faults).
    The read resolves the value where it is at least the floor, _RESOLVED times the power's noise in units of its scale;
    the floor is -inf where the read has no round-off: the power is untransformed, or x + h/2 lies at or below every
    value it holds.  A tilt toward x keeping the atom, with Chernoff bound e^(theta (x + h/2)) Z^n >= 1e-4, reads
    shared[n], law's untilted half powers and their prefix sums, which every such read at n reuses."""
    tilted = tilt(law, n, x)
    if len(tilted.classes) < 2 or n * tilted.log_scale + tilted.theta * tilted.grid_step / 2 < _LOG_UNTILTED:
        power = convolve_power(tilted, n)
    else:  # tilted toward n times its top value, the law keeps every value and theta is 0
        shared = {} if shared is None else shared
        power = shared[n] = shared.get(n) or convolve_power(tilt(law, n, n * law.n_cells * law.grid_step), n)
    least = sum(min((offset for _, offset, _ in classes + capped), default=math.inf) for classes, capped in power.halves)
    exact = not power.noise or x / power.grid_step + 0.5 <= least
    return cdf_Y_at(power, x), -math.inf if exact else power.log_scale + math.log(_RESOLVED * power.noise), power


def _by_capped_count(pmf_a: TabulatedPmf, log_p: float, log_q: float, n: int, counts, x: float, M: int,
                     name: str = "outage bound", where: str = "") -> float:
    """log of the sum over t in counts of C(n, t) p^t q^(n - t) P(A_1 + ... + A_(n - t) < x - t M),
    t of n blocks capped, each read from the tilted power of n - t copies of A, which has no atom.

    A term whose read lies below its round-off floor is dropped where even the floor lies more than ln 2^53 below the
    sum of the resolved terms, so that the term cannot change the float; otherwise it raises ArithmeticError naming
    name, where and t."""
    logs, ceilings = [], []
    for t in counts:
        if x - t * M > 0:
            log_f, floor, _ = _log_cdf_sum(pmf_a, n - t, x - t * M)
            log_c = math.lgamma(n + 1) - math.lgamma(t + 1) - math.lgamma(n - t + 1) + (t * log_p if t else 0.0) + (n - t) * log_q
            if log_f >= floor:
                logs.append(log_c + log_f)
            else:
                ceilings.append((t, log_c + floor))
    top = max(logs, default=-math.inf)
    total = top + math.log(sum(math.exp(v - top) for v in logs)) if top > -math.inf else -math.inf
    for t, ceiling in ceilings:
        if ceiling > total - 53 * math.log(2.0):
            raise ArithmeticError(f"{name} cannot be computed{where}: its term with {t} of {n} blocks capped lies below its power's round-off")
    return total


def outage_lower_bounds(
    snrs, B: int, M: int, fading: NakagamiParam, rates, n_cells: int = DEFAULT_CELLS
) -> list[list[float]]:
    """Evaluate the outage lower bound at every SNR for every rate: [snr][rate].

    Each rate reads its SNR's capped per-block law at BR through _log_cdf_sum, and a read it
    does not resolve is summed over the capped-block counts; a value depends only on its SNR
    and rate.  A zero read or a value outside the normal floats raises ArithmeticError naming both.
    """
    snrs, spec = list(snrs), ChannelSpec(B, M, fading, M)  # checks B, M and fading even with no rates
    B, M = spec.B, spec.M
    rates = [require("rate", r, real, above=0, most=M) for r in rates]
    if not rates:
        return [[] for _ in snrs]
    out = []
    for snr, (pmf_a, p, q) in zip(snrs, tabulate_A(snrs, spec, n_cells)):
        law = TabulatedPmf(pmf_a.grid_step, q * pmf_a.masses, p)
        shared, values = {}, []
        for rate in rates:
            x = B * rate
            log_f, floor, power = _log_cdf_sum(law, B, x, shared)  # power: held until the next read
            where = f" at snr_db {snr.db:.6g}, rate {rate:.6g}"
            if log_f < floor:
                log_p = math.log(p) if p > 0 else -math.inf
                log_f = _by_capped_count(pmf_a, log_p, math.log(q), B, range(B) if p > 0 else [0], x, M, "outage bound", where)
            if log_f == -math.inf:
                raise _zero_read(law, B, x, "outage bound", where, f"outage bound cannot be computed{where}: its cell masses underflow a float")
            values.append(min(exp_checked(log_f, "outage bound p_out_lower", where), 1.0))
        out.append(values)
    return out


# Only the benchmark uses these: bench/run.py reads outage_lower_bound(...).value, bench/tracing.py wraps it, and ROADMAP items 8/19 drop both.
@dataclass(frozen=True, eq=False)
class BoundResult:
    """Bound value at one SNR and rate."""

    value: float


def outage_lower_bound(snr: Snr, spec: ChannelSpec, n_cells: int = DEFAULT_CELLS) -> BoundResult:
    """Evaluate the outage lower bound at one SNR point and one rate."""
    return BoundResult(outage_lower_bounds([snr], spec.B, spec.M, spec.fading, [spec.rate], n_cells)[0][0])
