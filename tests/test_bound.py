import math
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bound_at
from nakfade import bound, cli
from nakfade.asymptotics import coding_gain, diversity_arg, singleton_bound
from nakfade.bound import (
    _LOG_ALIAS,
    ChannelSpec,
    TabulatedPmf,
    cdf_Y_at,
    convolve_power,
    outage_lower_bounds,
    tabulate_A,
    tilt,
)
from nakfade.fading import NakagamiParam, reg_gamma_pq
from nakfade.montecarlo import mc_lower_bounds
from nakfade.mutual_info import Snr

M1 = NakagamiParam(1)
M2 = NakagamiParam(2)
MH = NakagamiParam(0.5)


def spec44(m, rate):
    return ChannelSpec(4, 4, m, rate)


def tabulated(snr, spec, n_cells=bound.DEFAULT_CELLS):
    """(pmf_A, p, 1 - p) at one SNR, as the evaluator tabulates them."""
    return next(tabulate_A([snr], spec, n_cells))


def pmf_A(snr, spec, n_cells=bound.DEFAULT_CELLS):
    return tabulated(snr, spec, n_cells)[0]


def p_and_q(snr, spec):
    """(p, 1 - p) at one SNR; they do not depend on the cells."""
    return tabulated(snr, spec, 64)[1:]


def edge_cdf(snr, spec, n_cells):
    """A's cdf at the n_cells + 1 cell edges, from its cumulative tabulated masses."""
    return np.concatenate(([0.0], np.cumsum(pmf_A(snr, spec, n_cells).masses)))


class TestChannelSpec:
    @pytest.mark.parametrize("bad_rate", [0.0, -1.0, 4.0001, 5.0])
    def test_rate_domain(self, bad_rate):
        with pytest.raises(ValueError):
            spec44(M1, bad_rate)

    def test_blocks_domain(self):
        with pytest.raises(ValueError):
            ChannelSpec(0, 4, M1, 1.0)

    def test_rate_equal_bits_allowed(self):
        assert spec44(M1, 4.0).rate == 4.0

    # B and M are counts: a float or bool is refused when the spec is built, not deep in the bound.
    @pytest.mark.parametrize("B,M", [(True, 4), (4.0, 4), (4, True), (4, 4.0)], ids=["B-bool", "B-float", "M-bool", "M-float"])
    def test_blocks_and_bits_must_be_integers(self, B, M):
        with pytest.raises(ValueError, match="must be an integer"):
            ChannelSpec(B, M, M1, 1.0)

    # A bool rate is not R = 1, and a str, None or complex rate is refused as a value, not by a TypeError.
    @pytest.mark.parametrize("rate", [True, "1.0", None, 1 + 0j], ids=["bool", "str", "None", "complex"])
    def test_rate_must_be_real(self, rate):
        with pytest.raises(ValueError, match="^rate must be a finite real > 0 and <= 4, got "):
            ChannelSpec(4, 4, M1, rate)

    # A fading that is not a NakagamiParam is refused when the spec is built, not by an AttributeError in the bound.
    @pytest.mark.parametrize("fading", [2.0, None, "m=2"], ids=repr)
    def test_fading_must_be_a_nakagami_param(self, fading):
        with pytest.raises(ValueError, match="^fading must be a NakagamiParam"):
            ChannelSpec(4, 4, fading, 1.0)

    def test_numpy_float_rate_accepted(self):
        assert bound_at(Snr(10.0), ChannelSpec(4, 4, M1, np.float64(1.0)), 64) == bound_at(Snr(10.0), spec44(M1, 1.0), 64)

    def test_numpy_integers_accepted(self):
        assert bound_at(Snr(10.0), ChannelSpec(np.int64(4), np.int64(4), M1, 1.0), 64) > 0

    def test_numpy_integers_give_the_values_of_python_integers(self):
        snrs, rates = [Snr(10.0), Snr.from_db(30.0)], [0.5, 1.0, 4.0]
        want = outage_lower_bounds(snrs, 4, 4, M2, rates, 256)
        assert outage_lower_bounds(snrs, np.int64(4), np.int32(4), M2, rates, 256) == want
        assert coding_gain(ChannelSpec(np.int64(4), np.int64(4), M2, 1.0), 256) == coding_gain(ChannelSpec(4, 4, M2, 1.0), 256)
        law = tilt(pmf_A(Snr(10.0), spec44(M2, 1), 64), 3, 3.0)
        assert all(np.array_equal(a, b) for a, b in zip(power_arrays(convolve_power(law, np.int64(3))), power_arrays(convolve_power(law, 3))))


class TestSuccessRate:
    """The (p, 1 - p) that tabulate_A yields with each SNR's pmf."""

    def test_rayleigh_closed_form(self):
        assert p_and_q(Snr(15.0), spec44(M1, 1))[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_high_snr_limit(self):
        assert p_and_q(Snr(1e30), spec44(M2, 1))[0] == pytest.approx(1.0, abs=1e-15)

    def test_m2_closed_form(self):
        # Gamma(2, 3)/Gamma(2) = 4 e^-3
        assert p_and_q(Snr(10.0), spec44(M2, 1))[0] == pytest.approx(4.0 * math.exp(-3.0), rel=1e-12)

    def test_one_minus_p_relative_accuracy_at_high_snr(self):
        # At rho = 1e30, 1 - p is below 1e-28, far under the rounding of p.
        x = 15.0 / 1e30
        assert p_and_q(Snr(1e30), spec44(M1, 1))[1] == pytest.approx(-math.expm1(-x), rel=1e-12)
        # m = 2: P(2, y) = 1 - e^-y (1 + y) = y^2/2 - y^3/3 + y^4/8 - ..., y = 2x
        y = 2.0 * x
        series = sum((-1) ** k * (k - 1) / math.factorial(k) * y**k for k in range(2, 8))
        assert p_and_q(Snr(1e30), spec44(M2, 1))[1] == pytest.approx(series, rel=1e-12)

    def test_all_capped_weight_at_high_snr(self):
        # At R = 1 every block must fall below the cap, so the bound carries
        # (1-p)^4 ~ 5.1e-116, which keeps its relative accuracy.
        snr, spec = Snr(1e30), spec44(M1, 1)
        assert bound_at(snr, spec) == pytest.approx(direct_bound(snr, spec), rel=1e-9)


class TestConditionalCdfA:
    """A's conditional cdf, read as cumulative tabulate_A masses at the cell edges."""

    def test_support_edges(self):
        cdf = edge_cdf(Snr(15.0), spec44(M1, 1), 64)
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(cdf <= 1.0 + 1e-15)

    def test_rayleigh_closed_form(self):
        got = edge_cdf(Snr(15.0), spec44(M1, 1), 64)[32]  # the edge at 2.0
        want = (1 - math.exp(-0.2)) / (1 - math.exp(-1.0))
        assert got == pytest.approx(want, rel=1e-12)

    def test_monotone(self):
        vals = edge_cdf(Snr(7.0), spec44(MH, 1), 300)
        assert np.all(np.diff(vals) >= 0)

    @pytest.mark.parametrize("rho", [3.0, 10**1.5, 1e4])
    def test_rayleigh_specialization_dense_grid(self, rho):
        # 99 cells, whose edges are exactly linspace(0, 4, 100).
        s = spec44(M1, 2)
        xs = np.linspace(0.0, 4.0, 100)
        got = edge_cdf(Snr(rho), s, 99)
        want = (1 - np.exp(-(2.0**xs - 1) / rho)) / (1 - math.exp(-15.0 / rho))
        want[xs <= 0] = 0.0
        assert np.max(np.abs(got - np.minimum(want, 1.0))) < 1e-12


class TestBuildPmfA:
    def test_masses_sum_to_one(self):
        pmf = pmf_A(Snr(10.0), spec44(MH, 1), 4096)
        assert abs(pmf.masses.sum() - 1.0) <= 1e-9

    def test_grid_spans_bits_exactly(self):
        pmf = pmf_A(Snr(10.0), spec44(M2, 1), 1000)
        assert abs(pmf.n_cells * pmf.grid_step - 4.0) <= 1e-12
        assert pmf.atom == 0.0

    def test_first_cell_is_cdf_at_step(self):
        # m = 1/2: P(1/2, x) = erf(sqrt(x)).
        snr, s = Snr(10.0), spec44(MH, 1)
        pmf = pmf_A(snr, s, 512)
        want = math.erf(math.sqrt(0.5 * (2.0**pmf.grid_step - 1.0) / 10.0)) / math.erf(math.sqrt(0.5 * 15.0 / 10.0))
        assert pmf.masses[0] == pytest.approx(want, abs=1e-15)

    def test_cumulative_reproduces_cdf(self):
        # m = 2: P(2, x) = 1 - e^-x (1 + x).
        snr, s = Snr(31.6), spec44(M2, 1)
        x = 2.0 * (2.0 ** np.linspace(0.0, 4.0, 1025) - 1.0) / 31.6
        levels = -np.expm1(-x) - x * np.exp(-x)
        assert np.max(np.abs(edge_cdf(snr, s, 1024) - levels / levels[-1])) < 1e-12

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError):
            pmf_A(Snr(10.0), spec44(M1, 1), 1)

    def test_bound_and_coding_gain_share_the_cell_check(self):
        spec = spec44(M2, 1)
        with pytest.raises(ValueError, match="n_cells must be an integer >= 2, got 1"):
            next(tabulate_A([Snr(10.0)], spec, 1))
        with pytest.raises(ValueError, match="n_cells must be an integer >= 2, got 1"):
            coding_gain(spec, 1)

    # Each entry point refuses the cell count before it divides by it or
    # builds its grid from it.
    @pytest.mark.parametrize("n_cells", [1, 0, -1, -2])
    @pytest.mark.parametrize(
        "entry",
        [
            pytest.param(lambda spec, n: next(tabulate_A([Snr(10.0)], spec, n)), id="tabulate_A"),
            pytest.param(lambda spec, n: outage_lower_bounds([Snr(10.0)], spec.B, spec.M, spec.fading, [spec.rate], n), id="outage_lower_bounds"),
            pytest.param(coding_gain, id="coding_gain"),
        ],
    )
    def test_cell_count_checked_before_any_arithmetic(self, entry, n_cells):
        with pytest.raises(ValueError, match=f"^n_cells must be an integer >= 2, got {n_cells}$"):
            entry(spec44(M2, 1), n_cells)


class TestTabulatedPmf:
    # NaN slips through a test written as `bad > limit`; each check must refuse it.
    @pytest.mark.parametrize("masses", [[math.nan, math.nan], [1.0, math.nan]], ids=["all-nan", "one-nan"])
    def test_rejects_nan_masses(self, masses):
        with pytest.raises(ValueError, match="cell masses"):
            TabulatedPmf(0.5, np.array(masses))

    @pytest.mark.parametrize("step", [0.0, -0.5, math.inf, math.nan])
    def test_rejects_step_that_is_not_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="grid step"):
            TabulatedPmf(step, np.array([0.5, 0.5]))


def untilted(pmf, n):
    """The n-fold power of pmf with no tilt and no truncation: the read at n M sees every value."""
    law = tilt(pmf, n, n * pmf.n_cells * pmf.grid_step)
    assert law.theta == 0.0
    return convolve_power(law, n)


def random_pmf(seed, n_cells, atom=0.0):
    masses = np.random.default_rng(seed).random(n_cells)
    return TabulatedPmf(4.0 / n_cells, (1.0 - atom) * masses / masses.sum(), atom)


def half_step_power(pmf, law, n):
    """Direct convolution of law's tilted values on the half-step lattice, the
    all-capped sum removed: index i holds the sum at i h/2."""
    (cells, _), *capped = law.classes
    lattice = np.zeros(2 * pmf.n_cells + 1)
    lattice[1 : 2 * cells.size : 2] = cells
    if capped:
        lattice[2 * pmf.n_cells] = capped[0][0][0]
    out = lattice
    for _ in range(n - 1):
        out = np.convolve(out, lattice)
    if capped:
        out[2 * n * pmf.n_cells] = 0.0
    return out


def power_halves(power, n):
    """Each half of a paired power of n copies as (count, classes, capped), classes as (masses, offset)."""
    return [(count, [(m, o) for m, o, _ in part], [(m, o) for m, o, _ in top]) for count, (part, top) in zip((n // 2, n - n // 2), power.halves)]


def power_arrays(power):
    """Every array a paired power holds, masses and running sums, in order."""
    return [array for part in power.halves for classes in part for cls in classes for array in (cls[0], cls[2])]


def assert_halves_match_direct(pmf, law, power, n, tol=1e-10):
    # Each class of each half is the half-step lattice's direct convolution of
    # its count of copies at its parity, and its all-capped sum is the tilted
    # atom to that count, at count N cells.
    for count, classes, capped in power_halves(power, n):
        if count == 0:
            assert classes == [] and [(list(m), o) for m, o in capped] == [([1.0], 0.0)]
            continue
        direct = half_step_power(pmf, law, count)
        for sums, offset in classes:
            index = (2 * (np.arange(sums.size) + offset)).astype(int)
            keep = index < direct.size
            assert np.max(np.abs(sums[keep] - direct[index[keep]])) < tol, (count, offset, law.theta)
        atom = law.classes[1][0][0] if len(law.classes) > 1 else 0.0
        assert [(list(m), o) for m, o in capped] == ([([atom**count], count * pmf.n_cells)] if atom else [])


class TestConvolvePower:
    def test_identity(self):
        # One block: the law's own cells and atom, paired with the sum of no
        # copies, the value 0, held as all capped; the pair of the two
        # all-capped sums, the atom, is never read.
        law = tilt(random_pmf(1, 64, 0.25), 1, 4.0)
        (cells, offset), (atom, _) = law.classes
        (zero, none, (empty,)), (one, ((got, got_offset),), ((got_atom, atom_offset),)) = power_halves(convolve_power(law, 1), 1)
        assert (zero, none, empty[0].tolist(), empty[1]) == (0, [], [1.0], 0.0)
        assert one == 1 and np.array_equal(got, cells) and got_offset == offset
        assert got_atom.tolist() == atom.tolist() and atom_offset == 64

    def test_delta_shift(self):
        # The cells start at the lowest with mass: three copies of a point mass
        # at 5.5 cells sum to 16.5 cells, and the read steps there.
        masses = np.zeros(32)
        masses[5] = 1.0
        power = untilted(TabulatedPmf(0.125, masses), 3)
        for count, ((sums, offset),), _ in power_halves(power, 3):
            assert offset == 5.5 * count and sums[0] == pytest.approx(1.0, abs=1e-12)
            assert sums.sum() == pytest.approx(1.0, abs=1e-12)
        assert cdf_Y_at(power, 16.0 * 0.125) == -math.inf
        assert cdf_Y_at(power, 16.5 * 0.125) == pytest.approx(math.log(0.5), rel=1e-12)
        assert cdf_Y_at(power, 17.0 * 0.125) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_direct_convolution(self, n):
        pmf = random_pmf(2024, 512)
        for count, ((got, _),), capped in power_halves(untilted(pmf, n), n):
            direct = pmf.masses.copy()
            for _ in range(count - 1):
                direct = np.convolve(direct, pmf.masses)
            assert capped == []
            assert np.max(np.abs(got[: direct.size] - direct)) < 1e-10
            assert np.max(np.abs(got[direct.size :]), initial=0.0) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    @pytest.mark.parametrize("x", [2.0, 6.5, 11.0])
    def test_capped_law_matches_direct_convolution(self, n, x):
        # Tilted or not, with or without the atom, each class of each half is
        # the half-step lattice's direct convolution at its parity.
        pmf = random_pmf(n, 256, 0.3)
        law = tilt(pmf, n, x)
        assert_halves_match_direct(pmf, law, convolve_power(law, n), n)

    def test_midpoint_alignment_offset(self):
        # c cells at (k + 1/2) h sum to (j + c/2) h: each half's class offset is its count over 2 cells.
        for n, offsets in ((4, [1.0, 1.0]), (5, [1.0, 1.5])):
            halves = power_halves(untilted(TabulatedPmf(0.5, np.full(8, 0.125)), n), n)
            assert [offset for _, ((_, offset),), _ in halves] == offsets

    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            convolve_power(tilt(TabulatedPmf(1.0, np.array([1.0])), 1, 1.0), 0)

    def test_result_without_workspace_is_its_own(self):
        # A power owns its masses: later powers of the same law leave it as it was.
        law = tilt(random_pmf(7, 64, 0.2), 3, 5.0)
        first = convolve_power(law, 3)
        kept = [array.copy() for array in power_arrays(first)]
        convolve_power(law, 3)
        convolve_power(law, 2)
        assert all(np.array_equal(array, k) for array, k in zip(power_arrays(first), kept))

    def test_workspace_result_equals_fresh_one(self):
        # The cached phase tables change no value: a repeated power is bit-identical.
        pmf = random_pmf(8, 64, 0.2)
        for n in (5, 2, 3, 2, 7):
            a, b = convolve_power(tilt(pmf, n, 1.5 * n), n), convolve_power(tilt(pmf, n, 1.5 * n), n)
            assert all(np.array_equal(x, y) for x, y in zip(power_arrays(a), power_arrays(b))), n

    @pytest.mark.parametrize("n_cells", [64, 512, 4096])
    def test_squaring_power_matches_np_power(self, n_cells):
        # The squarings, and for odd n the one product by the law's spectrum,
        # round differently from np.power, at the level of the FFT's own round-off.
        pmf = random_pmf(n_cells, n_cells)
        for n in range(3, 65):
            law = tilt(pmf, n, n * 4.0)
            for count, ((got, _),), _ in power_halves(convolve_power(law, n), n):
                want = np.fft.irfft(np.fft.rfft(law.classes[0][0], got.size) ** count, got.size)
                assert np.max(np.abs(got - want)) <= 1e-14 * want.max(), (n, count)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("atom", [0.0, 0.3])
    def test_small_halves_read_the_truncated_direct_convolution(self, n, atom):
        # A spike of width 0.1 at 2: the read at n M has theta 0 and sees every
        # value; the read at 1.5 n is far in the left tail, where for n >= 2
        # theta > 0, and for n >= 3 the Chernoff cut shortens the transform
        # of C * C (and, for n = 5, of the parity split).  One block's law, cut
        # at its read of 1.5, has its mean below it, so theta stays 0.
        v = (np.arange(64) + 0.5) / 16
        masses = np.exp(-((v - 2.0) ** 2) / 0.02)
        pmf = TabulatedPmf(1 / 16, (1.0 - atom) * masses / masses.sum(), atom)
        for x in (4.0 * n, 1.5 * n):
            law = tilt(pmf, n, x)
            power = convolve_power(law, n)
            assert (law.theta > 0) == (x < 4.0 * n and n > 1)
            if x < 4.0 * n and n > 2:
                (cells, _), *capped = law.classes
                b = n - n // 2
                full = bound._fft_length(b * cells.size if capped and b > 2 else b * (cells.size - 1) + 1)
                assert power.halves[1][0][0][0].size < full
            got = cdf_Y_at(power, x)
            want = half_step_read(power, half_step_power(pmf, law, n), x)
            assert math.exp(got - want) == pytest.approx(1.0, rel=1e-12, abs=0.0), (x, law.theta)

    @pytest.mark.parametrize("n, atom, inverse", [(1, 0.3, 0), (2, 0.3, 0), (3, 0.0, 1), (3, 0.3, 1), (4, 0.0, 1), (4, 0.3, 1), (5, 0.3, 3)])
    def test_inverse_transforms(self, monkeypatch, n, atom, inverse):
        # Halves of one block are the cells and of two blocks one transform of
        # C * C, the atom's classes needing none; with the atom a half of three
        # blocks is split by parity, two inverse transforms.
        calls = []
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: calls.append(args[1]) or irfft(*args, **kw))
        convolve_power(tilt(random_pmf(n, 64, atom), n, 4.0 * n), n)
        assert len(calls) == inverse


def read_weights(law, v, x):
    """The weight of each tilted value v in law's read at x: its untilt relative to the read's scale times its kernel fraction."""
    fraction = np.clip((x - v) / law.grid_step + 0.5, 0.0, 1.0)
    return np.exp(law.theta * (np.minimum(v, x + law.grid_step / 2) - law.x)) * fraction


def half_step_read(law, direct, x):
    """log F(x) from a half_step_power of law, read as cdf_Y_at reads, with no skipped values."""
    total = direct @ read_weights(law, np.arange(direct.size) * (law.grid_step / 2), x)
    return law.log_scale + math.log(total) if total > 0 else -math.inf


class TestShortenedPower:
    """A tilted power's transform stops where the Chernoff bound puts each
    half's wrapped mass below e^-39.2 of the read's scale (ROADMAP item 15)."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_cells=st.integers(2, 64),
        atom=st.sampled_from([0.0, 0.3, 0.9]),
        n=st.integers(3, 64),
        frac=st.floats(0.0, 1.0),
        below=st.floats(0.0, 0.1),
    )
    def test_read_matches_direct_convolution(self, seed, n_cells, atom, n, frac, below):
        # Tilted toward x, the read at x is at the tilted mean (theta > 0) or
        # above the untilted one; a read up to 10% lower is below both.  x/n
        # is at least a cell, above the smallest value h/2, so a tilted mean
        # can reach it.
        pmf = random_pmf(seed, n_cells, atom)
        x = n * (pmf.grid_step + frac * (4.0 - pmf.grid_step))
        law = tilt(pmf, n, x)
        power = convolve_power(law, n)
        (cells, _), *capped = law.classes
        halves = power_halves(power, n)
        size = halves[1][1][0][0].size
        # Never longer than the transform of the full b N (atom) or b(K - 1) + 1 sums of the larger half.
        b = n - n // 2
        assert size <= bound._fft_length(b * n_cells if capped else b * (cells.size - 1) + 1)
        for count, classes, _ in halves:
            # Each class holds the direct sums of its parity folded modulo the
            # transform's length: what lies at or past the length wraps, and
            # meets read weights of at most e^(theta h / 2).
            direct = half_step_power(pmf, law, count)
            wrapped = sum(direct[int(2 * offset) :: 2][size:].sum() for _, offset in classes)
            assert wrapped * math.exp(law.theta * law.grid_step / 2) <= math.exp(-39.2), (count, law.theta)
        direct = half_step_power(pmf, law, n)
        for read in (x, x * (1.0 - below)):
            # In units of the read's scale: beyond the wrapped mass of the two
            # halves, only the transforms' round-off, far above e^-39.2 = 9e-18 in float64.
            got = math.exp(cdf_Y_at(power, read) - power.log_scale)
            want = math.exp(half_step_read(power, direct, read) - power.log_scale)
            assert abs(got - want) <= 2 * math.exp(-39.2) + 1e-13, (read, law.theta)


class TestPairRead:
    """The read of an n-fold sum as the pairing of its two half sums, against
    the direct n-fold convolution read as cdf_Y_at reads."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 32])
    @pytest.mark.parametrize("atom", [0.0, 0.3])
    def test_matches_direct_n_fold_read(self, n, atom):
        # Reads in the bulk and the tails, and above a M, where an all-capped
        # half sum pairs with the other half's below-cap sums.
        pmf = random_pmf(100 + n, 16, atom)
        a, M = n // 2, 4.0
        for x in (0.3 * n, 1.3 * n, 0.5 * n * M, a * M + 0.6 * (n - a), n * M - 0.1):
            law = tilt(pmf, n, x)
            power = convolve_power(law, n)
            got = cdf_Y_at(power, x)
            want = half_step_read(power, half_step_power(pmf, law, n), x)
            assert math.exp(got - want) == pytest.approx(1.0, rel=1e-12, abs=0.0), (x, law.theta)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 32])
    @pytest.mark.parametrize("atom", [0.0, 0.3])
    def test_read_at_n_caps_is_one_less_all_capped(self, n, atom):
        # R = M: every sum but the all-capped one, n M, counts.
        power = untilted(random_pmf(200 + n, 16, atom), n)
        assert math.exp(cdf_Y_at(power, n * 4.0)) == pytest.approx(1.0 - atom**n, rel=1e-12, abs=0.0)

    def test_tilted_read_whose_weights_would_overflow_unscaled(self):
        # Masses rising e^4 a cell put 32 copies' read at one cell a block deep
        # in the left tail: a half's weight e^(theta (u - a x/n)) would reach
        # e^(39.2 - a log Z), past the float range, were it not split between the halves.
        masses = np.exp(4.0 * np.arange(16))
        pmf, n = TabulatedPmf(0.25, masses / masses.sum()), 32
        law = tilt(pmf, n, n * 0.25)
        assert law.theta > 0 and _LOG_ALIAS - n // 2 * law.log_scale > math.log(sys.float_info.max)
        power = convolve_power(law, n)
        want = half_step_read(power, half_step_power(pmf, law, n), n * 0.25)
        assert cdf_Y_at(power, n * 0.25) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, pairs", [(4, 5), (5, 8)])
    def test_equal_halves_read_each_unordered_pair_once(self, monkeypatch, n, pairs):
        # Halves of two classes and an all-capped sum: equal halves read the two
        # like pairs, the one unlike pair and the two with an all-capped sum once
        # each, where unequal halves read all eight ordered pairs.
        calls = []
        pair = bound._pair
        monkeypatch.setattr(bound, "_pair", lambda *args: calls.append(args) or pair(*args))
        power = untilted(random_pmf(n, 16, 0.3), n)
        cdf_Y_at(power, 0.6 * n * 4.0)
        assert len(calls) == pairs

    @pytest.mark.parametrize("size", [1, 15, 16, 1000, 40000])
    @pytest.mark.parametrize("decay", [0.0, 1e-3, 0.7, 13.0, 50.0])
    def test_running_sums_match_the_loop(self, size, decay):
        # The fading sums a pairing reads, formed in rows where e^(decay j)
        # stays in range, against the recurrence E[k + 1] = masses[k] + e^-decay E[k].
        masses = np.random.default_rng(size).random(size)
        want, fade = np.zeros(size + 1), math.exp(-decay)
        for k, mass in enumerate(masses):
            want[k + 1] = mass + fade * want[k]
        assert np.max(np.abs(bound._prefix_sums(masses, decay) - want)) <= 1e-13 * want.max()

    def test_deep_tail_read_leaves_the_float_range(self):
        # The pairing reads the tail at 80 dB, m = 20, and the value then underflows a float by name.
        res = CliRunner().invoke(cli.main, ["curve", "--m", "20", "--rate", "1", "--snr-db", "80:80:1"])
        assert res.exit_code == 3
        assert "log10 p_out_lower = -606.162" in res.output
class TestCdfYAt:
    def uniform(self):
        return convolve_power(tilt(TabulatedPmf(0.5, np.full(8, 0.125)), 1, 4.0), 1)

    def test_below_support(self):
        assert cdf_Y_at(self.uniform(), 0.0) == -math.inf
        assert cdf_Y_at(self.uniform(), -1.0) == -math.inf

    def test_at_support_top(self):
        assert cdf_Y_at(self.uniform(), 4.0) == pytest.approx(0.0, abs=1e-9)
        assert cdf_Y_at(self.uniform(), 99.0) == 0.0

    def test_linear_within_cell(self):
        law = convolve_power(tilt(TabulatedPmf(0.25, np.array([1.0])), 1, 0.125), 1)
        assert cdf_Y_at(law, 0.125) == pytest.approx(math.log(0.5), rel=1e-15)


class TestExpChecked:
    """The one place a reported log becomes a float."""

    def test_minus_inf_underflows(self):
        with pytest.raises(ArithmeticError, match="^x underflows a float: log10 x = -inf$"):
            bound.exp_checked(-math.inf, "x")

    @pytest.mark.parametrize("log_value", [0.0, -700.0, 700.0, math.log(sys.float_info.min), math.log(sys.float_info.max)])
    def test_value_in_the_normal_range(self, log_value):
        value = bound.exp_checked(log_value, "x")
        assert sys.float_info.min <= value <= sys.float_info.max
        assert value == math.exp(log_value)

    @pytest.mark.parametrize(
        "log_value,kind,log10_value",
        [
            (-709.0, "underflows", "-307.915"),
            (-1e6, "underflows", "-434294"),
            (math.nextafter(math.log(sys.float_info.max), math.inf), "overflows", "308.255"),
            (1e6, "overflows", "434294"),
            (math.nan, "overflows", "nan"),
        ],
    )
    def test_outside_the_normal_range_raises_naming_log10(self, log_value, kind, log10_value):
        with pytest.raises(ArithmeticError, match=f"^coding gain K {kind} a float at here: log10 K = {log10_value}$"):
            bound.exp_checked(log_value, "coding gain K", " at here")


class TestOutageLowerBound:
    def test_vanishing_snr_saturates(self):
        assert bound_at(Snr(1e-6), spec44(M2, 1)) == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_snr(self):
        s = spec44(M2, 1)
        assert bound_at(Snr.from_db(20), s) <= bound_at(Snr.from_db(10), s)

    def test_value_is_sum_of_products(self):
        # The one power's value is the binomial mixture over the capped blocks.
        snr, spec = Snr.from_db(8), spec44(M2, 3)
        value = bound_at(snr, spec)
        assert value == pytest.approx(direct_bound(snr, spec), rel=1e-12)
        assert 0.0 <= value <= 1.0

    def test_term_count_and_tail_terms_vanish(self):
        # Mixture terms past t = ceil(BR/M) - 1 add only zeros: A is positive, so F_Yt(<=0) = 0.
        spec = spec44(M2, 3)
        n_terms = spec.B + 1 - singleton_bound(spec.B, spec.M, spec.rate)
        assert n_terms == math.ceil(spec.B * spec.rate / spec.M)
        pmf = pmf_A(Snr.from_db(9), spec, 512)
        for t in range(n_terms, spec.B):
            arg = spec.B * spec.rate - t * spec.M
            assert arg <= 0
            assert cdf_Y_at(untilted(pmf, spec.B - t), arg) == -math.inf

    def test_rate_equal_bits_uses_full_formula(self):
        # R = M: terms t = 0..B-1, every sum but the all-capped one.
        snr, spec = Snr.from_db(10), spec44(M1, 4.0)
        value = bound_at(snr, spec)
        assert value == pytest.approx(direct_bound(snr, spec, terms=4), rel=1e-12)
        assert 0.0 < value <= 1.0

    def test_read_below_the_support_is_zero(self):
        # 64 blocks of at least h/2 = 0.25 each cannot sum below BR = 3.2:
        # the tilted power's read window is empty, with no overflowing weight.
        # The read is refused, naming the cells, 63 * 4/(2 BR), above which some sum reaches it.
        spec = ChannelSpec(64, 4, MH, 0.05)
        assert direct_bound(Snr.from_db(0.0), spec, 8) == 0.0
        message = "^outage bound cannot be computed at snr_db 0, rate 0.05: no sum of 64 cells reaches its read; more than 39.375 cells resolve it$"
        with pytest.raises(ArithmeticError, match=message):
            bound_at(Snr.from_db(0.0), spec, 8)
        assert 0.0 < bound_at(Snr.from_db(0.0), spec, 40) <= 1.0

    @pytest.mark.parametrize("m", [MH, M2])
    def test_grid_convergence_on_acceptance_grid(self, m):
        for rate in (1.0, 2.0, 3.0):
            s = spec44(m, rate)
            for db in (5.0, 10.0, 15.0, 20.0):
                v1 = bound_at(Snr.from_db(db), s, 4096)
                v2 = bound_at(Snr.from_db(db), s, 8192)
                assert abs(v1 / v2 - 1) < 1e-4, (m.m, rate, db)

    def test_against_mc_oracle_at_spec_point(self):
        # 1e7-sample MC of the capped-rate event at rho = 10^1.6; the bound
        # value there (~1.4e-10) is far below 1/n, so the check uses the
        # binomial deviation predicted by the analytic value itself.
        s = spec44(M2, 1.0)
        snr = Snr(10**1.6)
        analytic = bound_at(snr, s)
        est = mc_lower_bounds([snr], s, n=10**7, seed=20260809)[0]
        se = max(est.std_err, math.sqrt(analytic * (1 - analytic) / est.n_samples))
        assert abs(est.p_hat - analytic) <= 3.0 * se


def term_count_rates():
    """(B, M, R) with R = kM/B + delta inside (0, M], on and just off the integers BR/M."""
    for B in range(1, 9):
        for M in range(1, 5):
            for k in range(B + 1):
                for delta in (0.0, 1e-15, -1e-15, 5e-10):
                    rate = k * M / B + delta
                    if 0.0 < rate <= M:
                        yield B, M, rate


class TestTermCount:
    def test_terms_are_b_plus_one_minus_singleton(self):
        # On and just off the integers BR/M, the value is the mixture over the
        # terms whose threshold BR - tM can count: ceil(BR/M) of them, which is
        # B + 1 - d_B(R) except where d_B snaps a rate within 1e-9 of an
        # integer BR/M and the read still counts the last term's sliver.  At
        # k = 0 and B >= 2, no B-fold sum of the 8 cells reaches BR: the read
        # is 0, and the bound is refused.
        for B, M, rate in term_count_rates():
            spec = ChannelSpec(B, M, M1, rate)
            terms = math.ceil(B * rate / M)
            assert terms == B + 1 - singleton_bound(B, M, rate) or abs(B * rate / M - round(B * rate / M)) < 1e-9
            want = direct_bound(Snr(10.0), spec, 8, terms=terms)
            if B > 1 and rate < 1e-9:
                assert want == 0.0
                with pytest.raises(ArithmeticError, match=f"no sum of {B} cells reaches its read"):
                    bound_at(Snr(10.0), spec, 8)
                continue
            assert bound_at(Snr(10.0), spec, 8) == pytest.approx(want, rel=1e-9, abs=1e-300), (B, M, rate)

    def test_per_term_columns_match(self):
        # curve has no per-term columns: every row is the SNR and the one-point bound.
        runner = CliRunner()
        for B, M, rate in term_count_rates():
            args = ["curve", "-B", str(B), "-M", str(M), "--rate", repr(rate), "--snr-db", "10:10:1", "--cells", "8"]
            res = runner.invoke(cli.main, args)
            if B > 1 and rate < 1e-9:  # k = 0: no sum reaches BR, and curve exits 3 naming it
                assert res.exit_code == 3 and f"no sum of {B} cells reaches its read" in res.output, (B, M, rate)
                continue
            assert res.exit_code == 0, res.output
            value = bound_at(Snr.from_db(10.0), ChannelSpec(B, M, M1, rate), 8)
            assert res.output.splitlines()[1:] == ["snr_db,p_out_lower", f"10,{cli._fmt(value)}"], (B, M, rate)
        assert runner.invoke(cli.main, ["curve", "--per-term"]).exit_code == 2


def sweep_rates(B, M):
    """The CLI's default rate grid inside (0, M], rates with integer BR/M, and R = M."""
    grid = [0.25 * k for k in range(1, 16) if 0.25 * k <= M]
    return sorted(set(grid) | {j * M / B for j in range(1, B + 1)})


class TestSharedEvaluator:
    @pytest.mark.parametrize("B", [1, 2, 4, 16, 32])
    @pytest.mark.parametrize("M", [2, 4])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_bit_identical_to_per_rate_loop(self, B, M, m):
        # Rates that share the SNR's untilted power equal their one-rate evaluations bit for bit.
        fading = NakagamiParam(m)
        rates = sweep_rates(B, M)
        for db in (3.0, 14.0):
            snr = Snr.from_db(db)
            (got,) = outage_lower_bounds([snr], B, M, fading, rates, 512)
            assert len(got) == len(rates)
            for r, value in zip(rates, got):
                assert value == bound_at(snr, ChannelSpec(B, M, fading, r), 512), (B, M, m, r, db)

    def test_bit_identical_at_default_cells(self):
        snr, fading = Snr.from_db(10.0), NakagamiParam(1.0)
        rates = sweep_rates(16, 4)
        (got,) = outage_lower_bounds([snr], 16, 4, fading, rates)
        for r, value in zip(rates, got):
            assert value == bound_at(snr, ChannelSpec(16, 4, fading, r))

    def test_consecutive_calls_are_independent(self):
        snr, rates = Snr.from_db(10.0), [0.5, 1.0, 2.5]
        (wide,) = outage_lower_bounds([snr], 16, 4, M2, rates, 512)
        (narrow,) = outage_lower_bounds([snr], 4, 4, M2, rates, 512)
        assert outage_lower_bounds([snr], 4, 4, M2, rates, 512)[0] == narrow
        assert outage_lower_bounds([snr], 16, 4, M2, rates, 512)[0] == wide
        assert narrow != wide

    def test_empty_and_invalid_rates(self):
        assert outage_lower_bounds([Snr(10.0)], 4, 4, M1, []) == [[]]
        with pytest.raises(ValueError):
            outage_lower_bounds([Snr(10.0)], 4, 4, M1, [1.0, 4.5])

    @pytest.mark.parametrize("B, M, fading, name", [(-5, 4, M1, "B"), (4, "x", M1, "M"), (4, 4, None, "fading")], ids=["B", "M", "fading"])
    def test_channel_checked_without_rates(self, B, M, fading, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            outage_lower_bounds([Snr(10.0)], B, M, fading, [])

    def test_ratesweep_rows_equal_curve(self):
        runner = CliRunner()
        sweep = runner.invoke(cli.main, ["ratesweep", "--m", "0.5", "--snr-db-fixed", "7", "--rate", "0.5:4:0.5"])
        assert sweep.exit_code == 0
        rows = sweep.output.splitlines()[2:]
        assert len(rows) == 8
        for i, row in enumerate(rows):
            rate = 0.5 + i * 0.5
            curve = runner.invoke(cli.main, ["curve", "--m", "0.5", "--snr-db", "7:7:1", "--rate", repr(rate)])
            assert curve.exit_code == 0
            assert row.split(",")[1] == curve.output.splitlines()[2].split(",")[1]

    def test_conditioning_probability_computed_once(self, monkeypatch):
        points = []

        def counted(fn):
            def wrapper(a, x):
                points.append(np.size(x))
                return fn(a, x)

            return wrapper

        monkeypatch.setattr(bound, "reg_gamma_p", counted(bound.reg_gamma_p))
        monkeypatch.setattr(bound, "reg_gamma_pq", counted(bound.reg_gamma_pq))
        outage_lower_bounds([Snr.from_db(8.0)], 4, 4, M1, [1.0, 2.5], 512)
        # One call over the 511 interior grid points and M, whose P is the
        # conditioning probability and whose (Q, P) is (p, 1-p).
        assert points == [512]

    def test_ratesweep_shares_pmf_and_spectra(self, monkeypatch):
        # One pmf and at most one untilted power per SNR, whatever the rates.
        calls = {"build_pmf_A": 0, "untilted": 0}
        build, convolve = bound.build_pmf_A, bound.convolve_power

        def counted_build(*args):
            calls["build_pmf_A"] += 1
            return build(*args)

        def counted_convolve(law, n):
            calls["untilted"] += law.theta == 0
            return convolve(law, n)

        monkeypatch.setattr(bound, "build_pmf_A", counted_build)
        monkeypatch.setattr(bound, "convolve_power", counted_convolve)
        rates = [0.25 * k for k in range(1, 16)]
        (values,) = outage_lower_bounds([Snr(10.0)], 8, 4, M1, rates, 1024)
        assert calls == {"build_pmf_A": 1, "untilted": 1}
        assert values == [bound_at(Snr(10.0), ChannelSpec(8, 4, M1, r), 1024) for r in rates]


# Grid sizes around multiples of the 4 SNRs that share an incomplete-gamma
# call at the default cells.
GRID_SIZES = [1, 4, 5, 7, 8, 9, 17]


def discontinuity_rates(B):
    """A rate off every diversity discontinuity at M = 4, then one on it: B(1 - R/M) an integer."""
    rates = [1.3, 4.0 * (1 - (B // 2) / B)]
    assert [diversity_arg(B, 4, r).is_integer() for r in rates] == [False, True]
    return rates


def cli_rows(args):
    res = CliRunner().invoke(cli.main, args)
    assert res.exit_code == 0, (args, res.output)
    return [line.split(",") for line in res.output.splitlines()[2:]]


class TestBlockTabulation:
    """No value depends on the grid whose SNRs share its incomplete-gamma call."""

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_tabulation_does_not_depend_on_the_block(self, n):
        spec = spec44(MH, 1.0)
        snrs = [Snr.from_db(-3.0 + 2.5 * i) for i in range(n)]
        block = list(tabulate_A(snrs, spec))
        assert [(p, q) for _, p, q in block] == [p_and_q(s, spec) for s in snrs]
        for snr, (pmf, _, _) in zip(snrs, block):
            assert np.array_equal(pmf.masses, pmf_A(snr, spec).masses), snr

    @pytest.mark.parametrize("B", [1, 2, 4, 8])
    def test_every_command_equals_the_one_point_bound(self, B):
        rates = discontinuity_rates(B)
        fmt = cli._fmt
        for n in GRID_SIZES:
            dbs = [-3.0 + 2.5 * i for i in range(n)]
            one = [[bound_at(Snr.from_db(db), ChannelSpec(B, 4, MH, r)) for r in rates] for db in dbs]
            got = outage_lower_bounds([Snr.from_db(db) for db in dbs], B, 4, MH, rates)
            assert got == one
            for j, rate in enumerate(rates):
                flags = ["-B", str(B), "--m", "0.5", "--rate", repr(rate), "--snr-db", f"-3:{dbs[-1]!r}:2.5"]
                curve = cli_rows(["curve", *flags])
                assert curve == [[fmt(db), fmt(row[j])] for db, row in zip(dbs, one)]
                asymptote = cli_rows(["asymptote", *flags])
                assert [r[:2] for r in asymptote] == [[fmt(db), fmt(row[j])] for db, row in zip(dbs, one)]

    @pytest.mark.parametrize("B", [1, 2, 4, 8])
    def test_ratesweep_equals_the_one_point_bound(self, B):
        rates = discontinuity_rates(B)
        for db in [-3.0 + 2.5 * i for i in range(GRID_SIZES[-1])]:
            sweep = cli_rows(["ratesweep", "-B", str(B), "--m", "0.5", "--snr-db-fixed", repr(db), "--rate", f"{rates[0]!r}:{rates[1]!r}:{rates[1] - rates[0]!r}"])
            want = [bound_at(Snr.from_db(db), ChannelSpec(B, 4, MH, r)) for r in rates]
            assert sweep == [[cli._fmt(r), cli._fmt(v)] for r, v in zip(rates, want)]


def truncated_power(masses, n, keep):
    """First keep cells of masses convolved with itself n times, by repeated
    squaring with np.convolve; every product is of nonnegative masses, so
    each cell keeps its relative accuracy however small it is."""
    out = None
    base = masses[:keep]
    while n:
        if n & 1:
            out = base if out is None else np.convolve(out, base)[:keep]
        n >>= 1
        if n:
            base = np.convolve(base, base)[:keep]
    return out


def direct_bound(snr, spec, n_cells=bound.DEFAULT_CELLS, terms=None):
    """The bound as the binomial mixture over the number t of capped blocks,
    each F_Yt from the truncated direct convolution, read as the kernel reads
    it: the (n-1)/2-cell shift, whole cells below the threshold and the
    straddling cell's linear fraction.  Without terms, the mixture runs while
    BR - tM is above the (n-1)/2-cell shift, the last term that can count."""
    pmf, p, q = tabulated(snr, spec, n_cells)
    B, step, total = spec.B, pmf.grid_step, 0.0
    for t in range(B if terms is None else terms):
        n = B - t
        rel = (B * spec.rate - t * spec.M - (n - 1) * step / 2.0) / step
        if rel <= 0.0 or (t and p == 0.0):
            break
        j = int(rel)
        cells = np.pad(truncated_power(pmf.masses, n, j + 1), (0, j + 1))
        log_weight = math.lgamma(B + 1) - math.lgamma(t + 1) - math.lgamma(n + 1) + (t * math.log(p) if t else 0.0) + n * math.log(q)
        total += math.exp(log_weight) * (cells[:j].sum() + cells[j] * (rel - j))
    return total


# (B, m, R, dB) of a deep-tail bound-curve benchmark read at M = 4, which its
# single power resolves: its halves of two blocks take one transform.
BENCH_COUNT_READ = (4, 5.0, 2.9762948825855524, 39.423128648821994)

# (B, m, R, dB) of a read between atom clusters (test_reads_between_atom_clusters)
# that the single power cannot resolve, so it is summed over the capped-block counts.
CLUSTERED_READ = (5, 14.626, 3.5908, 50.26)


class TestFftFloor:
    """Deep-tail values, which an untilted FFT power reads from its round-off
    floor, against the truncated direct convolution (ROADMAP items 2 and 14)."""

    @pytest.mark.parametrize(
        "B, m, rate, db",
        [
            (16, 1.0, 0.25, 11.0),
            (4, 5.0, 0.5, 30.0),
            (4, 5.0, 1.0, 20.0),
            (4, 10.0, 1.0, 30.0),
            (4, 20.0, 1.0, 20.0),
            (32, 2.0, 0.25, 5.0),
            (64, 0.5, 0.1, 10.0),
            (4, 2.0, 1.0, 10.0),
            (32, 10.0, 0.1, -5.0),
            (32, 10.0, 0.25, 0.0),
            (64, 10.0, 0.1, -8.0),
            (64, 10.0, 0.25, -5.0),
            (32, 20.0, 0.1, -8.0),
            (32, 20.0, 0.25, -5.0),
            (64, 20.0, 0.1, -10.0),
            (64, 20.0, 0.25, -5.0),
            # R = M: every sum but the all-capped one counts, and that sum
            # holds all but about 1e-11 of the mass.
            (4, 5.0, 4.0, 38.0),
            (8, 20.0, 4.0, 25.0),
            # The last SNR of a seed-1 bound-curve benchmark command.
            BENCH_COUNT_READ,
        ],
    )
    def test_matches_truncated_direct_convolution(self, B, m, rate, db):
        spec, snr = ChannelSpec(B, 4, NakagamiParam(m), rate), Snr.from_db(db)
        want = direct_bound(snr, spec)
        assert want > 0.0
        assert bound_at(snr, spec) == pytest.approx(want, rel=1e-6, abs=0.0)

    # At high m and SNR the atom holds nearly all the mass, the tilted sum
    # clusters by the number of capped blocks, and BR falls between two
    # clusters: the single power's read is below its round-off, and the
    # bound is summed over the capped-block counts instead.  At B = 2 the
    # halves are the cells themselves, which carry no round-off.
    @pytest.mark.parametrize("B, m, rate, db", [(3, 14.358, 3.8187, 40.39), (2, 18.637, 3.7082, 31.04), CLUSTERED_READ])
    def test_reads_between_atom_clusters(self, B, m, rate, db):
        self.test_matches_truncated_direct_convolution(B, m, rate, db)

    def test_clustered_point_takes_the_count_sum(self, monkeypatch):
        calls = []
        count_sum = bound._by_capped_count

        def spy(*args):
            calls.append(args)
            return count_sum(*args)

        monkeypatch.setattr(bound, "_by_capped_count", spy)
        for (B, m, rate, db), count_sums in ((CLUSTERED_READ, 1), (BENCH_COUNT_READ, 0)):
            calls.clear()
            bound_at(Snr.from_db(db), ChannelSpec(B, 4, NakagamiParam(m), rate))
            assert len(calls) == count_sums, (B, m, rate, db)


class TestCappedCountSum:
    """The capped-count sum that resolves lumpy reads gives the single power's
    read on ordinary points too: the same bound by the other path."""

    @pytest.mark.parametrize("B", [2, 4, 8])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 5.0])
    def test_matches_the_bound(self, B, m):
        rates, snrs = [0.5, 1.0, 2.0, 3.0], [Snr.from_db(db) for db in (0.0, 10.0, 20.0, 30.0)]
        spec = ChannelSpec(B, 4, NakagamiParam(m), 1.0)
        bounds = outage_lower_bounds(snrs, B, 4, NakagamiParam(m), rates, 1024)
        for snr, row in zip(snrs, bounds):
            pmf, p, q = tabulated(snr, spec, 1024)
            for rate, value in zip(rates, row):
                log_f = bound._by_capped_count(pmf, math.log(p), math.log(q), B, range(B), B * rate, 4)
                assert math.exp(log_f) == pytest.approx(value, rel=1e-9, abs=0.0), (snr.db, rate)

    def test_unresolved_term_raises_naming_it(self, monkeypatch):
        # With no read resolved, the single power's read goes to the count sum,
        # whose transformed terms then raise, by quantity, SNR, rate and count.
        monkeypatch.setattr(bound, "_RESOLVED", math.inf)
        B, m, rate, db = BENCH_COUNT_READ
        with pytest.raises(ArithmeticError, match=r"^outage bound cannot be computed at snr_db 39\.4231, rate 2\.97629: its term with \d of 4 blocks capped"):
            bound_at(Snr.from_db(db), ChannelSpec(B, 4, NakagamiParam(m), rate))
        with pytest.raises(ArithmeticError, match=r"^coding gain K cannot be computed at rate 2: its term with 1 of 4 blocks capped"):
            coding_gain(ChannelSpec(4, 4, M2, 2.0))
        res = CliRunner().invoke(cli.main, ["curve", "--m", "5", "--rate", "2.9", "--snr-db", "40:40:1"])
        assert res.exit_code == 3 and "outage bound cannot be computed at snr_db 40, rate 2.9: its term with" in res.output

    def test_unresolved_term_far_below_the_sum_is_dropped(self, monkeypatch):
        # At 80 dB, m = 2, R = 3 the terms with 2, 1 and 0 capped blocks lie
        # about 0, 29 and 60 nats apart.  A term whose round-off floor is
        # forced just above its read counts for nothing when the floor lies
        # more than ln 2^53 below the resolved terms' sum, and raises otherwise.
        pmf, p, q = tabulated(Snr.from_db(80.0), ChannelSpec(4, 4, M2, 3.0), 1024)
        want = bound._by_capped_count(pmf, math.log(p), math.log(q), 4, range(4), 12.0, 4)
        read = bound._log_cdf_sum
        for blocks, ok in ((4, True), (3, False)):
            def forced(law, n, x, shared=None):
                log_f, floor, power = read(law, n, x, shared)
                return log_f, log_f + 1.0 if n == blocks else floor, power

            monkeypatch.setattr(bound, "_log_cdf_sum", forced)
            if ok:
                assert bound._by_capped_count(pmf, math.log(p), math.log(q), 4, range(4), 12.0, 4) == want
            else:
                with pytest.raises(ArithmeticError, match="its term with 1 of 4 blocks capped"):
                    bound._by_capped_count(pmf, math.log(p), math.log(q), 4, range(4), 12.0, 4)


class TestLogCdfSum:
    """The one read of an n-fold sum: its untilted power is built once per
    shared cache, and a read without a cache gives the same values."""

    def test_shared_untilted_power_changes_no_read(self):
        spec = ChannelSpec(8, 4, M1, 4)
        pmf_a, p, q = tabulated(Snr(10.0), spec, 1024)
        law = TabulatedPmf(pmf_a.grid_step, q * pmf_a.masses, p)
        shared, took_shared = {}, 0
        for rate in sweep_rates(8, 4):
            log_f, resolved, power = bound._log_cdf_sum(law, 8, 8 * rate, shared)
            took_shared += power is shared.get(8)
            alone = bound._log_cdf_sum(law, 8, 8 * rate)
            assert (alone[0], alone[1]) == (log_f, resolved), rate
        assert list(shared) == [8] and shared[8].theta == 0
        assert 0 < took_shared < len(sweep_rates(8, 4))
