import math

import numpy as np
import pytest

from nakfade import asymptotics, bound
from nakfade.asymptotics import (
    BlockLengthScale,
    asymptote,
    coding_gain,
    optimal_exponent,
    random_coding_exponent,
    singleton_bound,
)
from nakfade.bound import ChannelSpec, outage_lower_bound, tabulate_A
from nakfade.fading import NakagamiParam
from nakfade.mutual_info import Snr
from test_bound import truncated_power

M1 = NakagamiParam(1)
M2 = NakagamiParam(2)
MH = NakagamiParam(0.5)
LN2 = math.log(2.0)


def limit_cdf(xi, M, m):
    """Closed-form limit cdf of A, ((2^xi - 1)/(2^M - 1))^m on [0, M]."""
    return ((2.0**xi - 1.0) / (2.0**M - 1.0)) ** m


def limit_pmf(monkeypatch, spec, n_cells):
    """The pmf of A's limit law that coding_gain tabulates and convolves."""
    seen = []
    build = asymptotics.build_pmf_A

    def capture(*args):
        seen.append(build(*args))
        return seen[-1]

    monkeypatch.setattr(asymptotics, "build_pmf_A", capture)
    coding_gain(spec, n_cells)
    assert len(seen) == 1
    return seen[0]


class TestSingletonBound:
    @pytest.mark.parametrize("rate,want", [(1.0, 4), (2.0, 3), (3.0, 2), (4.0, 1)])
    def test_b4_m4_values(self, rate, want):
        assert singleton_bound(4, 4, rate) == want

    @pytest.mark.parametrize("rate", [0.0, -1.0, 4.5])
    def test_domain(self, rate):
        with pytest.raises(ValueError):
            singleton_bound(4, 4, rate)

    def test_staircase(self):
        B, M = 4, 4
        rates = np.linspace(0.01, 4.0, 797)
        vals = np.array([singleton_bound(B, M, float(r)) for r in rates])
        assert np.all(np.diff(vals) <= 0)
        assert np.array_equal(np.unique(vals), np.arange(1, 5))
        # jumps exactly at R = M(1 - k/B)
        jumps = rates[1:][np.diff(vals) != 0]
        expected = {M * (1 - k / B) for k in range(1, B)}
        for j in jumps:
            assert any(j - (rates[1] - rates[0]) < e <= j for e in expected)

    def test_float_fuzz_snaps_to_integer(self):
        # 49*(4/7) rounds below the exact integer 28 in float arithmetic
        assert singleton_bound(49, 7, 3.0) == 29

    @pytest.mark.parametrize("rate", [1e-10, 1e-300])
    def test_tiny_rate_has_diversity_b(self, rate):
        # B(1 - R/M) snaps up to B, but R > 0 keeps d_B(R) at B.
        assert singleton_bound(4, 4, rate) == 4
        assert coding_gain(ChannelSpec(4, 4, M1, rate), 64) >= 0.0


class TestOptimalExponent:
    def test_b4_m4_exponents(self):
        assert optimal_exponent(ChannelSpec(4, 4, M2, 1.0)) == pytest.approx(8.0)
        assert optimal_exponent(ChannelSpec(4, 4, MH, 3.0)) == pytest.approx(1.0)

    def test_rayleigh_reduction(self):
        for rate in (0.5, 1.7, 3.3):
            assert optimal_exponent(ChannelSpec(4, 4, M1, rate)) == singleton_bound(4, 4, rate)


class TestAsymptoticLaw:
    """The limit law of A as coding_gain tabulates it, against its closed form."""

    def test_edges(self, monkeypatch):
        pmf = limit_pmf(monkeypatch, ChannelSpec(4, 4, M2, 1.0), 64)
        assert pmf.n_cells * pmf.grid_step == 4.0
        assert pmf.masses[0] == limit_cdf(pmf.grid_step, 4, 2.0)
        assert pmf.masses.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rayleigh_point(self, monkeypatch):
        pmf = limit_pmf(monkeypatch, ChannelSpec(4, 4, M1, 1.0), 64)
        assert np.cumsum(pmf.masses)[31] == pytest.approx(0.2, rel=1e-12)  # the edge at 2.0

    @pytest.mark.parametrize("m", [MH, M1, M2])
    def test_pmf_cumulative_matches_cdf(self, monkeypatch, m):
        pmf = limit_pmf(monkeypatch, ChannelSpec(4, 4, m, 1.0), 2048)
        grid = np.linspace(0.0, 4.0, 2049)[1:]
        assert np.max(np.abs(np.cumsum(pmf.masses) - limit_cdf(grid, 4, m.m))) < 1e-12

    @pytest.mark.parametrize("cells", [2, 64, 4096])
    @pytest.mark.parametrize("M", [2, 4])
    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0, 2.0, 20.0])
    def test_masses_are_the_closed_form_cdf_differences(self, monkeypatch, m, M, cells):
        pmf = limit_pmf(monkeypatch, ChannelSpec(1, M, NakagamiParam(m), M / 2), cells)
        assert pmf.grid_step == M / cells
        assert np.array_equal(pmf.masses, np.diff(limit_cdf(np.linspace(0.0, M, cells + 1), M, m)))

    def test_is_high_snr_limit_of_conditional_cdf(self):
        conditional = next(tabulate_A([Snr(1e8)], ChannelSpec(4, 4, M2, 1.0), 100))[0]
        xs = np.linspace(0.0, 4.0, 101)[1:]
        dev = np.abs(limit_cdf(xs, 4, 2.0) - np.cumsum(conditional.masses))
        assert np.max(dev) < 1e-4


class TestCodingGain:
    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0, 3.0])
    def test_single_block_rayleigh_closed_form(self, rate):
        got = coding_gain(ChannelSpec(1, 4, M1, rate))
        assert got == pytest.approx(2.0**rate - 1.0, abs=1e-6)

    def test_against_direct_convolution_oracle(self):
        spec = ChannelSpec(4, 4, M2, 1.0)
        n = 4096
        grid = np.linspace(0.0, 4.0, n + 1)
        masses = np.diff(((2.0**grid - 1.0) / 15.0) ** 2)
        direct = masses.copy()
        for _ in range(3):
            direct = np.convolve(direct, masses)
        direct /= direct.sum()
        # Read at 4 with the 3/2-cell shift: whole cells below, the straddling one linearly.
        rel = (4.0 - 1.5 * 4.0 / n) / (4.0 / n)
        f_y = direct[: int(rel)].sum() + direct[int(rel)] * (rel - int(rel))
        want = f_y * math.comb(4, 0) * (2.0 * 15.0) ** 8 / (2.0 * math.gamma(2.0)) ** 4
        assert coding_gain(spec) == pytest.approx(want, rel=1e-8)

    # m = 50 puts log10 K at about 85.76, above the old floor's overflow.
    @pytest.mark.parametrize("m", [2.0, 5.0, 10.0, 20.0, 50.0])
    def test_matches_truncated_direct_convolution(self, m):
        # B=4, M=4, R=1: d_B = 4, read at BR - (B - d_B) M = 4 with the (d_B - 1)/2-cell shift.
        B, M, rate, d, cells = 4, 4, 1.0, 4, 4096
        step = M / cells
        masses = np.diff(limit_cdf(np.linspace(0.0, M, cells + 1), M, m))
        rel = (B * rate - (B - d) * M - (d - 1) * step / 2.0) / step
        j = int(rel)
        power = truncated_power(masses, d, j + 1)
        f_y = power[:j].sum() + power[j] * (rel - j)
        log_k = math.log(math.comb(B, B - d)) + m * d * math.log(m * (2.0**M - 1.0)) - d * (math.log(m) + math.lgamma(m))
        # The product in log space: at m = 50, e^log_k alone overflows.
        assert coding_gain(ChannelSpec(B, M, NakagamiParam(m), rate), cells) == pytest.approx(math.exp(math.log(f_y) + log_k), rel=1e-6)

    # K is the SNR-free limit of the bound's capped-count term with
    # t = B - d_B blocks at the cap, q rho^m in place of q: at 80 dB the term
    # is within rho^-1 (m = 2) or rho^-1/2 (m = 1/2) of K, in log.
    @pytest.mark.parametrize("m, rate", [(2.0, 1.0), (2.0, 2.5), (0.5, 3.0)])
    def test_is_the_limit_of_the_bounds_capped_count_term(self, m, rate):
        spec, snr = ChannelSpec(4, 4, NakagamiParam(m), rate), Snr.from_db(80.0)
        d = singleton_bound(4, 4, rate)
        pmf, p, q = next(tabulate_A([snr], spec, 1024))
        term = bound._by_capped_count(pmf, math.log(p), math.log(q) + m * math.log(snr.rho), 4, [4 - d], 4 * rate, 4)
        assert term == pytest.approx(math.log(coding_gain(spec, 1024)), abs=1e-3)

    # B=4, M=4 at 64 cells: h = 1/16, and the read at x = 4R sees the 4-fold
    # sums below x + h/2, the smallest of which is 4 h/2, so it sees one only
    # above x = 3h/2.  Below that K is exactly 0; R = 0.025 puts x above it.
    def test_read_below_the_smallest_sum_is_an_exact_zero(self):
        assert coding_gain(ChannelSpec(4, 4, M1, 1e-10), 64) == 0.0
        assert coding_gain(ChannelSpec(4, 4, M1, 0.025), 64) > 0.0

    # At m = 300 the limit law's cell masses underflow below about 1.17 bits,
    # so no four values sum below 4 and the read sees no mass, though K is
    # 10^346 already at m = 200.
    @pytest.mark.parametrize("m", [300.0, 1000.0])
    def test_underflowed_read_raises(self, m):
        with pytest.raises(ArithmeticError, match=f"cell masses underflow a float at m = {m:g}"):
            coding_gain(ChannelSpec(4, 4, NakagamiParam(m), 1.0))


    @pytest.mark.parametrize("m", [20.0, 100.0])
    def test_large_m_matches_log_space_direct_convolution(self, m):
        # At m = 100 the limit law's first cells underflow, so the direct
        # convolution runs on log masses: log a_k from log F at the cell
        # edges, each sum by log-sum-exp.  B=4, M=4, R=1: d_B = 4, read at 4
        # with the (d_B - 1)/2-cell shift.  abs=1e-6 in log K is 1e-6 relative in K.
        B, M, rate, d, cells = 4, 4, 1.0, 4, 4096
        step = M / cells
        with np.errstate(divide="ignore"):
            log_cdf = m * np.log(limit_cdf(np.linspace(0.0, M, cells + 1), M, 1.0))
            log_masses = log_cdf[1:] + np.log1p(-np.exp(log_cdf[:-1] - log_cdf[1:]))
        rel = (B * rate - (B - d) * M - (d - 1) * step / 2.0) / step
        j = int(rel)

        def log_sum_exp(v):
            return v.max() + math.log(np.exp(v - v.max()).sum()) if v.max() > -np.inf else -np.inf

        def log_convolve(a, b):
            return np.array([log_sum_exp(a[: i + 1] + b[i::-1]) for i in range(j + 1)])

        two = log_convolve(log_masses[: j + 1], log_masses[: j + 1])
        four = log_convolve(two, two)
        log_f = log_sum_exp(np.append(four[:j], four[j] + math.log(rel - j)))
        log_k = math.log(math.comb(B, B - d)) + m * d * math.log(m * (2.0**M - 1.0)) - d * (math.log(m) + math.lgamma(m))
        assert math.log(coding_gain(ChannelSpec(B, M, NakagamiParam(m), rate), cells)) == pytest.approx(log_f + log_k, abs=1e-6)


class TestAsymptote:
    def test_pure_power_law(self):
        spec = ChannelSpec(4, 4, M2, 1.0)
        ratio = asymptote(Snr(1e4), spec) / asymptote(Snr(1e5), spec)
        assert ratio == pytest.approx(10.0 ** (2 * 4), rel=1e-9)

    def test_single_block_value(self):
        got = asymptote(Snr(1e3), ChannelSpec(1, 4, M1, 2.0))
        assert got == pytest.approx(3e-3, rel=1e-6)

    def test_bound_approaches_asymptote(self):
        spec = ChannelSpec(4, 4, M2, 2.0)
        r20 = outage_lower_bound(Snr.from_db(20), spec).value / asymptote(Snr.from_db(20), spec)
        r40 = outage_lower_bound(Snr.from_db(40), spec).value / asymptote(Snr.from_db(40), spec)
        assert abs(r40 - 1) < abs(r20 - 1)

    # At -770 dB the product K rho^-4 overflows; at -800 dB rho^-4 itself does.
    @pytest.mark.parametrize("db,log10_value", [(-770.0, "309.393"), (-800.0, "321.393")])
    def test_overflow_raises_naming_snr(self, db, log10_value):
        msg = f"^asymptote overflows a float at snr_db {db:g}: log10 asymptote = {log10_value}$"
        with pytest.raises(ArithmeticError, match=msg):
            asymptote(Snr.from_db(db), ChannelSpec(4, 4, M1, 1.0))


class TestRandomCodingExponent:
    def test_first_branch_value(self):
        # lambda M ln2 = m/2 = 1 at B=M=4, R=1 -> 4 * 1 * (1 - 1/4) = 3
        spec = ChannelSpec(4, 4, M2, 1.0)
        lam = BlockLengthScale(1.0 / (4.0 * LN2))
        assert random_coding_exponent(spec, lam) == pytest.approx(3.0, rel=1e-12)

    def test_rate_equal_bits_vanishes(self):
        spec = ChannelSpec(4, 4, M2, 4.0)
        for lam in (0.1, 1.0, 50.0):
            assert random_coding_exponent(spec, BlockLengthScale(lam)) == pytest.approx(0.0, abs=1e-12)

    def test_large_lambda_attains_optimal_off_discontinuity(self):
        spec = ChannelSpec(4, 4, M2, 1.5)  # B(1 - R/M) = 2.5, not integer
        got = random_coding_exponent(spec, BlockLengthScale(1e3))
        assert got == pytest.approx(optimal_exponent(spec), rel=1e-12)

    @pytest.mark.parametrize("scaled", [0.5, 1.0, 2.0, 1000.0])
    def test_never_exceeds_optimal(self, scaled):
        m = 2.0
        lam = BlockLengthScale(scaled * m / (4.0 * LN2))
        for rate in np.linspace(0.02, 3.98, 200):
            spec = ChannelSpec(4, 4, M2, float(rate))
            assert random_coding_exponent(spec, lam) <= m * singleton_bound(4, 4, float(rate)) + 1e-12

    def test_branch_continuity(self):
        m = 2.0
        lam_star = m / (4.0 * LN2)
        for rate in np.linspace(0.05, 3.95, 40):
            spec = ChannelSpec(4, 4, M2, float(rate))
            lo = random_coding_exponent(spec, BlockLengthScale(lam_star * (1 - 1e-12)))
            hi = random_coding_exponent(spec, BlockLengthScale(lam_star * (1 + 1e-12)))
            assert abs(lo - hi) < 1e-9
