import math

import numpy as np
import pytest

from nakfade.asymptotics import (
    BlockLengthScale,
    asymptote,
    asymptotic_cdf_A,
    coding_gain,
    optimal_exponent,
    random_coding_exponent,
    singleton_bound,
)
from nakfade.bound import ChannelSpec, TabulatedPmf, cdf_Y_at, conditional_cdf_A, outage_lower_bound
from nakfade.fading import NakagamiParam
from nakfade.mutual_info import Snr

M1 = NakagamiParam(1)
M2 = NakagamiParam(2)
MH = NakagamiParam(0.5)
LN2 = math.log(2.0)


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


class TestOptimalExponent:
    def test_b4_m4_exponents(self):
        assert optimal_exponent(ChannelSpec(4, 4, M2, 1.0)) == pytest.approx(8.0)
        assert optimal_exponent(ChannelSpec(4, 4, MH, 3.0)) == pytest.approx(1.0)

    def test_rayleigh_reduction(self):
        for rate in (0.5, 1.7, 3.3):
            assert optimal_exponent(ChannelSpec(4, 4, M1, rate)) == singleton_bound(4, 4, rate)


class TestAsymptoticLaw:
    def test_edges(self):
        assert asymptotic_cdf_A(0.0, 4, M2) == 0.0
        assert asymptotic_cdf_A(4.0, 4, M2) == 1.0
        assert asymptotic_cdf_A(5.0, 4, M2) == 1.0

    def test_rayleigh_point(self):
        assert asymptotic_cdf_A(2.0, 4, M1) == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize("m", [MH, M1, M2])
    def test_pmf_cumulative_matches_cdf(self, m):
        pmf = TabulatedPmf.from_cdf(lambda xi: asymptotic_cdf_A(xi, 4, m), 4, 2048)
        grid = (1 + np.arange(pmf.n_cells)) * pmf.grid_step
        assert np.max(np.abs(np.cumsum(pmf.masses) - asymptotic_cdf_A(grid, 4, m))) < 1e-12

    def test_is_high_snr_limit_of_conditional_cdf(self):
        spec = ChannelSpec(4, 4, M2, 1.0)
        xs = np.linspace(0.0, 4.0, 101)
        dev = np.abs(asymptotic_cdf_A(xs, 4, M2) - conditional_cdf_A(xs, Snr(1e8), spec))
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
        pmf = TabulatedPmf(4.0 / n, direct, origin=1.5 * 4.0 / n)
        want = cdf_Y_at(pmf, 4.0) * math.comb(4, 0) * (2.0 * 15.0) ** 8 / (2.0 * math.gamma(2.0)) ** 4
        assert coding_gain(spec) == pytest.approx(want, rel=1e-8)


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
