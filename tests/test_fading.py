import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from nakfade.fading import (
    CHUNK,
    NakagamiParam,
    gain_block,
    gain_cdf,
    gain_pdf,
    reg_gamma_pq,
    rician_k_to_m,
)

M_SET = [0.3, 0.5, 1.0, 2.0, 5.0]

# Independent high-resolution integration of int_1^inf t^(-1/2) e^-t dt
# (equals sqrt(pi) erfc(1)); frozen from a 30-digit quadrature.
GAMMA_HALF_AT_ONE = 0.2788055852806619765


def reg_q(a, x):
    return reg_gamma_pq(a, x)[1]


class TestNakagamiParam:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            NakagamiParam(bad)

    def test_accepts_positive(self):
        assert NakagamiParam(0.5).m == 0.5


class TestGammaUpperIncomplete:
    """The regularized pair (P, Q) = reg_gamma_pq(a, x) against independent oracles."""

    def test_exponential_case(self):
        assert reg_q(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_complete_gamma_at_zero(self):
        assert reg_q(2.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_half_shape_frozen_oracle(self):
        assert reg_q(0.5, 1.0) == pytest.approx(GAMMA_HALF_AT_ONE / math.sqrt(math.pi), rel=1e-12)
        assert reg_q(0.5, 1.0) == pytest.approx(math.erfc(1.0), rel=1e-12)

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_matches_scipy(self, a):
        xs = np.concatenate([np.geomspace(1e-8, 1e-3, 30), np.linspace(1e-3, 5, 60), np.linspace(5, 80, 40)])
        p, q = reg_gamma_pq(a, xs)
        for mine, ref in ((p, special.gammainc(a, xs)), (q, special.gammaincc(a, xs))):
            ok = ref > 0
            assert np.max(np.abs(mine[ok] / ref[ok] - 1)) < 1e-12

    @pytest.mark.parametrize("a", M_SET)
    def test_recurrence(self, a):
        # Q(a+1, x) = Q(a, x) + x^a e^-x / Gamma(a+1)
        xs = np.linspace(0.05, 30, 80)
        lhs = reg_q(a + 1.0, xs)
        rhs = reg_q(a, xs) + np.exp(a * np.log(xs) - xs - math.lgamma(a + 1.0))
        assert np.max(np.abs(lhs / rhs - 1)) < 1e-10

    def test_decreasing_in_x(self):
        xs = np.linspace(0.0, 40, 200)
        vals = reg_q(1.7, xs)
        assert np.all(np.diff(vals) <= 0)

    @pytest.mark.parametrize("a,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
    def test_domain_errors(self, a, x):
        with pytest.raises(ValueError):
            reg_gamma_pq(a, x)


class TestGainPdf:
    def test_rayleigh_point(self):
        assert gain_pdf(1.0, NakagamiParam(1)) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_m2_point(self):
        assert gain_pdf(1.0, NakagamiParam(2)) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-12)

    def test_integrates_to_one_below_shape_one(self):
        p = NakagamiParam(0.5)
        # substitute xi = u^2 to remove the integrable endpoint singularity
        total, err = integrate.quad(lambda u: gain_pdf(u * u, p) * 2 * u, 0.0, np.inf, epsabs=1e-11, epsrel=1e-11)
        assert err < 1e-9
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_singularity_flagged(self):
        assert gain_pdf(0.0, NakagamiParam(0.5)) == math.inf
        assert gain_pdf(0.0, NakagamiParam(2.0)) == 0.0


class TestGainCdf:
    def test_rayleigh_point(self):
        assert gain_cdf(1.0, NakagamiParam(1)) == pytest.approx(1 - math.exp(-1.0), rel=1e-12)

    def test_support_edge(self):
        assert gain_cdf(0.0, NakagamiParam(0.5)) == 0.0
        assert gain_cdf(-3.0, NakagamiParam(2)) == 0.0

    def test_m2_closed_form(self):
        assert gain_cdf(1.0, NakagamiParam(2)) == pytest.approx(1 - 3 * math.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("m", M_SET)
    def test_monotone_and_limits(self, m):
        p = NakagamiParam(m)
        xs = np.linspace(0.0, 12.0, 300)
        vals = gain_cdf(xs, p)
        assert np.all(np.diff(vals) >= 0)
        assert gain_cdf(0.0, p) == 0.0
        assert gain_cdf(1e6, p) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", M_SET)
    def test_derivative_matches_pdf(self, m):
        # grid stays where the density is not vanishing, else the finite
        # difference loses the 1e-6 target to cancellation noise
        p = NakagamiParam(m)
        xs = np.linspace(0.2, 3.0, 50)
        h = 1e-6
        num = (gain_cdf(xs + h, p) - gain_cdf(xs - h, p)) / (2 * h)
        assert np.max(np.abs(num / gain_pdf(xs, p) - 1)) < 1e-6


class TestSampling:
    def test_unit_mean(self):
        g = gain_block(NakagamiParam(2), seed=42, first=0, count=10**6)
        assert g.mean() == pytest.approx(1.0, abs=0.005)

    def test_variance_one_over_m(self):
        g = gain_block(NakagamiParam(2), seed=42, first=0, count=10**6)
        assert g.var() == pytest.approx(0.5, abs=0.01)

    def test_ks_rayleigh(self):
        g = gain_block(NakagamiParam(1), seed=7, first=0, count=10**5).ravel()
        stat = stats.kstest(g, lambda x: 1 - np.exp(-x)).statistic
        assert stat < 1.628 / math.sqrt(g.size)  # 1% critical value

    @pytest.mark.parametrize("m", M_SET)
    def test_ks_against_gain_cdf(self, m):
        p = NakagamiParam(m)
        g = gain_block(p, seed=11, first=0, count=2 * 10**4).ravel()
        stat = stats.kstest(g, lambda x: gain_cdf(x, p)).statistic
        assert stat < 1.628 / math.sqrt(g.size)

    def test_partition_independence(self):
        p = NakagamiParam(1.3)
        whole = gain_block(p, seed=5, first=0, count=3 * CHUNK + 17, width=4)
        parts = np.vstack(
            [
                gain_block(p, seed=5, first=0, count=100, width=4),
                gain_block(p, seed=5, first=100, count=CHUNK, width=4),
                gain_block(p, seed=5, first=100 + CHUNK, count=2 * CHUNK - 83, width=4),
            ]
        )
        assert np.array_equal(whole[: parts.shape[0]], parts)

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_ranges_ending_mid_chunk_match_full_chunk_draws(self, m):
        p = NakagamiParam(m)
        full = gain_block(p, seed=8, first=0, count=2 * CHUNK, width=3, stream_id=2)
        for first, count in [(CHUNK, 1), (CHUNK, 24), (CHUNK, 1950), (CHUNK, CHUNK - 1), (CHUNK + 7, 100), (CHUNK - 5, 29)]:
            part = gain_block(p, seed=8, first=first, count=count, width=3, stream_id=2)
            assert np.array_equal(part, full[first : first + count])

    def test_deterministic_per_index(self):
        p = NakagamiParam(2)
        a = gain_block(p, seed=9, first=123, count=1)
        b = gain_block(p, seed=9, first=123, count=1)
        assert a[0, 0] == b[0, 0]
        assert gain_block(p, seed=10, first=123, count=1)[0, 0] != a[0, 0]


class TestRicianMapping:
    @pytest.mark.parametrize("k,m", [(0.0, 1.0), (1.0, 4.0 / 3.0), (3.0, 16.0 / 7.0)])
    def test_values(self, k, m):
        assert rician_k_to_m(k).m == pytest.approx(m, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            rician_k_to_m(-0.1)
