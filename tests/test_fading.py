import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from helpers import gain_rows
from nakfade import fading
from nakfade.fading import CHUNK, NakagamiParam, gain_block, reg_gamma_pq

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

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 20.0])
    def test_infinite_x_is_the_limit_without_iterating(self, a, monkeypatch):
        def no_fraction(a, x):
            raise AssertionError("continued fraction called")

        with np.errstate(all="raise"):
            assert reg_gamma_pq(a, [0.5, 3.0 * a, np.inf])[0][-1] == 1.0
            monkeypatch.setattr(fading, "_reg_q_contfrac", no_fraction)
            p, q = reg_gamma_pq(a, np.inf)
        assert (p, q) == (1.0, 0.0)

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 20.0])
    def test_nan_x_rejected(self, a):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="NaN"):
            reg_gamma_pq(a, [1.0, np.nan])


class TestPerPointValues:
    """A value of reg_gamma_pq depends only on (a, x), never on the other points of its call."""

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.floats(0.1, 20.0),
        # x / (a + 1) from 1e-6 to about 4, so every array straddles a + 1.
        exponents=st.lists(st.floats(-6.0, 0.6), min_size=1, max_size=10),
    )
    def test_each_point_as_if_alone(self, a, exponents):
        x = np.array([0.0, np.inf, a + 1.0, np.nextafter(a + 1.0, 0.0), *((a + 1.0) * 10.0 ** np.array(exponents))])
        p, q = reg_gamma_pq(a, x)
        for i in range(x.size):
            p1, q1 = reg_gamma_pq(a, x[i : i + 1])
            assert (p1[0], q1[0]) == (p[i], q[i]), (a, x[i])
        p_rev, q_rev = reg_gamma_pq(a, x[::-1])
        assert np.array_equal(p_rev, p[::-1]) and np.array_equal(q_rev, q[::-1])
        assert (p[0], q[0], p[1], q[1]) == (0.0, 1.0, 1.0, 0.0)
        # Against mpmath in whichever of P and Q is small.  Rounding in the
        # exponent of the prefactor x^a e^-x / Gamma(a) costs a few 1e-14 at
        # large a and small x, and Q = 1 - P just below a + 1 about 2e-14 at
        # small a.
        with mpmath.workdps(40):
            for xi, pi, qi in zip(x[2:], p[2:], q[2:]):
                want_p = mpmath.gammainc(a, 0, xi, regularized=True)
                want_q = mpmath.gammainc(a, xi, mpmath.inf, regularized=True)
                got, want = (pi, want_p) if want_p < want_q else (qi, want_q)
                assert abs(got / want - 1) < 1e-13, (a, xi)


    # The bound reg_gamma_pq states, in whichever value v of P and Q is
    # small: relative error below 5e-14 + 2.2e-16 |ln v|.  The prefactor
    # e^(a ln x - x - ln Gamma(a)) rounds its exponent, which is about ln v,
    # so the error grows with |ln v| (3.1e-14 at (a, x) = (20, 1e-12), 2.2e-14
    # at (2, 1e-100), 1.7e-13 at (20.48, 1.77e-12), where ln v = -598), and
    # Q = 1 - P just below a + 1 costs 2.6e-14 at (0.12, 0.81).  Values below
    # the normal float range are not compared.
    def test_stated_accuracy_against_mpmath(self):
        a_grid = [*np.geomspace(0.1, 50.0, 11), 0.12, 2.0, 18.7, 20.0, 20.482812950457934]
        x_grid = np.array([*np.geomspace(1e-100, 100.0, 21), 0.81, 1e-6, 1e-12, 1.7668147296146927e-12])
        compared = 0
        with mpmath.workdps(40):
            for a in a_grid:
                p, q = reg_gamma_pq(float(a), x_grid)
                for xi, pi, qi in zip(x_grid, p, q):
                    want_p = mpmath.gammainc(a, 0, xi, regularized=True)
                    want_q = mpmath.gammainc(a, xi, mpmath.inf, regularized=True)
                    got, want = (pi, want_p) if want_p < want_q else (qi, want_q)
                    if want < sys.float_info.min:
                        continue
                    compared += 1
                    assert abs(got / want - 1) < 5e-14 + 2.2e-16 * abs(float(mpmath.log(want))), (a, xi)
        assert compared > 250


class TestSampling:
    def test_unit_mean(self):
        g = gain_rows(NakagamiParam(2), seed=42, n=10**6)
        assert g.mean() == pytest.approx(1.0, abs=0.005)

    def test_variance_one_over_m(self):
        g = gain_rows(NakagamiParam(2), seed=42, n=10**6)
        assert g.var() == pytest.approx(0.5, abs=0.01)

    def test_ks_rayleigh(self):
        g = gain_rows(NakagamiParam(1), seed=7, n=10**5).ravel()
        stat = stats.kstest(g, lambda x: 1 - np.exp(-x)).statistic
        assert stat < 1.628 / math.sqrt(g.size)  # 1% critical value

    @pytest.mark.parametrize("m", M_SET)
    def test_ks_against_gain_cdf(self, m):
        p = NakagamiParam(m)
        g = gain_rows(p, seed=11, n=2 * 10**4).ravel()
        stat = stats.kstest(g, stats.gamma(m, scale=1.0 / m).cdf).statistic
        assert stat < 1.628 / math.sqrt(g.size)

    def test_partition_independence(self):
        # A chunk's rows are the same whichever other chunks are drawn, in
        # whatever order and thread: drawn forwards, backwards or by a pool.
        p = NakagamiParam(1.3)
        counts = [CHUNK, CHUNK, CHUNK, 17]

        def draw(c):
            return gain_block(p, 5, c, counts[c], width=4)

        forward = [draw(c) for c in range(4)]
        backward = [draw(c) for c in (3, 2, 1, 0)][::-1]
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = list(pool.map(draw, range(4)))
        for a, b, c in zip(forward, backward, pooled):
            assert np.array_equal(a, b) and np.array_equal(a, c)
        assert np.array_equal(np.vstack(forward), gain_rows(p, 5, 3 * CHUNK + 17, width=4))

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_ranges_ending_mid_chunk_match_full_chunk_draws(self, m):
        # Drawing k rows of a chunk gives the first k rows of the full chunk.
        p = NakagamiParam(m)
        full = gain_block(p, seed=8, chunk=1, count=CHUNK, width=3, stream_id=2)
        for count in (0, 1, 24, 29, 1950, CHUNK - 1):
            part = gain_block(p, seed=8, chunk=1, count=count, width=3, stream_id=2)
            assert np.array_equal(part, full[:count])

    def test_deterministic_per_index(self):
        p = NakagamiParam(2)
        a = gain_block(p, seed=9, chunk=123, count=1)
        b = gain_block(p, seed=9, chunk=123, count=1)
        assert a[0, 0] == b[0, 0]
        assert gain_block(p, seed=10, chunk=123, count=1)[0, 0] != a[0, 0]
        assert gain_block(p, seed=9, chunk=124, count=1)[0, 0] != a[0, 0]
        assert gain_block(p, seed=9, chunk=123, count=1, stream_id=1)[0, 0] != a[0, 0]

    @pytest.mark.parametrize("count", [-1, CHUNK + 1])
    def test_count_beyond_one_chunk_raises(self, count):
        with pytest.raises(ValueError, match=f"^count must be an integer >= 0 and <= {CHUNK}, got {count}$"):
            gain_block(NakagamiParam(2), seed=9, chunk=0, count=count)
