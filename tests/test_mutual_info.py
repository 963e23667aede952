import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from nakfade import mutual_info
from nakfade.constellation import KNOWN_NAMES, Constellation, from_name, make_psk, make_qam
from nakfade.montecarlo import MC_QUAD_ORDER
from nakfade.mutual_info import (
    DEFAULT_ORDER,
    QuadratureRule,
    Snr,
    hermite_rule,
    mi_discrete_array,
)


def direct_mi(rho: float, c: Constellation, rule: QuadratureRule) -> float:
    """Reference: the 2-D tensor rule summed node by node, with a log-sum-exp per node.

    Forms -|sqrt(rho)(x-x') + z|^2 + |z|^2 on the full K x order^2 grid of
    every x, takes the inner log-sum with max-subtraction (no underflow),
    then the weighted node sum; no factorization of any kind.
    """
    K, t, w = c.size, rule.nodes, rule.weights
    zr = np.repeat(t, rule.order)
    zi = np.tile(t, rule.order)
    w2 = np.repeat(w, rule.order) * np.tile(w, rule.order) / math.pi
    acc = 0.0
    for x in range(K):
        d = c.points[x] - c.points
        e = -(rho * (np.abs(d) ** 2)[:, None] + 2.0 * math.sqrt(rho) * (d.real[:, None] * zr + d.imag[:, None] * zi))
        shift = e.max(axis=0)
        acc += (shift + np.log(np.exp(e - shift).sum(axis=0))) @ w2
    return c.bits_per_symbol - acc / (K * math.log(2.0))


def bare(c: Constellation) -> Constellation:
    """The same points without grid metadata, so they take the generic path."""
    return Constellation(c.points, c.bits_per_symbol)


GENERIC_SETS = {"psk2": make_psk(1), "psk4": make_psk(2), "psk8": make_psk(3), "qam4": bare(make_qam(2)), "qam16": bare(make_qam(4))}

# Adaptive 2-D quadrature of the defining integral for BPSK at rho = 1,
# frozen from a 25-digit evaluation (cross-checked against the equivalent
# 1-D reduction).
BPSK_MI_AT_0DB = 0.7214515907903881


class TestSnr:
    def test_from_db(self):
        assert Snr.from_db(20.0).rho == pytest.approx(100.0, rel=1e-15)
        assert Snr.from_db(0.0).rho == 1.0

    def test_db_roundtrip(self):
        assert Snr(31.6).db == pytest.approx(10 * math.log10(31.6), rel=1e-15)

    def test_from_db_keeps_the_db_given(self):
        # 10 log10 rho cannot read back a dB this small: rho is 1.0 exactly.
        tiny = Snr.from_db(3.983523924489968e-218)
        assert tiny.rho == 1.0 and tiny.db == 3.983523924489968e-218
        assert tiny == Snr(1.0) and hash(tiny) == hash(Snr(1.0)) and repr(tiny) == "Snr(rho=1.0)"

    def test_zero_is_minus_infinity_db(self):
        assert Snr(0.0).db == -math.inf

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            Snr(bad)


class TestQuadratureRule:
    def test_shared_rule_is_read_only(self):
        # hermite_rule hands every caller the same rule, so one caller's write would corrupt every later MI.
        rule = hermite_rule(8)
        for values in (rule.nodes, rule.weights):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    @pytest.mark.parametrize("order", [1, 2, 8, 32, 96, 192, 256, 350])
    def test_matches_hermgauss(self, order):
        rule = hermite_rule(order)
        x, w = hermgauss(order)
        assert np.max(np.abs(rule.nodes - x)) < 1e-12
        assert np.max(np.abs(rule.weights - w) / w) < 1e-12

    def test_matches_mpmath_beyond_hermgauss(self):
        # At order 400 the outermost weights fall below the float range.
        # The true node nearest each checked one, by Newton on mpmath's H_n
        # at 50 digits, and its weight 2^(n-1) n! sqrt(pi) / (n H_(n-1)(t))^2.
        n = 400
        rule = hermite_rule(n)
        with mpmath.workdps(50):
            for i in [n // 2, n - 4, n - 3, n - 2, n - 1]:
                t = mpmath.mpf(rule.nodes[i])
                for _ in range(3):
                    t -= mpmath.hermite(n, t) / (2 * n * mpmath.hermite(n - 1, t))
                w = 2 ** (n - 1) * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi) / (n * mpmath.hermite(n - 1, t)) ** 2
                assert abs(float(t) - rule.nodes[i]) <= 1e-14 * max(1.0, abs(float(t)))
                if w >= np.finfo(float).tiny:
                    assert abs(float(mpmath.log(rule.weights[i]) / mpmath.log(w)) - 1.0) <= 1e-13
                else:
                    assert rule.weights[i] <= 2.2e-308

    @pytest.mark.parametrize("order", [1, 2, 7, 8, 96, 400])
    def test_mirror_symmetric_exactly(self, order):
        rule = hermite_rule(order)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])

    @pytest.mark.parametrize("order", [1, 2, 8, 96, 400, 1000])
    def test_weight_times_e_to_t_squared_at_most_sqrt_pi(self, order):
        # w_i e^(t_i^2) <= sqrt(pi) is what lets the generic path drop a
        # node whose inner sum underflows (mutual_info module notes).
        rule = QuadratureRule(order)
        with np.errstate(divide="ignore"):
            log_scaled = np.log(rule.weights) + rule.nodes**2
        assert log_scaled.max() <= math.log(math.sqrt(math.pi)) + 1e-15

    @pytest.mark.parametrize("order", [4, 16, 96])
    def test_weights_sum_to_sqrt_pi(self, order):
        assert abs(hermite_rule(order).weights.sum() - math.sqrt(math.pi)) <= 1e-12

    def test_rejects_bad_order(self):
        for order in (1, 2):  # cached under keys equal to True and 2.0
            hermite_rule(order)
        for bad in (0, -1, 2.0, True):
            with pytest.raises(ValueError, match="order"):
                hermite_rule(bad)
            with pytest.raises(ValueError, match="order"):
                QuadratureRule(bad)

    def test_equal_and_hashed_by_order(self):
        assert QuadratureRule(32) == hermite_rule(32) and hash(QuadratureRule(32)) == hash(hermite_rule(32))
        assert QuadratureRule(32) != QuadratureRule(16)

    def test_cached(self):
        assert hermite_rule(32) is hermite_rule(32)


class TestMiDiscrete:
    def test_zero_snr(self):
        assert mi_discrete_array([0.0], make_qam(4))[0] == pytest.approx(0.0, abs=1e-9)

    def test_high_snr_saturates(self):
        assert mi_discrete_array([1e6], make_qam(4))[0] == pytest.approx(4.0, abs=1e-3)

    def test_bpsk_against_frozen_integration_oracle(self):
        assert mi_discrete_array([1.0], make_psk(1))[0] == pytest.approx(BPSK_MI_AT_0DB, abs=1e-6)

    @pytest.mark.parametrize("c", [make_qam(4), make_psk(1), make_psk(3)])
    def test_below_cap(self, c):
        rhos = np.logspace(-2, 4, 13)
        assert np.all(mi_discrete_array(rhos, c) <= np.minimum(c.bits_per_symbol, np.log2(1.0 + rhos)) + 1e-6)

    def test_monotone_in_snr(self):
        vals = mi_discrete_array(np.logspace(-2, 4, 41), make_qam(4))
        assert np.all(np.diff(vals) >= -1e-12)

    @pytest.mark.parametrize("c", [make_qam(4), make_qam(6)])
    def test_doubling_default_order_stable(self, c):
        rhos = np.logspace(-2, 3, 13)
        a = mi_discrete_array(rhos, c, hermite_rule(DEFAULT_ORDER))
        b = mi_discrete_array(rhos, c, hermite_rule(2 * DEFAULT_ORDER))
        assert np.max(np.abs(a - b)) < 1e-6

    def test_separable_equals_generic(self):
        q16 = make_qam(4)
        bare = Constellation(q16.points, 4)  # same points, no grid metadata
        rhos = np.logspace(-2, 3, 11)
        a = mi_discrete_array(rhos, q16)
        b = mi_discrete_array(rhos, bare)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_range_clamped(self):
        vals = mi_discrete_array(np.logspace(-6, 9, 40), make_qam(4))
        assert np.all(vals >= 0.0) and np.all(vals <= 4.0)


class TestGenericPath:
    @pytest.mark.parametrize("order", [8, 32, 96, 192, 256])
    @pytest.mark.parametrize("name", sorted(GENERIC_SETS))
    def test_matches_direct_tensor_rule(self, name, order):
        c, rule = GENERIC_SETS[name], hermite_rule(order)
        rhos = np.logspace(-6, 9, 11)
        got = mi_discrete_array(rhos, c, rule)
        want = np.clip([direct_mi(r, c, rule) for r in rhos], 0.0, c.bits_per_symbol)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("order", [256, 400])
    @pytest.mark.parametrize("name", ["psk4", "psk8"])
    def test_finite_at_high_order(self, name, order):
        # At these orders the factorized inner sums underflow at tail nodes.
        c = GENERIC_SETS[name]
        with np.errstate(all="raise"):
            vals = mi_discrete_array(np.logspace(-6, 9, 16), c, hermite_rule(order))
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= 0.0) & (vals <= c.bits_per_symbol))


def all_points_mi(rhos, c: Constellation, rule: QuadratureRule) -> np.ndarray:
    """The generic path summed over every point, each once, as before orbits were used."""
    every = (c.points, np.arange(c.size), np.ones(c.size))
    with np.errstate(under="ignore"):
        return np.clip(mutual_info._mi_batch_generic(np.asarray(rhos, dtype=float), every, c.bits_per_symbol, rule), 0.0, c.bits_per_symbol)


# Unit-modulus points that no symmetry of the square maps onto themselves.
LOPSIDED = Constellation(np.array([1.0, 1j, -1.0, -0.6 - 0.8j]), 2)

class TestOrbits:
    # One point per orbit of the square's symmetries that keep the set.
    @pytest.mark.parametrize(
        "name,sizes",
        [("psk2", [2]), ("psk4", [4]), ("psk8", [4, 4]), ("qam4", [4]), ("qam16", [4, 8, 4])],
    )
    def test_orbit_sizes(self, name, sizes):
        reps, got = mutual_info._orbits(GENERIC_SETS[name])
        assert got.tolist() == sizes
        assert reps.size == len(sizes)

    def test_set_without_symmetry_keeps_every_point(self):
        reps, sizes = mutual_info._orbits(LOPSIDED)
        assert reps.tolist() == [0, 1, 2, 3] and sizes.tolist() == [1, 1, 1, 1]
        rhos = np.logspace(-3, 4, 29)
        rule = hermite_rule(32)
        assert np.array_equal(mi_discrete_array(rhos, LOPSIDED, rule), all_points_mi(rhos, LOPSIDED, rule))

    @pytest.mark.parametrize("name", sorted(GENERIC_SETS))
    def test_one_point_per_orbit_matches_every_point(self, name):
        c, rule = GENERIC_SETS[name], hermite_rule(32)
        rhos = np.logspace(-6, 9, 61)
        assert np.abs(mi_discrete_array(rhos, c, rule) - all_points_mi(rhos, c, rule)).max() <= 1e-14


class TestBatching:
    @pytest.mark.parametrize("c", [make_qam(4), make_psk(3)], ids=["qam16", "psk8"])
    def test_batch_equals_one_at_a_time(self, c):
        rule = hermite_rule(32)
        rhos = np.random.default_rng(5).gamma(1.0, 1.0, 1200) * 20.0
        batched = mi_discrete_array(rhos, c, rule)
        assert np.array_equal(batched, [mi_discrete_array([r], c, rule)[0] for r in rhos])

    @pytest.mark.parametrize("order", [1, 4, 8, 32, 96])
    @pytest.mark.parametrize("name", ["psk8", "qam16"])
    def test_batches_fill_the_element_budget(self, monkeypatch, name, order):
        c, n = from_name(name), 10_000
        sizes = []

        def recording(rhos, *args):
            sizes.append(rhos.size)
            return np.zeros(rhos.size)

        monkeypatch.setattr(mutual_info, "_mi_batch_separable", recording)
        monkeypatch.setattr(mutual_info, "_mi_batch_generic", recording)
        mi_discrete_array(np.geomspace(1e-2, 1e3, n), c, hermite_rule(order))
        # Elements per SNR of the largest temporary: the separable path's
        # (level, level', node) exponentials, and the generic path's
        # (x, x', node) tables or (x, node, node) sums over one x per orbit.
        if c.grid_levels is not None:
            per_rho = c.grid_levels.size**2 * order
        else:
            per_rho = mutual_info._orbits(c)[0].size * order * max(c.size, order)
        assert sum(sizes) == n
        assert max(sizes) * per_rho <= 2**16 < (max(sizes) + 1) * per_rho
        if order == 32:
            assert max(sizes) == {"qam16": 128, "psk8": 32}[name]


class TestMonotone:
    # mc_outages decides samples from the MI at the grid nodes that bracket
    # their SNRs (16 per octave), which gives the direct counts only if the
    # computed I(rho) never decreases.  Checked at 64 points per octave.
    RHOS = np.exp2(np.arange(-40 * 64, 40 * 64 + 1) / 64)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 8, 16, 32, 64, 96])
    @pytest.mark.parametrize("name", KNOWN_NAMES)
    def test_nondecreasing_on_dense_grid(self, name, order):
        vals = mi_discrete_array(self.RHOS, from_name(name), hermite_rule(order))
        assert np.diff(vals).min() >= 0.0

    # from_name builds any power-of-two QAM or PSK, so `mc --mode outage`
    # also screens these, always at the Monte Carlo order.
    @pytest.mark.parametrize("name", ["psk16", "psk32", "qam256"])
    def test_nondecreasing_beyond_the_known_names(self, name):
        vals = mi_discrete_array(self.RHOS, from_name(name), hermite_rule(MC_QUAD_ORDER))
        assert np.diff(vals).min() >= 0.0
