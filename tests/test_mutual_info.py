import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from nakfade import mutual_info
from nakfade.constellation import KNOWN_NAMES, Constellation, from_name, make_psk, make_qam
from nakfade.mutual_info import (
    DEFAULT_ORDER,
    QuadratureRule,
    Snr,
    hermite_rule,
    mi_discrete,
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

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            Snr(bad)


class TestQuadratureRule:
    @pytest.mark.parametrize("order", [8, 32, DEFAULT_ORDER])
    def test_matches_hermgauss(self, order):
        rule = QuadratureRule.gauss_hermite(order)
        x, w = hermgauss(order)
        assert np.max(np.abs(np.sort(rule.nodes) - x)) < 1e-12
        assert np.max(np.abs(rule.weights - w)) < 1e-12

    @pytest.mark.parametrize("order", [4, 16, 96])
    def test_weights_sum_to_sqrt_pi(self, order):
        assert abs(QuadratureRule.gauss_hermite(order).weights.sum() - math.sqrt(math.pi)) <= 1e-12

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            QuadratureRule.gauss_hermite(0)

    def test_cached(self):
        assert hermite_rule(32) is hermite_rule(32)


class TestMiDiscrete:
    def test_zero_snr(self):
        assert mi_discrete(Snr(0.0), make_qam(4)) == pytest.approx(0.0, abs=1e-9)

    def test_high_snr_saturates(self):
        assert mi_discrete(Snr(1e6), make_qam(4)) == pytest.approx(4.0, abs=1e-3)

    def test_bpsk_against_frozen_integration_oracle(self):
        assert mi_discrete(Snr(1.0), make_psk(1)) == pytest.approx(BPSK_MI_AT_0DB, abs=1e-6)

    @pytest.mark.parametrize("c", [make_qam(4), make_psk(1), make_psk(3)])
    def test_below_cap(self, c):
        for rho in np.logspace(-2, 4, 13):
            assert mi_discrete(Snr(rho), c) <= min(c.bits_per_symbol, math.log2(1.0 + rho)) + 1e-6

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

    def test_array_matches_scalar(self):
        c = make_qam(4)
        rhos = np.array([0.3, 3.0, 30.0])
        arr = mi_discrete_array(rhos, c)
        scal = [mi_discrete(Snr(r), c) for r in rhos]
        assert np.array_equal(arr, scal)

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

    def test_underflow_at_a_heavy_node_raises(self):
        # Two nodes at +-30 with weight sqrt(pi)/2 each: at rho = 1000 the
        # inner sum of a psk8 point underflows where the weight is 1/4.
        rule = QuadratureRule(2, np.array([-30.0, 30.0]), np.full(2, math.sqrt(math.pi) / 2))
        assert math.isfinite(direct_mi(1000.0, make_psk(3), rule))
        with pytest.raises(ArithmeticError):
            mi_discrete_array([1000.0], make_psk(3), rule)


def all_points_mi(rhos, c: Constellation, rule: QuadratureRule) -> np.ndarray:
    """The generic path summed over every point, each once, as before orbits were used."""
    every = (c.points, np.arange(c.size), np.ones(c.size))
    with np.errstate(under="ignore"):
        return np.clip(mutual_info._mi_batch_generic(np.asarray(rhos, dtype=float), every, c.bits_per_symbol, rule), 0.0, c.bits_per_symbol)


# Unit-modulus points that no symmetry of the square maps onto themselves.
LOPSIDED = Constellation(np.array([1.0, 1j, -1.0, -0.6 - 0.8j]), 2)

# Nodes and weights (summing to sqrt(pi)) that are not mirror-symmetric.
SKEWED_RULE = QuadratureRule(3, np.array([-1.2, 0.1, 1.5]), math.sqrt(math.pi) * np.array([0.3, 0.5, 0.2]))


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

    def test_rule_without_mirror_symmetry_keeps_every_point(self):
        c, rhos = make_psk(3), np.logspace(-3, 4, 29)
        got = mi_discrete_array(rhos, c, SKEWED_RULE)
        assert np.array_equal(got, all_points_mi(rhos, c, SKEWED_RULE))
        # The orbits would be wrong here: their points' terms differ.
        reps, sizes = mutual_info._orbits(c)
        with np.errstate(under="ignore"):
            reduced = mutual_info._mi_batch_generic(rhos, (c.points, reps, sizes), 3, SKEWED_RULE)
        assert np.abs(reduced - got).max() > 1e-3

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


class TestMonotone:
    # mc_outage decides samples from the MI at the grid nodes that bracket
    # their SNRs (16 per octave), which gives the direct counts only if the
    # computed I(rho) never decreases.  Checked at 64 points per octave.
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 8, 16, 32, 64, 96])
    @pytest.mark.parametrize("name", KNOWN_NAMES)
    def test_nondecreasing_on_dense_grid(self, name, order):
        rhos = np.exp2(np.arange(-40 * 64, 40 * 64 + 1) / 64)
        vals = mi_discrete_array(rhos, from_name(name), hermite_rule(order))
        assert np.diff(vals).min() >= 0.0
