"""One integer rule and one finite-real rule check every argument of the library.

An integer is a Python or numpy integer, never a bool; a real is a finite
Python or numpy real, never a bool.  A numpy value equal to an accepted
Python value gives the identical result, and a value the rule refuses is a
ValueError that names the argument, never a TypeError or AttributeError.
"""

import math
import numbers
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

from nakfade._checks import integer, real, require
from nakfade.asymptotics import asymptotes, random_coding_exponent, singleton_bound
from nakfade.bound import ChannelSpec, TabulatedPmf, _cell_edges, cdf_Y_at, convolve_power, outage_lower_bound, outage_lower_bounds, tilt
from nakfade.constellation import Constellation, make_psk, make_qam
from nakfade.fading import NakagamiParam, gain_block, reg_gamma_pq
from nakfade.montecarlo import McEstimate, mc_lower_bound, mc_lower_bounds, mc_outage, mc_outages
from nakfade.mutual_info import QuadratureRule, Snr

M2 = NakagamiParam(2)
SPEC = ChannelSpec(4, 4, M2, 1.0)
LAW = tilt(TabulatedPmf(0.25, np.full(8, 0.1), 0.2), 4, 2.0)


class TestRule:
    @pytest.mark.parametrize("value", [0, -7, 10**30, np.int8(-3), np.int64(5), np.uint64(2**64 - 1)], ids=repr)
    def test_integer_accepts_python_and_numpy_integers(self, value):
        assert integer(value) is None
        got = require("x", value, integer)
        assert type(got) is int and got == value

    @pytest.mark.parametrize("value", [0, -2.5, 1e308, np.float32(1.5), np.float64(-2.0), np.int64(3), Fraction(1, 2)], ids=repr)
    def test_real_accepts_finite_python_and_numpy_reals(self, value):
        assert real(value) is None
        got = require("x", value, real)
        assert type(got) is float and got == value

    @pytest.mark.parametrize("value", [True, False, np.True_, 2.0, np.float64(2.0), "2", None, 2 + 0j], ids=repr)
    def test_integer_refuses(self, value):
        assert integer(value) == f"must be an integer, got {value!r}"
        assert integer(value, least=0, most=5) == f"must be an integer >= 0 and <= 5, got {value!r}"

    @pytest.mark.parametrize("value", [True, np.True_, math.nan, math.inf, -math.inf, np.float32("inf"), 10**400, "1", None, 1 + 0j], ids=repr)
    def test_real_refuses(self, value):
        assert real(value) == f"must be a finite real, got {value!r}"
        assert real(value, above=0) == f"must be a finite real > 0, got {value!r}"

    # Python ints and floats take a fast path by exact type; every other value,
    # bools and numpy scalars among them, gets the numbers-ABC rule.
    @pytest.mark.parametrize(
        "value",
        [0, 7, -2.5, 1e300, True, False, np.True_, np.int8(3), np.int64(-4), np.uint32(5), np.float16(0.5), np.float32(2.0), np.float64(-1.0), re.RegexFlag.I, math.inf],
        ids=repr,
    )
    def test_fast_path_agrees_with_the_abc_rule(self, value):
        is_int = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        is_real = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
        assert (integer(value) is None, real(value) is None) == (is_int, is_real)
        assert (integer(True), real(True)) == ("must be an integer, got True", "must be a finite real, got True")

    @pytest.mark.parametrize(
        "problem, text",
        [
            (integer(0, least=1), "must be an integer >= 1, got 0"),
            (integer(5, least=0, most=4), "must be an integer >= 0 and <= 4, got 5"),
            (integer(-1, least=0, most=4), "must be an integer >= 0 and <= 4, got -1"),
            (integer(5, most=4), "must be an integer <= 4, got 5"),
            (integer(4, least=0, most=4), None),
            (real(0.0, above=0), "must be a finite real > 0, got 0.0"),
            (real(-1.0, least=0), "must be a finite real >= 0, got -1.0"),
            (real(4.5, above=0, most=4), "must be a finite real > 0 and <= 4, got 4.5"),
            (real(4.0, above=0, most=4), None),
            (real(0.0, least=0), None),
        ],
    )
    def test_limits(self, problem, text):
        assert problem == text

    def test_require_names_the_argument(self):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0 and <= 3, got 4$"):
            require("seed", 4, integer, least=0, most=3)


def same(a, b) -> bool:
    """Equal values of the same types, arrays included."""
    return pickle.dumps(a) == pickle.dumps(b)


# Each site with Python arguments and numpy arguments of equal value.
NUMPY_SITES = [
    pytest.param(lambda B, M, R: outage_lower_bound(Snr(10.0), ChannelSpec(B, M, M2, R), 64), (4, 4, 1.0), (np.int64(4), np.int32(4), np.float32(1.0)), id="ChannelSpec"),
    pytest.param(lambda h: TabulatedPmf(h, np.array([0.5, 0.5])).grid_step, (0.5,), (np.float64(0.5),), id="TabulatedPmf"),
    pytest.param(lambda n: outage_lower_bounds([Snr(10.0)], 4, 4, M2, [1.0], n), (64,), (np.int64(64),), id="n_cells"),
    pytest.param(lambda n: _cell_edges(4, n), (8,), (np.uint16(8),), id="_cell_edges"),
    pytest.param(lambda n: cdf_Y_at(convolve_power(LAW, n), 2.0), (4,), (np.int64(4),), id="convolve_power"),
    pytest.param(lambda m: outage_lower_bound(Snr(10.0), ChannelSpec(4, 4, NakagamiParam(m), 1.0), 64), (2.0,), (np.int64(2),), id="NakagamiParam-int64"),
    pytest.param(lambda m: outage_lower_bound(Snr(10.0), ChannelSpec(4, 4, NakagamiParam(m), 1.0), 64), (2.0,), (np.float32(2.0),), id="NakagamiParam-float32"),
    pytest.param(lambda a: reg_gamma_pq(a, np.array([0.5, 3.0, 10.0])), (2.0,), (np.int64(2),), id="reg_gamma_pq"),
    pytest.param(lambda seed, count: gain_block(M2, seed, 3, count, width=2), (9, 10), (np.uint64(9), np.int16(10)), id="gain_block"),
    pytest.param(lambda chunk, width: gain_block(M2, 9, chunk, 5, width), (3, 2), (np.int64(3), np.uint8(2)), id="gain_block-stream"),
    pytest.param(lambda M: make_qam(M).points, (4,), (np.int64(4),), id="make_qam"),
    pytest.param(lambda M: make_psk(M).bits_per_symbol, (3,), (np.int8(3),), id="make_psk"),
    pytest.param(lambda M: Constellation(np.array([1.0, -1.0]), M).bits_per_symbol, (1,), (np.int64(1),), id="Constellation"),
    pytest.param(lambda db: Snr.from_db(db), (7.5,), (np.float64(7.5),), id="Snr.from_db"),
    pytest.param(lambda rho: outage_lower_bound(Snr(rho), SPEC, 64), (10.0,), (np.int64(10),), id="Snr"),
    pytest.param(lambda rho: Snr(rho), (10.0,), (np.float64(10.0),), id="Snr-rho"),
    pytest.param(lambda n: QuadratureRule(n).weights, (8,), (np.int64(8),), id="QuadratureRule"),
    pytest.param(lambda n: mc_outage(Snr(1.0), SPEC, make_qam(4), QuadratureRule(n), n=200, seed=3), (8,), (np.int64(8),), id="QuadratureRule-mc_outage"),
    pytest.param(singleton_bound, (4, 4, 1.0), (np.int64(4), np.int64(4), np.float64(1.0)), id="singleton_bound"),
    pytest.param(lambda lam: random_coding_exponent(SPEC, lam), (0.5,), (np.float64(0.5),), id="random_coding_exponent"),
    pytest.param(lambda n: asymptotes([Snr(10.0)], SPEC, n), (64,), (np.int64(64),), id="asymptotes"),
    pytest.param(McEstimate, (5, 10), (np.uint8(5), np.int64(10)), id="McEstimate"),
    pytest.param(lambda n: mc_lower_bound(Snr(1.0), SPEC, n=n, seed=3, workers=n // 100), (200,), (np.int32(200),), id="mc_lower_bound"),
]


@pytest.mark.parametrize("call, python_args, numpy_args", NUMPY_SITES)
def test_numpy_value_gives_identical_result(call, python_args, numpy_args):
    assert same(call(*python_args), call(*numpy_args))


# Each site, by the name its error gives the argument.  A site's position is
# part of its cases' ids, so a new site takes a freed position or goes last.
INTEGER_SITES = [
    ("B", lambda v: ChannelSpec(v, 4, M2, 1.0)),
    ("M", lambda v: ChannelSpec(4, v, M2, 1.0)),
    ("n_cells", lambda v: outage_lower_bounds([Snr(10.0)], 4, 4, M2, [1.0], v)),
    ("n_cells", lambda v: _cell_edges(4, v)),
    ("n", lambda v: convolve_power(LAW, v)),
    ("count", lambda v: gain_block(M2, 0, 0, v)),
    ("seed", lambda v: gain_block(M2, v, 0, 1)),
    ("chunk", lambda v: gain_block(M2, 0, v, 1)),
    ("width", lambda v: gain_block(M2, 0, 0, 1, width=v)),
    ("n", lambda v: mc_lower_bounds([Snr(1.0), Snr(2.0)], SPEC, n=v)),
    ("workers", lambda v: mc_outages([Snr(1.0), Snr(2.0)], SPEC, make_qam(4), n=10, workers=v)),
    ("bits_per_symbol", lambda v: Constellation(np.array([1.0, -1.0]), v)),
    ("M", make_qam),
    ("M", make_psk),
    ("quadrature order", QuadratureRule),
    ("B", lambda v: singleton_bound(v, 4, 1.0)),
    ("M", lambda v: singleton_bound(4, v, 1.0)),
    ("n_samples", lambda v: McEstimate(5, v)),
    ("n", lambda v: mc_lower_bound(Snr(1.0), SPEC, n=v)),
    ("workers", lambda v: mc_lower_bound(Snr(1.0), SPEC, n=10, workers=v)),
    ("n", lambda v: mc_outage(Snr(1.0), SPEC, make_qam(4), n=v)),
    ("workers", lambda v: mc_outage(Snr(1.0), SPEC, make_qam(4), n=10, workers=v)),
    ("n", lambda v: mc_outages([Snr(1.0), Snr(2.0)], SPEC, make_qam(4), n=v)),
    ("workers", lambda v: mc_lower_bounds([Snr(1.0), Snr(2.0)], SPEC, n=10, workers=v)),
]
REAL_SITES = [
    ("rate", lambda v: ChannelSpec(4, 4, M2, v)),
    ("grid step", lambda v: TabulatedPmf(v, np.array([0.5, 0.5]))),
    ("Nakagami shape m", NakagamiParam),
    ("incomplete gamma's a", lambda v: reg_gamma_pq(v, np.array([1.0]))),
    ("SNR rho", Snr),
    ("db", Snr.from_db),
    ("R", lambda v: singleton_bound(4, 4, v)),
    ("block-length scale lam", lambda v: random_coding_exponent(SPEC, v)),
]
NOT_INTEGERS = [True, np.True_, 2.5, 2.0, np.float64(2.0), math.nan, math.inf, "2", None]
NOT_REALS = [True, np.True_, math.nan, math.inf, -math.inf, "1", None, 1 + 0j, 10**400]


@pytest.mark.parametrize(
    "name, call, value",
    [pytest.param(name, call, v, id=f"{name}-{i}-{v!r}"[:60]) for i, (name, call) in enumerate(INTEGER_SITES) for v in NOT_INTEGERS]
    + [pytest.param(name, call, v, id=f"{name}-{i}-{v!r}"[:60]) for i, (name, call) in enumerate(REAL_SITES) for v in NOT_REALS],
)
def test_refused_value_is_a_value_error_naming_the_argument(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(value)


# Values refused only by the limits of the site, not by the rule itself.
OUT_OF_RANGE_SITES = [
    ("n_cells", lambda v: asymptotes([Snr(10.0)], SPEC, v), [1, 0]),
    ("block-length scale lam", lambda v: random_coding_exponent(SPEC, v), [-1.0, -1e-300]),
    ("events", lambda v: McEstimate(v, 10), [11, -1]),
    ("n_samples", lambda v: McEstimate(0, v), [0, -1]),
]
RULE_SITES = [
    ("n_cells", lambda v: asymptotes([Snr(10.0)], SPEC, v), NOT_INTEGERS),
    ("events", lambda v: McEstimate(v, 10), NOT_INTEGERS),
]


@pytest.mark.parametrize(
    "name, call, value",
    [pytest.param(name, call, v, id=f"{name}-{v!r}"[:60]) for name, call, values in OUT_OF_RANGE_SITES + RULE_SITES for v in values],
)
def test_asymptote_and_estimate_refuse_values_naming_the_argument(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(value)


def test_asymptote_and_estimate_keep_accepted_values():
    assert asymptotes([], SPEC) == []
    for est in (McEstimate(np.int64(3), np.int64(10)), McEstimate(3, 10)):
        assert type(est.events) is int and type(est.p_hat) is float and est.p_hat == 0.3 and est.n_samples == 10
    assert McEstimate(0, 1).p_hat == 0.0 and McEstimate(1, 1).p_hat == 1.0
