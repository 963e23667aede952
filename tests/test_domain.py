"""One property test of the stated domain: m in [0.1, 20], R in [0.05, M],
B in 1-64, M in 1-6 and SNR in [-20, 200] dB.

Every bound is a value in (0, 1] or an ArithmeticError that names its SNR
and says how it failed; values fall with SNR and rise with R; the CLI exits
0 or 3 on the same point; and K is positive or an ArithmeticError naming K.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nakfade import cli
from nakfade.asymptotics import coding_gain
from nakfade.bound import ChannelSpec, outage_lower_bounds
from nakfade.fading import NakagamiParam
from nakfade.mutual_info import Snr

CELLS = 1024


@st.composite
def domain_points(draw):
    """(B, M, m, (R, R'), (dB, dB')): a 2x2 block of nearby rates and SNRs, each in the domain."""
    B, M = draw(st.integers(1, 64)), draw(st.integers(1, 6))
    m = min(20.0, max(0.1, math.exp(draw(st.floats(math.log(0.1), math.log(20.0))))))
    rate = draw(st.floats(0.05, M))
    db = draw(st.floats(-20.0, 200.0))
    rates = (rate, min(float(M), rate + draw(st.floats(0.0, 0.1))))
    dbs = (db, min(200.0, db + draw(st.floats(0.0, 2.0))))
    return B, M, m, rates, dbs


def run_exit_code(config: cli.RunConfig) -> int:
    try:
        return cli.run(config)
    except SystemExit as exc:
        return exc.code


@settings(max_examples=200, deadline=None, derandomize=True)
@given(point=domain_points())
# A dB this close to 0 has the linear SNR 1.0 exactly; its error still names the dB given.
@example(point=(39, 1, 12.182493960703473, (0.125, 0.125), (3.983523924489968e-218, 3.983523924489968e-218)))
def test_bound_is_in_the_unit_interval_or_an_arithmetic_error(point):
    B, M, m, rates, dbs = point
    fading = NakagamiParam(m)
    try:
        values = outage_lower_bounds([Snr.from_db(db) for db in dbs], B, M, fading, rates, CELLS)
    except ArithmeticError as exc:
        message = str(exc)
        assert any(f"snr_db {db:.6g}" in message for db in dbs), message
        assert "log10" in message or "underflow" in message, message
    else:
        assert all(0.0 < v <= 1.0 for row in values for v in row), values
        for j in range(2):  # nonincreasing in SNR
            assert values[1][j] <= values[0][j] * (1 + 1e-9), values
        for row in values:  # nondecreasing in R
            assert row[0] <= row[1] * (1 + 1e-9), values

    config = cli.RunConfig("curve", blocks=B, bits=M, m=m, cells=CELLS, rate=rates[0], snr_db=(dbs[0], dbs[0], 1.0))
    assert run_exit_code(config) in (0, 3)

    try:
        assert coding_gain(ChannelSpec(B, M, fading, rates[0]), CELLS) > 0.0
    except ArithmeticError as exc:
        assert "coding gain K" in str(exc), str(exc)
