import math

import numpy as np
import pytest
import scipy.stats
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gain_rows
from nakfade import cli, fading, montecarlo
from nakfade.bound import ChannelSpec, outage_lower_bound
from nakfade.constellation import KNOWN_NAMES, from_name, make_psk, make_qam
from nakfade.fading import NakagamiParam
from nakfade.montecarlo import McEstimate, mc_lower_bound, mc_lower_bounds, mc_outage, mc_outages
from nakfade.mutual_info import Snr, hermite_rule, mi_discrete_array

M1 = NakagamiParam(1)
M2 = NakagamiParam(2)


def spec44(m, rate):
    return ChannelSpec(4, 4, m, rate)


class TestMcEstimate:
    def test_std_err_formula_enforced(self):
        est = McEstimate(37, 1000)
        assert est.p_hat == 0.037
        assert est.std_err == pytest.approx(math.sqrt(0.037 * 0.963 / 1000), abs=1e-15)
        with pytest.raises(ValueError):
            McEstimate(0, 0)

    def test_holds_the_exact_count(self):
        est = McEstimate(np.int64(3), 7)
        assert (est.events, est.n_samples, est.p_hat) == (3, 7, 3 / 7)
        assert est == McEstimate(3, 7) and est != McEstimate(3, 8) and hash(est) == hash(McEstimate(3, 7))

    def test_degenerate_counts(self):
        assert McEstimate(0, 10).std_err == 0.0
        assert McEstimate(10, 10).p_hat == 1.0


# Seeds alias nothing: one outside [0, 2^64) is refused, not reduced mod 2^64.
@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize(
    "draw",
    [
        pytest.param(lambda seed: fading.gain_block(M2, seed, 0, 10), id="gain_block"),
        pytest.param(lambda seed: mc_lower_bound(Snr(10.0), spec44(M2, 1), n=100, seed=seed), id="mc_lower_bound"),
        pytest.param(lambda seed: mc_outage(Snr(10.0), spec44(M2, 1), make_qam(4), n=100, seed=seed), id="mc_outage"),
    ],
)
def test_seed_outside_64_bits_raises(draw, seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0 and <= {2**64 - 1}, got {seed}$"):
        draw(seed)


ESTIMATORS = [
    pytest.param(lambda **kw: mc_outage(Snr(10.0), spec44(M2, 1), make_qam(4), **kw), id="mc_outage"),
    pytest.param(lambda **kw: mc_lower_bound(Snr(10.0), spec44(M2, 1), **kw), id="mc_lower_bound"),
]


@pytest.mark.parametrize("estimate", ESTIMATORS)
@pytest.mark.parametrize(
    "kw, msg",
    [
        pytest.param(dict(workers=0), "workers must be an integer >= 1, got 0", id="workers=0"),
        pytest.param(dict(workers=-3), "workers must be an integer >= 1, got -3", id="workers=-3"),
        pytest.param(dict(workers=True), "workers must be an integer >= 1, got True", id="workers=True"),
        pytest.param(dict(workers=2.0), "workers must be an integer >= 1, got 2.0", id="workers=2.0"),
        pytest.param(dict(n=0), "n must be an integer >= 1, got 0", id="n=0"),
        pytest.param(dict(n=True), "n must be an integer >= 1, got True", id="n=True"),
        pytest.param(dict(n=100.0), "n must be an integer >= 1, got 100.0", id="n=100.0"),
        *(
            pytest.param(dict(seed=seed), f"seed must be an integer >= 0 and <= {2**64 - 1}, got {seed!r}", id=f"seed={seed!r}")
            for seed in (-1, 2**64, True, 1.5)
        ),
    ],
)
def test_counts_must_be_positive_integers(monkeypatch, estimate, kw, msg):
    # Refused before any work: no MI evaluation (the bracket table's included) and no draw.
    calls = []
    monkeypatch.setattr(montecarlo, "mi_discrete_array", lambda *args, **kw: calls.append("mi_discrete_array"))
    monkeypatch.setattr(fading, "gain_block", lambda *args, **kw: calls.append("gain_block"))
    with pytest.raises(ValueError, match=f"^{msg}$"):
        estimate(**{"n": 100, **kw})
    assert calls == []


@pytest.mark.parametrize("estimate", ESTIMATORS)
def test_numpy_integer_counts_accepted(estimate):
    assert estimate(n=np.int64(5000), workers=np.int32(2), seed=5) == estimate(n=5000, workers=1, seed=5)


@pytest.mark.parametrize(
    "estimate",
    [
        pytest.param(lambda **kw: mc_outage(Snr(1.0), spec44(M2, 1), make_qam(4), **kw), id="mc_outage"),
        pytest.param(lambda **kw: mc_lower_bound(Snr(1.0), spec44(M2, 1), **kw), id="mc_lower_bound"),
    ],
)
def test_numpy_integer_count_gives_python_numbers(estimate):
    got, want = estimate(n=np.int64(5000), seed=5), estimate(n=5000, seed=5)
    assert type(got.p_hat) is float and type(got.n_samples) is int
    assert 0.0 < got.p_hat < 1.0
    assert (got.p_hat, got.n_samples) == (want.p_hat, want.n_samples)


class TestMcLowerBound:
    def test_high_snr_never_in_outage(self):
        est = mc_lower_bound(Snr(1e12), spec44(M2, 1), n=10**4, seed=3)
        assert est.p_hat == 0.0

    def test_reproducible(self):
        # The outage is about 0.69 here, so two seeds' counts of 5e4 samples
        # differ unless by a chance of well under 1%.
        a = mc_lower_bound(Snr(3.0), spec44(M2, 2), n=50_000, seed=5)
        b = mc_lower_bound(Snr(3.0), spec44(M2, 2), n=50_000, seed=5)
        assert a.p_hat == b.p_hat
        assert mc_lower_bound(Snr(3.0), spec44(M2, 2), n=50_000, seed=6).p_hat != a.p_hat

    def test_worker_count_invariant(self):
        kw = dict(n=200_000, seed=5)
        single = mc_lower_bound(Snr(10.0), spec44(M2, 1), workers=1, **kw)
        multi = mc_lower_bound(Snr(10.0), spec44(M2, 1), workers=3, **kw)
        assert single.p_hat == multi.p_hat

    def test_matches_analytic_bound(self):
        s = spec44(M2, 1.0)
        snr = Snr.from_db(7.0)
        analytic = outage_lower_bound(snr, s).value
        est = mc_lower_bound(snr, s, n=10**6, seed=42)
        assert est.p_hat >= 1e-4
        assert abs(est.p_hat - analytic) <= 3.0 * est.std_err

    def test_matches_analytic_bound_at_severe_fading(self):
        # m = 0.1 draws every gain by the m < 1 boost, and at 60 dB the
        # outage is a lower-tail event of the gains.
        s = spec44(NakagamiParam(0.1), 1.0)
        snrs = [Snr.from_db(db) for db in (10.0, 30.0, 60.0)]
        for snr, est in zip(snrs, mc_lower_bounds(snrs, s, n=10**6, seed=11)):
            assert est.p_hat >= 1e-3
            assert abs(est.p_hat - outage_lower_bound(snr, s).value) <= 3.0 * est.std_err, snr.db

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_fewer_than_one_sample(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            mc_lower_bound(Snr(10.0), spec44(M2, 1), n=n)

    def test_rate_equal_bits_outage_likely_at_low_snr(self):
        est = mc_lower_bound(Snr(1.0), spec44(M2, 4.0), n=10**4, seed=8)
        assert est.p_hat > 0.9


def direct_capped_count(snr, spec, n, seed):
    """Oracle: each row's sum of per-block capped log2(1 + gamma rho), compared with BR."""
    gains = gain_rows(spec.fading, seed, n, width=spec.B)
    return int(np.count_nonzero(np.minimum(spec.M, np.log2(1 + gains * snr.rho)).sum(axis=1) < spec.B * spec.rate))


class TestSharedDraws:
    """The points of a grid call score one seed's draws: each equals its one-point call at that seed."""

    N = 2 * fading.CHUNK + 321
    SNRS = [Snr.from_db(db) for db in (-3.0, 2.0, 7.0, 12.0)]

    def test_every_point_equals_its_one_point_call(self):
        spec = spec44(M1, 1.0)
        ests = mc_lower_bounds(self.SNRS, spec, n=self.N, seed=8)
        assert ests == [mc_lower_bound(snr, spec, n=self.N, seed=8) for snr in self.SNRS]
        c, rule = make_qam(4), hermite_rule(8)
        spec = spec44(M1, 2.0)
        ests = mc_outages(self.SNRS, spec, c, rule, n=self.N, seed=8)
        assert ests == [mc_outage(snr, spec, c, rule, n=self.N, seed=8) for snr in self.SNRS]

    def test_first_point_reads_the_given_stream(self):
        # The stream is the given seed's, not one of its own per point.
        spec = spec44(M1, 1.0)
        first = mc_lower_bounds(self.SNRS, spec, n=self.N, seed=5)[0]
        assert first.events == direct_capped_count(self.SNRS[0], spec, self.N, 5)

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda snrs, w: mc_lower_bounds(snrs, spec44(M2, 1.0), n=10001, seed=12, workers=w), id="mc_lower_bounds"),
            pytest.param(lambda snrs, w: mc_outages(snrs, spec44(M2, 2.0), make_qam(4), hermite_rule(8), n=10001, seed=12, workers=w), id="mc_outages"),
        ],
    )
    def test_counts_do_not_depend_on_workers(self, run):
        assert run(self.SNRS, 1) == run(self.SNRS, 2) == run(self.SNRS, 3)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda snrs: mc_lower_bounds(snrs, spec44(M1, 1.0), n=10), id="mc_lower_bounds"),
            pytest.param(lambda snrs: mc_outages(snrs, spec44(M1, 1.0), make_qam(4), n=10), id="mc_outages"),
        ],
    )
    def test_empty_grid_refused(self, call):
        with pytest.raises(ValueError, match="^snrs must hold at least one SNR$"):
            call([])

    # Each capped factor min(2^M, 1 + gamma rho) is nondecreasing in rho, so
    # on shared draws no count rises with the SNR, exactly.
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        seed=st.integers(0, 2**64 - 1),
        B=st.integers(1, 16),
        M=st.integers(1, 6),
        log_m=st.floats(math.log(0.1), math.log(20.0)),
        rate_frac=st.floats(0.01, 1.0),
        dbs=st.lists(st.floats(-20.0, 60.0), min_size=2, max_size=6),
    )
    def test_lowerbound_counts_nonincreasing_in_snr(self, seed, B, M, log_m, rate_frac, dbs):
        spec = ChannelSpec(B, M, NakagamiParam(min(20.0, max(0.1, math.exp(log_m)))), rate_frac * M)
        events = [e.events for e in mc_lower_bounds([Snr.from_db(db) for db in sorted(dbs)], spec, n=600, seed=seed)]
        assert all(hi >= lo for hi, lo in zip(events, events[1:])), events

    @pytest.mark.parametrize("name,m,seed", [("qam4", 0.5, 1), ("qam16", 1.0, 2), ("psk8", 2.0, 3), ("qam64", 1.0, 4)])
    def test_outage_counts_nonincreasing_in_snr(self, name, m, seed):
        c = from_name(name)
        M = c.bits_per_symbol
        snrs = [Snr.from_db(db) for db in np.arange(-10.0, 30.5, 0.5)]
        ests = mc_outages(snrs, ChannelSpec(4, M, NakagamiParam(m), M / 2), c, n=fading.CHUNK + 100, seed=seed)
        events = [e.events for e in ests]
        assert events[0] > events[-1]
        assert all(hi >= lo for hi, lo in zip(events, events[1:])), events


class TestCappedCount:
    # n spans three sampler chunks, the last one partial.  Each low-rate SNR
    # puts the rows' sums near BR; 100 * 2^M caps most blocks.  At B = 64
    # and M = 16 a single product of a row's factors would pass 2^1024.
    N = 2 * fading.CHUNK + 321

    @pytest.mark.parametrize(
        "B,M,low_rate_snr",
        [(1, 1, 1.0), (4, 4, 10.0), (64, 16, 25.0)],
        ids=["B1-M1", "B4-M4", "B64-M16"],
    )
    def test_count_equals_direct_count(self, B, M, low_rate_snr):
        for rate, snr in ((M / 4, low_rate_snr), (M, 1.0), (M / 4, 100.0 * 2.0**M), (M, 100.0 * 2.0**M)):
            spec = ChannelSpec(B, M, M1, rate)
            est = mc_lower_bound(Snr(snr), spec, n=self.N, seed=4)
            want = direct_capped_count(Snr(snr), spec, self.N, 4)
            assert est.events == want, (rate, snr)

    @pytest.mark.parametrize("B,M", [(1, 1), (4, 4), (64, 16)], ids=["B1-M1", "B4-M4", "B64-M16"])
    def test_all_capped_rows_are_not_in_outage_at_rate_m(self, B, M):
        # At R = M a row is in outage unless every block caps, where its sum is exactly BM.
        rho = 100.0 * 2.0**M
        gains = gain_rows(M1, 4, self.N, width=B)
        not_all_capped = int(np.count_nonzero((1 + gains * rho < 2.0**M).any(axis=1)))
        assert 0 < not_all_capped < self.N
        est = mc_lower_bound(Snr(rho), ChannelSpec(B, M, M1, M), n=self.N, seed=4)
        assert est.events == not_all_capped

    def test_cap_past_the_float_range(self):
        # 2^M overflows a float at M = 1100, and a group holds one block.
        for rate in (10.0, 1100.0):
            spec = ChannelSpec(3, 1100, M1, rate)
            est = mc_lower_bound(Snr(1e3), spec, n=self.N, seed=4)
            assert est.events == direct_capped_count(Snr(1e3), spec, self.N, 4)


class TestMcOutage:
    def test_zero_snr_always_in_outage(self):
        est = mc_outage(Snr(1e-9), spec44(M2, 1), make_qam(4), n=10**4, seed=1)
        assert est.p_hat == 1.0

    def test_requires_matching_bits(self):
        with pytest.raises(ValueError):
            mc_outage(Snr(10.0), spec44(M2, 1), make_psk(1), n=10, seed=1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_fewer_than_one_sample(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            mc_outage(Snr(10.0), spec44(M2, 1), make_qam(4), n=n)

    def test_worker_count_invariant(self):
        kw = dict(n=20_000, seed=9)
        single = mc_outage(Snr(10.0), spec44(M2, 1), make_qam(4), workers=1, **kw)
        multi = mc_outage(Snr(10.0), spec44(M2, 1), make_qam(4), workers=3, **kw)
        assert single.p_hat == multi.p_hat

    # Event counts at fixed seeds, frozen from the direct (unfactorized)
    # tensor-rule evaluation; 6000 samples span two sampler chunks.
    @pytest.mark.parametrize(
        "c,M,m,rate,db,n,seed,count",
        [
            (make_psk(3), 3, M1, 1.5, 8.0, 6000, 21, 822),
            (make_psk(3), 3, M2, 1.5, 6.0, 6000, 22, 771),
            (make_qam(4), 4, M1, 2.0, 12.0, 50_000, 23, 2099),
        ],
        ids=["psk8-m1", "psk8-m2", "qam16-m1"],
    )
    def test_pinned_event_counts(self, c, M, m, rate, db, n, seed, count):
        est = mc_outage(Snr.from_db(db), ChannelSpec(4, M, m, rate), c, n=n, seed=seed)
        assert est.events == count

    @pytest.mark.parametrize("m,db", [(M2, 5.0), (M2, 9.0), (NakagamiParam(0.5), 5.0), (NakagamiParam(0.5), 15.0)])
    def test_lower_bound_estimate_below_outage_estimate(self, m, db):
        s = spec44(m, 2.0)
        snr = Snr.from_db(db)
        lo = mc_lower_bound(snr, s, n=4 * 10**4, seed=17)
        hi = mc_outage(snr, s, make_qam(4), n=4 * 10**4, seed=23)
        pooled = math.hypot(lo.std_err, hi.std_err)
        assert lo.p_hat <= hi.p_hat + 3.0 * pooled

    def test_two_seed_consistency(self):
        s = spec44(M1, 1.0)
        snr = Snr(10**1.5)
        a = mc_outage(snr, s, make_qam(4), n=10**6, seed=101)
        b = mc_outage(snr, s, make_qam(4), n=10**6, seed=202)
        pooled = math.hypot(a.std_err, b.std_err)
        assert abs(a.p_hat - b.p_hat) <= 6.0 * pooled


def direct_outage_count(snr, spec, c, n, seed, rule):
    """Oracle: MI quadrature at every block of every sample, each row decided by its mean."""
    gains = gain_rows(spec.fading, seed, n, width=spec.B)
    mi = mi_discrete_array(gains * snr.rho, c, rule)
    return int(np.count_nonzero(mi.mean(axis=1) < spec.rate))


SCREEN_SNRS = [("zero", Snr(0.0))] + [(f"{db:g}dB", Snr.from_db(db)) for db in (-10.0, 5.0, 15.0, 40.0)]

# Every constellation meets every m once; the SNR and the worker count cycle
# with the case, so every SNR and both worker counts recur.  n spans three
# sampler chunks, the last one partial.
SCREEN_N = 2 * fading.CHUNK + 321
SCREEN_CASES = [
    (name, m, *SCREEN_SNRS[(i + j) % len(SCREEN_SNRS)], (1, 3)[(i + j) % 2], SCREEN_N)
    for i, name in enumerate(KNOWN_NAMES)
    for j, m in enumerate((0.1, 0.5, 1.0, 2.0))
]
# Small n.  At n = 1, and at n = 100 with m = 0.1 above 5 dB, the table that
# mc_outage builds has at least as many nodes as values to score; at n = 7 it
# has 10 nodes for 14 values.
SCREEN_CASES += [
    (name, m, *SCREEN_SNRS[snrs[i % len(snrs)]], 1, n)
    for n, m, snrs in ((1, 2.0, (1, 2, 3, 4)), (7, 2.0, (1, 2, 3, 4)), (100, 0.1, (3, 4)))
    for i, name in enumerate(KNOWN_NAMES)
]


def screen_id(case) -> str:
    name, m, snr_id, _, workers, n = case
    return f"{name}-m{m:g}-{snr_id}-w{workers}" + ("" if n == SCREEN_N else f"-n{n}")


class TestScreening:
    # Rate M/2 puts the threshold inside the MI range.  B = 2 and order 8
    # keep the oracle cheap; the default order is checked by
    # test_pinned_event_counts.
    @pytest.mark.parametrize("name,m,snr_id,snr,workers,n", SCREEN_CASES, ids=[screen_id(c) for c in SCREEN_CASES])
    def test_counts_equal_direct_quadrature(self, name, m, snr_id, snr, workers, n):
        c = from_name(name)
        M = c.bits_per_symbol
        spec = ChannelSpec(2, M, NakagamiParam(m), M / 2)
        rule = hermite_rule(8)
        seed = 31
        est = mc_outage(snr, spec, c, rule, n=n, seed=seed, workers=workers)
        want = direct_outage_count(snr, spec, c, n, seed, rule)
        assert est.events == want

    def test_screen_leaves_few_snrs_to_evaluate(self, monkeypatch):
        # A silent fall-back to evaluating every sample would still give
        # the right count; the number of evaluated SNRs catches it.
        evaluated = []

        def counting(rhos, c, rule=None):
            evaluated.append(np.size(rhos))
            return mi_discrete_array(rhos, c, rule)

        monkeypatch.setattr(montecarlo, "mi_discrete_array", counting)
        n, B = 50_000, 4
        est = mc_outage(Snr.from_db(12.0), ChannelSpec(B, 4, M1, 2.0), make_qam(4), n=n, seed=23)
        assert est.events == 2099
        assert sum(evaluated) < n * B / 5


@pytest.mark.parametrize("m", [0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
def test_window_leaves_at_most_an_octave_of_values_outside(m):
    # Against the exact Gamma(m, 1/m) tails: at most P values expected below
    # the first node at rho_lo, and at most P above the last at rho_hi,
    # except where the ln 2 / P floor, the one-node minimum or the top key
    # sets the end.
    P = montecarlo._NODES_PER_OCTAVE
    floor_key = math.floor(P * math.log2(math.log(2.0) / P))
    gain = scipy.stats.gamma(m, scale=1.0 / m)
    for values in [1, 10, 768, 62400, 4 * 10**6, 10**9]:
        for rho_lo in [1e-3, 1.0, 10.0, 1e4]:
            first, last = montecarlo._window(rho_lo, 8.0 * rho_lo, values, m)
            assert first <= last
            assert values * gain.cdf(2.0 ** (first / P) / rho_lo) <= P or first in (floor_key, last)
            assert values * gain.sf(2.0 ** (last / P) / (8.0 * rho_lo)) <= P or last == montecarlo._TOP_KEY


class TestBracketTable:
    """One table counts at any SNR, chunk and thread as direct quadrature does."""

    def test_table_whose_window_misses_the_snr(self):
        # Rate 0.1 puts the outage probability near 0.4 at -10 dB.
        c, rule = make_qam(4), hermite_rule(8)
        spec = ChannelSpec(2, 4, M1, 0.1)
        snr, n, seed = Snr.from_db(-10.0), fading.CHUNK + 500, 41
        table = montecarlo.BracketTable(c, rule, [Snr.from_db(40.0).rho], n, spec)
        v = gain_rows(spec.fading, seed, n, width=spec.B) * snr.rho
        assert table.count_rows(v, spec.rate) == direct_outage_count(snr, spec, c, n, seed, rule)

    @pytest.mark.parametrize("rho", [0.0, 1e-310], ids=["zero", "subnormal"])
    def test_exact_zero_snrs(self, rho):
        # At m = 0.1 a subnormal SNR turns a few percent of the per-block
        # SNRs into exact zeros; a table built at 10 dB brackets them by I(0).
        c, rule = make_psk(2), hermite_rule(8)
        spec = ChannelSpec(2, 2, NakagamiParam(0.1), 1.0)
        n, seed = 3000, 43
        snr = Snr(rho)
        v = gain_rows(spec.fading, seed, n, width=spec.B) * rho
        assert np.count_nonzero(v == 0.0) > 20
        want = direct_outage_count(snr, spec, c, n, seed, rule)
        own = mc_outage(snr, spec, c, rule, n=n, seed=seed)
        shared = montecarlo.BracketTable(c, rule, [10.0], n, spec).count_rows(v, spec.rate)
        assert own.events == shared == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_point_of_a_cli_command_equals_direct_quadrature(self, monkeypatch, workers):
        calls = []

        def recording(rhos, c, rule=None):
            calls.append(np.shape(rhos))
            return mi_discrete_array(rhos, c, rule)

        monkeypatch.setattr(montecarlo, "mi_discrete_array", recording)
        n, seed = 1500, 3
        args = ["mc", "--mode", "outage", "--constellation", "qam4", "-M", "2", "--m", "1", "--rate", "1"]
        args += ["--snr-db", "0:14:2", "--samples", str(n), "--seed", str(seed), "--workers", str(workers)]
        res = CliRunner().invoke(cli.main, args)
        assert res.exit_code == 0, res.output
        rows = [line.split(",") for line in res.output.splitlines()[2:]]
        assert len(rows) == 8
        spec, c, rule = ChannelSpec(4, 2, M1, 1.0), make_qam(2), hermite_rule(montecarlo.MC_QUAD_ORDER)
        # Every point reads the draws of the command's seed.
        for row in rows:
            want = direct_outage_count(Snr.from_db(float(row[0])), spec, c, n, seed, rule)
            assert row[1] == f"{want / n:.12g}"
        # The table is the one one-dimensional call; every point only reads it.
        assert sum(len(shape) == 1 for shape in calls) == 1

    def test_large_estimate_evaluates_few_values(self, monkeypatch):
        evaluated = []

        def counting(rhos, c, rule=None):
            evaluated.append(np.size(rhos))
            return mi_discrete_array(rhos, c, rule)

        monkeypatch.setattr(montecarlo, "mi_discrete_array", counting)
        mc_outage(Snr.from_db(15.0), spec44(M1, 1.0), make_qam(4), n=10**6, seed=1)
        assert sum(evaluated) < 300

    def test_small_psk8_command_evaluates_few_values(self, monkeypatch):
        # 24 samples at each of 8 SNRs, as in the benchmark's psk8 commands:
        # 192 rows of 4 blocks, 768 values.  The table evaluates I(0) and 110
        # nodes, a count set by the grid, n and the channel, not the draws.
        # Every other call takes only undecided rows.  Their number depends
        # on the draws: over seeds 1-400 it had a mean of 7 and a maximum
        # of 15, with one stream per command or one per point, so 16 rows
        # holds on any of them and still fails on a fall-back to direct
        # evaluation.
        shapes = []

        def counting(rhos, c, rule=None):
            shapes.append(np.shape(rhos))
            return mi_discrete_array(rhos, c, rule)

        monkeypatch.setattr(montecarlo, "mi_discrete_array", counting)
        args = ["mc", "--mode", "outage", "--constellation", "psk8", "-M", "3", "--m", "2", "--rate", "1.5"]
        args += ["--snr-db", "3:6.5:0.5", "--samples", "24", "--seed", "1", "--workers", "2"]
        res = CliRunner().invoke(cli.main, args)
        assert res.exit_code == 0, res.output
        assert [shape for shape in shapes if len(shape) == 1] == [(111,)]
        rows = [shape for shape in shapes if len(shape) != 1]
        assert all(len(shape) == 2 and shape[1] == 4 for shape in rows)
        assert sum(shape[0] for shape in rows) <= 16
