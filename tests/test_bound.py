import math

import numpy as np
import pytest
from click.testing import CliRunner

from nakfade import bound, cli
from nakfade.asymptotics import coding_gain
from nakfade.bound import (
    ChannelSpec,
    ConvolutionWorkspace,
    TabulatedPmf,
    binomial_weights,
    cdf_Y_at,
    convolve_power,
    outage_lower_bound,
    outage_lower_bounds,
    singleton_bound,
    tabulate_A,
    threshold_terms,
)
from nakfade.fading import NakagamiParam, reg_gamma_pq
from nakfade.montecarlo import mc_lower_bound
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

    def test_numpy_integers_accepted(self):
        assert outage_lower_bound(Snr(10.0), ChannelSpec(np.int64(4), np.int64(4), M1, 1.0), 64).value > 0


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
        # The t = 0 weight (1-p)^4 ~ 5.1e-116 keeps its relative accuracy.
        x = 15.0 / 1e30
        weights = binomial_weights(*p_and_q(Snr(1e30), spec44(M1, 1)), 4)
        assert weights[0] == pytest.approx((-math.expm1(-x)) ** 4, rel=1e-12)


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
        assert pmf.origin == 0.0

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
        with pytest.raises(ValueError, match="need at least 2 cells, got 1"):
            next(tabulate_A([Snr(10.0)], spec, 1))
        with pytest.raises(ValueError, match="need at least 2 cells, got 1"):
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
        with pytest.raises(ValueError, match=f"^need at least 2 cells, got {n_cells}$"):
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


class TestConvolvePower:
    def test_identity(self):
        pmf = pmf_A(Snr(5.0), spec44(M1, 1), 64)
        assert convolve_power(pmf, 1) is pmf

    def test_delta_shift(self):
        masses = np.zeros(32)
        masses[5] = 1.0
        pmf = TabulatedPmf(0.125, masses)
        out = convolve_power(pmf, 3)
        assert out.n_cells == 3 * 31 + 1
        assert out.masses[15] == pytest.approx(1.0, abs=1e-12)
        assert out.masses.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_direct_convolution(self, n):
        rng = np.random.default_rng(2024)
        masses = rng.random(512)
        masses /= masses.sum()
        pmf = TabulatedPmf(4.0 / 512, masses)
        direct = masses.copy()
        for _ in range(n - 1):
            direct = np.convolve(direct, masses)
        direct /= direct.sum()
        got = convolve_power(pmf, n).masses
        assert got.shape == direct.shape
        assert np.max(np.abs(got - direct)) < 1e-10

    def test_midpoint_alignment_offset(self):
        pmf = TabulatedPmf(0.5, np.full(8, 0.125))
        out = convolve_power(pmf, 4)
        assert out.origin == pytest.approx(1.5 * 0.5)

    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            convolve_power(TabulatedPmf(1.0, np.array([1.0])), 0)

    def test_result_without_workspace_is_its_own(self):
        rng = np.random.default_rng(7)
        masses = rng.random(64)
        pmf = TabulatedPmf(1.0 / 16, masses / masses.sum())
        first = convolve_power(pmf, 3)
        kept = first.masses.copy()
        convolve_power(pmf, 3)
        convolve_power(pmf, 2)
        assert np.array_equal(first.masses, kept)

    def test_workspace_result_equals_fresh_one(self):
        rng = np.random.default_rng(8)
        masses = rng.random(64)
        pmf = TabulatedPmf(1.0 / 16, masses / masses.sum())
        workspace = ConvolutionWorkspace(pmf)
        for n in (5, 2, 3, 2, 7):
            assert np.array_equal(convolve_power(pmf, n, workspace).masses, convolve_power(pmf, n).masses), n

    def test_workspace_of_another_pmf_is_refused(self):
        pmf = TabulatedPmf(0.5, np.full(8, 0.125))
        with pytest.raises(ValueError):
            convolve_power(pmf, 2, ConvolutionWorkspace(TabulatedPmf(0.5, np.full(8, 0.125))))


class TestCdfYAt:
    def test_below_support(self):
        pmf = TabulatedPmf(0.5, np.full(8, 0.125))
        assert cdf_Y_at(pmf, 0.0) == 0.0
        assert cdf_Y_at(pmf, -1.0) == 0.0

    def test_at_support_top(self):
        pmf = TabulatedPmf(0.5, np.full(8, 0.125))
        assert cdf_Y_at(pmf, 4.0) == pytest.approx(1.0, abs=1e-9)
        assert cdf_Y_at(pmf, 99.0) == 1.0

    def test_linear_within_cell(self):
        pmf = TabulatedPmf(0.25, np.array([1.0]))
        assert cdf_Y_at(pmf, 0.125) == pytest.approx(0.5, rel=1e-15)


class TestBinomialMixture:
    def test_weights_sum_to_one(self):
        weights = binomial_weights(0.37, 0.63, 6)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert np.all(weights >= 0)

    def test_degenerate_rates(self):
        assert binomial_weights(0.0, 1.0, 4)[0] == 1.0
        assert binomial_weights(1.0, 0.0, 4)[4] == 1.0


class TestOutageLowerBound:
    def test_vanishing_snr_saturates(self):
        res = outage_lower_bound(Snr(1e-6), spec44(M2, 1))
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_snr(self):
        s = spec44(M2, 1)
        assert outage_lower_bound(Snr.from_db(20), s).value <= outage_lower_bound(Snr.from_db(10), s).value

    def test_value_is_sum_of_products(self):
        res = outage_lower_bound(Snr.from_db(8), spec44(M2, 3))
        assert res.value == pytest.approx(sum(t[3] for t in res.per_term), abs=1e-12)
        assert 0.0 <= res.value <= 1.0

    def test_term_count_and_tail_terms_vanish(self):
        # summing t up to B adds only zeros: A is positive so F_Yt(<=0) = 0
        spec = spec44(M2, 3)
        snr = Snr.from_db(9)
        n_terms = threshold_terms(spec)
        assert n_terms == math.ceil(spec.B * spec.rate / spec.M)
        pmf = pmf_A(snr, spec, 512)
        for t in range(n_terms, spec.B):
            arg = spec.B * spec.rate - t * spec.M
            assert arg <= 0
            assert cdf_Y_at(convolve_power(pmf, spec.B - t), arg) == 0.0

    def test_rate_equal_bits_uses_full_formula(self):
        res = outage_lower_bound(Snr.from_db(10), spec44(M1, 4.0))
        assert len(res.per_term) == 4  # ceil(BR/M) - 1 = B - 1 -> t = 0..3
        assert 0.0 < res.value <= 1.0

    @pytest.mark.parametrize("m", [MH, M2])
    def test_grid_convergence_on_acceptance_grid(self, m):
        for rate in (1.0, 2.0, 3.0):
            s = spec44(m, rate)
            for db in (5.0, 10.0, 15.0, 20.0):
                v1 = outage_lower_bound(Snr.from_db(db), s, 4096).value
                v2 = outage_lower_bound(Snr.from_db(db), s, 8192).value
                assert abs(v1 / v2 - 1) < 1e-4, (m.m, rate, db)

    def test_against_mc_oracle_at_spec_point(self):
        # 1e7-sample MC of the capped-rate event at rho = 10^1.6; the bound
        # value there (~1.4e-10) is far below 1/n, so the check uses the
        # binomial deviation predicted by the analytic value itself.
        s = spec44(M2, 1.0)
        snr = Snr(10**1.6)
        analytic = outage_lower_bound(snr, s).value
        est = mc_lower_bound(snr, s, n=10**7, seed=20260809)
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
        for B, M, rate in term_count_rates():
            res = outage_lower_bound(Snr(10.0), ChannelSpec(B, M, M1, rate), 8)
            assert len(res.per_term) == B + 1 - singleton_bound(B, M, rate), (B, M, rate)

    def test_per_term_columns_match(self):
        runner = CliRunner()
        for B, M, rate in term_count_rates():
            args = ["curve", "-B", str(B), "-M", str(M), "--rate", repr(rate), "--snr-db", "10:10:1", "--cells", "8", "--per-term"]
            res = runner.invoke(cli.main, args)
            assert res.exit_code == 0, res.output
            columns = res.output.splitlines()[1].split(",")
            assert len(columns) == 2 + 2 * (B + 1 - singleton_bound(B, M, rate)), (B, M, rate)


def per_rate_reference(snr, spec, n_cells):
    """The bound as evaluated one rate at a time, each with a fresh pmf and
    fresh forward FFTs (the evaluation that outage_lower_bounds replaced)."""
    q, p = reg_gamma_pq(spec.fading.m, spec.fading.m * (2.0**spec.M - 1.0) / snr.rho)
    weights = binomial_weights(float(p), float(q), spec.B)
    pmf = pmf_A(snr, spec, n_cells)
    masses = pmf.masses
    terms = []
    total = 0.0
    for t in range(threshold_terms(spec)):
        n = spec.B - t
        pmf_y = pmf
        if n > 1:
            size = 1 << (n * masses.size - 1).bit_length()
            out = np.fft.irfft(np.fft.rfft(masses, size) ** n, size)[: n * (masses.size - 1) + 1]
            out = np.maximum(out, 0.0)
            out /= out.sum()
            pmf_y = TabulatedPmf(pmf.grid_step, out, n * pmf.origin + (n - 1) * pmf.grid_step / 2.0)
        f_y = cdf_Y_at(pmf_y, spec.B * spec.rate - t * spec.M)
        w = float(weights[t])
        terms.append((t, f_y, w, f_y * w))
        total += f_y * w
    return min(max(total, 0.0), 1.0), terms


def sweep_rates(B, M):
    """The CLI's default rate grid inside (0, M], rates with integer BR/M, and R = M."""
    grid = [0.25 * k for k in range(1, 16) if 0.25 * k <= M]
    return sorted(set(grid) | {j * M / B for j in range(1, B + 1)})


class TestSharedEvaluator:
    @pytest.mark.parametrize("B", [1, 2, 4, 16, 32])
    @pytest.mark.parametrize("M", [2, 4])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_bit_identical_to_per_rate_loop(self, B, M, m):
        fading = NakagamiParam(m)
        rates = sweep_rates(B, M)
        for db in (3.0, 14.0):
            snr = Snr.from_db(db)
            (got,) = outage_lower_bounds([snr], B, M, fading, rates, 512)
            assert len(got) == len(rates)
            for r, res in zip(rates, got):
                value, terms = per_rate_reference(snr, ChannelSpec(B, M, fading, r), 512)
                assert res.value == value, (B, M, m, r, db)
                assert res.per_term == terms

    def test_bit_identical_at_default_cells(self):
        snr, fading = Snr.from_db(10.0), NakagamiParam(1.0)
        rates = sweep_rates(16, 4)
        (got,) = outage_lower_bounds([snr], 16, 4, fading, rates)
        for r, res in zip(rates, got):
            assert res.value == per_rate_reference(snr, ChannelSpec(16, 4, fading, r), bound.DEFAULT_CELLS)[0]

    def test_consecutive_calls_are_independent(self):
        snr, rates = Snr.from_db(10.0), [0.5, 1.0, 2.5]
        (wide,) = outage_lower_bounds([snr], 16, 4, M2, rates, 512)
        (narrow,) = outage_lower_bounds([snr], 4, 4, M2, rates, 512)
        assert [r.per_term for r in outage_lower_bounds([snr], 4, 4, M2, rates, 512)[0]] == [r.per_term for r in narrow]
        assert [r.per_term for r in outage_lower_bounds([snr], 16, 4, M2, rates, 512)[0]] == [r.per_term for r in wide]
        assert [r.value for r in narrow] != [r.value for r in wide]

    def test_one_rate_call_is_outage_lower_bound(self):
        spec, snr = spec44(MH, 2.5), Snr.from_db(9.0)
        one = outage_lower_bound(snr, spec)
        shared = outage_lower_bounds([snr], 4, 4, MH, [0.5, 2.5, 4.0])[0][1]
        assert one.value == shared.value
        assert one.per_term == shared.per_term

    def test_empty_and_invalid_rates(self):
        assert outage_lower_bounds([Snr(10.0)], 4, 4, M1, []) == [[]]
        with pytest.raises(ValueError):
            outage_lower_bounds([Snr(10.0)], 4, 4, M1, [1.0, 4.5])

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

    def test_ratesweep_shares_pmf_and_spectra(self, monkeypatch, tmp_path):
        calls = {"build_pmf_A": 0, "convolve_power": 0}
        rfft_sizes = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        rfft = np.fft.rfft

        def counted_rfft(a, n=None, *args, **kwargs):
            rfft_sizes.append(n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(bound, "build_pmf_A", counted("build_pmf_A", bound.build_pmf_A))
        monkeypatch.setattr(bound, "convolve_power", counted("convolve_power", bound.convolve_power))
        monkeypatch.setattr(np.fft, "rfft", counted_rfft)
        B = 8
        cfg = cli.RunConfig(subcommand="ratesweep", blocks=B, rate_grid=(0.25, 3.75, 0.25), cells=1024, out=str(tmp_path / "r.csv"))
        assert cli.run(cfg) == 0
        assert calls["build_pmf_A"] == 1
        assert calls["convolve_power"] <= B
        assert rfft_sizes and len(rfft_sizes) == len(set(rfft_sizes))


# Grid sizes around multiples of the 4 SNRs that share an incomplete-gamma
# call at the default cells.
GRID_SIZES = [1, 4, 5, 7, 8, 9, 17]


def discontinuity_rates(B):
    """A rate off every diversity discontinuity at M = 4, then one on it: B(1 - R/M) an integer."""
    rates = [1.3, 4.0 * (1 - (B // 2) / B)]
    assert [bound.diversity_arg(B, 4, r).is_integer() for r in rates] == [False, True]
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
            one = [[outage_lower_bound(Snr.from_db(db), ChannelSpec(B, 4, MH, r)) for r in rates] for db in dbs]
            got = outage_lower_bounds([Snr.from_db(db) for db in dbs], B, 4, MH, rates)
            assert [[(r.value, r.per_term) for r in row] for row in got] == [[(r.value, r.per_term) for r in row] for row in one]
            for j, rate in enumerate(rates):
                flags = ["-B", str(B), "--m", "0.5", "--rate", repr(rate), "--snr-db", f"-3:{dbs[-1]!r}:2.5"]
                curve = cli_rows(["curve", *flags, "--per-term"])
                terms = [[fmt(v) for _, f_y, w, _ in row[j].per_term for v in (f_y, w)] for row in one]
                assert curve == [[fmt(db), fmt(row[j].value), *cols] for db, row, cols in zip(dbs, one, terms)]
                asymptote = cli_rows(["asymptote", *flags])
                assert [r[:2] for r in asymptote] == [[fmt(db), fmt(row[j].value)] for db, row in zip(dbs, one)]

    @pytest.mark.parametrize("B", [1, 2, 4, 8])
    def test_ratesweep_equals_the_one_point_bound(self, B):
        rates = discontinuity_rates(B)
        for db in [-3.0 + 2.5 * i for i in range(GRID_SIZES[-1])]:
            sweep = cli_rows(["ratesweep", "-B", str(B), "--m", "0.5", "--snr-db-fixed", repr(db), "--rate", f"{rates[0]!r}:{rates[1]!r}:{rates[1] - rates[0]!r}"])
            want = [outage_lower_bound(Snr.from_db(db), ChannelSpec(B, 4, MH, r)).value for r in rates]
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


def direct_bound(snr, spec):
    """The bound with each F_Yt from the truncated direct convolution, read
    as cdf_Y_at reads it: the (n-1)/2-cell shift, whole cells below the
    threshold and the straddling cell's linear fraction."""
    pmf, p, q = tabulated(snr, spec)
    weights = binomial_weights(p, q, spec.B)
    step = pmf.grid_step
    total = 0.0
    for t in range(threshold_terms(spec)):
        n = spec.B - t
        rel = (spec.B * spec.rate - t * spec.M - (n - 1) * step / 2.0) / step
        j = int(rel)
        cells = truncated_power(pmf.masses, n, j + 1)
        total += weights[t] * (cells[:j].sum() + cells[j] * (rel - j))
    return total


FFT_FLOOR = pytest.mark.xfail(strict=True, reason="ROADMAP item 2: FFT round-off floor in the deep left tail")


class TestFftFloor:
    @pytest.mark.parametrize(
        "B, m, rate, db",
        [
            pytest.param(16, 1.0, 0.25, 11.0, marks=FFT_FLOOR),  # 0.0 against 1.57e-23
            pytest.param(4, 5.0, 0.5, 30.0, marks=FFT_FLOOR),  # 1.17e-48 against 1.55e-60
            pytest.param(4, 5.0, 1.0, 20.0, marks=FFT_FLOOR),  # 4.03e-29 against 9.46e-33
            (4, 2.0, 1.0, 10.0),
        ],
    )
    def test_matches_truncated_direct_convolution(self, B, m, rate, db):
        spec, snr = ChannelSpec(B, 4, NakagamiParam(m), rate), Snr.from_db(db)
        want = direct_bound(snr, spec)
        assert want > 0.0
        assert outage_lower_bound(snr, spec).value == pytest.approx(want, rel=1e-6, abs=0.0)
