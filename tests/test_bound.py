import math

import numpy as np
import pytest
from click.testing import CliRunner

from nakfade import bound, cli
from nakfade.bound import (
    BinomialMixture,
    ChannelSpec,
    TabulatedPmf,
    build_pmf_A,
    cdf_Y_at,
    conditional_cdf_A,
    convolve_power,
    outage_lower_bound,
    outage_lower_bounds,
    success_rate,
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


class TestSuccessRate:
    def test_rayleigh_closed_form(self):
        assert success_rate(Snr(15.0), spec44(M1, 1)) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_high_snr_limit(self):
        assert success_rate(Snr(1e30), spec44(M2, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_m2_closed_form(self):
        # Gamma(2, 3)/Gamma(2) = 4 e^-3
        assert success_rate(Snr(10.0), spec44(M2, 1)) == pytest.approx(4.0 * math.exp(-3.0), rel=1e-12)


class TestConditionalCdfA:
    def test_support_edges(self):
        s = spec44(M1, 1)
        assert conditional_cdf_A(0.0, Snr(15.0), s) == 0.0
        assert conditional_cdf_A(-1.0, Snr(15.0), s) == 0.0
        assert conditional_cdf_A(4.0, Snr(15.0), s) == 1.0
        assert conditional_cdf_A(9.0, Snr(15.0), s) == 1.0

    def test_rayleigh_closed_form(self):
        got = conditional_cdf_A(2.0, Snr(15.0), spec44(M1, 1))
        want = (1 - math.exp(-0.2)) / (1 - math.exp(-1.0))
        assert got == pytest.approx(want, rel=1e-12)

    def test_monotone(self):
        xs = np.linspace(-0.5, 4.5, 300)
        vals = conditional_cdf_A(xs, Snr(7.0), spec44(MH, 1))
        assert np.all(np.diff(vals) >= 0)

    @pytest.mark.parametrize("rho", [3.0, 10**1.5, 1e4])
    def test_rayleigh_specialization_dense_grid(self, rho):
        s = spec44(M1, 2)
        xs = np.linspace(0.0, 4.0, 100)
        got = conditional_cdf_A(xs, Snr(rho), s)
        want = (1 - np.exp(-(2.0**xs - 1) / rho)) / (1 - math.exp(-15.0 / rho))
        want[xs <= 0] = 0.0
        assert np.max(np.abs(got - np.minimum(want, 1.0))) < 1e-12


class TestBuildPmfA:
    def test_masses_sum_to_one(self):
        pmf = build_pmf_A(Snr(10.0), spec44(MH, 1), 4096)
        assert abs(pmf.masses.sum() - 1.0) <= 1e-9

    def test_grid_spans_bits_exactly(self):
        pmf = build_pmf_A(Snr(10.0), spec44(M2, 1), 1000)
        assert abs(pmf.n_cells * pmf.grid_step - 4.0) <= 1e-12
        assert pmf.origin == 0.0

    def test_first_cell_is_cdf_at_step(self):
        snr, s = Snr(10.0), spec44(MH, 1)
        pmf = build_pmf_A(snr, s, 512)
        assert pmf.masses[0] == pytest.approx(conditional_cdf_A(pmf.grid_step, snr, s), abs=1e-15)

    def test_cumulative_reproduces_cdf(self):
        snr, s = Snr(31.6), spec44(M2, 1)
        pmf = build_pmf_A(snr, s, 1024)
        grid = (1 + np.arange(pmf.n_cells)) * pmf.grid_step
        assert np.max(np.abs(np.cumsum(pmf.masses) - conditional_cdf_A(grid, snr, s))) < 1e-12

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError):
            build_pmf_A(Snr(10.0), spec44(M1, 1), 1)


class TestConvolvePower:
    def test_identity(self):
        pmf = build_pmf_A(Snr(5.0), spec44(M1, 1), 64)
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

    def test_spectrum_is_computed_once_per_size(self):
        pmf = TabulatedPmf(0.5, np.full(8, 0.125))
        freq = pmf.spectrum(32)
        assert pmf.spectrum(32) is freq
        assert np.array_equal(freq, np.fft.rfft(pmf.masses, 32))
        assert not freq.flags.writeable
        assert pmf.spectrum(16).shape == (9,)


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
        mix = BinomialMixture.from_rates(0.37, 6)
        assert abs(mix.weights.sum() - 1.0) <= 1e-12
        assert np.all(mix.weights >= 0)

    def test_degenerate_rates(self):
        assert BinomialMixture.from_rates(0.0, 4).weights[0] == 1.0
        assert BinomialMixture.from_rates(1.0, 4, one_minus_p=0.0).weights[4] == 1.0


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
        pmf = build_pmf_A(snr, spec, 512)
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


def per_rate_reference(snr, spec, n_cells):
    """The bound as evaluated one rate at a time, each with a fresh pmf and
    fresh forward FFTs (the evaluation that outage_lower_bounds replaced)."""
    q, p = reg_gamma_pq(spec.fading.m, spec.fading.m * (2.0**spec.M - 1.0) / snr.rho)
    mix = BinomialMixture.from_rates(float(p), spec.B, one_minus_p=float(q))
    pmf = build_pmf_A(snr, spec, n_cells)
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
        w = float(mix.weights[t])
        terms.append((t, f_y, w, f_y * w))
        total += f_y * w
    return min(max(total, 0.0), 1.0), terms


def sweep_rates(B, M):
    """The CLI's default rate grid inside (0, M], rates with integer BR/M, and R = M."""
    grid = [0.25 * k for k in range(1, 16) if 0.25 * k <= M]
    return sorted(set(grid) | {j * M / B for j in range(1, B + 1)})


class TestSharedEvaluator:
    @pytest.mark.parametrize("B", [1, 2, 4, 16])
    @pytest.mark.parametrize("M", [2, 4])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_bit_identical_to_per_rate_loop(self, B, M, m):
        fading = NakagamiParam(m)
        rates = sweep_rates(B, M)
        for db in (3.0, 14.0):
            snr = Snr.from_db(db)
            got = outage_lower_bounds(snr, B, M, fading, rates, 512)
            assert len(got) == len(rates)
            for r, res in zip(rates, got):
                value, terms = per_rate_reference(snr, ChannelSpec(B, M, fading, r), 512)
                assert res.value == value, (B, M, m, r, db)
                assert res.per_term == terms

    def test_bit_identical_at_default_cells(self):
        snr, fading = Snr.from_db(10.0), NakagamiParam(1.0)
        rates = sweep_rates(16, 4)
        got = outage_lower_bounds(snr, 16, 4, fading, rates)
        for r, res in zip(rates, got):
            assert res.value == per_rate_reference(snr, ChannelSpec(16, 4, fading, r), bound.DEFAULT_CELLS)[0]

    def test_one_rate_call_is_outage_lower_bound(self):
        spec, snr = spec44(MH, 2.5), Snr.from_db(9.0)
        one = outage_lower_bound(snr, spec)
        shared = outage_lower_bounds(snr, 4, 4, MH, [0.5, 2.5, 4.0])[1]
        assert one.value == shared.value
        assert one.per_term == shared.per_term

    def test_empty_and_invalid_rates(self):
        assert outage_lower_bounds(Snr(10.0), 4, 4, M1, []) == []
        with pytest.raises(ValueError):
            outage_lower_bounds(Snr(10.0), 4, 4, M1, [1.0, 4.5])

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
        outage_lower_bounds(Snr.from_db(8.0), 4, 4, M1, [1.0, 2.5], 512)
        # One scalar call for p and 1-p, one over the 511 interior grid points.
        assert sorted(points) == [1, 511]

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
