"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report.  The Monte Carlo criteria use fixed seeds, so the whole gate is
deterministic.
"""

import math
import time

import numpy as np
import pytest

from nakfade.asymptotics import (
    asymptotes,
    coding_gain,
    random_coding_exponent,
    singleton_bound,
)
from nakfade.bound import ChannelSpec, TabulatedPmf, cdf_Y_at, convolve_power, outage_lower_bound, tabulate_A, tilt
from nakfade.constellation import make_qam
from nakfade.fading import NakagamiParam, reg_gamma_pq
from nakfade.montecarlo import mc_lower_bound, mc_lower_bounds, mc_outages
from nakfade.mutual_info import Snr

QAM16 = make_qam(4)
LN2 = math.log(2.0)

# Shared Monte Carlo comparison grid: m x R, each scored at every SNR by one
# grid call on one seed's draws, as `nakfade mc` scores a command's points.
GROUPS = [(m, rate) for m in (0.5, 2.0) for rate in (1.0, 2.0, 3.0)]
SNRS = [Snr.from_db(db) for db in (5.0, 10.0, 15.0, 20.0)]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {num:2d} ({name}): {status}{tail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_singleton_values():
    got = [singleton_bound(4, 4, rate) for rate in (1.0, 2.0, 3.0)]
    _report(1, "singleton values", got == [4, 3, 2], f"d_B(1,2,3) = {got}")


def test_criterion_02_analytic_matches_mc_lower_bound():
    worst = 0.0
    checked = 0
    for m, rate in GROUPS:
        spec = ChannelSpec(4, 4, NakagamiParam(m), rate)
        for snr, est in zip(SNRS, mc_lower_bounds(SNRS, spec, n=10**6, seed=2)):
            if est.p_hat < 1e-4:
                continue
            checked += 1
            z = abs(est.p_hat - outage_lower_bound(snr, spec).value) / est.std_err
            worst = max(worst, z)
    _report(2, "analytic vs MC lower bound", worst <= 3.0 and checked > 0, f"{checked} points, worst |z| = {worst:.2f}")


def test_criterion_03_bound_below_true_outage():
    worst = -math.inf
    for m, rate in GROUPS:
        spec = ChannelSpec(4, 4, NakagamiParam(m), rate)
        for snr, est in zip(SNRS, mc_outages(SNRS, spec, QAM16, n=10**5, seed=3)):
            value = outage_lower_bound(snr, spec).value
            # At zero observed events the proportion SE degenerates to width 0;
            # there the valid 3-sigma band is the binomial deviation predicted
            # by the bound value itself (true outage >= bound).
            se = max(est.std_err, math.sqrt(value * (1.0 - value) / est.n_samples))
            worst = max(worst, value - (est.p_hat + 3.0 * se))
    _report(3, "bound validity vs 16-QAM outage", worst <= 0.0, f"worst excess over MC + 3se = {worst:.3e}")


def test_criterion_04_high_snr_slope():
    dbs = np.arange(30.0, 40.1, 2.0)
    details = []
    ok = True
    for m, rate, target in ((2.0, 1.0, 8.0), (0.5, 3.0, 1.0)):
        spec = ChannelSpec(4, 4, NakagamiParam(m), rate)
        logp = [math.log10(outage_lower_bound(Snr.from_db(db), spec).value) for db in dbs]
        slope = -np.polyfit(dbs / 10.0, logp, 1)[0]
        details.append(f"m={m} R={rate}: slope {slope:.3f} (target {target})")
        ok = ok and abs(slope / target - 1.0) < 0.10
    _report(4, "log-log slope 30-40 dB", ok, "; ".join(details))


def test_criterion_05_asymptote_convergence():
    details = []
    ok = True
    for rate in (1.0, 2.0, 3.0):
        spec = ChannelSpec(4, 4, NakagamiParam(2.0), rate)
        a20, a40 = asymptotes([Snr.from_db(20), Snr.from_db(40)], spec)
        off20 = abs(outage_lower_bound(Snr.from_db(20), spec).value / a20 - 1.0)
        off40 = abs(outage_lower_bound(Snr.from_db(40), spec).value / a40 - 1.0)
        details.append(f"R={rate}: |ratio-1| {off20:.3f} @20dB -> {off40:.5f} @40dB")
        ok = ok and off40 < off20 and off40 < 0.25
    _report(5, "asymptote convergence", ok, "; ".join(details))


def test_criterion_06_closed_form_coding_gain():
    worst = 0.0
    for rate in (0.5, 1.0, 2.0, 3.0):
        got = coding_gain(ChannelSpec(1, 4, NakagamiParam(1.0), rate))
        worst = max(worst, abs(got - (2.0**rate - 1.0)))
    _report(6, "single-block Rayleigh coding gain", worst <= 1e-6, f"worst |K - (2^R - 1)| = {worst:.2e}")


def test_criterion_07_convolution_oracle():
    # The kernel's half powers, untilted and tilted toward a deep-tail read,
    # against direct convolution of the same capped law on the half-step
    # lattice (cell k at 2k + 1 half-steps, the atom p at 2N); each half holds
    # its all-capped sum apart, and the read of their pairing, which never
    # counts the two all-capped sums together, against the direct n-fold read.
    rng = np.random.default_rng(7)
    masses = rng.random(512)
    pmf = TabulatedPmf(4.0 / 512, 0.7 * masses / masses.sum(), 0.3)
    worst = worst_read = 0.0
    for n in (2, 3, 4):
        for x in (n * 4.0, 1.2 * n):
            law = tilt(pmf, n, x)
            (cells, _), *capped = law.classes
            lattice = np.zeros(2 * 512 + 1)
            lattice[1 : 2 * cells.size : 2] = cells
            lattice[-1] = capped[0][0][0] if capped else 0.0
            direct = {1: lattice}
            for count in range(2, n + 1):
                direct[count] = np.convolve(direct[count - 1], lattice)
            power = convolve_power(law, n)
            for count, (classes, _) in zip((n // 2, n - n // 2), power.halves):
                for sums, offset, _ in classes:
                    index = (2 * (np.arange(sums.size) + offset)).astype(int)
                    keep = index < direct[count].size - 1
                    worst = max(worst, float(np.max(np.abs(sums[keep] - direct[count][index[keep]]))))
            sums = direct[n][:-1]
            v = np.arange(sums.size) * (pmf.grid_step / 2)
            weights = np.exp(law.theta * (np.minimum(v, x + pmf.grid_step / 2) - power.x)) * np.clip((x - v) / pmf.grid_step + 0.5, 0.0, 1.0)
            want = power.log_scale + math.log(sums @ weights)
            worst_read = max(worst_read, abs(math.expm1(cdf_Y_at(power, x) - want)))
    ok = worst <= 1e-10 and worst_read <= 1e-12
    _report(7, "FFT vs direct convolution", ok, f"worst max-abs = {worst:.2e}, worst read = {worst_read:.2e} relative")


def test_criterion_08_rayleigh_reduction():
    m1 = NakagamiParam(1.0)
    spec = ChannelSpec(4, 4, m1, 2.0)
    worst = 0.0
    for rho in (10.0, 10**1.5):
        # 99 cells, whose edges are exactly linspace(0, 4, 100).
        pmf, p, _ = next(tabulate_A([Snr(rho)], spec, 99))
        worst = max(worst, abs(p - math.exp(-15.0 / rho)))
        xs = np.linspace(0.0, 4.0, 100)
        f_a = np.concatenate(([0.0], np.cumsum(pmf.masses)))
        closed = np.minimum((1 - np.exp(-(2.0**xs - 1) / rho)) / (1 - math.exp(-15.0 / rho)), 1.0)
        closed[xs <= 0] = 0.0
        worst = max(worst, float(np.max(np.abs(f_a - closed))))
    xs = np.linspace(0.0, 8.0, 100)
    worst = max(worst, float(np.max(np.abs(reg_gamma_pq(1.0, xs)[0] - (1 - np.exp(-xs))))))
    _report(8, "m=1 closed forms", worst <= 1e-12, f"worst deviation = {worst:.2e}")


def test_criterion_09_random_coding_exponent():
    m = 2.0
    rates = np.linspace(0.02, 3.98, 200)
    ok = True
    worst = -math.inf
    for scaled in (0.5, 2.0):
        lam = scaled * m / (4.0 * LN2)
        for rate in rates:
            spec = ChannelSpec(4, 4, NakagamiParam(m), float(rate))
            excess = random_coding_exponent(spec, lam) - m * singleton_bound(4, 4, float(rate))
            worst = max(worst, excess)
            ok = ok and excess <= 1e-12
    lam_star = m / (4.0 * LN2)
    jump = 0.0
    for rate in np.linspace(0.05, 3.95, 50):
        spec = ChannelSpec(4, 4, NakagamiParam(m), float(rate))
        lo = random_coding_exponent(spec, lam_star * (1 - 1e-12))
        hi = random_coding_exponent(spec, lam_star * (1 + 1e-12))
        jump = max(jump, abs(lo - hi))
    ok = ok and jump < 1e-9
    _report(9, "random-coding exponent", ok, f"worst excess {worst:.1e}, branch jump {jump:.1e}")


def test_criterion_10_analytic_speedup_over_mc():
    spec = ChannelSpec(4, 4, NakagamiParam(2.0), 1.0)
    # locate the SNR where the bound crosses ~1e-4
    dbs = np.arange(6.0, 10.01, 0.25)
    vals = [outage_lower_bound(Snr.from_db(db), spec).value for db in dbs]
    db_star = float(dbs[int(np.argmin(np.abs(np.log10(vals) + 4.0)))])
    snr = Snr.from_db(db_star)
    p = outage_lower_bound(snr, spec).value
    n_mc = int(math.ceil((1.0 - p) / (p * 0.1**2)))  # std err = 10% of p

    t_analytic = min(
        (lambda t0: (outage_lower_bound(snr, spec), time.perf_counter() - t0))(time.perf_counter())[1] for _ in range(3)
    )
    t0 = time.perf_counter()
    est = mc_lower_bound(snr, spec, n=n_mc, seed=10)
    t_mc = time.perf_counter() - t0

    consistent = abs(est.p_hat - p) <= 3.0 * est.std_err
    speedup = t_mc / t_analytic
    _report(
        10,
        "analytic speedup at P~1e-4",
        speedup >= 10.0 and consistent,
        f"{db_star:.2f} dB, P={p:.2e}, n_mc={n_mc}, analytic {t_analytic*1e3:.1f} ms vs MC {t_mc:.2f} s -> {speedup:.0f}x",
    )
