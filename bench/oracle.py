"""Output checks, run outside the timed region.

Every check counts toward the benchmark's ``check_pass_frac``.  They come
in two kinds:

* invariants: every output is well formed, finite and in range, repeats
  exactly across passes, worker counts and tracing, and Monte Carlo
  estimates agree with the analytical bound within 4 standard errors.  Any
  failure makes the run incorrect.
* accuracy: bound values are monotone in SNR and in rate, and a seed-chosen
  subset of them, plus every asymptote's coding gain, match an independent
  evaluation (scipy's incomplete gamma and direct ``np.convolve`` in place
  of the package's FFT) to a relative 1e-6.  The package's FFT has an
  absolute round-off floor that breaks both in the deep tail; those
  failures lower ``check_pass_frac`` and are listed, but do not make the
  run incorrect.

direct_bound and direct_coding_gain use nothing from the package; the
Monte Carlo checks compare the package's estimates with its own bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc, gammaincc

CELLS = 4096  # the CLI default the workloads run at
REL_TOL = 1e-6  # relative agreement asked of the FFT against direct convolution
DISC_TOL = 1e-4  # relative discretization allowance of the 4096-cell bound
N_SIGMA = 4.0
ORACLE_MACS = 2e9  # bound-wide checks every rate whose direct convolution costs less


@dataclass
class Checks:
    attempted: int = 0
    failures: list = field(default_factory=list)  # (invariant, kind, detail)

    def add(self, ok: bool, kind: str, detail: str, invariant: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append((invariant, kind, detail))

    @property
    def invariant_failures(self) -> int:
        return sum(1 for invariant, _, _ in self.failures if invariant)


def grid(spec3) -> list:
    """The CLI's start:stop:step grid."""
    start, stop, step = spec3
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def parse_csv(text: str) -> np.ndarray:
    """Data rows of a CLI CSV (metadata comment, column names, rows)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing metadata line")
    width = len(lines[1].split(","))
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]], dtype=float).reshape(-1, width)


# ---- independent bound evaluation -----------------------------------------


def _cdf_sum(masses: np.ndarray, n: int, x: float, step: float) -> float:
    """Cdf at x of the sum of n copies of a cell-mass law, by direct convolution.

    Uses the package's conventions: n-fold sums carry a (n-1)/2-cell shift
    and the straddling cell counts linearly.  Only cells below x are kept,
    which is exact because the summands are nonnegative.
    """
    rel = (x - (n - 1) * step / 2.0) / step
    if rel <= 0.0 or x <= 0.0:
        return 0.0
    if rel >= n * (masses.size - 1) + 1:
        return 1.0
    j = int(rel)
    keep = masses[: j + 1]
    y = keep
    for _ in range(n - 1):
        y = np.convolve(y, keep)[: j + 1]
    y = np.pad(y, (0, j + 1 - y.size))
    return float(y[:j].sum() + y[j] * (rel - j))


def _cost(B: int, M: int, rate: float) -> float:
    """Multiply-adds of direct_bound, to keep oracle points affordable."""
    total = 0.0
    for t in range(_terms(B, M, rate)):
        cells = (B * rate - t * M) / (M / CELLS)
        total += (B - t - 1) * cells * min(cells, CELLS)
    return total


def _terms(B: int, M: int, rate: float) -> int:
    return int(math.ceil(B * rate / M - 1e-12))


def _log_binom(B: int, t: int) -> float:
    return math.lgamma(B + 1) - math.lgamma(t + 1) - math.lgamma(B - t + 1)


def direct_bound(B: int, M: int, m: float, rate: float, db: float) -> float:
    rho = 10.0 ** (db / 10.0)
    x_cap = m * (2.0**M - 1.0) / rho
    p, q = float(gammaincc(m, x_cap)), float(gammainc(m, x_cap))
    xi = np.linspace(0.0, float(M), CELLS + 1)
    cdf = np.minimum(gammainc(m, m * (2.0**xi - 1.0) / rho) / q, 1.0)
    cdf[0], cdf[-1] = 0.0, 1.0
    masses = np.diff(cdf)
    total = 0.0
    for t in range(_terms(B, M, rate)):
        if t and p == 0.0:
            break
        logw = _log_binom(B, t) + (t * math.log(p) if t else 0.0) + (B - t) * math.log(q)
        total += _cdf_sum(masses, B - t, B * rate - t * M, M / CELLS) * math.exp(logw)
    return total


def singleton(B: int, M: int, rate: float) -> int:
    v = B * (M - rate) / M
    if abs(v - round(v)) < 1e-9:
        v = round(v)
    return 1 + int(math.floor(v))


def direct_coding_gain(B: int, M: int, m: float, rate: float) -> float:
    d = singleton(B, M, rate)
    xi = np.linspace(0.0, float(M), CELLS + 1)
    masses = np.diff(np.clip(((2.0**xi - 1.0) / (2.0**M - 1.0)) ** m, 0.0, 1.0))
    f = _cdf_sum(masses, d, B * rate - (B - d) * M, M / CELLS)
    log_k = _log_binom(B, d) + m * d * math.log(m * (2.0**M - 1.0)) - d * (math.log(m) + math.lgamma(m))
    return f * math.exp(log_k)


def _rel_ok(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


# ---- per-workload checks ---------------------------------------------------


def _nonincreasing(v: np.ndarray) -> bool:
    return bool(np.all(v[1:] <= v[:-1] * (1.0 + 1e-9)))


def _probabilities(checks: Checks, tag: str, v: np.ndarray) -> None:
    for x in v:
        checks.add(bool(np.isfinite(x) and 0.0 <= x <= 1.0), "range", f"{tag}: value {x!r}")


def check_bound_curve(cmds: list, texts: list, rng: np.random.Generator, checks: Checks) -> None:
    curves = {}
    for cfg, text in zip(cmds, texts):
        rows = parse_csv(text)
        dbs = grid(cfg["snr_db"])
        tag = f"{cfg['subcommand']} m={cfg['m']} R={cfg['rate']:.4f}"
        checks.add(rows.shape[0] == len(dbs) and np.allclose(rows[:, 0], dbs, rtol=0, atol=1e-9), "shape", f"{tag}: SNR column")
        p = rows[:, 1]
        _probabilities(checks, tag, p)
        checks.add(_nonincreasing(p), "snr-monotone", f"{tag}: bound increases with SNR", invariant=False)
        key = (cfg["m"], cfg["rate"])
        if cfg["subcommand"] == "curve":
            curves[key] = p
            # one seed-chosen SNR point in each third of the grid
            for part in np.array_split(np.arange(len(dbs)), min(3, len(dbs))):
                i = int(rng.choice(part))
                want = direct_bound(4, 4, cfg["m"], cfg["rate"], dbs[i])
                checks.add(_rel_ok(p[i], want), "direct-conv", f"{tag} {dbs[i]:.2f} dB: {p[i]:.6e} vs direct {want:.6e}", invariant=False)
        else:
            checks.add(np.array_equal(p, curves.get(key)), "asymptote-bound", f"{tag}: bound column differs from curve")
            asym = rows[:, 2]
            checks.add(bool(np.all(np.isfinite(asym) & (asym > 0))), "asymptote", f"{tag}: asymptote not finite and positive")
            checks.add(_nonincreasing(asym), "snr-monotone", f"{tag}: asymptote increases with SNR", invariant=False)
            k_got = asym[0] * (10.0 ** (dbs[0] / 10.0)) ** (cfg["m"] * singleton(4, 4, cfg["rate"]))
            k_want = direct_coding_gain(4, 4, cfg["m"], cfg["rate"])
            checks.add(_rel_ok(k_got, k_want), "direct-conv", f"{tag}: coding gain {k_got:.6e} vs direct {k_want:.6e}", invariant=False)
    for m in sorted({m for m, _ in curves}):
        stack = np.array([curves[k] for k in sorted(curves) if k[0] == m])
        ok = np.all(stack[1:] >= stack[:-1] * (1.0 - 1e-9), axis=0)
        for i, good in enumerate(ok):
            checks.add(bool(good), "rate-monotone", f"m={m} SNR index {i}: bound decreases with rate", invariant=False)


def check_bound_wide(cmds: list, texts: list, checks: Checks) -> None:
    by_b = {}
    for cfg, text in zip(cmds, texts):
        rows = parse_csv(text)
        rates = grid(cfg["rate_grid"])
        B = cfg["blocks"]
        tag = f"ratesweep B={B} {cfg['snr_db_fixed']:.2f} dB"
        checks.add(rows.shape[0] == len(rates) and np.allclose(rows[:, 0], rates, rtol=0, atol=1e-9), "shape", f"{tag}: rate column")
        p = rows[:, 1]
        _probabilities(checks, tag, p)
        checks.add(_nonincreasing(p[::-1]), "rate-monotone", f"{tag}: bound decreases with rate", invariant=False)
        by_b.setdefault(B, []).append((cfg["snr_db_fixed"], p))
        for i, r in enumerate(rates):
            if _cost(B, 4, r) <= ORACLE_MACS:
                want = direct_bound(B, 4, cfg["m"], r, cfg["snr_db_fixed"])
                checks.add(_rel_ok(p[i], want), "direct-conv", f"{tag} R={r}: {p[i]:.6e} vs direct {want:.6e}", invariant=False)
    for B, pts in by_b.items():
        pts.sort(key=lambda sp: sp[0])
        for (_, lo), (_, hi) in zip(pts, pts[1:]):
            ok = hi <= lo * (1.0 + 1e-9)
            for i, good in enumerate(ok):
                checks.add(bool(good), "snr-monotone", f"B={B} rate index {i}: bound increases with SNR", invariant=False)


def _mc_rows(cfg: dict, text: str, checks: Checks) -> list:
    rows = parse_csv(text)
    dbs = grid(cfg["snr_db"])
    tag = f"mc {cfg['mode']} {cfg.get('constellation', '')} m={cfg['m']}"
    checks.add(rows.shape[0] == len(dbs) and bool(np.all(rows[:, 3] == cfg["samples"])), "shape", f"{tag}: rows or sample counts")
    return [(tag, db, p_hat, n) for db, (_, p_hat, _, n) in zip(dbs, rows)]


def check_mc_capped(cmds: list, texts: list, bound_fn, checks: Checks) -> None:
    """|p_hat - bound| within 4 standard errors plus the discretization allowance."""
    for cfg, text in zip(cmds, texts):
        for tag, db, p_hat, n in _mc_rows(cfg, text, checks):
            b = bound_fn(cfg["blocks"], cfg["bits"], cfg["m"], cfg["rate"], db)
            se = max(math.sqrt(p_hat * (1 - p_hat) / n), math.sqrt(b * (1 - b) / n))
            ok = abs(p_hat - b) <= N_SIGMA * se + DISC_TOL * b
            checks.add(ok, "mc-agree", f"{tag} {db:.2f} dB: p_hat {p_hat:.6g} vs bound {b:.6g} (se {se:.2g})")


def check_mc_outage(cmds: list, texts: list, bound_fn, checks: Checks) -> None:
    """The bound may not exceed the true-outage estimate by 4 standard errors."""
    for cfg, text in zip(cmds, texts):
        for tag, db, p_hat, n in _mc_rows(cfg, text, checks):
            b = bound_fn(cfg["blocks"], cfg["bits"], cfg["m"], cfg["rate"], db)
            se = max(math.sqrt(p_hat * (1 - p_hat) / n), math.sqrt(b * (1 - b) / n))
            checks.add(b <= p_hat + N_SIGMA * se, "mc-valid", f"{tag} {db:.2f} dB: bound {b:.6g} above p_hat {p_hat:.6g} + 4 se")
