"""The benchmark's four workloads, generated from a seed.

Each workload is a fixed list of CLI configurations (keyword arguments of
``nakfade.cli.RunConfig``) sent one after the other by a single client, the
next only after the last returns (a closed loop).  The seed jitters grid
points inside the stated ranges and picks the Monte Carlo seeds; the same
seed always gives the same list.  ``tiny=True`` gives a much smaller list of
the same shape, used for the set-up measurement, the warm-up and the
benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

RATE_GRID = (0.25, 3.75, 0.25)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    make: Callable[[np.random.Generator, bool], list]

    def commands(self, seed: int, tiny: bool = False) -> list:
        return self.make(np.random.default_rng([seed, 0x6E616B]), tiny)


def _bound_curve(rng: np.random.Generator, tiny: bool) -> list:
    # Every (m, R) pair gets its own curve and asymptote command over one
    # SNR grid per m, so the outputs can be checked for monotonicity in SNR
    # and in R.  Rates are only jittered downward, which keeps the number of
    # mixture terms ceil(BR/M) and the diversity d_B(R) of each nominal rate.
    cmds = []
    for m in (0.5, 1.0, 2.0, 5.0):
        start = -10.0 + rng.uniform(0.0, 2.0)
        snr = (start, start + 40.0, 40.0) if tiny else (start, start + 48.0, 2.0)
        for rate in (0.5, 1.0, 2.0, 3.0):
            r = rate - rng.uniform(0.0, 0.05)
            for sub in ("curve", "asymptote"):
                cmds.append(dict(subcommand=sub, blocks=4, bits=4, m=m, rate=r, snr_db=snr))
    return cmds


def _bound_wide(rng: np.random.Generator, tiny: bool) -> list:
    # Two SNRs at B=16 and three at B=32: the median latency is a B=32
    # command, and every B has two or more SNRs for the SNR check.  No B=64:
    # its one 4-7 s command left two passes per run, and the reference
    # kernel runs after it cannot follow the host's speed through it
    # (calibrate.py).  The SNRs move by at most 1 dB, so the deep-tail rates
    # whose checks fail (the FFT floor) stay the same from seed to seed.
    plan = ((4, (0.0, 10.0)), (8, (10.0,))) if tiny else ((16, (0.0, 10.0)), (32, (5.0, 10.0, 15.0)))
    return [
        dict(subcommand="ratesweep", blocks=B, bits=4, m=1.0, snr_db_fixed=db + rng.uniform(0.0, 1.0), rate_grid=RATE_GRID)
        for B, dbs in plan
        for db in dbs
    ]


def _mc(rng: np.random.Generator, plan: list, workers: int) -> list:
    cmds = []
    for kw, lo, hi, step in plan:
        start = lo + rng.uniform(0.0, 2.0)
        cmds.append(dict(subcommand="mc", snr_db=(start, start + hi - lo, step), workers=workers, seed=int(rng.integers(2**63)), **kw))
    return cmds


def _mc_outage(rng: np.random.Generator, tiny: bool) -> list:
    # Eight SNR points per command, shared by the two worker threads.  The
    # sample counts give qam16 (separable MI) and psk8 (generic MI) commands
    # about the same latency, so both paths carry a large share and the
    # median command is not a boundary between two latency clusters; 1950
    # qam16 vectors fill one MI batch of the package's default size.
    qam, psk, step = (100, 4, 3.5) if tiny else (1950, 24, 0.5)
    plan = []
    for m, q_db, p_db in ((1.0, 6.0, 4.0), (2.0, 5.0, 3.0)):
        plan.append((dict(mode="outage", constellation="qam16", blocks=4, bits=4, m=m, rate=2.0, samples=qam, order=32), q_db, q_db + 3.5, step))
        plan.append((dict(mode="outage", constellation="psk8", blocks=4, bits=3, m=m, rate=1.5, samples=psk, order=32), p_db, p_db + 3.5, step))
    return _mc(rng, plan, workers=2)


def _mc_capped(rng: np.random.Generator, tiny: bool) -> list:
    # m=2 gets a third SNR point because its sampler is faster than the
    # m<1 boost path; the two commands then take about the same time.
    n = 20000 if tiny else 10**6
    plan = [
        (dict(mode="lowerbound", blocks=4, bits=4, m=0.5, rate=2.0, samples=n), 8.0, 14.0, 6.0),
        (dict(mode="lowerbound", blocks=4, bits=4, m=2.0, rate=2.0, samples=n), 5.0, 9.0, 2.0),
    ]
    return _mc(rng, plan, workers=1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bound-curve", "curve+asymptote at B=4, 1 thread, a fresh pmf per point: exposes incomplete gamma, pmf build and small FFTs", 1, _bound_curve),
        Workload("bound-wide", "ratesweep at B=16/32, 1 thread: large FFT convolutions dominate; every rate could reuse one SNR's pmf", 1, _bound_wide),
        Workload("mc-outage", "mc outage, qam16 (separable MI) and psk8 (generic MI), order 32, 2 worker threads", 2, _mc_outage),
        Workload("mc-capped", "mc lowerbound, 1 thread, 1e6 samples per point, m=0.5 and m=2: the gain sampler dominates", 1, _mc_capped),
    )
}
