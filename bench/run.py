"""nakfade benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
workload's CLI commands (see workloads.py) run in process through
``nakfade.cli.run``, each writing its CSV to a scratch file, in passes over
the whole command list until ``--seconds`` have gone by.  Outputs are then
checked (oracle.py).  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, with every timing scaled to the reference host's speed
(calibrate.py); ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics (self times unscaled).  Measured latencies
and kernel slowdowns go to bench/_out/timings-*.json, spans of traced runs
to bench/_out/spans-*.jsonl.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS/OpenMP thread: the workloads' own worker threads are the only
# parallelism, on a machine that may have two cores.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
SETUP_REPS = 7
MIN_PASSES = 2

SETUP_SNIPPET = """
import json, sys
sys.path.insert(0, sys.argv[1])
from nakfade import cli
sys.exit(cli.run(cli.RunConfig(**json.loads(sys.argv[2]))))
"""


def import_program() -> dict:
    """The package's modules, imported from this checkout's src/."""
    if not (SRC / "nakfade" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'nakfade'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import nakfade
    from nakfade import asymptotics, bound, cli, constellation, fading, montecarlo, mutual_info

    if Path(nakfade.__file__).resolve().parent != (SRC / "nakfade").resolve():
        sys.exit(f"bench: imported nakfade from {nakfade.__file__}, not from {SRC}")
    return dict(
        bound=bound, asymptotics=asymptotics, fading=fading, montecarlo=montecarlo, cli=cli, mutual_info=mutual_info, constellation=constellation
    )


@dataclass
class Pass:
    traced: bool
    latencies: list = field(default_factory=list)
    texts: list = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0  # from the first command's start to the last one's end, less the kernel's time
    spans: list = field(default_factory=list)
    cal: list = field(default_factory=list)  # kernel slowdowns after each command

    @property
    def scaled(self) -> list:
        """Command latencies in seconds of the reference host."""
        return [x / k for x, k in zip(self.latencies, calibrate.local_slowdowns(self.cal))]


def run_pass(cli, cmds: list, outdir: Path, tracer: tracing.Tracer | None = None) -> Pass:
    """Send every command once, each after the previous one returned.

    The reference kernel runs after each command, outside its latency and
    outside every span.
    """
    result = Pass(traced=tracer is not None)
    first_span = len(tracer.spans) if tracer else 0
    start = time.perf_counter()
    kernel_s = 0.0
    for i, kw in enumerate(cmds):
        path = outdir / f"{i}.csv"
        cfg = cli.RunConfig(out=str(path), **kw)
        span = None
        t0 = time.perf_counter()
        if tracer:
            span = tracer.open("cli")
            tracer.root = span.id
        try:
            rc = cli.run(cfg)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crashing command counts as failed; the run goes on
            traceback.print_exc()
            rc = 1
        finally:
            if tracer:
                tracer.root = None
                tracer.close(span)
        latency = time.perf_counter() - t0
        result.latencies.append(latency)
        t1 = time.perf_counter()
        result.cal.append([])
        calibrate.sample(latency, result.cal[-1])
        kernel_s += time.perf_counter() - t1
        ok = rc == 0
        result.failed += not ok
        result.texts.append(path.read_text() if ok else None)
        if span is not None:
            span.counts["bytes_out"] = path.stat().st_size if ok else 0
    result.wall = time.perf_counter() - start - kernel_s
    if tracer:
        result.spans = tracer.spans[first_span:]
    return result


def measure_setup(cmd: dict, outdir: Path) -> tuple:
    """Wall times of fresh processes that import the package and run one
    small command, and the reference kernel times taken between them."""
    kw = json.dumps(dict(cmd, out=str(outdir / "setup.csv")))
    times, cal = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), kw], cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
        calibrate.sample(times[-1], cal)
    return times, cal


def package_bound(nk: dict):
    def value(B, M, m, rate, db):
        spec = nk["bound"].ChannelSpec(B, M, nk["fading"].NakagamiParam(m), rate)
        return nk["bound"].outage_lower_bound(nk["mutual_info"].Snr.from_db(db), spec).value

    return value


def run_checks(name: str, nk: dict, cmds: list, passes: list, seed: int) -> oracle.Checks:
    checks = oracle.Checks()
    first = passes[0]
    # One check per command, so the check count does not depend on how many
    # passes fit in the run.
    for i, text in enumerate(first.texts):
        same = all(p.texts[i] == text for p in passes[1:])
        checks.add(same, "repeat", f"command {i}: output differs between passes, traced or not")
    if first.failed:
        # failed commands count once each; their outputs cannot be checked
        for _ in range(first.failed):
            checks.add(False, "exit", "command exited non-zero")
        return checks
    rng = np.random.default_rng([seed, 0x6F7261])
    if name == "bound-curve":
        oracle.check_bound_curve(cmds, first.texts, rng, checks)
    elif name == "bound-wide":
        oracle.check_bound_wide(cmds, first.texts, checks)
    elif name == "mc-capped":
        oracle.check_mc_capped(cmds, first.texts, package_bound(nk), checks)
    else:
        oracle.check_mc_outage(cmds, first.texts, package_bound(nk), checks)
        check_worker_counts(nk, cmds[0], checks)
    return checks


def check_worker_counts(nk: dict, cfg: dict, checks: oracle.Checks) -> None:
    """One mc-outage point, split over two chunks, at workers=1 and workers=2."""
    mc, fading = nk["montecarlo"], nk["fading"]
    spec = nk["bound"].ChannelSpec(cfg["blocks"], cfg["bits"], fading.NakagamiParam(cfg["m"]), cfg["rate"])
    c = nk["constellation"].from_name(cfg["constellation"])
    rule = nk["mutual_info"].hermite_rule(cfg["order"])
    snr = nk["mutual_info"].Snr.from_db(cfg["snr_db"][0])
    est = [mc.mc_outage(snr, spec, c, rule, n=fading.CHUNK + 1, seed=cfg["seed"], workers=w) for w in (1, 2)]
    checks.add(est[0] == est[1], "workers", f"mc_outage differs between 1 and 2 workers: {est}")


def median_walls(passes: list, scaled: bool = False) -> float:
    """Median latency of each command over the passes, summed over commands."""
    return sum(statistics.median(col) for col in zip(*(p.scaled if scaled else p.latencies for p in passes)))


def tail(values: list) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"n={n}, too few samples for a tail"
    ranked = sorted(values)
    k = n - 11
    return f"p{100.0 * (k + 1) / n:.1f}={ranked[k] * 1e3:.4f} ms (n={n})"


def end_to_end(passes: list, setup: tuple, checks: oracle.Checks, rss_mb: float) -> dict:
    """The end-to-end metrics; timings in seconds of the reference host.

    Each command's latency is its median over the passes; a pass takes the
    sum of those, and the typical command their median.
    """
    per_cmd = [statistics.median(col) for col in zip(*(p.scaled for p in passes))]
    rows = sum(t.count("\n") - 2 for p in passes for t in p.texts if t is not None)
    wall = sum(per_cmd)
    times, cal = setup
    return {
        "setup_s": statistics.median(times) / statistics.median(cal),
        "wall_s": wall,
        "cmd_ms_p50": statistics.median(per_cmd) * 1e3,
        "points_per_s": rows / len(passes) / wall,
        "peak_rss_mb": rss_mb,
        "check_pass_frac": 1.0 - len(checks.failures) / checks.attempted,
    }


def per_layer(passes: list, threads: int, checks: oracle.Checks) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    sums = [tracing.summarize(p.spans) for p in traced]
    counts = [{(n, k): v for n, row in s.items() for k, v in dict(row["counts"], spans=row["spans"]).items()} for s in sums]
    same = all(c == counts[0] for c in counts[1:])
    checks.add(same, "repeat-counts", "exact counts differ between traced passes")

    def count(name, key):
        return counts[0].get((name, key), 0)

    def self_s(*names):
        return statistics.median(sum(s[n]["self_s"] for n in names if n in s) for s in sums)

    def busy(name):
        return sum(s[name]["busy_s"] for s in sums if name in s)

    def per(x, y, scale=1.0):
        return scale * x / y if y else 0.0

    mc_names = ("montecarlo.mc_outage", "montecarlo.mc_lower_bound")
    samples = sum(count(n, "samples") for n in mc_names)
    events = sum(count(n, "events") for n in mc_names)
    sep, gen = "mutual_info.mi_separable", "mutual_info.mi_generic"
    values = {
        "fading.reg_gamma.calls": count("fading.reg_gamma", "spans"),
        "fading.reg_gamma.points": count("fading.reg_gamma", "points"),
        "fading.reg_gamma.self_s": self_s("fading.reg_gamma"),
        "fading.gain_block.rows": count("fading.gain_block", "rows"),
        "fading.gain_block.self_s": self_s("fading.gain_block"),
        "fading.gain_block.rows_per_s": per(count("fading.gain_block", "rows"), self_s("fading.gain_block")),
        "mutual_info.mi_separable.evals": count(sep, "evals"),
        "mutual_info.mi_separable.self_s": self_s(sep),
        "mutual_info.mi_separable.us_per_eval": per(self_s(sep), count(sep, "evals"), 1e6),
        "mutual_info.mi_generic.evals": count(gen, "evals"),
        "mutual_info.mi_generic.self_s": self_s(gen),
        "mutual_info.mi_generic.us_per_eval": per(self_s(gen), count(gen, "evals"), 1e6),
        "mutual_info.node_evals": count(sep, "node_evals") + count(gen, "node_evals"),
        "bound.build_pmf.calls": count("bound.build_pmf", "spans"),
        "bound.build_pmf.self_s": self_s("bound.build_pmf"),
        "bound.convolve.calls": count("bound.convolve", "spans"),
        "bound.convolve.fft_points": count("bound.convolve", "fft_points"),
        "bound.convolve.bytes_computed": count("bound.convolve", "bytes_computed"),
        "bound.convolve.self_s": self_s("bound.convolve"),
        "bound.mixture.terms": count("bound.outage_lower_bound", "terms"),
        "bound.outage_lower_bound.self_s": self_s("bound.outage_lower_bound"),
        "asymptotics.coding_gain.calls": count("asymptotics.coding_gain", "spans"),
        "asymptotics.coding_gain.self_s": self_s("asymptotics.coding_gain"),
        "montecarlo.samples": samples,
        "montecarlo.events": events,
        "montecarlo.event_frac": per(events, samples),
        "montecarlo.self_s": self_s(*mc_names),
        "montecarlo.busy_frac": per(sum(busy(n) for n in mc_names), threads * busy("cli")),
        "cli.self_s": self_s("cli"),
        "cli.bytes_out": count("cli", "bytes_out"),
        # scaled, so that a change of the host's speed between passes does not count
        "trace.overhead_frac": median_walls(traced, scaled=True) / median_walls(plain, scaled=True) - 1.0,
    }
    # Layer shares of the traced passes: self times (summed over threads)
    # plus the loop's own time between commands, which is the remainder.
    layer = dict.fromkeys(tracing.LAYERS, 0.0)
    for s in sums:
        for name, row in s.items():
            layer[name.split(".")[0]] += row["self_s"]
    remainder = sum(p.wall for p in traced) - busy("cli")
    total = sum(layer.values()) + remainder
    for name, v in layer.items():
        values[f"share.{name}"] = v / total
    values["share.remainder"] = remainder / total
    return values


@dataclass
class Run:
    passes: list  # the untimed warm-up pass first
    checks: oracle.Checks
    setup: tuple  # (set-up times, reference kernel times); empty when traced
    metrics: dict

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    def result(self, units: dict) -> dict:
        return {
            "correct": self.failed == 0 and self.checks.invariant_failures == 0,
            "attempted": sum(len(p.latencies) for p in self.passes),
            "failed": self.failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in self.metrics.items()},
        }


def measure(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> Run:
    """One benchmark run: set-up, a warm-up pass, timed passes, then checks."""
    nk = import_program()
    wl = WORKLOADS[name]
    cmds = wl.commands(seed, tiny=tiny)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        outdir = Path(tmp)
        setup = () if traced else measure_setup(wl.commands(seed, tiny=True)[0], outdir)
        # The first pass fills allocator pools and FFT plan caches; its
        # outputs are checked but its times are not used.
        warm = run_pass(nk["cli"], cmds, outdir)
        tracer = tracing.Tracer() if traced else None
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            use = tracer if traced and len(passes) % 2 else None
            if use:
                use.install(nk)
            try:
                passes.append(run_pass(nk["cli"], cmds, outdir, use))
            finally:
                if use:
                    use.restore()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = run_checks(name, nk, cmds, [warm] + passes, seed)
    if traced:
        metrics = per_layer(passes, wl.threads, checks)
        tracer.write(OUT / f"spans-{name}-{seed}.jsonl")
    else:
        metrics = end_to_end(passes, setup, checks, rss_mb)
        raw = dict(setup=setup, passes=[dict(latencies=p.latencies, cal=p.cal) for p in passes])
        (OUT / f"timings-{name}-{seed}.json").write_text(json.dumps(raw))
    return Run([warm] + passes, checks, setup, metrics)


def declared_units(traced: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    units = declared_units(bool(args.trace))
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if set(run.metrics) != set(units):
        sys.exit(f"bench: metrics {sorted(set(run.metrics) ^ set(units))} do not match BENCHMARK.json")
    result = run.result(units)
    timed = run.passes[1:]
    print(f"workload {args.workload} seed {args.seed}: {len(timed)} timed passes after a warm-up, {result['attempted']} commands, {result['failed']} failed")
    if args.trace:
        lat = [x for p in timed for x in p.latencies]
        print(f"command latency (measured): median {statistics.median(lat) * 1e3:.4f} ms, tail {tail(lat)}")
    else:
        lat = [x for p in timed for x in p.scaled]
        print(f"command latency (reference host): median {statistics.median(lat) * 1e3:.4f} ms, tail {tail(lat)}")
        times, cal = run.setup
        print(f"set-up (measured): median of {len(times)} fresh processes {statistics.median(times):.4f} s, slowdown {statistics.median(cal):.4f}")
        slow = [statistics.median([t for ts in p.cal for t in ts]) for p in timed]
        print(f"host slowdown against the reference kernel: median {statistics.median(slow):.4f}, range {min(slow):.4f}-{max(slow):.4f} over {len(slow)} passes; measured wall {median_walls(timed):.4f} s")
    checks = run.checks
    print(f"checks: {checks.attempted} attempted, {len(checks.failures)} failed ({checks.invariant_failures} invariant)")
    for invariant, kind, detail in checks.failures:
        print(f"  FAIL [{kind}{'' if invariant else ', accuracy'}] {detail}")
    for name, value in run.metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps(result))

if __name__ == "__main__":
    main()
