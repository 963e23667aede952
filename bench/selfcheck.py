"""Tests of the benchmark itself, on tiny versions of the workloads.

    python3 -m pytest bench/selfcheck.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = ("calls", "points", "rows", "evals", "node_evals", "fft_points", "bytes_computed", "terms", "samples", "events", "bytes_out")


def _count_metrics(run: bench.Run) -> dict:
    return {k: v for k, v in run.metrics.items() if k.rsplit(".", 1)[-1] in COUNTS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_pass(name):
    run = bench.measure(name, seed=5, seconds=0, traced=True, tiny=True)
    assert run.failed == 0
    # Includes the traced pass's CSVs being byte-identical to the untraced ones.
    assert run.checks.invariant_failures == 0, run.checks.failures
    assert run.result(bench.declared_units(True))["correct"]
    shares = [v for k, v in run.metrics.items() if k.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0)
    again = bench.measure(name, seed=5, seconds=0, traced=True, tiny=True)
    assert _count_metrics(again) == _count_metrics(run)


def test_tiny_untraced_pass_reports_every_end_to_end_metric():
    run = bench.measure("mc-capped", seed=5, seconds=0, traced=False, tiny=True)
    units = bench.declared_units(False)
    assert set(run.metrics) == set(units)
    assert all(v > 0 for v in run.metrics.values())
    assert run.result(units)["correct"]


def test_every_patched_name_is_restored():
    nk = bench.import_program()
    table = [(mod, attr) for mod, attr, _, _ in tracing.patch_table(nk)] + [(np.fft, "rfft"), (np.fft, "irfft")]
    before = [getattr(mod, attr) for mod, attr in table]
    tracer = tracing.Tracer()
    tracer.install(nk)
    assert all(getattr(mod, attr) is not orig for (mod, attr), orig in zip(table, before))
    tracer.restore()
    assert all(getattr(mod, attr) is orig for (mod, attr), orig in zip(table, before))
    bench.measure("bound-curve", seed=5, seconds=0, traced=True, tiny=True)
    assert all(getattr(mod, attr) is orig for (mod, attr), orig in zip(table, before))


def test_local_slowdowns_widen_to_enough_kernel_runs():
    per_command = [[2.0] * 40, [1.0], [1.0], [3.0] * 40]
    # The two short commands have one run each and borrow their neighbours'.
    assert calibrate.local_slowdowns(per_command) == pytest.approx([2.0, 2.0, 3.0, 3.0])
    p = bench.Pass(traced=False, latencies=[1.0, 0.1, 0.1, 1.5], cal=per_command)
    assert p.scaled == pytest.approx([0.5, 0.05, 1 / 30, 0.5])


def test_kernel_samples_slowdowns_for_a_tenth_of_the_busy_time():
    out = []
    calibrate.sample(0.0, out)
    assert len(out) == 1 and out[0] > 0
    calibrate.sample(0.2, out)
    assert len(out) > 2


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [S(1, "cli", None, 0, 0.0, 10.0), S(2, "a.x", 1, 1, 1.0, 5.0), S(3, "a.y", 1, 2, 3.0, 7.0), S(4, "b.z", 2, 1, 2.0, 3.0)]
    assert tracing.self_times(spans) == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}


def test_oracle_reproduces_the_package_where_the_fft_is_exact():
    nk = bench.import_program()
    value = bench.package_bound(nk)
    for B, m, rate, db in ((4, 1.0, 2.0, 10.0), (4, 0.5, 3.0, 20.0), (16, 1.0, 0.5, 0.0)):
        assert oracle.direct_bound(B, 4, m, rate, db) == pytest.approx(value(B, 4, m, rate, db), rel=1e-9)
    spec = nk["bound"].ChannelSpec(4, 4, nk["fading"].NakagamiParam(2.0), 2.0)
    assert oracle.direct_coding_gain(4, 4, 2.0, 2.0) == pytest.approx(nk["asymptotics"].coding_gain(spec), rel=1e-9)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-capped", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_declares_the_workloads():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
