"""The benchmark's span tracer (bench/tracing.py) still finds every package name it wraps."""

import importlib.util
import sys
from pathlib import Path

from click.testing import CliRunner

from nakfade import asymptotics, bound, cli, constellation, fading, montecarlo, mutual_info

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
NK = dict(bound=bound, asymptotics=asymptotics, fading=fading, montecarlo=montecarlo, cli=cli, mutual_info=mutual_info, constellation=constellation)

COMMANDS = [
    ["curve", "--rate", "2", "--snr-db", "5:5:1", "--cells", "64"],
    ["asymptote", "--rate", "2", "--snr-db", "5:5:1", "--cells", "64"],
    ["ratesweep", "--snr-db-fixed", "5", "--rate", "1:3:1", "--cells", "64"],
    ["mc", "--mode", "lowerbound", "--snr-db", "5:5:1", "--samples", "100"],
    ["mc", "--mode", "outage", "--snr-db", "5:5:1", "--samples", "20"],
    ["mc", "--mode", "outage", "--snr-db", "5:5:1", "--samples", "2"],
]


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while it loads.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_spans_of_every_command(monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install(NK)
    try:
        runner = CliRunner()
        for args in COMMANDS:
            res = runner.invoke(cli.main, args)
            assert res.exit_code == 0, (args, res.output, res.exception)
    finally:
        tracer.restore()
    assert not hasattr(bound.build_pmf_A, "__wrapped__")
    names = {s.name for s in tracer.spans}
    expected = {
        "fading.reg_gamma",
        "bound.build_pmf",
        "bound.convolve",
        "bound.cdf_Y_at",
        "asymptotics.coding_gain",
        "fading.gain_block",
    }
    assert expected <= names
    # Every bound command goes through the one evaluator, and every mc
    # command through one grid estimator, not the per-point calls.
    assert not names & {"bound.outage_lower_bound", "montecarlo.mc_lower_bound", "montecarlo.mc_outage"}


def test_mc_command_draws_each_chunk_once_and_direct_calls_keep_their_spans(monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install(NK)
    try:
        # Three points of 3 chunks: one gain_block span per chunk, not per point.
        args = ["mc", "--mode", "lowerbound", "--snr-db", "0:10:5", "--samples", str(2 * fading.CHUNK + 1), "--workers", "2"]
        res = CliRunner().invoke(cli.main, args)
        assert res.exit_code == 0, (res.output, res.exception)
        assert sum(s.name == "fading.gain_block" for s in tracer.spans) == 3
        spec, snr = bound.ChannelSpec(4, 4, fading.NakagamiParam(1.0), 1.0), mutual_info.Snr(10.0)
        montecarlo.mc_outage(snr, spec, constellation.make_qam(4), n=300, seed=1)
        montecarlo.mc_lower_bound(snr, spec, n=500, seed=1)
    finally:
        tracer.restore()
    summary = tracing.summarize(tracer.spans)
    assert summary["montecarlo.mc_outage"]["spans"] == summary["montecarlo.mc_lower_bound"]["spans"] == 1
    assert summary["montecarlo.mc_outage"]["counts"]["samples"] == 300
    assert summary["montecarlo.mc_lower_bound"]["counts"]["samples"] == 500


def test_outage_command_repeats_its_per_layer_counts(monkeypatch):
    # The benchmark's repeat-counts check: every traced pass of a command
    # makes the same calls with the same work.  With --workers 2, this
    # command's one-chunk points run in the calling thread, in grid order;
    # the repeat check guards against work that depends on call order, such
    # as a node table that the points fill as they need it.
    tracing = load_tracing(monkeypatch)
    args = ["mc", "--mode", "outage", "--snr-db", "4:7.5:0.5", "--samples", "2000", "--workers", "2"]
    counts = []
    for _ in range(4):
        tracer = tracing.Tracer()
        tracer.install(NK)
        try:
            res = CliRunner().invoke(cli.main, args)
        finally:
            tracer.restore()
        assert res.exit_code == 0, (res.output, res.exception)
        summary = tracing.summarize(tracer.spans)
        counts.append({(name, k): v for name, row in summary.items() for k, v in dict(row["counts"], spans=row["spans"]).items()})
    assert all(c == counts[0] for c in counts[1:])
    # Its 8 points share one chunk of draws.
    assert counts[0][("fading.gain_block", "spans")] == 1


def test_ratesweep_convolutions_are_traced_with_their_fft_points(monkeypatch):
    # The evaluator's powers must run through the names the tracer patches:
    # bound.convolve_power and np.fft's transforms.
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install(NK)
    try:
        res = CliRunner().invoke(cli.main, ["ratesweep", "-B", "8", "--snr-db-fixed", "5", "--rate", "1:3:1", "--cells", "64"])
    finally:
        tracer.restore()
    assert res.exit_code == 0, (res.output, res.exception)
    convolve = [s for s in tracer.spans if s.name == "bound.convolve"]
    assert convolve
    assert all(s.counts.get("fft_points", 0) > 0 for s in convolve)


def test_traced_asymptote_records_the_coding_gain_kernel(monkeypatch):
    # coding_gain reads K through bound's kernel, so its powers and reads are
    # spans of the names the tracer patches in bound, nested in its own span;
    # the names it patches in asymptotics still resolve.
    assert asymptotics.convolve_power is bound.convolve_power and asymptotics.cdf_Y_at is bound.cdf_Y_at
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install(NK)
    try:
        res = CliRunner().invoke(cli.main, ["asymptote", "--rate", "2", "--snr-db", "5:5:1", "--cells", "64"])
    finally:
        tracer.restore()
    assert res.exit_code == 0, (res.output, res.exception)
    (gain,) = [s for s in tracer.spans if s.name == "asymptotics.coding_gain"]
    inner = {s.name for s in tracer.spans if s.parent == gain.id}
    assert {"bound.convolve", "bound.cdf_Y_at"} <= inner
