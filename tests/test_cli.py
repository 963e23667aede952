import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from nakfade import __version__, cli, montecarlo
from nakfade.asymptotics import asymptotes, coding_gain
from nakfade.bound import ChannelSpec
from nakfade.fading import NakagamiParam
from nakfade.cli import RunConfig, _build_config, main
from nakfade.constellation import from_name
from nakfade.mutual_info import DEFAULT_ORDER, Snr, hermite_rule


@pytest.fixture
def runner():
    return CliRunner()


def rows_of(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    data = [ln.split(",") for ln in lines[1:]]
    return header, data


class TestCurve:
    def test_spec_example_grid(self, runner):
        res = runner.invoke(main, ["curve", "--blocks", "4", "--bits", "4", "--m", "2", "--rate", "1", "--snr-db", "0:40:2"])
        assert res.exit_code == 0
        header, data = rows_of(res.output)
        assert header == ["snr_db", "p_out_lower"]
        assert len(data) == 21
        vals = np.array([float(r[1]) for r in data])
        assert np.all(np.diff(vals) <= 0)
        assert res.output.splitlines()[0] == f"# nakfade curve B=4 M=4 m=2 R=1 cells=4096 version={__version__}"

    def test_per_term_columns(self, runner):
        # The bound is one power, with no mixture terms to print: the flag is gone.
        res = runner.invoke(main, ["curve", "--rate", "3", "--snr-db", "5:10:5", "--per-term"])
        assert res.exit_code == 2
        assert "--per-term" in res.output

    def test_byte_identical_rerun(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["curve", "--m", "0.5", "--rate", "2", "--snr-db", "0:20:5"]
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_option_rejected(self, runner):
        # Analytic commands evaluate their grid in one thread; only mc takes --workers.
        res = runner.invoke(main, ["curve", "--rate", "1", "--snr-db", "0:4:2", "--workers", "2"])
        assert res.exit_code == 2


class TestRatesweep:
    def test_nondecreasing_in_rate(self, runner):
        res = runner.invoke(main, ["ratesweep", "--snr-db-fixed", "10", "--rate", "0.25:3.75:0.25", "--m", "2"])
        assert res.exit_code == 0
        header, data = rows_of(res.output)
        assert header == ["rate", "p_out_lower"]
        assert len(data) == 15
        vals = np.array([float(r[1]) for r in data])
        assert np.all(np.diff(vals) >= 0)

    def test_grid_ending_at_m_stops_at_m(self, runner):
        # 0.1 + 29 * 0.1 rounds to 3.0000000000000004, past M = 3
        res = runner.invoke(main, ["ratesweep", "-M", "3", "-B", "2", "--rate", "0.1:3:0.1", "--snr-db-fixed", "10"])
        assert res.exit_code == 0
        _, data = rows_of(res.output)
        assert len(data) == 30
        assert data[-1][0] == "3"
        curve = runner.invoke(main, ["curve", "-M", "3", "-B", "2", "--rate", "3", "--snr-db", "10:10:1"])
        assert curve.exit_code == 0
        assert data[-1][1] == rows_of(curve.output)[1][0][1]
        assert runner.invoke(main, ["exponent", "-M", "3", "--rate", "0.1:3:0.1"]).exit_code == 0


class TestAsymptote:
    def test_columns_and_convergence(self, runner):
        res = runner.invoke(main, ["asymptote", "--m", "2", "--rate", "2", "--snr-db", "20:40:20"])
        assert res.exit_code == 0
        header, data = rows_of(res.output)
        assert header == ["snr_db", "p_out_lower", "asymptote"]
        near = [abs(float(r[1]) / float(r[2]) - 1) for r in data]
        assert near[-1] < near[0]

    def test_column_is_the_library_evaluator(self, runner, monkeypatch):
        # The asymptote column is one asymptotes call over the command's grid.
        calls = []
        monkeypatch.setattr(cli.asymptotics, "asymptotes", lambda *a: calls.append(a) or asymptotes(*a))
        res = runner.invoke(main, ["asymptote", "--m", "0.5", "--rate", "3", "--cells", "512", "--snr-db", "-5:25:7.5"])
        assert res.exit_code == 0, res.output
        ((snrs, spec, cells),) = calls
        assert snrs == [Snr.from_db(db) for db in (-5.0, 2.5, 10.0, 17.5, 25.0)] and spec == ChannelSpec(4, 4, NakagamiParam(0.5), 3.0) and cells == 512
        assert [row[2] for row in rows_of(res.output)[1]] == [f"{v:.12g}" for v in asymptotes(snrs, spec, 512)]


class TestExponent:
    def test_random_below_optimal_rowwise(self, runner):
        res = runner.invoke(main, ["exponent", "--m", "2", "--lambda-scaled", "2", "--rate", "0.05:3.95:0.05"])
        assert res.exit_code == 0
        header, data = rows_of(res.output)
        assert header == ["rate", "d_singleton", "d_optimal", "d_random_lambda2"]
        for row in data:
            assert float(row[3]) <= float(row[2]) + 1e-12

    def test_default_lambda_columns(self, runner):
        res = runner.invoke(main, ["exponent", "--rate", "0.5:3.5:0.5"])
        header, _ = rows_of(res.output)
        assert header[-2:] == ["d_random_lambda0.5", "d_random_lambda2"]

    def test_lambda_columns_name_each_value_exactly(self, runner):
        # Two close values get two names, each the shortest text that parses back to its value.
        args = ["exponent", "--rate", "1:1:1", "--lambda-scaled", "0.5", "--lambda-scaled", "0.5000001", "--lambda-scaled", "1e-05"]
        header, data = rows_of(runner.invoke(main, args + ["--lambda-scaled", "1e6"]).output)
        assert header[3:] == ["d_random_lambda0.5", "d_random_lambda0.5000001", "d_random_lambda1e-05", "d_random_lambda1000000"]
        assert data[0][3:5] == ["1.5", "1.5000003"]

    def test_numpy_values_are_named_by_their_value(self, tmp_path):
        out = tmp_path / "e.csv"
        cfg = RunConfig("exponent", m=np.float64(2.0), rate_grid=(1.0, 1.0, 1.0), lambda_scaled=(np.float64(0.5),), out=str(out))
        assert cli.run(cfg) == 0
        assert out.read_text().splitlines()[0] == f"# nakfade exponent B=4 M=4 m=2 R=1:1:1 version={__version__}"
        assert rows_of(out.read_text())[0][-1] == "d_random_lambda0.5"


class TestMc:
    def test_csv_and_determinism(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mc", "--samples", "2000", "--seed", "11", "--mode", "lowerbound", "--m", "2", "--rate", "1", "--snr-db", "4:8:2"]
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, data = rows_of(out1.read_text())
        assert header == ["snr_db", "p_hat", "std_err", "n"]
        assert all(r[3] == "2000" for r in data)

    def test_outage_mode_uses_constellation(self, runner):
        res = runner.invoke(
            main,
            ["mc", "--samples", "500", "--seed", "1", "--mode", "outage", "--constellation", "qam16", "--snr-db", "6:6:1"],
        )
        assert res.exit_code == 0
        _, data = rows_of(res.output)
        assert 0.0 <= float(data[0][1]) <= 1.0

    # Each point has 3 (lowerbound) or 2 (outage) chunks of fading.CHUNK samples
    # to spread over the threads.
    @pytest.mark.parametrize(
        "mode_args",
        [
            pytest.param(["--mode", "lowerbound", "--m", "0.5", "--samples", "9000"], id="lowerbound"),
            pytest.param(["--mode", "outage", "--constellation", "qam4", "-M", "2", "--samples", "5000"], id="outage-qam4"),
        ],
    )
    def test_workers_do_not_change_output(self, runner, tmp_path, mode_args):
        args = ["mc", "--seed", "13", "--rate", "1", "--snr-db", "0:12:3", *mode_args]
        outs = [tmp_path / f"w{w}.csv" for w in (1, 3)]
        for w, out in zip((1, 3), outs):
            res = runner.invoke(main, args + ["--workers", str(w), "--out", str(out)])
            assert res.exit_code == 0, res.output
        assert outs[0].read_bytes() == outs[1].read_bytes()
        _, data = rows_of(outs[0].read_text())
        assert len(data) == 5

    @pytest.mark.parametrize("mode", ["lowerbound", "outage"])
    def test_one_chunk_point_starts_no_pool(self, runner, monkeypatch, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-chunk point started a thread pool")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", refuse)
        res = runner.invoke(main, ["mc", "--mode", mode, "--workers", "2", "--samples", "100", "--snr-db", "0:6:3"])
        assert res.exit_code == 0, (res.output, res.exception)

    @pytest.mark.parametrize("samples,workers,threads", [(5000, 3, 2), (9000, 3, 3), (9000, 2, 2)])
    def test_pool_has_one_thread_per_chunk_at_most(self, runner, monkeypatch, samples, workers, threads):
        pools = []

        def recording(max_workers):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", recording)
        args = ["mc", "--workers", str(workers), "--samples", str(samples), "--snr-db", "0:6:3"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, (res.output, res.exception)
        assert pools == [threads] * 3

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_2(self, runner, seed):
        # The samplers refuse a seed outside [0, 2^64), so the CLI refuses it first.
        res = runner.invoke(main, ["mc", f"--seed={seed}", "--samples", "10", "--snr-db", "0:0:1"])
        assert res.exit_code == 2
        assert "field 'seed'" in res.output

    def test_largest_seed_accepted(self, runner):
        res = runner.invoke(main, ["mc", "--seed", str(2**64 - 1), "--samples", "10", "--snr-db", "0:0:1"])
        assert res.exit_code == 0, res.output
        assert f"seed={2**64 - 1} " in res.output.splitlines()[0]

    def test_mismatched_constellation_rejected(self, runner):
        res = runner.invoke(main, ["mc", "--mode", "outage", "--constellation", "psk2", "--bits", "4"])
        assert res.exit_code == 2
        assert "constellation" in res.output


class TestMi:
    def test_csv_columns(self, runner):
        res = runner.invoke(main, ["mi", "--constellation", "psk2", "--snr-db", "0:6:3", "--order", "32"])
        assert res.exit_code == 0
        header, data = rows_of(res.output)
        assert header == ["rho_db", "mi_bits"]
        assert float(data[0][1]) == pytest.approx(0.7214515907903881, abs=1e-6)


class TestHeaders:
    # test_spec_example_grid pins the curve header.
    def first_line(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        return res.output.splitlines()[0]

    def test_ratesweep_names_fixed_snr(self, runner):
        args = ["ratesweep", "--m", "2", "--rate", "1:3:1", "--snr-db-fixed"]
        assert self.first_line(runner, args + ["0"]) == f"# nakfade ratesweep B=4 M=4 m=2 R=1:3:1 snr_db=0 cells=4096 version={__version__}"
        assert self.first_line(runner, args + ["10"]) == f"# nakfade ratesweep B=4 M=4 m=2 R=1:3:1 snr_db=10 cells=4096 version={__version__}"

    def test_ratesweep_snr_round_trips(self, runner):
        snr = 0.7570692984834314  # 12 significant digits would print 0.757069298483
        line = self.first_line(runner, ["ratesweep", "--m", "2", "--rate", "1:3:1", "--snr-db-fixed", repr(snr)])
        fields = dict(kv.split("=", 1) for kv in line.split()[3:])
        assert float(fields["snr_db"]) == snr
        assert fields["version"] == __version__

    def test_asymptote(self, runner):
        line = self.first_line(runner, ["asymptote", "--m", "2", "--rate", "2", "--snr-db", "20:40:20"])
        assert line == f"# nakfade asymptote B=4 M=4 m=2 R=2 cells=4096 version={__version__}"

    def test_exponent(self, runner):
        line = self.first_line(runner, ["exponent", "--rate", "0.5:3.5:0.5"])
        assert line == f"# nakfade exponent B=4 M=4 m=1 R=0.5:3.5:0.5 version={__version__}"

    def test_mc_lowerbound(self, runner):
        args = ["mc", "--mode", "lowerbound", "--samples", "1000", "--seed", "3", "--rate", "1", "--snr-db", "5:5:1"]
        assert self.first_line(runner, args) == f"# nakfade mc mode=lowerbound B=4 M=4 m=1 R=1 samples=1000 seed=3 version={__version__}"

    def test_mc_outage_names_constellation(self, runner):
        args = ["mc", "--mode", "outage", "--samples", "200", "--seed", "3", "--rate", "1", "--snr-db", "5:5:1"]
        line = self.first_line(runner, args)
        assert line == f"# nakfade mc mode=outage B=4 M=4 m=1 R=1 constellation=qam16 samples=200 seed=3 version={__version__}"

    def test_mc_in_process_ignores_an_order_it_does_not_read(self, tmp_path):
        # run ignores a field its command does not read, so the benchmark's mc configs, which pass order=32, still run.
        out = tmp_path / "mc.csv"
        cfg = RunConfig("mc", mode="outage", order=32, samples=200, seed=3, rate=1.0, snr_db=(5.0, 5.0, 1.0), out=str(out))
        assert cli.run(cfg) == 0
        assert out.read_text().splitlines()[0] == f"# nakfade mc mode=outage B=4 M=4 m=1 R=1 constellation=qam16 samples=200 seed=3 version={__version__}"

    def test_mi_names_only_what_it_uses(self, runner):
        line = self.first_line(runner, ["mi", "--constellation", "psk2", "--snr-db", "0:6:3", "--order", "32"])
        assert line == f"# nakfade mi constellation=psk2 order=32 version={__version__}"


class TestDefaults:
    def test_mc_order_defaults_to_library_order(self, runner, monkeypatch):
        orders = []
        monkeypatch.setattr(cli, "hermite_rule", lambda order: orders.append(order) or hermite_rule(order))
        args = ["mc", "--mode", "outage", "--samples", "300", "--seed", "5", "--rate", "2", "--snr-db", "4:8:4"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert orders == [montecarlo.MC_QUAD_ORDER]
        spec, rule = ChannelSpec(4, 4, NakagamiParam(1.0), 2.0), hermite_rule(montecarlo.MC_QUAD_ORDER)
        ests = [montecarlo.mc_outage(Snr.from_db(db), spec, from_name("qam16"), rule, n=300, seed=5, stream_id=i) for i, db in enumerate((4.0, 8.0))]
        assert rows_of(res.output)[1] == [[db, f"{e.p_hat:.12g}", f"{e.std_err:.12g}", "300"] for db, e in zip(("4", "8"), ests)]

    def test_config_default_does_not_depend_on_the_command(self):
        assert not hasattr(RunConfig, "__post_init__")
        assert RunConfig("mi").order == RunConfig("mc").order == DEFAULT_ORDER == 96

    def test_mi_order_default_is_96(self, runner):
        res = runner.invoke(main, ["mi", "--snr-db", "0:0:1"])
        assert res.output.splitlines()[0] == f"# nakfade mi constellation=qam16 order=96 version={__version__}"

    def test_version_from_source_tree(self, tmp_path):
        # No installed package metadata: the version comes from the source.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        res = subprocess.run([sys.executable, "-m", "nakfade.cli", "--version"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == f"nakfade, version {__version__}"


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"blocks": 4, "bits": 4, "m": 2.0, "rate": 3.0, "snr_db": "0:10:5"}))
        res = runner.invoke(main, ["curve", "--config", str(cfg), "--rate", "1"])
        assert res.exit_code == 0
        assert "R=1 " in res.output.splitlines()[0]  # flag overrode the file

    def test_unknown_config_field_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"snr_grid": "0:10:5"}))
        res = runner.invoke(main, ["curve", "--config", str(cfg)])
        assert res.exit_code == 2
        assert "snr_grid" in res.output

    def test_invalid_rate_exits_2_naming_field(self, runner):
        res = runner.invoke(main, ["curve", "--rate", "9"])
        assert res.exit_code == 2
        assert "rate" in res.output

    def test_invalid_grid_exits_2(self, runner):
        res = runner.invoke(main, ["curve", "--snr-db", "10:0:2"])
        assert res.exit_code == 2
        assert "snr_db" in res.output

    @pytest.mark.parametrize(
        "args,field",
        [
            pytest.param(["curve", "--snr-db", "0:1e308:1e-308"], "snr_db", id="curve-overflowing-count"),
            pytest.param(["ratesweep", "--rate", "0.25:3.75:1e-308"], "rate_grid", id="ratesweep-overflowing-count"),
            pytest.param(["curve", "--snr-db", "0:40:1e-7"], "snr_db", id="curve-4e8-points"),
        ],
    )
    def test_oversized_grid_exits_2_before_it_is_built(self, runner, monkeypatch, args, field):
        monkeypatch.setattr(cli, "_grid", lambda spec3: pytest.fail("an oversized grid was built"))
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert f"field '{field}'" in res.output and "more than 1000000 points" in res.output

    def test_largest_grid_is_accepted(self):
        grid = cli._parse_grid("0:999999:1", "snr_db")
        assert len(cli._grid(grid)) == cli._MAX_GRID_POINTS

    @pytest.mark.parametrize(
        "args,config,field",
        [
            pytest.param(["curve"], {"blocks": "4"}, "blocks", id="blocks-str"),
            pytest.param(["curve"], {"blocks": True}, "blocks", id="blocks-bool"),
            pytest.param(["curve"], {"cells": 4096.0}, "cells", id="cells-float"),
            pytest.param(["curve"], {"rate": "1"}, "rate", id="rate-str"),
            pytest.param(["curve"], {"m": True}, "m", id="m-bool"),
            pytest.param(["ratesweep"], {"snr_db_fixed": "x"}, "snr_db_fixed", id="snr_db_fixed-str"),
            pytest.param(["exponent"], {"lambda_scaled": ["a"]}, "lambda_scaled", id="lambda_scaled-str"),
            pytest.param(["exponent", "--lambda-scaled", "inf"], None, "lambda_scaled", id="lambda_scaled-inf"),
            pytest.param(["exponent", "--lambda-scaled", "1", "--lambda-scaled", "nan"], None, "lambda_scaled", id="lambda_scaled-nan"),
            pytest.param(["exponent", "--lambda-scaled", "1", "--lambda-scaled", "1.0", "--rate", "1:2:1"], None, "lambda_scaled", id="lambda_scaled-repeated"),
            pytest.param(["exponent"], {"lambda_scaled": [0.5, 2, 2.0]}, "lambda_scaled", id="lambda_scaled-repeated-config"),
            pytest.param(["mc"], {"seed": 1.5}, "seed", id="seed-float"),
            pytest.param(["mc"], {"samples": 10.5}, "samples", id="samples-float"),
            pytest.param(["mc"], {"order": None}, "order", id="order-null"),
            pytest.param(["mi", "--constellation", "foo"], None, "constellation", id="constellation-unknown"),
            pytest.param(["mc", "--mode", "outage", "--constellation", "qam8", "-M", "3"], None, "constellation", id="constellation-qam8"),
            pytest.param(["curve", "--snr-db", "nan:10:1"], None, "snr_db", id="snr_db-nan-start"),
            pytest.param(["mc", "--snr-db", "0:10:nan"], None, "snr_db", id="snr_db-nan-step"),
            pytest.param(["curve", "--snr-db", "0:inf:1"], None, "snr_db", id="snr_db-inf-stop"),
            pytest.param(["mi", "--snr-db", "-inf:0:1"], None, "snr_db", id="snr_db-neg-inf-start"),
            pytest.param(["curve", "--snr-db", "0:10:inf"], None, "snr_db", id="snr_db-inf-step"),
            pytest.param(["ratesweep", "--rate", "0.25:3.75:inf"], None, "rate_grid", id="rate_grid-inf-step-ratesweep"),
            pytest.param(["exponent", "--rate", "0.25:3.75:inf"], None, "rate_grid", id="rate_grid-inf-step-exponent"),
            pytest.param(["curve"], {"snr_db": [0, "nan", 1]}, "snr_db", id="snr_db-config-nan"),
            pytest.param(["curve", "--snr-db", "-4000:-4000:1"], None, "snr_db", id="snr_db-underflow-curve"),
            pytest.param(["asymptote", "--snr-db", "-4000:0:1000"], None, "snr_db", id="snr_db-underflow-asymptote"),
            pytest.param(["ratesweep", "--snr-db-fixed", "-4000"], None, "snr_db_fixed", id="snr_db_fixed-underflow"),
            pytest.param(["mc", "--mode", "lowerbound", "--constellation", "foo"], None, "constellation", id="lowerbound-constellation"),
            pytest.param(["mc", "--mode", "outage"], {"order": 32}, "order", id="outage-order-config"),
            pytest.param(["mc"], {"constellation": "qam16"}, "constellation", id="lowerbound-constellation-config"),
            pytest.param(["mc"], {"order": 32}, "order", id="lowerbound-order-config"),
        ],
    )
    def test_bad_value_exits_2_naming_field(self, runner, tmp_path, args, config, field):
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            args = args + ["--config", str(path)]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert f"field '{field}'" in res.output

    @pytest.mark.parametrize("mode", ["outage", "lowerbound"])
    def test_mc_takes_no_order_flag(self, runner, mode):
        res = runner.invoke(main, ["mc", "--mode", mode, "--order", "8"])
        assert res.exit_code == 2
        assert "--order" in res.output

    @pytest.mark.parametrize("args", [["mi"], ["curve"]], ids=["mi", "curve"])
    def test_snr_overflow_exits_3_naming_db(self, runner, args):
        res = runner.invoke(main, args + ["--snr-db", "4000:4000:1"])
        assert res.exit_code == 3
        assert "4000.0 dB" in res.output

    @pytest.mark.parametrize("args", [["mi"], ["mc", "--samples", "10"], ["mc", "--mode", "outage", "--samples", "10"]], ids=["mi", "mc", "mc-outage"])
    def test_zero_linear_snr_accepted_where_right(self, runner, args):
        res = runner.invoke(main, args + ["--snr-db", "-4000:-4000:1"])
        assert res.exit_code == 0, res.output

    def test_snr_whose_gamma_argument_overflows_gives_bound_1(self, runner):
        # m (2^M - 1) / rho overflows to inf, where P(m, inf) = 1: p = 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, ["curve", "--snr-db", "-3100:-3100:1", "-B", "4", "-M", "4", "--rate", "1"])
        assert res.exit_code == 0, res.output
        assert rows_of(res.output)[1] == [["-3100", "1"]]

    # K is computed after the bounds, so these grids stop at 0 dB, where the
    # bound is finite: at m = 200 it first fails at 8 dB, at m = 300 at 10 dB.
    def test_overflowing_coding_gain_exits_3_naming_k(self, runner):
        res = runner.invoke(main, ["asymptote", "--m", "200", "--snr-db", "0:0:1", "-B", "4", "-M", "4", "--rate", "1"])
        assert res.exit_code == 3
        assert "coding gain K overflows a float: log10 K = 346.0" in res.output

    def test_underflowed_coding_gain_read_exits_3(self, runner):
        # At m = 300 the read that K needs underflows; it is not a silent K = 0.
        res = runner.invoke(main, ["asymptote", "--m", "300", "--rate", "1", "--snr-db", "0:0:1"])
        assert res.exit_code == 3
        assert "coding gain K cannot be computed: the limit law's cell masses underflow a float at m = 300" in res.output

    # Where both the bound and K fail, the bound is named.
    @pytest.mark.parametrize("m,grid,db,log10_value", [("200", "0:8:8", "8", "-349.044"), ("300", "0:10:5", "10", "-732.451")])
    def test_bound_failure_is_named_before_coding_gain_failure(self, runner, m, grid, db, log10_value):
        res = runner.invoke(main, ["asymptote", "--m", m, "--rate", "1", "--snr-db", grid])
        assert res.exit_code == 3
        assert f"outage bound p_out_lower underflows a float at snr_db {db}, rate 1: log10 p_out_lower = {log10_value}" in res.output
        assert "coding gain" not in res.output

    def test_coding_gain_of_large_m_fits_a_float(self, runner):
        # K = 10^85.76 at m = 50: the deep-tail read no longer overflows it.
        # The first row is 0 dB, where the asymptote is K itself.
        res = runner.invoke(main, ["asymptote", "--m", "50", "--rate", "1", "--snr-db", "0:18:2"])
        assert res.exit_code == 0, res.output
        assert np.log10(float(rows_of(res.output)[1][0][2])) == pytest.approx(85.7589, abs=1e-4)

    def test_subnormal_bound_exits_3_naming_the_snr(self, runner):
        # On the default grid, 0:40:2, the bound at 20 dB is 10^-315.1, below
        # the smallest normal float; it is not printed as a subnormal value.
        res = runner.invoke(main, ["asymptote", "--m", "50", "--rate", "1"])
        assert res.exit_code == 3
        assert "outage bound p_out_lower underflows a float at snr_db 20, rate 1: log10 p_out_lower = -315.112" in res.output

    def test_asymptote_is_formed_in_log_space(self, runner):
        # B = M = 4, m = 50, R = 1: m d_B = 200, so each asymptote is
        # 10^(log10 K - 20 dB), far below where rho^-200 alone underflows.
        log10_k = math.log10(coding_gain(ChannelSpec(4, 4, NakagamiParam(50), 1.0)))
        assert log10_k == pytest.approx(85.7589, abs=1e-4)
        res = runner.invoke(main, ["asymptote", "--m", "50", "--rate", "1", "--snr-db", "12:19:1"])
        assert res.exit_code == 0, res.output
        rows = rows_of(res.output)[1]
        assert [row[0] for row in rows] == [str(db) for db in range(12, 20)]
        for db, _, line in rows:
            assert float(line) == pytest.approx(10.0 ** (log10_k - 20 * int(db)), rel=1e-12)

    # Bounds below the smallest normal float, which printed as 0 before.
    @pytest.mark.parametrize("m,db,log10_value", [("20", "80", "-606.162"), ("300", "10", "-732.451")])
    def test_underflowing_bound_exits_3_naming_log10(self, runner, m, db, log10_value):
        res = runner.invoke(main, ["curve", "--m", m, "--rate", "1", "--snr-db", f"{db}:{db}:1"])
        assert res.exit_code == 3
        assert f"outage bound p_out_lower underflows a float at snr_db {db}, rate 1: log10 p_out_lower = {log10_value}" in res.output

    def test_underflowed_cell_masses_exit_3(self, runner):
        # At m = 300 and 20 dB the cell masses that a read at BR = 2 can see
        # underflow, so the read is -inf; it is not a silent bound of 0.
        res = runner.invoke(main, ["curve", "--m", "300", "--rate", "0.5", "--snr-db", "20:20:1"])
        assert res.exit_code == 3
        assert "outage bound cannot be computed at snr_db 20, rate 0.5: its cell masses underflow a float" in res.output

    # No bound, K or asymptote is ever an exact 0: a read that no sum of the
    # grid's cells reaches exits 3 with one line naming the quantity, the rate
    # and the cells above which some sum reaches it.
    @pytest.mark.parametrize(
        "args,line",
        [
            ("curve --rate 1e-10 --snr-db 0:0:1", "outage bound cannot be computed at snr_db 0, rate 1e-10: no sum of 4 cells reaches its read; more than 1.5e+10 cells resolve it"),
            ("curve --cells 16 --rate 0.05 --snr-db 0:10:10", "outage bound cannot be computed at snr_db 0, rate 0.05: no sum of 4 cells reaches its read; more than 30 cells resolve it"),
            ("asymptote --rate 1.0001 --snr-db 20:40:20", "coding gain K cannot be computed at rate 1.0001: no sum of 3 cells reaches its read; more than 10000 cells resolve it"),
        ],
        ids=["curve-rate-1e-10", "curve-cells-16", "asymptote-rate-1.0001"],
    )
    def test_read_below_the_smallest_sum_exits_3(self, runner, args, line):
        res = runner.invoke(main, args.split())
        assert res.exit_code == 3
        assert res.output == f"numerical failure: {line}\n"

    def test_more_cells_resolve_the_read(self, runner):
        res = runner.invoke(main, ["asymptote", "--rate", "1.0001", "--snr-db", "20:40:20", "--cells", "65536"])
        assert res.exit_code == 0, res.output
        assert all(float(asym) > 0.0 for _, _, asym in rows_of(res.output)[1])
        res = runner.invoke(main, ["curve", "--cells", "31", "--rate", "0.05", "--snr-db", "0:10:10"])
        assert res.exit_code == 0, res.output
        assert all(0.0 < float(v) < 1.0 for _, v in rows_of(res.output)[1])

    def test_coding_gain_past_the_float_range_exits_3_naming_m(self, runner):
        res = runner.invoke(main, ["asymptote", "--bits", "1024", "--snr-db", "0:0:1"])
        assert res.exit_code == 3
        assert res.output == "numerical failure: coding gain K cannot be computed at M = 1024: 2^M overflows a float\n"
        res = runner.invoke(main, ["asymptote", "--bits", "1023", "--snr-db", "0:0:1"])
        assert res.exit_code == 0 and rows_of(res.output)[1] == [["0", "0.687204656905", "24.969735638"]]

    # At -770 dB the product K rho^-4 overflows; at -800 dB rho^-4 itself does.
    @pytest.mark.parametrize("db,log10_value", [("-770", "309.393"), ("-800", "321.393")])
    def test_overflowing_asymptote_exits_3_naming_snr(self, runner, db, log10_value):
        res = runner.invoke(main, ["asymptote", "--snr-db", f"{db}:{db}:1"])
        assert res.exit_code == 3
        assert f"asymptote overflows a float at snr_db {db}: log10 asymptote = {log10_value}" in res.output

    # At m=20 the conditioning probability underflows from about 178 dB, so
    # 180 dB, the first SNR of the grid, is the first to fail tabulation.
    @pytest.mark.parametrize("command", ["curve", "asymptote"])
    def test_underflowing_conditioning_probability_names_the_snr(self, runner, command):
        res = runner.invoke(main, [command, "--m", "20", "--rate", "1", "--snr-db", "180:200:10"])
        assert res.exit_code == 3
        assert "conditioning probability underflowed at snr_db 180;" in res.output

    # From 150 dB the grid first fails on the bound's value, 10^-1166.16,
    # before tabulation fails at 180 dB; the asymptote command evaluates the
    # bounds first, so it reports the bound, not its asymptote, which
    # underflows at 150 dB too.
    @pytest.mark.parametrize("command", ["curve", "asymptote"])
    def test_underflowing_bound_is_the_first_failure(self, runner, command):
        res = runner.invoke(main, [command, "--m", "20", "--rate", "1", "--snr-db", "150:200:10"])
        assert res.exit_code == 3
        assert "underflows a float at snr_db 150, rate 1: log10 p_out_lower = -1166.16" in res.output

    def test_numerical_failure_exits_3(self, runner, monkeypatch):
        from nakfade import cli

        def boom(*args, **kwargs):
            raise ArithmeticError("synthetic non-finite intermediate")

        monkeypatch.setattr(cli.bound, "outage_lower_bounds", boom)
        res = runner.invoke(main, ["curve", "--rate", "1", "--snr-db", "0:4:2"])
        assert res.exit_code == 3

    @pytest.mark.parametrize("message, line", [("Unable to allocate 6.71 GiB", "Unable to allocate 6.71 GiB"), ("", "out of memory")])
    def test_allocation_failure_exits_3(self, runner, monkeypatch, message, line):
        from nakfade import cli

        def boom(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli.bound, "outage_lower_bounds", boom)
        res = runner.invoke(main, ["curve", "--rate", "1", "--snr-db", "0:4:2"])
        assert res.exit_code == 3
        assert res.output == f"allocation failure: {line}\n"


class TestOutPath:
    """--out names a file in a directory that exists; anything else exits 2 before a number is computed."""

    @pytest.fixture(autouse=True)
    def record_bounds(self, monkeypatch):
        self.computed = []
        real_bounds = cli.bound.outage_lower_bounds
        monkeypatch.setattr(cli.bound, "outage_lower_bounds", lambda *a, **k: self.computed.append(a) or real_bounds(*a, **k))

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_bad_out_exits_2_naming_out(self, runner, tmp_path, where):
        out = tmp_path / "missing" / "c.csv" if where == "missing-dir" else tmp_path
        res = runner.invoke(main, ["curve", "--snr-db", "0:0:1", "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert "field 'out'" in res.output
        assert not self.computed

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_bad_out_exits_2_naming_out_in_process(self, capsys, tmp_path, where):
        out = tmp_path / "missing" / "c.csv" if where == "missing-dir" else tmp_path
        with pytest.raises(SystemExit) as exc:
            cli.run(RunConfig("curve", snr_db=(0.0, 0.0, 1.0), out=str(out)))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("Error: field 'out': ")
        assert not self.computed

    def test_out_in_the_working_directory_is_written(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(main, ["curve", "--snr-db", "0:0:1", "-o", "c.csv"])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "c.csv").read_text().startswith("# nakfade curve ")
        assert self.computed


def _options(name):
    return {p.name for p in main.commands[name].params} - {"config_path"}


def _as_json(cfg, keys):
    return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(cfg).items() if k in keys}


# Config keys of retired fields, with a value each once took: every command refuses them.
RETIRED = {"per_term": True}


class TestFieldLists:
    """Each command takes only the fields it reads, as flags and as config keys."""

    @pytest.mark.parametrize(
        "name,field",
        [(name, f) for name in main.commands for f in [*RunConfig.__dataclass_fields__, *RETIRED] if f != "subcommand" and f not in _options(name)],
    )
    def test_foreign_config_field_exits_2(self, runner, tmp_path, name, field):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_as_json(RunConfig(subcommand=name), {field}) if field not in RETIRED else {field: RETIRED[field]}))
        res = runner.invoke(main, [name, "--config", str(path)])
        assert res.exit_code == 2, res.output
        assert f"field '{field}'" in res.output

    @pytest.mark.parametrize("name", list(main.commands))
    def test_config_of_own_fields_accepted(self, tmp_path, name):
        keys = _options(name)
        # mc reads constellation only in outage mode.
        defaults = RunConfig(subcommand=name, **({"mode": "outage"} if name == "mc" else {}))
        data = _as_json(defaults, keys)
        assert set(data) == keys
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        assert _build_config(name, str(path), dict.fromkeys(keys)) == defaults

    @pytest.mark.parametrize(
        "args",
        [["mi", "--blocks", "4"], ["mi", "--m", "2"], ["exponent", "--cells", "17"], ["mc", "--cells", "17"]],
        ids=lambda a: " ".join(a),
    )
    def test_flag_the_command_does_not_read_exits_2(self, runner, args):
        assert runner.invoke(main, args).exit_code == 2

    @pytest.mark.parametrize("name", list(main.commands))
    def test_help(self, runner, name):
        res = runner.invoke(main, [name, "--help"])
        assert res.exit_code == 0
        assert "--config" in res.output


class TestScaledAndConfigGridChecks:
    @pytest.mark.parametrize("args", [["--m", "20", "--lambda-scaled", "1e308"], ["--bits", "1", "--lambda-scaled", "1.7e308"]], ids=["m20", "M1"])
    def test_lambda_scaled_past_the_float_range_exits_2(self, runner, args):
        # lambda = v m / (M ln 2) overflows a float although v itself is finite.
        res = runner.invoke(main, ["exponent", "--rate", "1:1:1", *args])
        assert res.exit_code == 2, res.output
        assert "field 'lambda_scaled'" in res.output and "inf" in res.output

    @pytest.mark.parametrize("grid", [[True, 3, 1], [0, False, 1], [0, 3, True], [0, 3, None], [0, 3, [1]], [0, 3, {}]], ids=repr)
    def test_config_grid_bound_must_be_a_real(self, runner, tmp_path, grid):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"snr_db": grid}))
        res = runner.invoke(main, ["curve", "--config", str(path)])
        assert res.exit_code == 2, res.output
        assert "field 'snr_db'" in res.output

    def test_config_grid_bound_may_be_a_string(self, runner, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"snr_db": ["0", "3", 1.5]}))
        res = runner.invoke(main, ["curve", "--config", str(path)])
        assert res.exit_code == 0, res.output
        header, data = rows_of(res.output)
        assert [r[0] for r in data] == ["0", "1.5", "3"]
