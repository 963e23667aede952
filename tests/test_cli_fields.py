"""Each CLI field is declared once, with its check and its CSV header name,
and `cli.run` checks every field its command reads, whichever way the
configuration came in."""

import importlib.util
import inspect
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from nakfade import cli
from nakfade.cli import _COMMANDS, RunConfig

# The fields that change no number, so no CSV header names them: the SNR grid
# is the first column, lambda_scaled names its columns, and workers and out
# change neither.
NO_NUMBER = {"snr_db", "lambda_scaled", "workers", "out"}

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_every_field_read_has_a_header_name_or_changes_no_number(name):
    declared = {f.name: f.metadata for f in fields(RunConfig)}
    for field in _COMMANDS[name][1].split():
        assert "check" in declared[field], f"{field} is not declared through _option"
        assert (declared[field]["header"] is None) == (field in NO_NUMBER), field


@pytest.fixture
def dispatched(monkeypatch):
    """The configurations that run dispatches; a stub that writes nothing stands in for every command."""
    seen = []
    for name, (_, reads) in list(_COMMANDS.items()):
        monkeypatch.setitem(_COMMANDS, name, (lambda cfg: seen.append(cfg) or 0, reads))
    return seen


# Each case of tests/test_cli.py's test_bad_value_exits_2_naming_field whose
# field the command reads, with the parsed value in place of the flag text.
READ_FIELD_CASES = [
    pytest.param(dict(subcommand="curve", blocks="4"), "blocks", id="blocks-str"),
    pytest.param(dict(subcommand="curve", blocks=True), "blocks", id="blocks-bool"),
    pytest.param(dict(subcommand="curve", cells=4096.0), "cells", id="cells-float"),
    pytest.param(dict(subcommand="curve", rate="1"), "rate", id="rate-str"),
    pytest.param(dict(subcommand="curve", m=True), "m", id="m-bool"),
    pytest.param(dict(subcommand="ratesweep", snr_db_fixed="x"), "snr_db_fixed", id="snr_db_fixed-str"),
    pytest.param(dict(subcommand="exponent", lambda_scaled=("a",)), "lambda_scaled", id="lambda_scaled-str"),
    pytest.param(dict(subcommand="exponent", lambda_scaled=(INF,)), "lambda_scaled", id="lambda_scaled-inf"),
    pytest.param(dict(subcommand="exponent", lambda_scaled=(1.0, NAN)), "lambda_scaled", id="lambda_scaled-nan"),
    pytest.param(dict(subcommand="exponent", lambda_scaled=(1.0, 1.0), rate_grid=(1.0, 2.0, 1.0)), "lambda_scaled", id="lambda_scaled-repeated"),
    pytest.param(dict(subcommand="exponent", lambda_scaled=(0.5, 2, 2.0)), "lambda_scaled", id="lambda_scaled-repeated-config"),
    pytest.param(dict(subcommand="mc", seed=1.5), "seed", id="seed-float"),
    pytest.param(dict(subcommand="mc", samples=10.5), "samples", id="samples-float"),
    pytest.param(dict(subcommand="mi", constellation="foo"), "constellation", id="constellation-unknown"),
    pytest.param(dict(subcommand="mc", mode="outage", constellation="qam8", bits=3), "constellation", id="constellation-qam8"),
    pytest.param(dict(subcommand="curve", snr_db=(NAN, 10.0, 1.0)), "snr_db", id="snr_db-nan-start"),
    pytest.param(dict(subcommand="mc", snr_db=(0.0, 10.0, NAN)), "snr_db", id="snr_db-nan-step"),
    pytest.param(dict(subcommand="curve", snr_db=(0.0, INF, 1.0)), "snr_db", id="snr_db-inf-stop"),
    pytest.param(dict(subcommand="mi", snr_db=(-INF, 0.0, 1.0)), "snr_db", id="snr_db-neg-inf-start"),
    pytest.param(dict(subcommand="curve", snr_db=(0.0, 10.0, INF)), "snr_db", id="snr_db-inf-step"),
    pytest.param(dict(subcommand="ratesweep", rate_grid=(0.25, 3.75, INF)), "rate_grid", id="rate_grid-inf-step-ratesweep"),
    pytest.param(dict(subcommand="exponent", rate_grid=(0.25, 3.75, INF)), "rate_grid", id="rate_grid-inf-step-exponent"),
    pytest.param(dict(subcommand="curve", snr_db=(0, NAN, 1)), "snr_db", id="snr_db-config-nan"),
    pytest.param(dict(subcommand="curve", snr_db=(-4000.0, -4000.0, 1.0)), "snr_db", id="snr_db-underflow-curve"),
    pytest.param(dict(subcommand="asymptote", snr_db=(-4000.0, 0.0, 1000.0)), "snr_db", id="snr_db-underflow-asymptote"),
    pytest.param(dict(subcommand="ratesweep", snr_db_fixed=-4000.0), "snr_db_fixed", id="snr_db_fixed-underflow"),
]

# Configurations that only the command line refused before run checked them.
IN_PROCESS_CASES = [
    pytest.param(dict(subcommand="mc", mode="bogus", samples=1000, snr_db=(0.0, 0.0, 1.0)), "mode", id="mode-bogus"),
    pytest.param(dict(subcommand="curve", snr_db=(0.0, 1.0, -1.0)), "snr_db", id="snr_db-negative-step"),
    pytest.param(dict(subcommand="curve", snr_db=(5.0, 1.0, 1.0)), "snr_db", id="snr_db-stop-below-start"),
    pytest.param(dict(subcommand="curve", snr_db=[0, NAN, 1]), "snr_db", id="snr_db-list-nan"),
    pytest.param(dict(subcommand="curve", snr_db="0:10:1"), "snr_db", id="snr_db-text"),
    pytest.param(dict(subcommand="curve", blocks=0), "blocks", id="blocks-0"),
    pytest.param(dict(subcommand="curve", rate=9.0), "rate", id="rate-past-M"),
    pytest.param(dict(subcommand="curve", snr_db=(0.0, 40.0, 1e-7)), "snr_db", id="snr_db-4e8-points"),
    pytest.param(dict(subcommand="ratesweep", rate_grid=(0.25, 3.75, 1e-308)), "rate_grid", id="rate_grid-overflowing-count"),
    pytest.param(dict(subcommand="ratesweep", rate_grid=(0.0, 3.0, 1.0)), "rate_grid", id="rate_grid-from-0"),
    pytest.param(dict(subcommand="curve", snr_db=(True, 3.0, 1.0)), "snr_db", id="snr_db-bool-bound"),
    pytest.param(dict(subcommand="curve", snr_db=(0.0, 3.0)), "snr_db", id="snr_db-two-bounds"),
    pytest.param(dict(subcommand="curve", out=3), "out", id="out-int"),
    pytest.param(dict(subcommand="bogus"), "subcommand", id="subcommand-unknown"),
    pytest.param(dict(subcommand=["curve"]), "subcommand", id="subcommand-list"),
]


@pytest.mark.parametrize("kw,field", READ_FIELD_CASES + IN_PROCESS_CASES)
def test_run_refuses_a_bad_field_with_exit_2_naming_it(capsys, dispatched, kw, field):
    with pytest.raises(SystemExit) as exc:
        cli.run(RunConfig(**kw))
    assert exc.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"Error: field '{field}': ")
    assert not dispatched


def test_click_path_checks_no_field_twice(monkeypatch, tmp_path, dispatched):
    # The command line only parses and merges, and run checks: the same
    # configuration makes the same integer and real checks either way.
    checked = []
    for name in ("integer", "real"):
        rule = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda value, *a, _rule=rule, **k: checked.append(value) or _rule(value, *a, **k))
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"snr_db": [0, "3", 1.5], "blocks": 2}))
    res = CliRunner().invoke(cli.main, ["mc", "--config", str(path), "--mode", "outage", "--samples", "10", "--rate", "2"])
    assert res.exit_code == 0, res.output
    via_flags, checked[:] = checked[:], []
    assert cli.run(dispatched[0]) == 0
    assert via_flags == checked
    assert set(map(repr, checked)) >= {"2", "10", "2.0", "0", "3.0", "1.5"}


def test_parsing_a_grid_judges_no_bound():
    # The grid rule lives in the grid fields' checks; the parser only splits and converts text.
    assert cli._parse_grid("10:0:-1", "snr_db") == (10.0, 0.0, -1.0)
    assert cli._parse_grid([True, None, "1e999"], "rate_grid") == (True, None, INF)
    assert list(inspect.signature(cli._validate).parameters) == ["cfg"]


def test_a_grid_given_as_a_list_runs_as_its_tuple(tmp_path):
    # The benchmark's set-up process passes its configuration through JSON, so its grids arrive as lists.
    for grid, name in [((0.25, 1.25, 0.5), "tuple.csv"), ([0.25, 1.25, 0.5], "list.csv")]:
        assert cli.run(RunConfig("ratesweep", rate_grid=grid, cells=64, out=str(tmp_path / name))) == 0
    assert (tmp_path / "list.csv").read_bytes() == (tmp_path / "tuple.csv").read_bytes()
    assert " R=0.25:1.25:0.5 " in (tmp_path / "list.csv").read_text().splitlines()[0]


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclass looks its module up in sys.modules while it loads.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
@pytest.mark.parametrize("seed", [1, 2, 77])
def test_benchmark_commands_pass_the_checks(monkeypatch, tmp_path, dispatched, seed, tiny):
    # The benchmark runs each workload's configurations through cli.run, and
    # its set-up process passes one through JSON, which turns each grid into
    # a list; a check that refused either would fail the benchmark.
    workloads = load_workloads(monkeypatch)
    out = str(tmp_path / "out.csv")
    for workload in workloads.WORKLOADS.values():
        for kw in workload.commands(seed, tiny):
            assert cli.run(RunConfig(out=out, **kw)) == 0, (workload.name, kw)
            assert cli.run(RunConfig(**json.loads(json.dumps(dict(kw, out=out))))) == 0, (workload.name, kw)
    assert len(dispatched) > 0
