"""nakfade command line: CSV-emitting front end for the outage machinery.

Every subcommand writes a CSV whose first line is a `#` metadata comment
echoing the resolved parameters in their exact (round-trip) form and the
package version, so outputs are self-describing and safe to diff across
runs.  All randomness is driven by an explicit --seed (there is
deliberately no environment-variable override); re-running a command with
the same configuration reproduces the output byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import click

from . import __version__, asymptotics, bound, montecarlo
from ._checks import integer, real
from .constellation import KNOWN_NAMES, from_name
from .fading import NakagamiParam
from .mutual_info import DEFAULT_ORDER, Snr, hermite_rule, mi_discrete_array

__all__ = ["RunConfig", "run", "main"]


def _fmt(v) -> str:
    """Data-row format: 12 significant digits."""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _fmt_exact(v) -> str:
    """Header format: the shortest text that parses back to the same float; a grid as start:stop:step."""
    if isinstance(v, (tuple, list)):
        return ":".join(_fmt_exact(x) for x in v)
    if isinstance(v, float):
        text = repr(float(v))
        return text[:-2] if text.endswith(".0") else text
    return str(v)


def _zero_snr(db: float) -> str | None:
    """What is wrong with db dB for the bound, which needs rho > 0, or None (a large db overflows, not underflows)."""
    return f"{_fmt_exact(db)} dB is a linear SNR of 0" if db < 0 and 10.0 ** (db / 10.0) == 0.0 else None


def _block_length_scale(v: float, cfg) -> float:
    """lambda from its scaled form v = lambda M ln2 / m."""
    return v * cfg.m / (cfg.bits * math.log(2.0))


def _scaled_lambda(v: float, cfg) -> str | None:
    """What is wrong with the lambda that v scales to (m and bits are checked first), or None."""
    lam = _block_length_scale(v, cfg)
    return None if math.isfinite(lam) else f"{_fmt_exact(v)} scales to lambda = {lam!r}, past the float range"


def _repeated_column(v: float, earlier) -> str | None:
    """What is wrong with v if its column name, d_random_lambda<v>, is an earlier value's, or None."""
    text = _fmt_exact(v)
    return f"{text} names the column d_random_lambda{text} a second time" if text in map(_fmt_exact, earlier) else None


def _check_constellation(v, cfg) -> str | None:
    if not isinstance(v, str):
        return "must be a name such as 'qam16'"
    try:
        bits = from_name(v).bits_per_symbol
    except ValueError as exc:
        return str(exc)
    # mc's constellation must carry the channel's M bits; mi has no channel.
    return f"{v!r} carries {bits} bits, spec needs {cfg.bits}" if "bits" in _reads(cfg) and bits != cfg.bits else None


_MAX_GRID_POINTS = 10**6  # a larger grid is a configuration error, refused before it is built


def _check_grid(v) -> str | None:
    """What is wrong with v as a grid: three finite reals, step > 0, stop >= start, at most _MAX_GRID_POINTS points."""
    if not isinstance(v, (tuple, list)) or len(v) != 3:
        return f"expected start:stop:step, got {v!r}"
    if problem := next(filter(None, map(real, v)), None):
        return f"grid bound {problem}"
    start, stop, step = v
    if step <= 0 or stop < start:
        return f"step must be positive and stop >= start, got {_fmt_exact(v)}"
    if _grid_size(start, stop, step) > _MAX_GRID_POINTS:
        return f"grid {_fmt_exact(v)} holds more than {_MAX_GRID_POINTS} points"


def _check_out(v, cfg) -> str | None:
    """What is wrong with v as the path of the CSV to write (None is stdout), or None."""
    if v is None:
        return None
    if not isinstance(v, (str, os.PathLike)):
        return "must be a file path"
    if os.path.isdir(v):
        return f"{os.fspath(v)!r} is a directory"
    parent = os.path.dirname(v) or "."
    return None if os.path.isdir(parent) else f"directory {parent!r} does not exist"


# Each field's check(value, cfg), in declaration order, says what is wrong
# with a value the command reads, or returns None.
_MODES = ["outage", "lowerbound"]
_MODE = lambda v, cfg: None if v in _MODES else "must be 'outage' or 'lowerbound'"
_POSITIVE_INT = lambda v, cfg: integer(v, least=1)
_SHAPE = lambda v, cfg: real(v, above=0)
_RATE = lambda v, cfg: real(v, above=0, most=cfg.bits)
_RATE_GRID = lambda v, cfg: _check_grid(v) or (None if 0 < v[0] and v[1] <= cfg.bits else f"grid must stay inside (0, M={cfg.bits}]")
_FIXED_SNR = lambda v, cfg: real(v) or _zero_snr(v)
_CELLS = lambda v, cfg: integer(v, least=2)
_SEED = lambda v, cfg: integer(v, least=0, most=2**64 - 1)
# The bound commands (those that read cells) need rho > 0; mc and mi are right at rho = 0.
_SNR_GRID = lambda v, cfg: _check_grid(v) or (_zero_snr(v[0]) if "cells" in _reads(cfg) else None)
_LAMBDAS = lambda v, cfg: next(filter(None, (real(x, above=0) or _scaled_lambda(x, cfg) or _repeated_column(x, v[:i]) for i, x in enumerate(v))), None)


def _option(default, flags: str, help: str, check, header: str | None, **click_settings):
    """A RunConfig field: its default, its click option, its check, and its CSV
    header name, which is None for a field that changes no number."""
    return field(default=default, metadata=dict(flags=flags.split(), check=check, header=header, click=dict(help=help, **click_settings)))


@dataclass
class RunConfig:
    """Resolved settings for one batch run, one field per option.

    An option's name is its field's name, which is also its key in a config
    file.  A CSV header lists its fields in this order, and _validate reports
    the first bad field in this order.
    """

    subcommand: str
    mode: str = _option(
        "lowerbound", "--mode", "Estimate true outage or the capped-rate bound event.", _MODE, "mode", type=click.Choice(_MODES)
    )
    blocks: int = _option(4, "--blocks -B", "Fading blocks per codeword B.", _POSITIVE_INT, "B", type=int)
    bits: int = _option(4, "--bits -M", "Bits per symbol M (2^M-point input).", _POSITIVE_INT, "M", type=int)
    m: float = _option(1.0, "--m", "Nakagami shape m (m=1 is Rayleigh).", _SHAPE, "m", type=float)
    rate: float = _option(1.0, "--rate", "Code rate R in bits per channel use.", _RATE, "R", type=float)
    rate_grid: tuple = _option((0.25, 3.75, 0.25), "--rate", "Rate grid as start:stop:step.", _RATE_GRID, "R", type=str)
    snr_db_fixed: float = _option(10.0, "--snr-db-fixed", "Fixed SNR in dB.", _FIXED_SNR, "snr_db", type=float)
    cells: int = _option(bound.DEFAULT_CELLS, "--cells", "Grid cells over [0, M] for the tabulated pmf.", _CELLS, "cells", type=int)
    constellation: str = _option(
        "qam16", "--constellation", f"Signal set ({', '.join(KNOWN_NAMES)}); mc reads it in outage mode.", _check_constellation, "constellation",
        type=str,
    )
    order: int = _option(DEFAULT_ORDER, "--order", "Gauss-Hermite order per dimension.", _POSITIVE_INT, "order", type=int)
    samples: int = _option(10**5, "--samples", "Monte Carlo samples per grid point.", _POSITIVE_INT, "samples", type=int)
    seed: int = _option(0, "--seed", "Explicit 64-bit seed, in [0, 2^64).", _SEED, "seed", type=int)
    snr_db: tuple = _option((0.0, 40.0, 2.0), "--snr-db", "SNR grid in dB as start:stop:step.", _SNR_GRID, None, type=str)
    lambda_scaled: tuple = _option(
        (0.5, 2.0), "--lambda-scaled", "lambda M ln2 / m; repeat for extra columns.", _LAMBDAS, None, type=float, multiple=True
    )
    workers: int = _option(1, "--workers", "Worker threads over the command's Monte Carlo sample chunks, which all its grid points share.", _POSITIVE_INT, None, type=int)
    out: str | None = _option(None, "--out -o", "Output CSV path (default: stdout).", _check_out, None, type=click.Path())


def _grid_size(start: float, stop: float, step: float) -> float:
    """The number of points of start:stop:step, inf where it overflows a float."""
    return math.floor(span) + 1 if math.isfinite(span := (stop - start) / step + 1e-9) else math.inf


def _grid(spec3: tuple) -> list:
    """start, start + step, ... up to stop; a point that rounds past stop is stop."""
    start, stop, step = spec3
    return [min(start + i * step, stop) for i in range(_grid_size(start, stop, step))]


def _parse_grid(value, name: str) -> tuple:
    """A flag's start:stop:step text or a config file's list as three bounds; the field's check judges them."""
    parts = value.split(":") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)) or len(parts) != 3:
        raise click.UsageError(f"field '{name}': expected start:stop:step, got {value!r}")
    # A config file's bound may be a string such as "0"; any other bound is left for the real rule.
    try:
        return tuple(float(p) if isinstance(p, str) else p for p in parts)
    except ValueError:
        raise click.UsageError(f"field '{name}': non-numeric grid bounds in {value!r}")


def _channel_spec(cfg: RunConfig, rate: float | None = None) -> bound.ChannelSpec:
    return bound.ChannelSpec(cfg.blocks, cfg.bits, NakagamiParam(cfg.m), cfg.rate if rate is None else rate)


def _bounds(cfg: RunConfig, snrs: list, rates: list) -> list:
    """The bound at every SNR for every rate, [snr][rate], from one evaluator call."""
    return bound.outage_lower_bounds(snrs, cfg.blocks, cfg.bits, NakagamiParam(cfg.m), rates, cfg.cells)


def _reads(cfg: RunConfig) -> list:
    """The fields cfg's command reads: its _COMMANDS fields, less constellation under mc --mode lowerbound."""
    names = _COMMANDS[cfg.subcommand][1].split()
    if cfg.subcommand == "mc" and cfg.mode == "lowerbound":
        names.remove("constellation")
    return names


def _header(cfg: RunConfig) -> str:
    """Metadata comment: the subcommand, every field read that changes the numbers, the version."""
    reads = _reads(cfg)
    pairs = [(f.metadata["header"], getattr(cfg, f.name)) for f in fields(cfg) if f.name in reads and f.metadata["header"]]
    return " ".join([f"# nakfade {cfg.subcommand}"] + [f"{k}={_fmt_exact(v)}" for k, v in [*pairs, ("version", __version__)]])


def _emit(cfg: RunConfig, columns: list, rows: list) -> int:
    for row in rows:
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                click.echo("numerical failure: non-finite value in output", err=True)
                sys.exit(3)
    lines = [_header(cfg), ",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    return 0


def run(config: RunConfig) -> int:
    """Check the command and the fields it reads (exit 2 naming the first bad one), then write its CSV (exit 3 on a numerical or allocation failure)."""
    try:
        _validate(config)
        return _COMMANDS[config.subcommand][0](config)
    except click.UsageError as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except ArithmeticError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    except MemoryError as exc:
        click.echo(f"allocation failure: {str(exc) or 'out of memory'}", err=True)
        sys.exit(3)


def _run_curve(cfg: RunConfig) -> int:
    """Outage lower bound across an SNR grid."""
    dbs = _grid(cfg.snr_db)
    values = [value for (value,) in _bounds(cfg, [Snr.from_db(db) for db in dbs], [cfg.rate])]
    return _emit(cfg, ["snr_db", "p_out_lower"], list(zip(dbs, values)))


def _run_ratesweep(cfg: RunConfig) -> int:
    """Outage lower bound across a rate grid at fixed SNR."""
    # One SNR: every rate reads one pmf, and those not tilted share one untilted power.
    rates = _grid(cfg.rate_grid)
    (values,) = _bounds(cfg, [Snr.from_db(cfg.snr_db_fixed)], rates)
    return _emit(cfg, ["rate", "p_out_lower"], list(zip(rates, values)))


def _run_asymptote(cfg: RunConfig) -> int:
    """Outage lower bound next to its high-SNR power-law asymptote."""
    dbs = _grid(cfg.snr_db)
    snrs = [Snr.from_db(db) for db in dbs]
    # A bound fails only at high SNR, where its failure is the more telling
    # one, so the bounds are evaluated before K and the asymptotes, which
    # fail where K does or where a value over- or underflows a float.
    values = _bounds(cfg, snrs, [cfg.rate])
    lines = asymptotics.asymptotes(snrs, _channel_spec(cfg), cfg.cells)
    rows = [(db, value, line) for db, (value,), line in zip(dbs, values, lines)]
    return _emit(cfg, ["snr_db", "p_out_lower", "asymptote"], rows)


def _run_exponent(cfg: RunConfig) -> int:
    """Singleton bound, optimal exponent, and random-coding exponents."""
    rates = _grid(cfg.rate_grid)
    lams = [_block_length_scale(v, cfg) for v in cfg.lambda_scaled]

    def point(r: float) -> list:
        spec = _channel_spec(cfg, r)
        d_s = asymptotics.singleton_bound(cfg.blocks, cfg.bits, r)
        row = [r, d_s, asymptotics.optimal_exponent(spec)]
        row += [asymptotics.random_coding_exponent(spec, lam) for lam in lams]
        return row

    columns = ["rate", "d_singleton", "d_optimal"] + [f"d_random_lambda{_fmt_exact(v)}" for v in cfg.lambda_scaled]
    return _emit(cfg, columns, [point(r) for r in rates])


def _run_mc(cfg: RunConfig) -> int:
    """Monte Carlo outage estimates across an SNR grid."""
    spec = _channel_spec(cfg)
    dbs = _grid(cfg.snr_db)
    # One estimator call per command: each chunk of gains is drawn once and
    # scored at every point, and the chunks spread over --workers threads.
    snrs = [Snr.from_db(db) for db in dbs]
    kw = dict(n=cfg.samples, seed=cfg.seed, workers=cfg.workers)
    if cfg.mode == "outage":
        ests = montecarlo.mc_outages(snrs, spec, from_name(cfg.constellation), hermite_rule(montecarlo.MC_QUAD_ORDER), **kw)
    else:
        ests = montecarlo.mc_lower_bounds(snrs, spec, **kw)
    rows = [(db, e.p_hat, e.std_err, e.n_samples) for db, e in zip(dbs, ests)]
    return _emit(cfg, ["snr_db", "p_hat", "std_err", "n"], rows)


def _run_mi(cfg: RunConfig) -> int:
    """Discrete-input mutual information across an SNR grid."""
    # One evaluator call over the whole grid: each value does not depend
    # on its batch.
    c = from_name(cfg.constellation)
    dbs = _grid(cfg.snr_db)
    vals = mi_discrete_array([Snr.from_db(db).rho for db in dbs], c, hermite_rule(cfg.order)).tolist()
    return _emit(cfg, ["rho_db", "mi_bits"], list(zip(dbs, vals)))


def _load_config(path: str | None, subcommand: str, keys) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise click.UsageError(f"field 'config': cannot read {path!r} ({exc})")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"field 'config': {path!r} is not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise click.UsageError("field 'config': top level must be a JSON object")
    for key in data:
        if key not in keys:
            raise click.UsageError(f"field '{key}': not an option of {subcommand}")
    return data


def _build_config(subcommand: str, config_path: str | None, flags: dict) -> RunConfig:
    """Start from defaults, apply the JSON config file, then CLI flags; run checks the values.

    flags maps each of the command's options to its value, None (or () for a
    repeatable option) when not given; its keys are the keys the file may set.
    """
    cfg = RunConfig(subcommand=subcommand)
    file_values = _load_config(config_path, subcommand, flags.keys())
    flag_values = {k: v for k, v in flags.items() if v is not None and v != ()}
    for source in (file_values, flag_values):
        for key, value in source.items():
            if key in ("snr_db", "rate_grid"):
                value = _parse_grid(value, key)
            elif key == "lambda_scaled":
                value = tuple(value) if isinstance(value, (list, tuple)) else (value,)
            setattr(cfg, key, value)
    # A command takes only fields it can read, so one given but not read is mc's in lowerbound mode.
    given = file_values.keys() | flag_values.keys()
    if unread := [f.name for f in fields(cfg) if f.name in given and f.name not in _reads(cfg)]:
        raise click.UsageError(f"field '{unread[0]}': {subcommand} reads it only in --mode outage")
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Raise a usage error naming an unknown command, or else the first bad field that cfg's command reads."""
    if not isinstance(cfg.subcommand, str) or cfg.subcommand not in _COMMANDS:
        raise click.UsageError(f"field 'subcommand': must be one of {', '.join(_COMMANDS)}, got {cfg.subcommand!r}")
    reads = _reads(cfg)
    for f in fields(cfg):
        if f.name in reads and (problem := f.metadata["check"](getattr(cfg, f.name), cfg)):
            # Under a click command, the error shows the command's usage, as click's own errors do.
            raise click.UsageError(f"field '{f.name}': {problem}", click.get_current_context(silent=True))


# Each command: the function that writes its CSV (whose docstring is the
# command's help) and the only fields it reads, so the only ones it takes.
_COMMANDS = {
    "curve": (_run_curve, "blocks bits m cells rate snr_db out"),
    "ratesweep": (_run_ratesweep, "blocks bits m cells snr_db_fixed rate_grid out"),
    "asymptote": (_run_asymptote, "blocks bits m cells rate snr_db out"),
    "exponent": (_run_exponent, "blocks bits m rate_grid lambda_scaled out"),
    "mc": (_run_mc, "blocks bits m rate snr_db samples seed mode constellation workers out"),
    "mi": (_run_mi, "constellation snr_db order out"),
}


@click.group()
@click.version_option(version=__version__, prog_name="nakfade")
def main() -> None:
    """Outage lower bounds for discrete-input Nakagami-m block-fading channels.

    dB convention: linear SNR rho = 10^(dB/10) (power ratio).  All commands
    take an explicit --seed where randomness is involved; environment
    overrides are intentionally unsupported.
    """


def _command(name: str) -> click.Command:
    runner, names = _COMMANDS[name]

    def callback(config_path, **flags) -> None:
        sys.exit(run(_build_config(name, config_path, flags)))

    declared = RunConfig.__dataclass_fields__
    params = [click.Option([*declared[f].metadata["flags"], f], default=None, **declared[f].metadata["click"]) for f in names.split()]
    config_help = "JSON config file whose keys are this command's option names; explicit flags override it."
    params.append(click.Option(["--config", "config_path"], type=click.Path(exists=True, dir_okay=False), help=config_help))
    return click.Command(name, callback=callback, params=params, help=runner.__doc__)


for _name in _COMMANDS:
    main.add_command(_command(_name))


if __name__ == "__main__":
    main()
