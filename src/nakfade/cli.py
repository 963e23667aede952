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
import sys
from dataclasses import dataclass, field

import click

from . import __version__, asymptotics, bound, montecarlo
from .constellation import KNOWN_NAMES, from_name
from .fading import NakagamiParam
from .mutual_info import DEFAULT_ORDER, Snr, hermite_rule, mi_discrete_array

__all__ = ["RunConfig", "run", "main"]


@dataclass
class RunConfig:
    """Resolved settings for one batch run."""

    subcommand: str
    blocks: int = 4
    bits: int = 4
    m: float = 1.0
    rate: float = 1.0
    constellation: str = "qam16"
    snr_db: tuple = (0.0, 40.0, 2.0)
    snr_db_fixed: float = 10.0
    rate_grid: tuple = (0.25, 3.75, 0.25)
    cells: int = bound.DEFAULT_CELLS
    order: int | None = None  # resolved per subcommand in __post_init__
    samples: int = 10**5
    seed: int = 0
    mode: str = "lowerbound"
    lambda_scaled: tuple = (0.5, 2.0)
    per_term: bool = False
    workers: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        # mi prints MI values, so it takes the order whose doubling moves
        # none of them by 1e-6; mc decides samples from many MI values, where
        # the library's cheaper MC_QUAD_ORDER keeps the quadrature bias far
        # below the Monte Carlo noise.
        if self.order is None:
            self.order = montecarlo.MC_QUAD_ORDER if self.subcommand == "mc" else DEFAULT_ORDER


def _fmt(v) -> str:
    """Data-row format: 12 significant digits."""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _fmt_exact(v) -> str:
    """Header format: the shortest text that parses back to the same float."""
    if isinstance(v, float):
        text = repr(v)
        return text[:-2] if text.endswith(".0") else text
    return str(v)


def _grid(spec3: tuple) -> list:
    """start, start + step, ... up to stop; a point that rounds past stop is stop."""
    start, stop, step = spec3
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [min(start + i * step, stop) for i in range(n)]


def _parse_grid(value, name: str) -> tuple:
    if isinstance(value, str):
        parts = value.split(":")
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise click.UsageError(f"field '{name}': expected start:stop:step, got {value!r}")
    if len(parts) != 3:
        raise click.UsageError(f"field '{name}': expected start:stop:step, got {value!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except (ValueError, TypeError):
        raise click.UsageError(f"field '{name}': non-numeric grid bounds in {value!r}")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise click.UsageError(f"field '{name}': grid bounds must be finite in {value!r}")
    if step <= 0:
        raise click.UsageError(f"field '{name}': step must be positive, got {step}")
    if stop < start:
        raise click.UsageError(f"field '{name}': stop must be >= start in {value!r}")
    return (start, stop, step)


def _channel_spec(cfg: RunConfig, rate: float | None = None) -> bound.ChannelSpec:
    return bound.ChannelSpec(cfg.blocks, cfg.bits, NakagamiParam(cfg.m), cfg.rate if rate is None else rate)


def _bounds(cfg: RunConfig, snrs: list, rates: list) -> list:
    """The bound at every SNR for every rate, [snr][rate], from one evaluator call."""
    return bound.outage_lower_bounds(snrs, cfg.blocks, cfg.bits, NakagamiParam(cfg.m), rates, cfg.cells)


def _header(cfg: RunConfig, fields: list) -> str:
    """Metadata comment: the subcommand, every parameter its numbers depend on, the version."""
    fields = [*fields, ("version", __version__)]
    return " ".join([f"# nakfade {cfg.subcommand}"] + [f"{k}={_fmt_exact(v)}" for k, v in fields])


def _channel_fields(cfg: RunConfig, rate) -> list:
    """Header fields of the channel: B, M, m and the rate (or rate grid)."""
    return [("B", cfg.blocks), ("M", cfg.bits), ("m", cfg.m), ("R", rate)]


def _grid_repr(spec3: tuple) -> str:
    return ":".join(_fmt_exact(v) for v in spec3)


def _emit(cfg: RunConfig, header: str, columns: list, rows: list) -> int:
    for row in rows:
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                click.echo("numerical failure: non-finite value in output", err=True)
                sys.exit(3)
    lines = [header, ",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    return 0


def run(config: RunConfig) -> int:
    """Dispatch one resolved configuration and write its CSV."""
    try:
        return _COMMANDS[config.subcommand][0](config)
    except (ArithmeticError, FloatingPointError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)


def _run_curve(cfg: RunConfig) -> int:
    """Outage lower bound across an SNR grid."""
    spec = _channel_spec(cfg)
    dbs = _grid(cfg.snr_db)
    results = [res for (res,) in _bounds(cfg, [Snr.from_db(db) for db in dbs], [cfg.rate])]
    columns = ["snr_db", "p_out_lower"]
    if cfg.per_term:
        for t in range(bound.threshold_terms(spec)):
            columns += [f"t{t}_cdf", f"t{t}_weight"]
    rows = []
    for db, res in zip(dbs, results):
        row = [db, res.value]
        if cfg.per_term:
            for _, f_y, w, _ in res.per_term:
                row += [f_y, w]
        rows.append(row)
    return _emit(cfg, _header(cfg, [*_channel_fields(cfg, cfg.rate), ("cells", cfg.cells)]), columns, rows)


def _run_ratesweep(cfg: RunConfig) -> int:
    """Outage lower bound across a rate grid at fixed SNR."""
    # One SNR, so every rate reads the same pmf and convolution powers.
    rates = _grid(cfg.rate_grid)
    (results,) = _bounds(cfg, [Snr.from_db(cfg.snr_db_fixed)], rates)
    header = _header(cfg, [*_channel_fields(cfg, _grid_repr(cfg.rate_grid)), ("snr_db", cfg.snr_db_fixed), ("cells", cfg.cells)])
    return _emit(cfg, header, ["rate", "p_out_lower"], [(r, res.value) for r, res in zip(rates, results)])


def _run_asymptote(cfg: RunConfig) -> int:
    """Outage lower bound next to its high-SNR power-law asymptote."""
    spec = _channel_spec(cfg)
    dbs = _grid(cfg.snr_db)
    snrs = [Snr.from_db(db) for db in dbs]
    gain = asymptotics.coding_gain(spec, cfg.cells)
    d_exp = asymptotics.optimal_exponent(spec)
    # The asymptote overflows only at low SNR and the conditioning
    # probability underflows only at high SNR, so on an ascending grid
    # evaluating the asymptotes first reports the first failing point.
    lines = [asymptotics.power_law(gain, d_exp, rho) for rho in snrs]
    rows = [(db, res.value, line) for db, (res,), line in zip(dbs, _bounds(cfg, snrs, [cfg.rate]), lines)]
    header = _header(cfg, [*_channel_fields(cfg, cfg.rate), ("cells", cfg.cells)])
    return _emit(cfg, header, ["snr_db", "p_out_lower", "asymptote"], rows)


def _run_exponent(cfg: RunConfig) -> int:
    """Singleton bound, optimal exponent, and random-coding exponents."""
    rates = _grid(cfg.rate_grid)
    ln2 = math.log(2.0)
    scales = [asymptotics.BlockLengthScale(v * cfg.m / (cfg.bits * ln2)) for v in cfg.lambda_scaled]

    def point(r: float) -> list:
        spec = _channel_spec(cfg, r)
        d_s = asymptotics.singleton_bound(cfg.blocks, cfg.bits, r)
        row = [r, d_s, asymptotics.optimal_exponent(spec)]
        row += [asymptotics.random_coding_exponent(spec, sc) for sc in scales]
        return row

    columns = ["rate", "d_singleton", "d_optimal"] + [f"d_random_lambda{v:g}" for v in cfg.lambda_scaled]
    return _emit(cfg, _header(cfg, _channel_fields(cfg, _grid_repr(cfg.rate_grid))), columns, [point(r) for r in rates])


def _run_mc(cfg: RunConfig) -> int:
    """Monte Carlo outage estimates across an SNR grid."""
    spec = _channel_spec(cfg)
    dbs = _grid(cfg.snr_db)
    # Points run in grid order; each spreads its sample chunks over --workers threads.
    kw = dict(n=cfg.samples, seed=cfg.seed, workers=cfg.workers)
    if cfg.mode == "outage":
        c = from_name(cfg.constellation)
        rule = hermite_rule(cfg.order)
        # One bracket table for the whole grid; the points only read it.
        table = montecarlo.BracketTable(c, rule, [Snr.from_db(db).rho for db in dbs], cfg.samples, spec)
        ests = [montecarlo.mc_outage(Snr.from_db(db), spec, c, rule, stream_id=i, table=table, **kw) for i, db in enumerate(dbs)]
    else:
        ests = [montecarlo.mc_lower_bound(Snr.from_db(db), spec, stream_id=i, **kw) for i, db in enumerate(dbs)]
    rows = [(db, e.p_hat, e.std_err, e.n_samples) for db, e in zip(dbs, ests)]
    fields = [("mode", cfg.mode), *_channel_fields(cfg, cfg.rate)]
    if cfg.mode == "outage":
        fields += [("constellation", cfg.constellation), ("order", cfg.order)]
    fields += [("samples", cfg.samples), ("seed", cfg.seed)]
    return _emit(cfg, _header(cfg, fields), ["snr_db", "p_hat", "std_err", "n"], rows)


def _run_mi(cfg: RunConfig) -> int:
    """Discrete-input mutual information across an SNR grid."""
    # One evaluator call over the whole grid: each value does not depend
    # on its batch.
    c = from_name(cfg.constellation)
    dbs = _grid(cfg.snr_db)
    vals = mi_discrete_array([Snr.from_db(db).rho for db in dbs], c, hermite_rule(cfg.order)).tolist()
    fields = [("constellation", cfg.constellation), ("order", cfg.order)]
    return _emit(cfg, _header(cfg, fields), ["rho_db", "mi_bits"], list(zip(dbs, vals)))


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
    """Start from defaults, apply the JSON config file, then CLI flags.

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
    _validate(cfg, file_values.keys() | flag_values.keys())
    return cfg


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _underflows(db: float) -> bool:
    """Whether the linear SNR of db dB rounds to 0 (a large db would overflow, not underflow)."""
    return db < 0 and 10.0 ** (db / 10.0) == 0.0


def _validate(cfg: RunConfig, given) -> None:
    """Exit 2 naming the first bad field; a config that passes runs without a usage error.

    given holds the fields set by a flag or a config key.
    """

    def need(name: str, ok: bool, msg: str) -> None:
        if not ok:
            raise click.UsageError(f"field '{name}': {msg}")

    for name in ("blocks", "bits", "order", "samples", "workers"):
        value = getattr(cfg, name)
        need(name, _is_int(value) and value >= 1, "must be a positive integer")
    need("cells", _is_int(cfg.cells) and cfg.cells >= 2, "must be an integer >= 2")
    need("seed", _is_int(cfg.seed) and 0 <= cfg.seed < 2**64, "must be an integer in [0, 2^64)")
    need("m", _is_real(cfg.m) and math.isfinite(cfg.m) and cfg.m > 0, "must be a positive finite real")
    need("rate", _is_real(cfg.rate), "must be a real number")
    need("snr_db_fixed", _is_real(cfg.snr_db_fixed) and math.isfinite(cfg.snr_db_fixed), "must be a finite real")
    need("lambda_scaled", all(_is_real(v) and v > 0 for v in cfg.lambda_scaled), "entries must be positive reals")
    need("per_term", isinstance(cfg.per_term, bool), "must be true or false")
    need("out", cfg.out is None or isinstance(cfg.out, str), "must be a file path")
    need("mode", cfg.mode in ("outage", "lowerbound"), "must be 'outage' or 'lowerbound'")
    if cfg.subcommand == "mc" and cfg.mode == "lowerbound":
        for name in ("constellation", "order"):
            need(name, name not in given, "mc reads it only in --mode outage")
    if cfg.subcommand == "mi" or (cfg.subcommand == "mc" and cfg.mode == "outage"):
        need("constellation", isinstance(cfg.constellation, str), "must be a name such as 'qam16'")
        try:
            bits = from_name(cfg.constellation).bits_per_symbol
        except ValueError as exc:
            raise click.UsageError(f"field 'constellation': {exc}")
        if cfg.subcommand == "mc":
            need("constellation", bits == cfg.bits, f"{cfg.constellation!r} carries {bits} bits, spec needs {cfg.bits}")
    if cfg.subcommand in ("curve", "asymptote", "mc"):
        need("rate", 0 < cfg.rate <= cfg.bits, f"must lie in (0, M={cfg.bits}]")
    # The bound needs rho > 0; mc and mi are right at rho = 0.
    if cfg.subcommand in ("curve", "asymptote"):
        need("snr_db", not _underflows(cfg.snr_db[0]), f"{_fmt_exact(cfg.snr_db[0])} dB is a linear SNR of 0")
    if cfg.subcommand == "ratesweep":
        need("snr_db_fixed", not _underflows(cfg.snr_db_fixed), f"{_fmt_exact(cfg.snr_db_fixed)} dB is a linear SNR of 0")
    if cfg.subcommand in ("ratesweep", "exponent"):
        lo, hi, _ = cfg.rate_grid
        need("rate_grid", 0 < lo and hi <= cfg.bits, f"grid must stay inside (0, M={cfg.bits}]")


# Every field a command can take: its flags and click settings.  The option's
# name is the field's name, which is also its key in a config file.
_OPTIONS = {
    "blocks": (["--blocks", "-B"], dict(type=int, help="Fading blocks per codeword B.")),
    "bits": (["--bits", "-M"], dict(type=int, help="Bits per symbol M (2^M-point input).")),
    "m": (["--m"], dict(type=float, help="Nakagami shape m (m=1 is Rayleigh).")),
    "cells": (["--cells"], dict(type=int, help="Grid cells over [0, M] for the tabulated pmf.")),
    "rate": (["--rate"], dict(type=float, help="Code rate R in bits per channel use.")),
    "rate_grid": (["--rate"], dict(type=str, help="Rate grid as start:stop:step.")),
    "snr_db": (["--snr-db"], dict(type=str, help="SNR grid in dB as start:stop:step.")),
    "snr_db_fixed": (["--snr-db-fixed"], dict(type=float, help="Fixed SNR in dB.")),
    "per_term": (["--per-term"], dict(is_flag=True, help="Append per-term cdf / weight columns.")),
    "lambda_scaled": (["--lambda-scaled"], dict(type=float, multiple=True, help="lambda M ln2 / m; repeat for extra columns.")),
    "samples": (["--samples"], dict(type=int, help="Monte Carlo samples per grid point.")),
    "seed": (["--seed"], dict(type=int, help="Explicit 64-bit seed, in [0, 2^64).")),
    "mode": (["--mode"], dict(type=click.Choice(["outage", "lowerbound"]), help="Estimate true outage or the capped-rate bound event.")),
    "constellation": (["--constellation"], dict(type=str, help=f"Signal set ({', '.join(KNOWN_NAMES)}); mc reads it in outage mode.")),
    "order": (["--order"], dict(type=int, help="Gauss-Hermite order per dimension; mc reads it in outage mode.")),
    "workers": (["--workers"], dict(type=int, help="Worker threads over each grid point's Monte Carlo sample chunks.")),
    "out": (["--out", "-o"], dict(type=click.Path(dir_okay=False), help="Output CSV path (default: stdout).")),
}

# Each command: the function that writes its CSV (whose docstring is the
# command's help) and the only fields it reads, so the only ones it takes.
_COMMANDS = {
    "curve": (_run_curve, "blocks bits m cells rate snr_db per_term out"),
    "ratesweep": (_run_ratesweep, "blocks bits m cells snr_db_fixed rate_grid out"),
    "asymptote": (_run_asymptote, "blocks bits m cells rate snr_db out"),
    "exponent": (_run_exponent, "blocks bits m rate_grid lambda_scaled out"),
    "mc": (_run_mc, "blocks bits m rate snr_db samples seed mode constellation order workers out"),
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
    runner, fields = _COMMANDS[name]

    def callback(config_path, **flags) -> None:
        sys.exit(run(_build_config(name, config_path, flags)))

    params = [click.Option([*_OPTIONS[f][0], f], default=None, **_OPTIONS[f][1]) for f in fields.split()]
    config_help = "JSON config file whose keys are this command's option names; explicit flags override it."
    params.append(click.Option(["--config", "config_path"], type=click.Path(exists=True, dir_okay=False), help=config_help))
    return click.Command(name, callback=callback, params=params, help=runner.__doc__)


for _name in _COMMANDS:
    main.add_command(_command(_name))


if __name__ == "__main__":
    main()
