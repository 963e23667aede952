"""nakfade command line: CSV-emitting front end for the outage machinery.

Every subcommand writes a CSV whose first line is a `#` metadata comment
echoing the resolved parameters, so outputs are self-describing and safe to
diff across runs.  All randomness is driven by an explicit --seed (there is
deliberately no environment-variable override); re-running a command with
the same configuration reproduces the output byte for byte.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
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
        # none of them by 1e-6; mc runs one quadrature per sample, where the
        # library's cheaper MC_QUAD_ORDER keeps the quadrature bias far
        # below the Monte Carlo noise.
        if self.order is None:
            self.order = montecarlo.MC_QUAD_ORDER if self.subcommand == "mc" else DEFAULT_ORDER


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _grid(spec3: tuple) -> list:
    start, stop, step = spec3
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]


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
    if step <= 0:
        raise click.UsageError(f"field '{name}': step must be positive, got {step}")
    if stop < start:
        raise click.UsageError(f"field '{name}': stop must be >= start in {value!r}")
    return (start, stop, step)


def _channel_spec(cfg: RunConfig, rate: float | None = None) -> bound.ChannelSpec:
    r = cfg.rate if rate is None else rate
    try:
        return bound.ChannelSpec(cfg.blocks, cfg.bits, NakagamiParam(cfg.m), r)
    except ValueError as exc:
        msg = str(exc)
        for name, needle in (("blocks", "block"), ("bits", "bit per symbol"), ("m", "shape"), ("rate", "rate")):
            if needle in msg:
                raise click.UsageError(f"field '{name}': {msg}")
        raise click.UsageError(msg)


def _pmap(workers: int, fn, items: list) -> list:
    """Map preserving item order; grid points are independent work units."""
    if workers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _header(cfg: RunConfig, fields: list) -> str:
    """Metadata comment: the subcommand and every parameter its numbers depend on."""
    return " ".join([f"# nakfade {cfg.subcommand}"] + [f"{k}={_fmt(v)}" for k, v in fields])


def _bound_fields(cfg: RunConfig, rate, *extra) -> list:
    """Header fields of the analytical commands: channel, extras, cells, seed."""
    return [("B", cfg.blocks), ("M", cfg.bits), ("m", cfg.m), ("R", rate), *extra, ("cells", cfg.cells), ("seed", cfg.seed)]


def _grid_repr(spec3: tuple) -> str:
    return ":".join(_fmt(v) for v in spec3)


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
        return _DISPATCH[config.subcommand](config)
    except (ArithmeticError, FloatingPointError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)


def _run_curve(cfg: RunConfig) -> int:
    spec = _channel_spec(cfg)
    dbs = _grid(cfg.snr_db)
    results = _pmap(cfg.workers, lambda db: bound.outage_lower_bound(Snr.from_db(db), spec, cfg.cells), dbs)
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
    return _emit(cfg, _header(cfg, _bound_fields(cfg, cfg.rate)), columns, rows)


def _run_ratesweep(cfg: RunConfig) -> int:
    # One SNR, so every rate reads the same pmf and convolution powers:
    # a single evaluator call in this thread, whatever cfg.workers says.
    rates = _grid(cfg.rate_grid)
    for r in rates:
        _channel_spec(cfg, r)  # a grid point past M is a usage error naming the field
    results = bound.outage_lower_bounds(Snr.from_db(cfg.snr_db_fixed), cfg.blocks, cfg.bits, NakagamiParam(cfg.m), rates, cfg.cells)
    header = _header(cfg, _bound_fields(cfg, _grid_repr(cfg.rate_grid), ("snr_db", cfg.snr_db_fixed)))
    return _emit(cfg, header, ["rate", "p_out_lower"], [(r, res.value) for r, res in zip(rates, results)])


def _run_asymptote(cfg: RunConfig) -> int:
    spec = _channel_spec(cfg)
    dbs = _grid(cfg.snr_db)
    gain = asymptotics.coding_gain(spec, cfg.cells)
    d_exp = spec.fading.m * asymptotics.singleton_bound(spec.B, spec.M, spec.rate)

    def point(db: float) -> tuple:
        rho = Snr.from_db(db)
        return (db, bound.outage_lower_bound(rho, spec, cfg.cells).value, gain * rho.rho**-d_exp)

    return _emit(cfg, _header(cfg, _bound_fields(cfg, cfg.rate)), ["snr_db", "p_out_lower", "asymptote"], _pmap(cfg.workers, point, dbs))


def _run_exponent(cfg: RunConfig) -> int:
    rates = _grid(cfg.rate_grid)
    ln2 = math.log(2.0)
    scales = [asymptotics.BlockLengthScale(v * cfg.m / (cfg.bits * ln2)) for v in cfg.lambda_scaled]

    def point(r: float) -> list:
        spec = _channel_spec(cfg, r)
        d_s = asymptotics.singleton_bound(cfg.blocks, cfg.bits, r)
        opt = asymptotics.optimal_exponent(spec)
        row = [r, d_s, opt.value]
        row += [asymptotics.random_coding_exponent(spec, sc) for sc in scales]
        return row

    columns = ["rate", "d_singleton", "d_optimal"] + [f"d_random_lambda{v:g}" for v in cfg.lambda_scaled]
    return _emit(cfg, _header(cfg, _bound_fields(cfg, _grid_repr(cfg.rate_grid))), columns, _pmap(cfg.workers, point, rates))


def _run_mc(cfg: RunConfig) -> int:
    spec = _channel_spec(cfg)
    dbs = _grid(cfg.snr_db)
    if cfg.mode == "outage":
        c = from_name(cfg.constellation)
        if c.bits_per_symbol != cfg.bits:
            raise click.UsageError(f"field 'constellation': {cfg.constellation!r} carries {c.bits_per_symbol} bits, spec needs {cfg.bits}")
        rule = hermite_rule(cfg.order)

        def point(idx_db: tuple) -> object:
            idx, db = idx_db
            return montecarlo.mc_outage(Snr.from_db(db), spec, c, rule, n=cfg.samples, seed=cfg.seed, stream_id=idx)

    else:

        def point(idx_db: tuple) -> object:
            idx, db = idx_db
            return montecarlo.mc_lower_bound(Snr.from_db(db), spec, n=cfg.samples, seed=cfg.seed, stream_id=idx)

    ests = _pmap(cfg.workers, point, list(enumerate(dbs)))
    rows = [(db, e.p_hat, e.std_err, e.n_samples) for db, e in zip(dbs, ests)]
    fields = [("mode", cfg.mode), ("B", cfg.blocks), ("M", cfg.bits), ("m", cfg.m), ("R", cfg.rate)]
    if cfg.mode == "outage":
        fields += [("constellation", cfg.constellation), ("order", cfg.order)]
    fields += [("samples", cfg.samples), ("seed", cfg.seed)]
    return _emit(cfg, _header(cfg, fields), ["snr_db", "p_hat", "std_err", "n"], rows)


def _run_mi(cfg: RunConfig) -> int:
    c = from_name(cfg.constellation)
    rule = hermite_rule(cfg.order)
    dbs = _grid(cfg.snr_db)
    vals = _pmap(cfg.workers, lambda db: float(mi_discrete_array([Snr.from_db(db).rho], c, rule)[0]), dbs)
    fields = [("constellation", cfg.constellation), ("order", cfg.order)]
    return _emit(cfg, _header(cfg, fields), ["rho_db", "mi_bits"], list(zip(dbs, vals)))


_DISPATCH = {
    "curve": _run_curve,
    "ratesweep": _run_ratesweep,
    "asymptote": _run_asymptote,
    "exponent": _run_exponent,
    "mc": _run_mc,
    "mi": _run_mi,
}

_FIELDS = {f for f in RunConfig.__dataclass_fields__ if f != "subcommand"}


def _load_config(path: str | None) -> dict:
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
        if key not in _FIELDS:
            raise click.UsageError(f"field '{key}': unknown configuration field")
    return data


def _build_config(subcommand: str, config_path: str | None, flags: dict) -> RunConfig:
    """Start from defaults, apply the JSON config file, then CLI flags."""
    cfg = RunConfig(subcommand=subcommand)
    file_values = _load_config(config_path)
    for source in (file_values, {k: v for k, v in flags.items() if v is not None}):
        for key, value in source.items():
            if key in ("snr_db", "rate_grid"):
                value = _parse_grid(value, key)
            elif key == "lambda_scaled":
                value = tuple(float(v) for v in value) if not isinstance(value, (int, float)) else (float(value),)
            setattr(cfg, key, value)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    checks = [
        ("blocks", cfg.blocks >= 1, "must be a positive integer"),
        ("bits", cfg.bits >= 1, "must be a positive integer"),
        ("m", isinstance(cfg.m, (int, float)) and math.isfinite(cfg.m) and cfg.m > 0, "must be a positive finite real"),
        ("cells", cfg.cells >= 2, "must be at least 2"),
        ("order", cfg.order >= 1, "must be a positive integer"),
        ("samples", cfg.samples >= 1, "must be a positive integer"),
        ("workers", cfg.workers >= 1, "must be a positive integer"),
        ("mode", cfg.mode in ("outage", "lowerbound"), "must be 'outage' or 'lowerbound'"),
        ("seed", isinstance(cfg.seed, int), "must be an integer"),
    ]
    if cfg.subcommand in ("curve", "asymptote", "mc"):
        checks.append(("rate", 0 < cfg.rate <= cfg.bits, f"must lie in (0, M={cfg.bits}]"))
    if cfg.subcommand in ("ratesweep", "exponent"):
        lo, hi, _ = cfg.rate_grid
        checks.append(("rate_grid", 0 < lo and hi <= cfg.bits, f"grid must stay inside (0, M={cfg.bits}]"))
    if cfg.subcommand == "exponent":
        checks.append(("lambda_scaled", all(v > 0 for v in cfg.lambda_scaled), "entries must be positive"))
    for name, ok, msg in checks:
        if not ok:
            raise click.UsageError(f"field '{name}': {msg}")


_shared = [
    click.option("--blocks", "-B", "blocks", type=int, default=None, help="Fading blocks per codeword B."),
    click.option("--bits", "-M", "bits", type=int, default=None, help="Bits per symbol M (2^M-point input)."),
    click.option("--m", "m", type=float, default=None, help="Nakagami shape m (m=1 is Rayleigh)."),
    click.option("--cells", type=int, default=None, help="Grid cells over [0, M] for the tabulated pmf."),
    click.option("--workers", type=int, default=None, help="Worker threads over grid points (ratesweep runs in one thread)."),
    click.option("--out", "-o", "out", type=click.Path(dir_okay=False), default=None, help="Output CSV path (default: stdout)."),
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config file; explicit flags override it."),
]


def _with_shared(fn):
    for opt in reversed(_shared):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="nakfade")
def main() -> None:
    """Outage lower bounds for discrete-input Nakagami-m block-fading channels.

    dB convention: linear SNR rho = 10^(dB/10) (power ratio).  All commands
    take an explicit --seed where randomness is involved; environment
    overrides are intentionally unsupported.
    """


@main.command()
@_with_shared
@click.option("--rate", type=float, default=None, help="Code rate R in bits per channel use.")
@click.option("--snr-db", "snr_db", type=str, default=None, help="SNR grid in dB as start:stop:step.")
@click.option("--per-term", "per_term", is_flag=True, default=None, help="Append per-term cdf / weight columns.")
def curve(config_path, **flags) -> None:
    """Outage lower bound across an SNR grid."""
    sys.exit(run(_build_config("curve", config_path, flags)))


@main.command()
@_with_shared
@click.option("--snr-db-fixed", "snr_db_fixed", type=float, default=None, help="Fixed SNR in dB.")
@click.option("--rate", "rate_grid", type=str, default=None, help="Rate grid as start:stop:step.")
def ratesweep(config_path, **flags) -> None:
    """Outage lower bound across a rate grid at fixed SNR."""
    sys.exit(run(_build_config("ratesweep", config_path, flags)))


@main.command()
@_with_shared
@click.option("--rate", type=float, default=None, help="Code rate R in bits per channel use.")
@click.option("--snr-db", "snr_db", type=str, default=None, help="SNR grid in dB as start:stop:step.")
def asymptote(config_path, **flags) -> None:
    """Outage lower bound next to its high-SNR power-law asymptote."""
    sys.exit(run(_build_config("asymptote", config_path, flags)))


@main.command()
@_with_shared
@click.option("--rate", "rate_grid", type=str, default=None, help="Rate grid as start:stop:step.")
@click.option("--lambda-scaled", "lambda_scaled", type=float, multiple=True, default=None, help="lambda M ln2 / m; repeat for extra columns.")
def exponent(config_path, **flags) -> None:
    """Singleton bound, optimal exponent, and random-coding exponents."""
    if flags.get("lambda_scaled") == ():
        flags["lambda_scaled"] = None
    sys.exit(run(_build_config("exponent", config_path, flags)))


@main.command()
@_with_shared
@click.option("--rate", type=float, default=None, help="Code rate R in bits per channel use.")
@click.option("--snr-db", "snr_db", type=str, default=None, help="SNR grid in dB as start:stop:step.")
@click.option("--samples", type=int, default=None, help="Monte Carlo samples per grid point.")
@click.option("--seed", type=int, default=None, help="Explicit 64-bit seed.")
@click.option("--mode", type=click.Choice(["outage", "lowerbound"]), default=None, help="Estimate true outage or the capped-rate bound event.")
@click.option("--constellation", type=str, default=None, help=f"Signal set for outage mode ({', '.join(KNOWN_NAMES)}).")
@click.option("--order", type=int, default=None, help="Gauss-Hermite order per dimension for outage mode.")
def mc(config_path, **flags) -> None:
    """Monte Carlo outage estimates across an SNR grid."""
    sys.exit(run(_build_config("mc", config_path, flags)))


@main.command()
@_with_shared
@click.option("--constellation", type=str, default=None, help=f"Signal set ({', '.join(KNOWN_NAMES)}).")
@click.option("--snr-db", "snr_db", type=str, default=None, help="SNR grid in dB as start:stop:step.")
@click.option("--order", type=int, default=None, help="Gauss-Hermite order per dimension.")
def mi(config_path, **flags) -> None:
    """Discrete-input mutual information across an SNR grid."""
    sys.exit(run(_build_config("mi", config_path, flags)))


if __name__ == "__main__":
    main()
