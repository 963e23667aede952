"""Every public name the package advertises resolves, and the README examples run."""

import ast
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

import nakfade
from nakfade.cli import main

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(nakfade.__path__) if not info.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"nakfade.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_fading_exports_leave_out_the_uncalled_reg_gamma_p():
    # bench/tracing.py wraps bound.reg_gamma_p, so the function and bound's import stay.
    from nakfade import bound, fading

    assert "reg_gamma_p" not in fading.__all__
    assert bound.reg_gamma_p is fading.reg_gamma_p


# Only the benchmark calls these (bench/run.py and bench/tracing.py), so they stay module attributes outside the API.
BENCH_ONLY = {"BoundResult": "bound", "outage_lower_bound": "bound", "mc_outage": "montecarlo", "mc_lower_bound": "montecarlo"}


def test_every_exported_estimator_takes_a_grid():
    # An estimator takes an SNR; each the package exports takes a grid of them first.
    estimators = {name: list(inspect.signature(obj).parameters) for name, obj in vars(nakfade).items() if inspect.isfunction(obj)}
    estimators = {name: params for name, params in estimators.items() if {"snr", "snrs"} & set(params)}
    assert sorted(estimators) == ["asymptotes", "mc_lower_bounds", "mc_outages", "outage_lower_bounds"]
    assert all(params[0] == "snrs" for params in estimators.values())


def test_no_module_uses_the_bench_only_names():
    # The one-point forms and BoundResult are named only inside their own definitions.
    outside = []
    for path in sorted(Path(nakfade.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.ClassDef)) and fn.name in BENCH_ONLY for node in ast.walk(fn)}
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
            if name in BENCH_ONLY and id(node) not in inside:
                outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []


def test_bench_only_names_leave_the_api():
    exported = set(dir(nakfade)).union(*(getattr(importlib.import_module(f"nakfade.{m}"), "__all__", ()) for m in MODULES))
    assert not set(BENCH_ONLY) & exported
    assert all(hasattr(importlib.import_module(f"nakfade.{module}"), name) for name, module in BENCH_ONLY.items())


def test_bench_one_point_forms_give_the_grid_values():
    # bench/oracle.py's checks read outage_lower_bound(...).value, and bench/run.py passes mc_outage its rule as the 4th argument.
    from nakfade import bound, montecarlo

    spec, snr = nakfade.ChannelSpec(4, 4, nakfade.NakagamiParam(0.5), 2.5), nakfade.Snr.from_db(9.0)
    value = bound.outage_lower_bound(snr, spec).value
    assert type(value) is float and value == nakfade.outage_lower_bounds([snr], 4, 4, spec.fading, [0.5, 2.5, 4.0])[0][1]
    c, rule = nakfade.from_name("qam16"), nakfade.hermite_rule(montecarlo.MC_QUAD_ORDER)
    assert list(inspect.signature(montecarlo.mc_outage).parameters)[:4] == ["snr", "spec", "c", "q"]
    assert montecarlo.mc_outage(snr, spec, c, rule, n=5000, seed=3, workers=2) == nakfade.mc_outages([snr], spec, c, rule, n=5000, seed=3)[0]
    assert montecarlo.mc_lower_bound(snr, spec, n=5000, seed=3) == nakfade.mc_lower_bounds([snr], spec, n=5000, seed=3)[0]


def test_package_imports_resolve():
    tree = ast.parse(Path(nakfade.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(nakfade, n)] == []


def test_pyproject_version_matches_package():
    # A regex, not tomllib: Python 3.10 has no TOML reader.
    match = re.search(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert match, "pyproject.toml has no version line"
    assert match.group(1) == nakfade.__version__


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"## Library example\s+```python\n(.*?)```", readme, re.S)
    assert match, "README has no Library example block"
    exec(compile(match.group(1), "README.md", "exec"), {})


def readme_cli_examples():
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S)
    return [line for line in match.group(1).splitlines() if line.startswith("nakfade ")] if match else []


def test_readme_has_cli_examples():
    assert readme_cli_examples()


@pytest.mark.parametrize("line", readme_cli_examples())
def test_readme_cli_example_runs(line):
    args = shlex.split(line)[1:]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    first = res.output.splitlines()[0]
    assert first.startswith(f"# nakfade {args[0]} ")
    assert first.endswith(f" version={nakfade.__version__}")


KERNEL_CALLS = {"tilt", "convolve_power", "cdf_Y_at"}
KERNEL_LIMITS = {"_LOG_UNTILTED", "_RESOLVED"}


def test_one_kernel_read():
    # Every tilt -> convolve_power -> cdf_Y_at chain, and every read of the
    # untilted-power and resolution limits, lies inside bound._log_cdf_sum.
    outside = []
    for path in sorted(Path(nakfade.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == ("bound.py", "_log_cdf_sum") for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id if node.id in KERNEL_LIMITS else None
            else:
                continue
            if name in KERNEL_CALLS | KERNEL_LIMITS and id(node) not in inside:
                outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []
    assert all(hasattr(nakfade.bound, name) for name in KERNEL_CALLS)


def test_one_asymptote_evaluator():
    # Only asymptotics.asymptotes forms K, calling coding_gain by its module
    # name, so a wrapper of asymptotics.coding_gain sees every call.
    inside, outside = [], []
    for path in sorted(Path(nakfade.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        evaluator = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == ("asymptotics.py", "asymptotes") for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "coding_gain":
                (inside if id(node) in evaluator else outside).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr == "coding_gain":
                outside.append(f"{path.name}:{node.lineno}")
    assert outside == [] and len(inside) == 1
    assert not {"power_law", "asymptote", "BlockLengthScale"} & (set(dir(nakfade.asymptotics)) | set(dir(nakfade)))


def test_asymptotics_knows_no_lattice_geometry():
    # Whether any n-fold sum of the lattice reaches a read, which picks the
    # message of a zero read, is decided in bound._zero_read: asymptotics
    # reads no grid step.
    tree = ast.parse(Path(nakfade.asymptotics.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "grid_step"] == []
