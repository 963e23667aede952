"""Every public name the package advertises resolves, and the README examples run."""

import ast
import importlib
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
