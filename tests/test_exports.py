"""Every public name the package advertises resolves, and the README example runs."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import nakfade

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(nakfade.__path__) if not info.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"nakfade.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(nakfade.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(nakfade, n)] == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"## Library example\s+```python\n(.*?)```", readme, re.S)
    assert match, "README has no Library example block"
    exec(compile(match.group(1), "README.md", "exec"), {})
