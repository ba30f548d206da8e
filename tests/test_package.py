import ast
import shutil
import subprocess
import sysconfig
from importlib.resources import files
from pathlib import Path

import pytest

import pidtucker
from pidtucker import _kernel

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_public_name_resolves():
    missing = [name for name in pidtucker.__all__ if not hasattr(pidtucker, name)]
    assert missing == []


def unused_imports(source: str, exported=()) -> list[str]:
    """Names a module imports (at any depth) and never reads; exported names count as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported)
    return [name for name in imported if name not in used]


def test_every_module_uses_what_it_imports():
    package = Path(pidtucker.__file__).parent
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8"),
                                        pidtucker.__all__ if path.name == "__init__.py" else ())
              for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
    assert unused_imports("import os\nimport time\nfrom . import x as y\nos.sep") == ["time", "y"]


def test_kernel_source_ships_with_the_package():
    assert files("pidtucker").joinpath("_kernel.c").is_file()
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    assert "_kernel.c" in config["tool"]["setuptools"]["package-data"]["pidtucker"]


def python_include():
    """The Python headers' directory; skips the test without them or without gcc."""
    include = sysconfig.get_path("include")
    if shutil.which("gcc") is None or not Path(include, "Python.h").is_file():
        pytest.skip("gcc or the Python headers are not installed")
    return include


def test_kernel_compiles_without_warnings(tmp_path):
    # At the shipped flags, not -fsyntax-only: gcc gives some warnings
    # (-Wmaybe-uninitialized, -Warray-bounds, -Wstringop-overflow) only when
    # it optimizes.
    include = python_include()
    source = files("pidtucker").joinpath("_kernel.c")
    proc = subprocess.run([*_kernel._COMPILE, "-Wall", "-Wextra", "-Werror", "-I", include,
                           "-x", "c", str(source), "-o", str(tmp_path / "kernel.so")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_the_kernel_loads_wherever_it_can_be_built(tmp_path, monkeypatch):
    # Without this, a kernel that compiles but fails to load skips every
    # kernel test, and every run silently takes the reference path.
    python_include()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernel, "_tried", False)
    monkeypatch.setattr(_kernel, "_lib", None)
    lib = _kernel.library()
    assert lib is not None
    # What _Handle binds and write_records_csv calls.
    called = ["value", "step", "values", "sums", "records"]
    assert [name for name in called if not callable(getattr(lib, name, None))] == []
