import shutil
import subprocess
import sysconfig
from importlib.resources import files
from pathlib import Path

import pytest

import pidtucker

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_public_name_resolves():
    missing = [name for name in pidtucker.__all__ if not hasattr(pidtucker, name)]
    assert missing == []


def test_kernel_source_ships_with_the_package():
    assert files("pidtucker").joinpath("_kernel.c").is_file()
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    assert "_kernel.c" in config["tool"]["setuptools"]["package-data"]["pidtucker"]


def test_kernel_compiles_without_warnings():
    include = sysconfig.get_path("include")
    if shutil.which("gcc") is None or not Path(include, "Python.h").is_file():
        pytest.skip("gcc or the Python headers are not installed")
    source = files("pidtucker").joinpath("_kernel.c")
    proc = subprocess.run(["gcc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", "-I", include,
                           "-x", "c", str(source)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
