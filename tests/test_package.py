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
