import ast
import dataclasses
import math
import shutil
import subprocess
import sysconfig
from importlib.resources import files
from pathlib import Path

import pytest

import pidtucker
from pidtucker import (
    ConfigError,
    CsvSchema,
    ExperimentConfig,
    Hyperparams,
    PidGains,
    PidState,
    Ranks,
    RegWeights,
    SyntheticSpec,
    _kernel,
    generate_synthetic,
    init_factors,
    split,
)

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


def setting_rules(source: str) -> list[str]:
    """The text of each ConfigError a module builds that states the integer or the
    finite-real rule of a numeric setting, which errors._check_int and _check_real own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConfigError":
            text = "".join(n.value for arg in node.args for n in ast.walk(arg)
                           if isinstance(n, ast.Constant) and isinstance(n.value, str))
            if "must be an integer" in text or "must be finite" in text:
                found.append(text)
    return found


def test_only_errors_states_the_rule_of_a_numeric_setting():
    package = Path(pidtucker.__file__).parent
    found = {path.name: setting_rules(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert len(found.pop("errors.py")) == 2  # the owners, as the guard sees them
    assert {name: rules for name, rules in found.items() if rules} == {}
    assert setting_rules('if x < 1:\n    raise ConfigError(f"{x} must be finite, got")') == [
        " must be finite, got"]


# Settings whose numeric fields are walked, each with the other arguments it needs.
SETTINGS = [(Hyperparams, {}), (RegWeights, {}), (PidGains, {}), (Ranks, {}),
            (ExperimentConfig, {"hyper": Hyperparams()}), (CsvSchema, {}),
            (SyntheticSpec, {"dims": (6, 5, 8), "ranks": Ranks(2, 2, 2),
                             "observed_fraction": 0.5})]


def _tensor():
    return generate_synthetic(SyntheticSpec((6, 5, 8), Ranks(2, 2, 2), 0.5, seed=1))[0]


def composite_settings():
    """(cls, needed, name) for each field of a setting that holds a setting."""
    for cls, needed in SETTINGS:
        for fld in dataclasses.fields(cls):
            if fld.type in {c.__name__ for c, _ in SETTINGS}:
                yield pytest.param(cls, needed, fld.name, id=f"{cls.__name__}.{fld.name}")


@pytest.mark.parametrize("cls, needed, name", composite_settings())
def test_every_composite_setting_refuses_what_is_not_its_class(cls, needed, name):
    for bad in [None, "false", (2, 2, 2)]:
        with pytest.raises(ConfigError, match=f"^{name} must be a "):
            cls(**{**needed, name: bad})


def numeric_settings():
    """(build, kind, name): build(v) makes the setting with value v; kind is "int" or "float"."""
    for cls, needed in SETTINGS:
        for fld in dataclasses.fields(cls):
            kind = fld.type.split(" |")[0]  # "float | None": error_clamp, None when unset
            if kind in ("int", "float"):
                yield pytest.param(lambda v, cls=cls, name=fld.name, needed=needed:
                                   cls(**{**needed, name: v}), kind, fld.name,
                                   id=f"{cls.__name__}.{fld.name}")
    yield pytest.param(lambda v: split(_tensor(), (0.5, 0.2, 0.3), v), "int", "seed",
                       id="split.seed")
    yield pytest.param(lambda v: init_factors((2, 2, 2), Ranks(1, 1, 1), init_scale=v), "float",
                       "init_scale", id="init_factors.init_scale")
    yield pytest.param(lambda v: init_factors((2, 2, 2), Ranks(1, 1, 1), seed=v), "int", "seed",
                       id="init_factors.seed")
    yield pytest.param(PidState, "int", "n_entries", id="PidState.n_entries")


@pytest.mark.parametrize("build, kind, name", numeric_settings())
def test_every_numeric_setting_refuses_what_is_not_its_kind_of_number(build, kind, name):
    build(1 if kind == "int" else 0.5)
    for bad in [2.5 if kind == "int" else math.nan, True, "1"]:
        with pytest.raises(ConfigError, match=name):
            build(bad)


@pytest.mark.parametrize("text", ["out of bounds for dims", "_freeze("])
def test_only_sparse_states_the_rule_of_a_tensor(text):
    # The message for a cell outside dims, and the read-only arrays a SparseTensor keeps,
    # come from sparse.py alone; _kernel.c's own IndexError text is never shown.
    package = Path(pidtucker.__file__).parent
    found = [path.name for path in sorted(package.glob("*.py"))
             if text in path.read_text(encoding="utf-8")]
    assert found == ["sparse.py"]


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
