"""Each module imports on its own; the package itself re-exports nothing."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropdiff

PACKAGE = Path(tropdiff.__file__).resolve().parent
SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})


def test_every_module_is_listed():
    assert len(SUBMODULES) == 11


@pytest.mark.parametrize("module", SUBMODULES)
def test_module_imports_alone(module):
    proc = _run(f"import tropdiff.{module}")
    assert proc.returncode == 0, proc.stderr


def test_package_binds_no_public_name():
    proc = _run("import tropdiff; print(sorted(n for n in vars(tropdiff) if not n.startswith('_')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_imports_without_dataclasses():
    """The value types are plain classes with slots: building 19 dataclasses
    once cost more than half of the import."""
    proc = _run("import sys, tropdiff.cli; print('dataclasses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_v_on_the_naturals_has_one_home():
    """v(n) is read from calling a NatValuation, and v(m!) from
    `NatValuation.factorials`: only `semiring` and `fields` bind v_p, and only
    `semiring` defines a `factorials`, as a function or in a class."""
    modules = {m: importlib.import_module(f"tropdiff.{m}") for m in SUBMODULES}

    def defines_factorials(module) -> bool:
        own = [c for c in vars(module).values()
               if isinstance(c, type) and c.__module__ == module.__name__]
        return "factorials" in vars(module) or any("factorials" in vars(c) for c in own)

    assert [m for m, module in modules.items() if "v_p" in vars(module)] == ["fields", "semiring"]
    assert [m for m, module in modules.items() if defines_factorials(module)] == ["semiring"]
