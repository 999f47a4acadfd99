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


def test_v_on_the_naturals_has_one_home():
    """v(m!) is read from `NatValuation.factorials`, and v(n) from calling a
    NatValuation: only `semiring` and `fields` bind v_p or v_p_factorial."""
    binders = [m for m in SUBMODULES if {"v_p", "v_p_factorial"} & set(
        vars(importlib.import_module(f"tropdiff.{m}")))]
    assert binders == ["fields", "semiring"]
