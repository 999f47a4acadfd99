"""The benchmark's tracer still finds every function and method it wraps.

bench/tracing.py patches tropdiff from outside, by (module, attribute)
name, so a rename inside tropdiff would break `bench/run.py --trace 1`.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def current(module: str, attr: str):
    """What tropdiff holds now under a tracer target name."""
    mod = importlib.import_module(f"tropdiff.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name).__dict__[meth]
    return getattr(mod, attr)


def test_tracer_patches_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    targets = [*tracing.TIMED, *tracing.COUNTED]
    originals = {t: current(*t) for t in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [t for t in targets if current(*t) is not originals[t]]
    finally:
        tracer.uninstall()
    assert patched == targets
    assert [t for t in targets if current(*t) is not originals[t]] == []
