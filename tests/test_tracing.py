"""The benchmark's tracer still finds every function and method it wraps.

bench/tracing.py patches tropdiff from outside, by (module, attribute)
name, so a rename inside tropdiff would break `bench/run.py --trace 1`.
"""

import importlib
from collections import Counter
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


GOLDEN = Path(__file__).resolve().parent / "golden"


def traced_counts(monkeypatch, capsys, argv):
    """(exit code, tracer counts, spans per name) of one `cli.main` run under
    the bench tracer."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tropdiff import cli
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return code, tracer.counts, Counter(name for name, *_ in tracer.spans)


def test_traced_counts_of_initial(monkeypatch, capsys):
    """`initial` evaluates each of the 10 derived equations once and reads
    one initial form off each report."""
    code, counts, _ = traced_counts(monkeypatch, capsys, [
        "initial", "--system", str(GOLDEN / "sys.json"),
        "--candidate", str(GOLDEN / "cand.json"), "--order", "9"])
    assert code == 0
    assert counts["diffpoly.eval_tropical_calls"] == 10
    assert counts["initial.initial_form_calls"] == 10


def test_traced_counts_of_selftest(monkeypatch, capsys):
    """`selftest --p 3` evaluates its 10 derived equations once; the
    initial-form step and the monomial check read 1 + 10 initial forms."""
    code, counts, _ = traced_counts(monkeypatch, capsys, ["selftest", "--p", "3"])
    assert code == 0
    assert counts["diffpoly.eval_tropical_calls"] == 10
    assert counts["initial.initial_form_calls"] == 11


def test_traced_products_of_selftest(monkeypatch, capsys):
    """`selftest --p 3` solves and certifies one oracle: x' is compared with
    g*x degree by degree, so g*x is the only series product, and no classical
    evaluation runs."""
    code, counts, spans = traced_counts(monkeypatch, capsys, ["selftest", "--p", "3"])
    assert code == 0
    assert counts["series.mul_calls"] == 1
    assert spans["verify.solve_linear"] == 1
    assert spans["diffpoly.eval_classical"] == 0


def test_traced_products_of_verify_ft(monkeypatch, capsys):
    """One series product per ODE: g*x in the residual of its solution."""
    code, counts, spans = traced_counts(monkeypatch, capsys,
                                        ["verify-ft", "--p", "3", "--count", "5"])
    assert code == 0
    assert counts["series.mul_calls"] == 5
    assert spans["verify.solve_linear"] == 5


def test_traced_ambiguous_initial(monkeypatch, capsys):
    code, counts, _ = traced_counts(monkeypatch, capsys, [
        "initial", "--system", str(GOLDEN / "sys-ambiguous.json"),
        "--candidate", str(GOLDEN / "cand-ambiguous.json"), "--order", "4"])
    assert code == 1
    assert counts["initial.ambiguous_count"] == 1
