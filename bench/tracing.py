"""Spans and counters recorded around tropdiff's public functions, from outside the program.

`Tracer.install()` replaces selected functions and methods of the imported
tropdiff modules with wrappers; `uninstall()` puts the originals back.  A
timed wrapper records a span (name, start, end, parent); a counted wrapper
only bumps a counter, which keeps hot leaf methods such as
`FieldElem.__mul__` cheap enough for the traced run to stay representative.
Calls whose inputs are hashable frozen values are also keyed on those inputs,
so that the ratio of distinct inputs to calls shows recomputation.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

from tropdiff.errors import TruncationAmbiguous

# (module, attribute) -> span name; "Class.method" attributes patch the class.
TIMED = {
    ("cli", "main"): "cli.main",
    ("files", "load_json"): "files.load",
    ("files", "system_from_dict"): "files.load",
    ("files", "candidate_from_dict"): "files.load",
    ("files", "series_from_dict"): "files.load",
    ("files", "trop_series_from_dict"): "files.load",
    ("files", "ode_from_dict"): "files.load",
    ("files", "dump_json"): "files.dump",
    ("files", "series_to_dict"): "files.dump",
    ("files", "trop_series_to_dict"): "files.dump",
    ("files", "candidate_to_dict"): "files.dump",
    ("files", "system_to_dict"): "files.dump",
    ("parser", "parse_poly"): "parser.parse",
    ("parser", "print_poly"): "parser.print",
    ("diffpoly", "DiffPoly.diff"): "diffpoly.diff",
    ("diffpoly", "derived_system"): "diffpoly.derived_system",
    ("diffpoly", "f_lr"): "diffpoly.f_lr",
    ("diffpoly", "eval_tropical"): "diffpoly.eval_tropical",
    ("diffpoly", "eval_classical"): "diffpoly.eval_classical",
    ("initial", "initial_form"): "initial.initial_form",
    ("initial", "initial_system_monomial_check"): "initial.monomial_check",
    ("verify", "solve_linear"): "verify.solve_linear",
    ("verify", "verify_ft"): "verify.verify_ft",
    ("verify", "reproduce_exponential_example"): "verify.reproduce_exponential_example",
    ("radius", "radius_from_rule"): "radius",
    ("radius", "radius_window_estimate"): "radius",
    ("radius", "fit_rule"): "radius",
    ("radius", "base_change"): "radius",
    ("radius", "classical_radius"): "radius",
    ("radius", "describe_radius"): "radius",
}

# (module, "Class.method") -> counter name; counted, never timed.
COUNTED = {
    ("fields", "FieldElem.__mul__"): "fields.mul_calls",
    ("fields", "FieldElem.__add__"): "fields.add_calls",
    ("fields", "FieldElem.__sub__"): "fields.add_calls",
    ("semiring", "TropNum.__add__"): "semiring.trop_ops",
    ("semiring", "TropNum.__mul__"): "semiring.trop_ops",
    ("semiring", "TropNum.__pow__"): "semiring.trop_ops",
    ("semiring", "Trop2.__add__"): "semiring.trop_ops",
    ("semiring", "Trop2.__mul__"): "semiring.trop_ops",
    ("semiring", "Trop2.__pow__"): "semiring.trop_ops",
    ("series", "PowerSeries.__mul__"): "series.mul_calls",
    ("series", "PowerSeries.derivative"): "series.derivative_calls",
    ("series", "TropSeries.diff"): "series.trop_diff_calls",
}

# Counters whose calls are also keyed on their (frozen, hashable) receiver.
KEYED = {"diffpoly.diff", "series.trop_diff_calls"}
# Calls whose PowerSeries result is scanned for the largest Fraction.
BITS = {"series.mul_calls", "series.derivative_calls", "verify.solve_linear"}

COUNTED_SPANS = {"diffpoly.diff": "diffpoly.diff_calls",
                 "diffpoly.eval_tropical": "diffpoly.eval_tropical_calls",
                 "initial.initial_form": "initial.initial_form_calls"}


def max_bits(series) -> int:
    return max((max(q.numerator.bit_length(), q.denominator.bit_length())
                for c in series.coeffs for q in c.coeffs), default=0)


class Tracer:
    """In-memory spans and counters; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.max_bits = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTED_SPANS.get(name)
        keyed = self.keys[name] if name in KEYED else None

        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            if keyed is not None:
                keyed.add(args[0])
            index = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except TruncationAmbiguous:
                if name == "initial.initial_form":
                    counts["initial.ambiguous_count"] += 1
                raise
            finally:
                spans[index][2] = time.perf_counter_ns()
                stack.pop()
            self._observe(name, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        keyed = self.keys[name] if name in KEYED else None
        if name in BITS:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                self._observe(name, result)
                return result
        elif keyed is not None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                keyed.add(args[0])
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _observe(self, name, result):
        if name in BITS:
            self.max_bits = max(self.max_bits, max_bits(result))
        elif name == "diffpoly.diff":
            self.counts["diffpoly.terms_out"] += len(result.terms)

    # -- patching -----------------------------------------------------------

    def install(self):
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for (module, attr), name in table.items():
                mod = importlib.import_module(f"tropdiff.{module}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    self._set(cls, meth, make(name, original), original)
                else:
                    original = getattr(mod, attr)
                    wrapper = make(name, original)
                    # Other modules hold their own references from `from x import y`.
                    for other in [m for n, m in sys.modules.items()
                                  if n == "tropdiff" or n.startswith("tropdiff.")]:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._set(other, key, wrapper, original)

    def _set(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name.

        Inclusive time counts only spans with no ancestor of the same name, so
        nested calls of one layer are not counted twice.  Self time is a
        span's duration minus the durations of its direct children.
        """
        inclusive, own = defaultdict(float), defaultdict(float)
        children = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            own[name] += (end - start - children[index]) / 1e9
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += (end - start) / 1e9
        return inclusive, own

    def useful(self, name: str) -> tuple[int, int]:
        """(distinct inputs, calls) of a keyed call."""
        calls = self.counts[COUNTED_SPANS.get(name, name)]
        return len(self.keys[name]), calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")
