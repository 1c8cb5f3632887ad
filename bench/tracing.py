"""Spans around the public functions of each dioph6 module.

The tracer replaces every public module-level function of the seven
layers, and the public methods of ``Curve``, with a wrapper that records a
span (name, group, start, end, parent) in memory.  Modules that did
``from .exactnum import sqrt_exact`` hold their own reference, so the
wrapper is bound under every name in every dioph6 module that refers to
the original.  Private helpers stay unwrapped and count towards their
caller.

A span opens only where control enters a new group: a group is a named
part of a layer (``exactnum.sqrt_exact``, ``weierstrass.mul``, ...), and a
public function without a group of its own belongs to the group of the
caller when the caller is in the same module, else to its module.  So
``is_prime`` inside ``vp`` is vp time, and ``map_w`` inside
``triple_from_multiple`` is triple-extraction time.  A group's self time
is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

from oracle import height_digits

LAYERS = ("exactnum", "weierstrass", "family", "sextuple_engine", "paramfam", "reduction_lab", "cli")

GROUPS = {
    "exactnum.isqrt": "exactnum.sqrt_exact",
    "exactnum.is_square": "exactnum.sqrt_exact",
    "exactnum.sqrt_exact": "exactnum.sqrt_exact",
    "exactnum.factorize": "exactnum.factor",
    "exactnum.odd_prime_divisors": "exactnum.factor",
    "exactnum.is_squarefree": "exactnum.factor",
    "exactnum.vp": "exactnum.vp",
    "exactnum.mod_p": "exactnum.vp",
    "exactnum.format_rat": "exactnum.text",
    "exactnum.parse_rat": "exactnum.text",
    "weierstrass.Curve.add": "weierstrass.add",
    "weierstrass.Curve.mul": "weierstrass.mul",
    "family.triple_from_multiple": "family.triple",
    "sextuple_engine.extend_to_sextuple": "sextuple_engine.extend",
    "sextuple_engine.verify_tuple": "sextuple_engine.verify",
    "paramfam.family_point": "paramfam.family_point",
    "reduction_lab.classify": "reduction_lab.classify",
    "reduction_lab.p_minimal_model": "reduction_lab.classify",
    "reduction_lab.valuation_table": "reduction_lab.tables",
    "reduction_lab.mod3_sign_table": "reduction_lab.tables",
    "reduction_lab.nonsingular_residues": "reduction_lab.tables",
}


def _point_digits(pt) -> int:
    return 0 if pt.x is None else max(height_digits(pt.x), height_digits(pt.y))


def _text_digits(text: str) -> int:
    return max(len(part) for part in text.lstrip("-").split("/"))


class Tracer:
    """Records spans and counters while installed; ``install`` and
    ``uninstall`` swap the wrappers in and out of the dioph6 modules."""

    def __init__(self):
        self.spans: list[list] = []  # [name, group, start, end, parent index]
        self.stack: list[tuple[int, str, str]] = []  # (span index, module, group)
        self.counts: Counter = Counter()  # k_sum of mul, pairs and squares of verify_tuple
        self.errors: Counter = Counter()  # (group, exception type) at group entry
        self.max_coord_digits = 0
        self.max_text_digits = 0
        self._bindings: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        if name == "weierstrass.Curve.mul":
            self.counts["mul.k_sum"] += abs(args[1])
            self.max_coord_digits = max(self.max_coord_digits, _point_digits(result))
        elif name == "weierstrass.Curve.add":
            self.max_coord_digits = max(self.max_coord_digits, _point_digits(result))
        elif name == "sextuple_engine.verify_tuple":
            self.counts["verify.pairs"] += len(result.pair_results)
            self.counts["verify.squares"] += sum(1 for w in result.pair_results if w.ok)
        elif name == "exactnum.format_rat":
            self.max_text_digits = max(self.max_text_digits, _text_digits(result))
        elif name == "exactnum.parse_rat":
            self.max_text_digits = max(self.max_text_digits, _text_digits(args[0].strip()))

    def wrap(self, name: str, module: str, fn):
        own_group = GROUPS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if own_group is not None:
                group = own_group
            elif stack and stack[-1][1] == module:
                group = stack[-1][2]
            else:
                group = module
            if stack and stack[-1][2] == group:
                result = fn(*args, **kwargs)
            else:
                index = len(tracer.spans)
                span = [name, group, time.perf_counter(), None, stack[-1][0] if stack else None]
                tracer.spans.append(span)
                stack.append((index, module, group))
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer.errors[(group, type(exc).__name__)] += 1
                    raise
                finally:
                    span[3] = time.perf_counter()
                    stack.pop()
            tracer._observe(name, args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"dioph6.{layer}") for layer in LAYERS}
        originals: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(obj)] = self.wrap(f"{layer}.{attr}", layer, obj)
        curve = modules["weierstrass"].Curve
        for attr, obj in list(vars(curve).items()):
            if inspect.isfunction(obj) and not attr.startswith("_"):
                self._bind(curve, attr, self.wrap(f"weierstrass.Curve.{attr}", "weierstrass", obj))
        package = importlib.import_module("dioph6")
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._bind(mod, attr, originals[id(obj)])

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter, float]:
        """Per-group self time, per-group span counts, and the summed duration of root spans."""
        covered = [0.0] * len(self.spans)
        root_total = 0.0
        for name, group, start, end, parent in self.spans:
            if parent is None:
                root_total += end - start
            else:
                covered[parent] += end - start
        self_s: dict[str, float] = {}
        entries: Counter = Counter()
        for (name, group, start, end, parent), child in zip(self.spans, covered):
            self_s[group] = self_s.get(group, 0.0) + (end - start - child)
            entries[group] += 1
        return self_s, entries, root_total

    def write_spans(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, group, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "group": group, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")
