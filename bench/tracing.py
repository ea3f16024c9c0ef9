"""Traced run: spans around the program's public functions, from outside.

``Tracer.install`` wraps every public function of each layer module, plus
``MoveScript.replay`` and ``Report.to_json``, in every ``steincalc.*``
namespace that binds it (``reports`` imports ``boundary_homology`` by name,
so its copy is wrapped too).  Value-type dunders such as
``LaurentPoly.__mul__`` stay unwrapped.  Spans (name, start, end, parent)
are kept in memory; ``restore`` puts every original attribute back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("exactmat", "plumbing", "seifert", "mcg", "knots", "smooth4", "reports", "cli")
METHODS = (("plumbing", "MoveScript", "replay"), ("reports", "Report", "to_json"))
FUNCTION_METRICS = (
    "exactmat.smith_diagonal",
    "exactmat.signature",
    "exactmat.determinant",
    "exactmat.is_negative_definite",
    "plumbing.MoveScript.replay",
    "mcg.word_action",
    "knots.alexander",
    "cli.build_parser",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, raised]
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.n_max = 0
        self.result_bits_max = 0
        self.moves_replayed = 0
        self.letters_applied = 0
        self._op_alexander = []
        self.alexander_ratios = []  # distinct matrices / calls, one per op that calls it

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _hooks(self):
        def matrix_size(args, result):
            self.n_max = max(self.n_max, args[0].nrows)

        def det(args, result):
            matrix_size(args, result)
            self.result_bits_max = max(self.result_bits_max, abs(result).bit_length())

        def snf(args, result):
            matrix_size(args, result)
            diag = result.diagonal if hasattr(result, "diagonal") else result
            self.result_bits_max = max([self.result_bits_max] + [abs(d).bit_length() for d in diag])

        def replay(args, result):
            self.moves_replayed += len(args[0].moves)

        def word(args, result):
            self.letters_applied += args[0].letter_count

        def alexander(args, result):
            self._op_alexander.append(args[0].matrix)

        return {
            "exactmat.determinant": det,
            "exactmat.smith_diagonal": snf,
            "exactmat.smith_normal_form": snf,
            "exactmat.signature": matrix_size,
            "exactmat.is_negative_definite": matrix_size,
            "plumbing.MoveScript.replay": replay,
            "mcg.word_action": word,
            "knots.alexander": alexander,
        }

    def install(self):
        mods = {layer: sys.modules[f"steincalc.{layer}"] for layer in LAYERS}
        hooks = self._hooks()
        wrapped = {}  # original function -> wrapper
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(name, obj, hooks.get(name))
        namespaces = [m for name, m in sys.modules.items() if name == "steincalc" or name.startswith("steincalc.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(ns, attr, wrapped[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            self._patch(cls, meth, self._wrap(name, vars(cls)[meth], hooks.get(name)))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self):
        return [(owner, attr) for owner, attr, _ in self._patches]

    # -- per-op bookkeeping -------------------------------------------------------

    def end_op(self):
        calls = self._op_alexander
        if calls:
            self.alexander_ratios.append(len(set(calls)) / len(calls))
        self._op_alexander = []

    # -- results -----------------------------------------------------------------

    def self_times(self):
        """Self time per span name: duration minus the time of direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, raised) in enumerate(self.spans):
            calls, self_s, failed = out.get(name, (0, 0.0, 0))
            out[name] = (calls + 1, self_s + (end - start) - child[i], failed + raised)
        return out

    def metrics(self, traced_wall: float) -> dict:
        per_name = self.self_times()
        m = {}
        for layer in LAYERS:
            rows = [v for k, v in per_name.items() if k.split(".")[0] == layer]
            self_s = sum(r[1] for r in rows)
            m[f"{layer}.calls"] = (sum(r[0] for r in rows), "count")
            m[f"{layer}.self_s"] = (self_s, "s")
            m[f"{layer}.share"] = (self_s / traced_wall if traced_wall else 0.0, "ratio")
            m[f"{layer}.failed"] = (sum(r[2] for r in rows), "count")
        for name in FUNCTION_METRICS:
            m[f"{name}.self_s"] = (per_name.get(name, (0, 0.0, 0))[1], "s")
        ratios = self.alexander_ratios
        m["knots.alexander.distinct_ratio"] = (sum(ratios) / len(ratios) if ratios else 0.0, "ratio")
        m["knots.alexander.calls"] = (per_name.get("knots.alexander", (0, 0.0, 0))[0], "count")
        m["knots.alexander.ops"] = (len(ratios), "count")
        m["exactmat.n_max"] = (self.n_max, "rows")
        m["exactmat.result_bits_max"] = (self.result_bits_max, "bits")
        m["plumbing.moves_replayed"] = (self.moves_replayed, "count")
        m["mcg.letters_applied"] = (self.letters_applied, "count")
        return m

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, raised."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
