"""Spans around sgw's public functions, recorded from outside the library.

``Tracer.install`` replaces each function in ``LAYERS`` with a timing
wrapper at every ``sgw`` module name it is bound to (``sgw.chromatic_number``,
``sgw.verify.chromatic_number``, ``sgw.homomorphism.chromatic_number``, ...),
so calls the library makes to itself are seen too.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is changed.

Spans are recorded only between ``begin`` and ``end``; outside them the
wrappers pass straight through, so answer checks that call the library are
not counted.  Spans are kept in memory; ``totals`` sums them per function.
A span's self time is its duration minus the time covered by its child
spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = {
    "core": ("bfs_order", "connected_components", "is_connected"),
    "switching": ("switch", "is_balanced", "equivalent", "canonical_form"),
    "product": ("cartesian_product", "product_many"),
    "factor_ordinary": ("factorize",),
    "s_factor": ("s_decompose", "is_s_prime"),
    "homomorphism": (
        "chromatic_number",
        "enumerate_targets",
        "find_homomorphism",
        "validate",
        "underlying_chromatic_lower_bound",
        "signed_isomorphic",
    ),
    "constructions": ("make", "kpq_coloring", "coloring_target", "grid_hom_spal5star"),
    "verify": ("verify_kpq", "verify_grid_fig1c", "verify_k4_classes"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
ROOT = "bench.op"  # the span of one whole operation, opened by ``begin``
SPAN_FIELDS = ("id", "op", "name", "parent", "start", "end")


class Tracer:
    def __init__(self):
        self.op = None  # operation id while recording, else None
        self.spans = []  # SPAN_FIELDS tuples, appended as spans close
        self.raised = dict.fromkeys(FUNCTIONS, 0)
        self.orders_refuted = 0
        self.targets_refuted = 0
        self._stack = []  # open spans: [id, name, start]
        self._next_id = 0
        self._root = None
        self._patches = []

    # -- installing wrappers ---------------------------------------------

    def install(self):
        names = {}  # id of the original function -> dotted name
        for mod, fns in LAYERS.items():
            module = importlib.import_module(f"sgw.{mod}")
            for fn in fns:
                names[id(getattr(module, fn))] = f"{mod}.{fn}"
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "sgw" and not modname.startswith("sgw."):
                continue
            for attr, value in list(vars(module).items()):
                name = names.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                setattr(module, attr, wrappers[name])
                self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name, fn):
        tracer = self
        count_refutations = name == "homomorphism.chromatic_number"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                tracer._close(span)
            if count_refutations:
                exhausted = result.lower_bound_evidence["exhausted_orders"]
                tracer.orders_refuted += len(exhausted)
                tracer.targets_refuted += sum(exhausted.values())
            return result

        return wrapper

    # -- spans -----------------------------------------------------------

    def begin(self, op):
        """Open the root span of operation ``op``; library spans nest under it."""
        self.op = op
        self._root = self._open(ROOT)

    def end(self) -> float:
        """Close the operation's root span and return its duration."""
        duration = self._close(self._root)
        self.op = self._root = None
        return duration

    def _open(self, name):
        span = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span):
        end = time.perf_counter()
        span_id, name, start = span
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((span_id, self.op, name, parent, start, end))
        return end - start

    def totals(self, include=lambda op: True) -> tuple[dict, dict]:
        """Calls and self time per name (``ROOT`` too) over the spans of
        the operations for which ``include(op)`` holds."""
        child_s = {}
        for span_id, _op, _name, parent, start, end in self.spans:
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        calls = dict.fromkeys(FUNCTIONS + (ROOT,), 0)
        self_s = dict.fromkeys(FUNCTIONS + (ROOT,), 0.0)
        for span_id, op, name, _parent, start, end in self.spans:
            if include(op):
                calls[name] += 1
                self_s[name] += (end - start) - child_s.get(span_id, 0.0)
        return calls, self_s
