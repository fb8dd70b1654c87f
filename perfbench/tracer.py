"""Per-layer tracing of guardasim, installed from outside the library.

Every public module-level function of the six layer modules, plus the
methods in METHODS, is replaced by a timing wrapper in each guardasim module
namespace that binds it, so calls the library makes internally are caught
too (``asim`` imports ``semantic_classes`` and ``classify_connective`` by
name).  A wrapped call records a span (name, start, end, parent span,
operation); the hot leaves in AGGREGATED, called up to millions of times an
operation, only add to counts and time.  Self time is a call's duration
minus the wrapped calls it makes, and the wrapper's own bookkeeping is
charged to neither.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "asim", "formula", "connective", "boolfn", "model")
# (module, class, method, span name)
METHODS = (
    ("model", "Model", "guard_endpoints", "model.guard_endpoints"),
    ("model", "Model", "guard_path", "model.guard_path"),
    ("boolfn", "TruthTable", "evaluate", "boolfn.TruthTable.evaluate"),
)
AGGREGATED = frozenset({"model.guard_endpoints", "model.guard_path", "boolfn.TruthTable.evaluate"})
# Calls whose arguments and result are kept for the derived counts.
RECORDED = frozenset({"asim.largest_asimulation", "formula.semantic_classes"})

# (metric, unit): every per-layer metric a traced run reports.
_CALLS = (
    "model.guard_endpoints", "model.guard_path", "connective.classify_connective",
    "boolfn.TruthTable.evaluate", "boolfn.classify", "formula.semantic_classes",
    "asim.largest_asimulation", "asim.max_inner_target", "asim.is_asimulation",
    "asim.preservation_relation",
)
_SELF = (
    "cli.main", "model.load_file", "model.load", "model.random_model", "model.guard_endpoints",
    "connective.classify_connective", "boolfn.TruthTable.evaluate", "formula.semantic_classes",
    "asim.largest_asimulation", "asim.max_inner_target", "asim.is_asimulation",
    "asim.relation_from_doc", "asim.preservation_relation",
)
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{name}.calls": "count" for name in _CALLS},
    **{f"{name}.self_s": "s" for name in _SELF},
    "model.guard_path.witness_calls": "count",
    "formula.classes": "count",
    "formula.candidates": "count",
    "formula.class_yield": "ratio",
    "asim.pairs_start": "count",
    "asim.pairs_kept": "count",
    "asim.kept_ratio": "ratio",
    "trace.ops_per_s_ratio": "ratio",
}


def enumeration_candidates(sig, depth: int, classes) -> int:
    """Candidates ``semantic_classes`` checked, derived from its result alone.

    A class's layer is the depth of its witness.  Layer l combines the P
    classes of layers <= l-1 and keeps the combinations that use one of layer
    l-1, so each connective of arity a adds P**a - Q**a, where Q counts the
    classes of layers <= l-2.  Enumeration stops after the first layer that
    adds no class.
    """
    from guardasim.syntax import fragment_depth

    layers = [fragment_depth(c.formula) for c in classes]
    arities = [a for a in (sig.get(name).arity for name in sig.names()) if a]
    total = 0
    for layer in range(1, depth + 1):
        p = sum(1 for x in layers if x <= layer - 1)
        q = sum(1 for x in layers if x <= layer - 2)
        total += sum(p ** a - q ** a for a in arities)
        if layer not in layers:
            break
    return total


class Tracer:
    def __init__(self):
        self.op = None
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op)
        self.totals: dict[tuple, list] = {}  # (op, name) -> [calls, self seconds]
        self.witness_calls: dict = {}  # op -> guard_path calls outside max_inner_target
        self.records: list[tuple] = []  # (op, name, bound arguments, result)
        self._stack: list[list] = []  # open calls: [child seconds, parent id for children, name]
        self._next_id = 0
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"guardasim.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name == "guardasim" or name.startswith("guardasim."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrappers:
                        self._patch(mod, attr, wrappers[val])
        for layer, cls_name, method, span_name in METHODS:
            owner = getattr(modules[layer], cls_name)
            self._patch(owner, method, self._wrap(span_name, vars(owner)[method]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        perf = time.perf_counter
        stack = self._stack
        totals = self.totals
        spans = self.spans
        is_span = name not in AGGREGATED
        signature = inspect.signature(fn) if name in RECORDED else None
        is_guard_path = name == "model.guard_path"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf()
            op = tracer.op
            if is_guard_path and not any(f[2] == "asim.max_inner_target" for f in stack):
                tracer.witness_calls[op] = tracer.witness_calls.get(op, 0) + 1
            parent = stack[-1][1] if stack else None
            span_id = None
            if is_span:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id if is_span else parent, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                key = (op, name)
                tot = totals.get(key)
                if tot is None:
                    totals[key] = [1, end - start - frame[0]]
                else:
                    tot[0] += 1
                    tot[1] += end - start - frame[0]
                if is_span:
                    spans.append((span_id, name, start, end, parent, op))
                if stack:
                    stack[-1][0] += perf() - entered
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.records.append((op, name, bound.arguments, result))
            return result

        return traced

    def layer_metrics(self, ops) -> dict[str, float]:
        """Per-layer figures summed over the given operations; call after
        uninstall, because the derived counts call into the library."""
        from guardasim import asim

        ops = set(ops)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (op, name), (n, s) in self.totals.items():
            if op in ops:
                calls[name] = calls.get(name, 0) + n
                self_s[name] = self_s.get(name, 0.0) + s
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(s for name, s in self_s.items() if name.startswith(layer + "."))
        for name in _CALLS:
            metrics[f"{name}.calls"] = calls.get(name, 0)
        for name in _SELF:
            metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
        metrics["model.guard_path.witness_calls"] = sum(self.witness_calls.get(op, 0) for op in ops)
        classes = candidates = start = kept = 0
        for op, name, a, result in self.records:
            if op not in ops:
                continue
            if name == "formula.semantic_classes":
                classes += len(result)
                candidates += enumeration_candidates(a["sig"], a["depth"], result)
            else:
                before = asim.atom_preserving(a["m1"], a["m2"], a["theta_preds"])
                start += len(before.fwd) + len(before.bwd)
                kept += len(result.fwd) + len(result.bwd)
        metrics["formula.classes"] = classes
        metrics["formula.candidates"] = candidates
        metrics["formula.class_yield"] = classes / candidates if candidates else 0.0
        metrics["asim.pairs_start"] = start
        metrics["asim.pairs_kept"] = kept
        metrics["asim.kept_ratio"] = kept / start if start else 0.0
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
