"""Per-layer spans for the traced benchmark run.

The pipeline looks its helpers up as module globals at call time, so
replacing those globals in ``arcfill.search``, ``arcfill.flow`` and
``arcfill.cli`` with timing wrappers traces every call into a layer without
touching the package.  Spans (name, start, end, parent, operation id) stay
in memory; ``summary`` turns them into per-operation layer metrics.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (module, attribute) -> span name.  compute_alpha_set only reports its
# result: its time stays in the search span that calls it.
WRAPPED = {
    ("cli", "parse_instance"): "parse",
    ("cli", "emit_solution"): "emit",
    ("search", "solve"): "pipeline",
    ("search", "solve_bounded"): "search",
    ("search", "kernelize_ddconc"): "kernel",
    ("search", "kernelize_ddseqc"): "kernel",
    ("search", "kernelize_dda"): "kernel",
    ("search", "lift_solution"): "lift",
    ("search", "build_certificate"): "certificate",
    ("search", "solve_nddcc"): "numprob.nddcc",
    ("search", "solve_nddsc"): "numprob.nddsc",
    ("search", "solve_nda"): "numprob.nda",
    ("search", "realize_demands"): "flow.realize",
    ("flow", "build_network"): "flow.build",
    ("flow", "max_flow"): "flow.maxflow",
}

SPAN_NAMES = sorted(set(WRAPPED.values()))

# Per-layer metrics in report order; every one is a mean per operation.
LAYER_METRICS = (
    [f"{name}.self_s" for name in SPAN_NAMES]
    + [
        "search.calls",
        "search.candidate_pairs",
        "kernel.calls",
        "kernel.reduced",
        "kernel.n_in",
        "kernel.n_out",
        "numprob.nddcc.calls",
        "numprob.nddcc.hits",
        "numprob.nddsc.calls",
        "numprob.nda.calls",
        "flow.unit_arcs",
        "flow.value",
        "certificate.calls",
        "lift.calls",
        "trace.op_s",
        "trace.overhead_s",
    ]
)


class Tracer:
    """Installs timing wrappers and collects spans and counts in memory."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.saved: dict = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.pending: list = []

    def install(self) -> None:
        for (module, attr), name in WRAPPED.items():
            owner = self.modules[module]
            original = getattr(owner, attr)
            self.saved[(module, attr)] = original
            setattr(owner, attr, self._wrap(name, original))
        alpha = self.modules["search"].compute_alpha_set
        self.saved[("search", "compute_alpha_set")] = alpha

        def record_alpha(*args, **kwargs):
            chosen = alpha(*args, **kwargs)
            self.pending.append(("alpha", chosen))
            return chosen

        self.modules["search"].compute_alpha_set = record_alpha

    def uninstall(self) -> None:
        for (module, attr), original in self.saved.items():
            setattr(self.modules[module], attr, original)
        self.saved.clear()

    def _wrap(self, name, original):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, clock(), 0.0, parent, tracer.op]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            tracer.pending.append((name, args, kwargs, result))
            return result

        return wrapper

    def begin(self, op_id: int) -> None:
        self.op = op_id

    def end(self) -> None:
        """Turn the calls of the finished operation into counts."""
        counts = self.counts
        alpha_sets = []
        for entry in self.pending:
            if entry[0] == "alpha":
                alpha_sets.append(entry[1])
                continue
            name, args, kwargs, result = entry
            counts[f"{name}.calls"] += 1
            if name == "search":
                instance = args[0]
                restrict = kwargs.get("restrict_to", args[1] if len(args) > 1 else None)
                chosen = alpha_sets.pop(0) if alpha_sets else set()
                if restrict is not None:
                    chosen = chosen & restrict
                arcs = instance.digraph.arcs
                counts["search.candidate_pairs"] += sum(
                    1 for u in chosen for v in chosen if u != v and (u, v) not in arcs
                )
            elif name == "kernel":
                counts["kernel.n_in"] += args[0].n
                if result.verdict.value == "reduced":
                    counts["kernel.reduced"] += 1
                if result.instance is not None:
                    counts["kernel.n_out"] += result.instance.digraph.n
            elif name == "numprob.nddcc" and result is not None:
                counts["numprob.nddcc.hits"] += 1
            elif name == "flow.build":
                counts["flow.unit_arcs"] += len(result.unit_arcs)
            elif name == "flow.maxflow":
                counts["flow.value"] += result[0]
        self.pending.clear()
        self.op = -1

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[index]
        return totals

    def summary(self, ops: int, op_seconds: float, untraced_op_seconds: float) -> dict:
        """Per-operation layer metrics over ``ops`` traced operations."""
        metrics = {}
        totals = self.self_times()
        for name in SPAN_NAMES:
            metrics[f"{name}.self_s"] = (totals.get(name, 0.0) / ops, "s")
        for key in LAYER_METRICS:
            if key.endswith(".self_s") or key.startswith("trace."):
                continue
            metrics[key] = (self.counts.get(key, 0) / ops, "count")
        metrics["trace.op_s"] = (op_seconds / ops, "s")
        metrics["trace.overhead_s"] = ((op_seconds - untraced_op_seconds) / ops, "s")
        return {key: metrics[key] for key in LAYER_METRICS}

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
