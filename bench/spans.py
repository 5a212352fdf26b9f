"""In-memory spans around the public function of each carpool layer.

The tracer replaces a function at the module attribute its caller looks
up at call time (``carpool.solver.primal_subproblem`` is what the solve
loop calls, ``carpool.cli.conservation_residual`` is what ``check``
calls) with a wrapper that records a span, and puts every original back
on exit, even when the traced code raises.  The library itself is not
modified and never sees the tracer.

Spans live in a list until the run ends.  Each holds its parent (the
span open when it started) and its root (the benchmark operation it
belongs to); self time is the duration minus the time covered by
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  A function imported into several
# modules is wrapped in each one its callers resolve it from.
LAYER_FUNCTIONS = [
    ("carpool.solver", "solve", "solver.solve"),
    ("carpool.solver", "build_expanded_graph", "model.build_expanded_graph"),
    ("carpool.solver", "enumerate_triples", "model.enumerate_triples"),
    ("carpool.solver", "build_edge_graph", "edge_graph.build_edge_graph"),
    ("carpool.solver", "primal_subproblem", "edge_graph.primal_subproblem"),
    ("carpool.solver", "subgradient_step", "solver.subgradient_step"),
    ("carpool.solver", "transmission_summary", "model.transmission_summary"),
    ("carpool.solver", "total_cost", "model.total_cost"),
    ("carpool.distributed", "run_distributed_solve",
     "distributed.run_distributed_solve"),
    ("carpool.distributed", "build_expanded_graph",
     "model.build_expanded_graph"),
    ("carpool.distributed", "enumerate_triples", "model.enumerate_triples"),
    ("carpool.distributed", "build_edge_graph",
     "edge_graph.build_edge_graph"),
    ("carpool.distributed", "distributed_shortest_paths",
     "distributed.distributed_shortest_paths"),
    ("carpool.distributed", "distributed_price_update",
     "distributed.distributed_price_update"),
    ("carpool.instances", "generate_geometric",
     "instances.generate_geometric"),
    ("carpool.instances", "plain_routing_cost",
     "instances.plain_routing_cost"),
    ("carpool.cli", "cmd_solve", "cli.cmd_solve"),
    ("carpool.cli", "cmd_check", "cli.cmd_check"),
    ("carpool.cli", "cmd_baseline", "cli.cmd_baseline"),
    ("carpool.cli", "load_instance", "cli.load_instance"),
    ("carpool.cli", "solution_to_dict", "cli.solution_to_dict"),
    ("carpool.cli", "write_trace", "cli.write_trace"),
    ("carpool.cli", "solve", "solver.solve"),
    ("carpool.cli", "plain_routing_cost", "instances.plain_routing_cost"),
    ("carpool.cli", "build_expanded_graph", "model.build_expanded_graph"),
    ("carpool.cli", "enumerate_triples", "model.enumerate_triples"),
    ("carpool.cli", "conservation_residual", "model.conservation_residual"),
    ("carpool.cli", "transmission_summary", "model.transmission_summary"),
    ("carpool.cli", "total_cost", "model.total_cost"),
]


def current_functions() -> dict[tuple[str, str], object]:
    """What each wrapped attribute holds right now."""
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, _ in LAYER_FUNCTIONS}


class Tracer:
    """Wraps every layer function on entry and restores them on exit."""

    def __init__(self):
        # [id, parent, root, name, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][0] if self._stack else sid
        rec = [sid, parent, root, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one operation."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, original, name: str):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(rec)

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for mod, attr, name in LAYER_FUNCTIONS:
                module = importlib.import_module(mod)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def records(self) -> list[dict]:
        """Every span with its parent, root, duration and self time."""
        child_time = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        origin = self.spans[0][4] if self.spans else 0.0
        return [{"id": sid, "parent": parent, "root": root, "name": name,
                 "start_s": start - origin, "dur_s": end - start,
                 "self_s": end - start - child_time[sid]}
                for sid, parent, root, name, start, end in self.spans]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed duration, summed self time, call count.

        A name with no spans reads as zeros.
        """
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"dur_s": 0.0, "self_s": 0.0, "calls": 0})
        for rec in self.records():
            t = out[rec["name"]]
            t["dur_s"] += rec["dur_s"]
            t["self_s"] += rec["self_s"]
            t["calls"] += 1
        return out
