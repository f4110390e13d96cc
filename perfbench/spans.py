"""In-memory spans around the library's public entry points.

`Tracer.install()` wraps, from outside the package, the functions and
methods each module exposes, so the calls the engine makes internally
(policy forks stepping epochs, `step_epoch` ingesting events) are recorded
too.  A span is recorded only inside a timed region opened with `region`;
calls made by the benchmark's own checks pass straight through.

A span is `[name, start_ns, end_ns, parent, child_ns, attrs]`; self time is
`end - start - child_ns`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

from deltapath import graph_model, policy_engine, routing_core

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # --- recording

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, 0, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        span = self.spans[idx]
        span[2] = _now()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextlib.contextmanager
    def region(self, name):
        """A timed region of the benchmark: the root of the spans inside."""
        idx = self._open("bench." + name)
        try:
            yield
        finally:
            self._close(idx)

    def record(self, name, fn, *args, attrs_of=None, **kwargs):
        """Call fn inside a span when a region is open; `attrs_of` turns
        its result into the span's attributes."""
        if not self._stack:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(idx)
        if attrs_of is not None:
            self.spans[idx][5] = attrs_of(out)
        return out

    def ancestor_named(self, idx, prefix) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0].startswith(prefix):
                return True
            parent = self.spans[parent][3]
        return False

    # --- wrapping

    def _patch(self, owner, attr, name, attrs_of=None):
        """Wrap owner.attr in spans called `name`."""
        original = getattr(owner, attr, None)
        if original is None:
            return  # the entry point is gone from this version of the library
        record = self.record

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return record(name, original, *args, attrs_of=attrs_of, **kwargs)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        count = lambda out: {"n": len(out)}
        self._patch(routing_core, "initialize", "routing_core.initialize")
        self._patch(routing_core, "step_epoch", "routing_core.step_epoch", count)
        self._patch(policy_engine, "step_epoch", "routing_core.step_epoch", count)
        self._patch(routing_core.RuleStore, "fork", "routing_core.fork")
        self._patch(graph_model.GraphStore, "ingest_event", "graph_model.ingest_event")
        self._patch(graph_model.GraphStore, "apply_deltas", "graph_model.apply_deltas", count)
        self._patch(graph_model.GraphStore, "fork", "graph_model.fork")
        self._patch(policy_engine, "retrieve", "path_retrieval.retrieve",
                    lambda p: {"n": 1, "hops": p.length})
        engine = policy_engine.PolicyEngine
        self._patch(engine, "eval_waypoints", "policy_engine.evaluate.waypoint")
        self._patch(engine, "eval_not", "policy_engine.evaluate.not")
        self._patch(engine, "eval_backup", "policy_engine.evaluate.backup")
        self._patch(engine, "on_epoch", "policy_engine.on_epoch")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "child_ns", "attrs"],
                 "spans": self.spans},
                fh,
            )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self times and counts per layer, summed over all recorded spans.

    `graph_model` spans under the set-up region (`build_graph` ingesting
    the whole topology) count as `graph_model.build_s`, apart from the
    ingestion of epoch events.
    """
    out = {
        "graph_model.build_s": 0.0,
        "graph_model.ingest_s": 0.0,
        "graph_model.apply_deltas_s": 0.0,
        "graph_model.edge_deltas": 0,
        "graph_model.fork_s": 0.0,
        "routing_core.fork_s": 0.0,
        "routing_core.initialize_s": 0.0,
        "routing_core.step_self_s": 0.0,
        "routing_core.policy_step_s": 0.0,
        "routing_core.rules_changed": 0,
        "path_retrieval.retrieve_s": 0.0,
        "path_retrieval.requests": 0,
        "path_retrieval.hops": 0,
        "policy_engine.waypoint_s": 0.0,
        "policy_engine.not_s": 0.0,
        "policy_engine.backup_s": 0.0,
        "policy_engine.on_epoch_s": 0.0,
        "bench.untraced_s": 0.0,
        "bench.timed_s": 0.0,
    }
    simple = {
        "graph_model.ingest_event": "graph_model.ingest_s",
        "graph_model.apply_deltas": "graph_model.apply_deltas_s",
        "graph_model.fork": "graph_model.fork_s",
        "routing_core.fork": "routing_core.fork_s",
        "routing_core.initialize": "routing_core.initialize_s",
        "path_retrieval.retrieve": "path_retrieval.retrieve_s",
        "policy_engine.evaluate.waypoint": "policy_engine.waypoint_s",
        "policy_engine.evaluate.not": "policy_engine.not_s",
        "policy_engine.evaluate.backup": "policy_engine.backup_s",
        "policy_engine.on_epoch": "policy_engine.on_epoch_s",
    }
    roots: list[int] = []  # a parent is always recorded before its children
    for idx, (name, start, end, parent, child, attrs) in enumerate(tracer.spans):
        roots.append(idx if parent < 0 else roots[parent])
        self_s = (end - start - child) / 1e9
        if parent < 0:
            out["bench.untraced_s"] += self_s
            out["bench.timed_s"] += (end - start) / 1e9
        elif name.startswith("graph_model.") and tracer.spans[roots[idx]][0] == "bench.setup":
            out["graph_model.build_s"] += self_s
        elif name == "routing_core.step_epoch":
            if tracer.ancestor_named(idx, "policy_engine."):
                out["routing_core.policy_step_s"] += self_s
            else:
                out["routing_core.step_self_s"] += self_s
                out["routing_core.rules_changed"] += attrs["n"] if attrs else 0
        else:
            if name not in simple:
                raise ValueError(f"span {name!r} belongs to no layer")
            out[simple[name]] += self_s
            if name == "graph_model.apply_deltas" and attrs:
                out["graph_model.edge_deltas"] += attrs["n"]
            elif name == "path_retrieval.retrieve" and attrs:
                out["path_retrieval.requests"] += attrs["n"]
                out["path_retrieval.hops"] += attrs["hops"]
    return out
