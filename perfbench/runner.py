"""Closed-loop replay of a workload's trials against the library API.

One thread submits each step only after the previous one returned.  Every
step's latency covers the library calls alone; checks run between steps.
An epoch's latency is `step_epoch` plus `PolicyEngine.on_epoch` where
policies are installed, since the forks are part of the state an epoch
has to bring to its fixpoint.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import time
import tracemalloc

from deltapath import graph_model, path_retrieval, routing_core
from deltapath.errors import DeltaPathError, NegativeMultiplicityError
from deltapath.graph_model import AddLink, AddNode, RemoveLink, RemoveNode
from deltapath.policy_engine import PolicyEngine, parse_policy

import checks
from checks import CheckFailed

_clock = time.perf_counter

_SAMPLE_KIND = {"fail_link": "link_fail", "fail_switch": "switch_fail"}


class Run:
    """State and measurements of one pass over a workload."""

    def __init__(self, work, tracer=None):
        self.work = work
        self.strategy = work.strategy
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timed_s = 0.0  # sum of timed regions, setup excluded
        self.setup_times: list[float] = []
        self.verify_s = 0.0
        self.updates = 0
        self.batch_s = 0.0
        self.requests = 0
        self.retrieve_s = 0.0
        self.trials_done = 0
        self.state_bytes_per_pair = 0.0
        self._pid = 0
        self._live_not: list[int] = []
        self._restore = None
        self._sampled = None
        self._oracle_checked: set[str] = set()
        self._initial = None  # the rules of the first set-up

    # --- timing

    def _timed(self, name, fn, *args):
        """Run fn(*args) as one timed region; returns (result, seconds)."""
        region = self.tracer.region(name) if self.tracer else contextlib.nullcontext()
        with region:
            t0 = _clock()
            out = fn(*args)
            dt = _clock() - t0
        return out, dt

    def _sample(self, kind, seconds):
        self.samples.setdefault(kind, []).append(seconds)
        self._sampled = kind

    @contextlib.contextmanager
    def _checking(self):
        t0 = _clock()
        try:
            yield
        finally:
            self.verify_s += _clock() - t0

    def _fail(self, kind, exc):
        """Count a failed step; its latency sample becomes a miss (+inf)."""
        self.failed += 1
        if self._sampled is not None:
            self.samples[self._sampled][-1] = math.inf
        else:
            self._sample(kind, math.inf)
        self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")

    # --- set-up

    def _build(self, measure_state):
        graph = graph_model.build_graph(self.work.topo, self.strategy.link_cost)
        if not measure_state:
            return graph, routing_core.initialize(graph, self.strategy)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = routing_core.initialize(graph, self.strategy)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        self.state_bytes_per_pair = grown / store.rule_count()
        return graph, store

    def setup(self, measure_state=False):
        """Drop the engine, then build and initialize a new one as one
        timed region; its time is appended to `setup_times`.
        `measure_state` records the traced allocation growth across
        `initialize` per pair (and slows it)."""
        self.graph = self.store = self.policies = self.on_epoch = self.mirror = None
        self._live_not = []
        gc.unfreeze()
        gc.collect()
        (self.graph, self.store), dt = self._timed("setup", self._build, measure_state)
        self.setup_times.append(dt)
        if self.work.policies:
            self.policies = PolicyEngine(self.graph, self.store, self.strategy)
            # Looked up, not assumed: the ROADMAP plans to drop policy forks
            # and with them on_epoch, and the benchmark must run unchanged
            # on the commit that does.
            self.on_epoch = getattr(self.policies, "on_epoch", None)
        # The oracle checks the first set-up; every later one must reach
        # exactly the same rules.
        self.attempted += 1
        try:
            with self._checking():
                view = self.store.established_rules()
                self.mirror = checks.Mirror(view)
                if self._initial is None:
                    checks.compare_with_oracle(self.graph, view, self.strategy)
                    self._initial = checks.snapshot(self.store)
                elif checks.snapshot(self.store) != self._initial:
                    raise CheckFailed("set-up reached other rules than the first set-up")
        except CheckFailed as exc:
            self.failed += 1
            self.errors.append(f"set-up {len(self.setup_times)}: {exc}")
        # Full collections would otherwise re-traverse the whole initial
        # store at moments that differ from run to run; epochs still pay
        # for collecting what they allocate.
        gc.collect()
        gc.freeze()

    # --- the loop

    def run(self, deadline=math.inf, trials=None, oracle=True):
        """Replay the workload's warm-up steps, then its trials from where
        the last call stopped, until `deadline` (a `_clock()` reading) or
        until `trials` trials are done in all.  Then check the view against
        the mirror, and against the oracle if `oracle`."""
        self._steps(self.work.warmup)
        limit = min(trials, len(self.work.trials)) if trials is not None else len(self.work.trials)
        while self.trials_done < limit and _clock() < deadline:
            self._steps(self.work.trials[self.trials_done])
            self.trials_done += 1
        try:
            with self._checking():
                self.checkpoint(oracle)
        except CheckFailed as exc:
            self.failed += 1
            self.errors.append(f"checkpoint after trial {self.trials_done}: {exc}")

    def _steps(self, steps):
        for step in steps:
            self.attempted += 1
            self._sampled = None
            try:
                getattr(self, "_step_" + step[0])(*step[1:])
            except (CheckFailed, DeltaPathError) as exc:
                self._fail(_SAMPLE_KIND.get(step[0], step[0]), exc)

    def checkpoint(self, oracle=True):
        view = self.store.established_rules()
        if oracle:
            checks.compare_with_oracle(self.graph, view, self.strategy)
        self.mirror.check(view)

    def _epoch(self, events):
        batch = routing_core.step_epoch(self.store, self.graph, events)
        if self.on_epoch is not None:
            self.on_epoch(events)
        return batch

    def _run_epoch(self, kind, events):
        batch, dt = self._timed(kind, self._epoch, events)
        self._sample(kind, dt)
        self.timed_s += dt
        with self._checking():
            self.mirror.apply(batch)
            # The oracle checks the first epoch of each kind and the end of
            # the run; restores are checked against the state before the
            # failure, which the oracle has seen.
            if kind != "restore" and kind not in self._oracle_checked:
                self._oracle_checked.add(kind)
                self.checkpoint()
        return dt

    # --- steps

    def _step_fail_link(self, a, b):
        with self._checking():
            (w,) = self.graph.weights_between(a, b)
            props = self.graph.link_props(a, b, w)
            before = checks.snapshot(self.store)
        self._restore = ([AddLink(a, b, props)], before)
        self._run_epoch("link_fail", [RemoveLink(a, b)])

    def _step_fail_switch(self, n):
        with self._checking():
            node = self.graph.nodes[n]
            readd = [AddNode(n, node.label)]
            for (x, w), mult in self.graph.out_edges(n).items():
                readd += [AddLink(n, x, self.graph.link_props(n, x, w))] * mult
            before = checks.snapshot(self.store)
        self._restore = (readd, before)
        self._run_epoch("switch_fail", [RemoveNode(n)])

    def _step_restore(self):
        if self._restore is None:
            raise CheckFailed("nothing to restore: the failure epoch did not run")
        events, before = self._restore
        self._restore = None
        self._run_epoch("restore", events)
        with self._checking():
            if checks.snapshot(self.store) != before:
                raise CheckFailed("restore did not bring back the pre-failure rules")

    def _step_batch(self, size, events):
        dt = self._run_epoch(f"batch{size}", events)
        self.updates += len(events)
        self.batch_s += dt

    def _retrieve_all(self, pairs):
        view = self.store.established_rules()
        retrieve = path_retrieval.retrieve
        return [retrieve(view, s, t) for s, t in pairs]

    def _step_retrieve(self, pairs):
        fetch = self._retrieve_all
        if self.tracer:
            # one span for the whole batch, carrying its request and hop counts
            fetch = functools.partial(
                self.tracer.record, "path_retrieval.retrieve", fetch,
                attrs_of=lambda paths: {"n": len(paths), "hops": sum(p.length for p in paths)},
            )
        paths, dt = self._timed("retrieve", fetch, pairs)
        self._sample("retrieve", dt)
        self.timed_s += dt
        self.requests += len(pairs)
        self.retrieve_s += dt
        with self._checking():
            checks.check_paths(paths, pairs, self.mirror)

    def _add(self, text):
        self._pid += 1
        policy = parse_policy(self._pid, text)
        self.policies.add(policy)
        return policy

    def _evaluate(self, kind, policy):
        result, dt = self._timed(kind, self.policies.evaluate, policy)
        self._sample(kind, dt)
        self.timed_s += dt
        return result

    def _step_waypoint(self, stops):
        policy = self._add(f"{stops[0]} : {' '.join(map(str, stops[1:-1]))} : {stops[-1]}")
        result = self._evaluate("waypoint", policy)
        self.policies.remove(policy.id)
        with self._checking():
            checks.check_waypoints(result, stops)

    def _step_backup(self, s, t):
        policy = self._add(f"{s} : backup : {t}")
        result = self._evaluate("backup", policy)
        self.policies.remove(policy.id)
        with self._checking():
            checks.check_backup(result)

    def _add_not(self, s, t, excluded):
        return self._add(f"{s} : {' '.join(f'!{x}' for x in sorted(excluded))} : {t}")

    def _step_not(self, s, t, excluded):
        policy = self._add_not(s, t, excluded)
        try:
            result = self._evaluate("not", policy)
        except DeltaPathError:
            self.policies.remove(policy.id)
            raise
        # the oldest NOT policy goes only once the new one is live, so the
        # number of live forks stays constant through failed evaluations
        self._live_not.append(policy.id)
        while len(self._live_not) > self.work.max_not_forks:
            self.policies.remove(self._live_not.pop(0))
        with self._checking():
            checks.check_not(result, self.graph, self.strategy, s, t, excluded)

    def probe_defect(self):
        """Evaluate the workload's defect probe, a NOT policy excluding two
        adjacent nodes, outside the timed regions and the counted
        operations; returns what happened.  Removing two adjacent nodes in
        one epoch retracts their shared link twice, and the fork's
        `step_epoch` raises `NegativeMultiplicityError`."""
        _kind, s, t, excluded = self.work.defect_probe
        policy = self._add_not(s, t, excluded)
        try:
            result = self.policies.evaluate(policy)
        except NegativeMultiplicityError:
            return "reproduced (NegativeMultiplicityError)"
        finally:
            self.policies.remove(policy.id)
        try:
            checks.check_not(result, self.graph, self.strategy, s, t, excluded)
        except CheckFailed as exc:
            self.errors.append(f"defect probe: {exc}")
            return "not reproduced, and the NOT path is wrong"
        return "not reproduced: the NOT path matches the oracle"
