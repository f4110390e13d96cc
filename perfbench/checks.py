"""Correctness checks, all run outside the timed regions.

A failed check raises `CheckFailed`; the runner counts it as a failed
operation and marks the run incorrect.
"""

from __future__ import annotations

from deltapath import oracle
from deltapath.graph_model import RemoveNode
from deltapath.path_retrieval import path_links

# Relative tolerance for real-valued path costs, as the CLI's --verify uses.
RTOL = 1e-9


class CheckFailed(Exception):
    pass


def _integral(graph) -> bool:
    return all(float(w).is_integer() for (_a, _b, w), _m in graph.edge_items())


def compare_with_oracle(graph, view, strategy) -> None:
    """The whole established view against a from-scratch solve."""
    result = oracle.solve(graph, strategy)
    if strategy.maximize or _integral(graph):
        bad = oracle.compare_view(result, view)
    else:
        bad = oracle.compare_view(
            result, view, rtol=RTOL, check_length=False, witness_next=True
        )
    if bad:
        raise CheckFailed(f"{len(bad)} pairs diverge from the oracle, first {bad[0]}")


class Mirror:
    """The established view rebuilt from nothing but emitted batches."""

    def __init__(self, view):
        self.rules = {pair: (r.next, r.p_cost, r.p_length) for pair, r in view.items()}

    def apply(self, batch) -> None:
        for r in batch:
            if r.delta < 0:
                got = self.rules.pop((r.src, r.dst), None)
                if got != (r.next, r.p_cost, r.p_length):
                    raise CheckFailed(f"batch retracts {r} but the mirror holds {got}")
        for r in batch:
            if r.delta > 0:
                if (r.src, r.dst) in self.rules:
                    raise CheckFailed(f"batch adds {r} over a live rule")
                self.rules[(r.src, r.dst)] = (r.next, r.p_cost, r.p_length)

    def check(self, view) -> None:
        live = {pair: (r.next, r.p_cost, r.p_length) for pair, r in view.items()}
        if live != self.rules:
            diff = set(live.items()) ^ set(self.rules.items())
            raise CheckFailed(f"mirror differs from the view on {len(diff)} entries")


def snapshot(store):
    """A cheap copy of the established state, to compare across a restore:
    the store's `_est` table where it has one, the public view otherwise."""
    est = getattr(store, "_est", None)
    if est is not None:
        return dict(est)
    return {pair: (r.next, r.p_cost, r.p_length) for pair, r in store.established_rules().items()}


def check_paths(paths, pairs, mirror) -> None:
    """Retrieved paths start and end at their pair and are as long as the
    established rule says."""
    for path, (s, t) in zip(paths, pairs):
        rule = mirror.rules.get((s, t))
        if path.hops[0] != s or path.hops[-1] != t or rule is None or path.length != rule[2]:
            raise CheckFailed(f"retrieval ({s}, {t}) returned {path.hops}")


def check_waypoints(result, stops) -> None:
    hops = result.paths[0].hops
    pos = 0
    for stop in stops:
        try:
            pos = hops.index(stop, pos)
        except ValueError:
            raise CheckFailed(f"waypoint path {hops} misses stop {stop} in order") from None


def check_backup(result) -> None:
    primary, backup = result.paths
    taken = {frozenset(e) for e in path_links(primary)}
    shared = [e for e in path_links(backup) if frozenset(e) in taken]
    if shared:
        raise CheckFailed(f"backup shares links {shared} with its primary")


def check_not(result, graph, strategy, s, t, excluded) -> None:
    """The NOT path avoids the excluded nodes and costs what the oracle
    finds on the graph with those nodes removed."""
    path = result.paths[0]
    if excluded & set(path.hops):
        raise CheckFailed(f"NOT path {path.hops} visits excluded {sorted(excluded)}")
    pruned = graph.fork()
    for x in sorted(excluded):
        pruned.apply_deltas(pruned.ingest_event(RemoveNode(x), strategy.link_cost))
    want = oracle.solve(pruned, strategy)
    cost = want.cost_of(s, t)
    if strategy.maximize or _integral(pruned):
        ok = path.cost == cost and path.length == want.length_of(s, t)
    else:
        ok = abs(path.cost - cost) <= RTOL * abs(cost)
    if not ok:
        raise CheckFailed(
            f"NOT ({s}, {t}) avoiding {sorted(excluded)}: cost {path.cost} "
            f"length {path.length}, oracle {cost} length {want.length_of(s, t)}"
        )
