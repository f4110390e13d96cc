"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1 and 2 share one replay fixture (50 random graphs, 200 events
each) sharded over two worker processes; the remaining criteria run on
fat-tree engines shared per module.  Scaled latency bounds are generous on
purpose: the load-bearing assertions are the exact equivalences.
"""

from __future__ import annotations

import multiprocessing
import random
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from deltapath import oracle
from deltapath import workloads as wl
from deltapath.graph_model import (
    AddLink,
    RemoveLink,
    RemoveNode,
    UpdateWeight,
    build_graph,
    parse_event,
)
from deltapath.path_retrieval import path_links, retrieve
from deltapath.policy_engine import PolicyEngine, parse_policy
from deltapath.routing_core import (
    ForwardingRule,
    candidates,
    initialize,
    search,
    step_epoch,
)
from deltapath.strategy import builtin

from conftest import props, random_connected_topology, random_events

SD = builtin("sd_utilization")
HOP = builtin("hop_count")
FREE_BW = builtin("sd_free_bw")
WIDEST = builtin("shortest_widest")

GRAPHS = 50
EVENTS_PER_GRAPH = 200
REINIT_PREFIXES = 20
MASTER_SEED = 20260808


def _passed(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {detail}")


# --- criteria 1 + 2: oracle equivalence and incremental == reinitialize ------


class _Mirror:
    """Engine-side (cost, length, next) matrices maintained from emitted
    change batches; comparing them to the oracle also proves that output
    batches are sound edits of the established view."""

    def __init__(self, ids, view):
        self.index = {node: i for i, node in enumerate(ids)}
        n = len(ids)
        self.cost = np.full((n, n), np.inf)
        self.length = np.full((n, n), np.inf)
        self.next = np.full((n, n), -1, dtype=np.int64)
        for (s, d), rule in view.items():
            self.set_rule(s, d, rule)

    def set_rule(self, s, d, rule):
        i, j = self.index[s], self.index[d]
        self.cost[i, j] = rule.p_cost
        self.length[i, j] = rule.p_length
        self.next[i, j] = self.index[rule.next]

    def clear(self, s, d):
        i, j = self.index[s], self.index[d]
        self.cost[i, j] = np.inf
        self.length[i, j] = np.inf
        self.next[i, j] = -1

    def apply(self, batch):
        for r in batch:
            if r.delta == -1:
                self.clear(r.src, r.dst)
        for r in batch:
            if r.delta == 1:
                self.set_rule(r.src, r.dst, r)

    def mismatches(self, result) -> list:
        bad = []
        if not np.array_equal(self.cost, result.cost_matrix):
            bad.append("cost")
        if not np.array_equal(self.length, result.length_matrix):
            bad.append("length")
        if not np.array_equal(self.next, result.next_matrix):
            bad.append("next")
        return bad

    def equals_view(self, view) -> bool:
        fresh = _Mirror(sorted(self.index), view)
        return (
            np.array_equal(self.cost, fresh.cost)
            and np.array_equal(self.length, fresh.length)
            and np.array_equal(self.next, fresh.next)
        )


def _fixture_graph(graph_index: int):
    size_rng = random.Random(MASTER_SEED)
    sizes = [size_rng.randint(10, 100) for _ in range(GRAPHS)]
    rng = random.Random(1000 + graph_index)
    topo = random_connected_topology(rng, sizes[graph_index])
    graph = build_graph(topo, SD.link_cost)
    return rng, graph, initialize(graph, SD)


def _replay_one_graph(graph_index: int) -> dict:
    """Criterion-1 worker: oracle check after every epoch of one graph."""
    rng, graph, store = _fixture_graph(graph_index)
    mirror = _Mirror(sorted(graph.nodes), store.established_rules())
    report = {
        "graph": graph_index, "n": len(graph.nodes),
        "oracle_bad": [], "mirror_bad": [], "hygiene_bad": [],
    }

    def check(epoch):
        bad = mirror.mismatches(oracle.apsp_additive(graph, SD))
        if bad:
            report["oracle_bad"].append((epoch, bad))

    check(0)
    for epoch in range(1, EVENTS_PER_GRAPH + 1):
        batch = step_epoch(store, graph, random_events(rng, graph, 1))
        mirror.apply(batch)
        check(epoch)
        if epoch % 25 == 0 and not mirror.equals_view(store.established_rules()):
            report["mirror_bad"].append(epoch)
    try:
        store.check_integrity(graph)
        graph.check_integrity()
    except AssertionError as exc:
        report["hygiene_bad"].append(str(exc))
    return report


def _reinit_one_graph(graph_index: int) -> dict:
    """Criterion-2 worker: fresh initialize at sampled prefixes."""
    rng, graph, store = _fixture_graph(graph_index)
    reinit_at = set(
        random.Random(2000 + graph_index).sample(range(1, EVENTS_PER_GRAPH + 1),
                                                 REINIT_PREFIXES)
    )
    report = {"graph": graph_index, "reinit_bad": []}
    for epoch in range(1, EVENTS_PER_GRAPH + 1):
        step_epoch(store, graph, random_events(rng, graph, 1))
        if epoch in reinit_at:
            fresh = initialize(graph, SD)
            if store._est != fresh._est or (
                candidates(store, graph) != candidates(fresh, graph)
            ):
                report["reinit_bad"].append(epoch)
    return report


def _shard(worker):
    t0 = time.perf_counter()
    with multiprocessing.get_context("fork").Pool(2) as pool:
        reports = pool.map(worker, range(GRAPHS))
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def equivalence_reports():
    return _shard(_replay_one_graph)


@pytest.fixture(scope="module")
def reinit_reports():
    return _shard(_reinit_one_graph)


def test_c01_oracle_equivalence_integer_weights(equivalence_reports):
    reports, wall_s = equivalence_reports
    bad = [(r["graph"], r["oracle_bad"][:3]) for r in reports if r["oracle_bad"]]
    assert bad == [], f"established view diverged from the oracle: {bad[:5]}"
    soundness = [(r["graph"], r["mirror_bad"]) for r in reports if r["mirror_bad"]]
    assert soundness == [], f"output batches are not sound edits: {soundness[:5]}"
    hygiene = [r["hygiene_bad"] for r in reports if r["hygiene_bad"]]
    assert hygiene == []
    epochs = GRAPHS * (EVENTS_PER_GRAPH + 1)
    assert wall_s < 60.0, f"oracle-equivalence sweep took {wall_s:.1f}s (target 60s)"
    _passed(1, f"{epochs} epochs on {GRAPHS} graphs match the oracle exactly "
               f"in {wall_s:.1f}s (target <60s)")


def test_c01_oracle_equivalence_real_weights():
    bad_total = 0
    epochs = 0
    for gi in range(8):
        rng = random.Random(5000 + gi)
        topo = random_connected_topology(rng, rng.randint(10, 40))
        graph = build_graph(topo, FREE_BW.link_cost)
        store = initialize(graph, FREE_BW)
        for _ in range(EVENTS_PER_GRAPH):
            events = random_events(rng, graph, 1)
            step_epoch(store, graph, events)
            epochs += 1
            result = oracle.apsp_additive(graph, FREE_BW)
            bad = oracle.compare_view(
                result, store.established_rules(),
                rtol=1e-9, check_length=False, witness_next=True,
            )
            bad_total += len(bad)
            assert bad == [], f"graph {gi}: {bad[:3]}"
    _passed(1, f"real-weight lane: {epochs} epochs within 1e-9 relative cost, "
               f"next always an oracle witness")


def test_c02_incremental_equals_reinitialize(reinit_reports):
    reports, _wall = reinit_reports
    bad = [(r["graph"], r["reinit_bad"]) for r in reports if r["reinit_bad"]]
    assert bad == [], f"incremental state diverged from fresh initialize: {bad[:5]}"
    checks = GRAPHS * REINIT_PREFIXES
    _passed(2, f"{checks} sampled prefixes: established view and candidate "
               f"multisets equal a fresh initialize, zero tolerance")


# --- shared fat-tree engines --------------------------------------------------


@pytest.fixture(scope="module")
def k8_hop():
    topo = wl.gen_fattree(8)
    graph = build_graph(topo, HOP.link_cost)
    return topo, graph, initialize(graph, HOP)


@pytest.fixture(scope="module")
def k8_uniform():
    topo = wl.gen_fattree(8, wl.WeightPlan(wl.PlanKind.UNIFORM, seed=81))
    graph = build_graph(topo, SD.link_cost)
    return topo, graph, initialize(graph, SD)


@pytest.fixture(scope="module")
def k16_hop():
    topo = wl.gen_fattree(16)
    graph = build_graph(topo, HOP.link_cost)
    return topo, graph, initialize(graph, HOP)


def test_c03_locality_on_fattree_failures(k8_hop):
    topo, graph, store = k8_hop
    rng = random.Random(3)
    est_before = dict(store._est)
    for trial in range(100):
        a, b, p = topo.links[rng.randrange(len(topo.links))]
        pristine = graph.fork()
        batch = step_epoch(store, graph, [RemoveLink(a, b)])
        touched = {(r.src, r.dst) for r in batch}
        want = oracle.affected_pairs(pristine, graph, HOP)
        assert touched == want, (
            f"trial {trial}: emitted {len(touched)} pairs, oracle says {len(want)}"
        )
        step_epoch(store, graph, [AddLink(a, b, p)])
    assert store._est == est_before
    _passed(3, "100 single-link failures touch exactly the oracle's affected pairs")


def test_c04_shortest_widest_matches_bruteforce():
    rng = random.Random(44)
    for gi in range(30):
        n = rng.randint(5, 12)
        topo = random_connected_topology(rng, n)
        topo.links = [
            (a, b, props(capacity=float(rng.randint(1, 9)),
                         utilization=float(rng.choice([0, 10, 20, 50]))))
            for a, b, _p in topo.links
        ]
        graph = build_graph(topo, WIDEST.link_cost)
        store = initialize(graph, WIDEST)
        want = oracle.widest_paths_bruteforce(graph, WIDEST)
        assert oracle.compare_view(want, store.established_rules()) == [], f"graph {gi}"
        # one mutation epoch, then re-verify
        links = sorted({(min(s, d), max(s, d), w) for (s, d, w), _ in graph.edge_items()})
        a, b, w = links[rng.randrange(len(links))]
        step_epoch(store, graph, [RemoveLink(a, b, w)])
        want = oracle.widest_paths_bruteforce(graph, WIDEST)
        assert oracle.compare_view(want, store.established_rules()) == [], f"graph {gi}+rm"
        store.check_integrity(graph)
    _passed(4, "30 random graphs: widest-path view equals brute force, "
               "tie-breaks included, before and after a removal")


def test_c05_path_retrieval_latency(k16_hop):
    _topo, graph, store = k16_hop
    view = store.established_rules()
    nodes = sorted(graph.nodes)
    rng = random.Random(5)
    singles = []
    for _ in range(2000):
        s, t = rng.sample(nodes, 2)
        t0 = time.perf_counter()
        retrieve(view, s, t)
        singles.append(time.perf_counter() - t0)
    median_ms = statistics.median(singles) * 1e3

    batch = [tuple(rng.sample(nodes, 2)) for _ in range(8192)]
    t0 = time.perf_counter()
    for s, t in batch:
        retrieve(view, s, t)
    batch_s = time.perf_counter() - t0

    assert median_ms < 1.0, f"median single retrieval {median_ms:.3f}ms (target <1ms)"
    assert batch_s < 1.0, f"8192-request batch took {batch_s:.3f}s (target <1s)"
    _passed(5, f"fat-tree k=16: median retrieval {median_ms * 1e3:.1f}us, "
               f"8192-request batch in {batch_s * 1e3:.0f}ms")


def _failure_trials(topo, graph, store, trials, seed):
    rng = random.Random(seed)
    latencies = []
    for _ in range(trials):
        a, b, p = topo.links[rng.randrange(len(topo.links))]
        t0 = time.perf_counter()
        step_epoch(store, graph, [RemoveLink(a, b)])
        latencies.append(time.perf_counter() - t0)
        step_epoch(store, graph, [AddLink(a, b, p)])
    return statistics.median(latencies) * 1e3, max(latencies) * 1e3


def test_c06_failure_recovery_latency(k8_hop, k16_hop):
    topo8, graph8, store8 = k8_hop
    before8 = dict(store8._est)
    med8, worst8 = _failure_trials(topo8, graph8, store8, trials=40, seed=6)
    assert store8._est == before8

    topo16, graph16, store16 = k16_hop
    before16 = dict(store16._est)
    med16, worst16 = _failure_trials(topo16, graph16, store16, trials=25, seed=6)
    assert store16._est == before16

    assert med8 < 100.0, f"k=8 median {med8:.1f}ms (target <100ms)"
    assert med16 < 500.0, f"k=16 median {med16:.1f}ms (target <500ms)"
    _passed(6, f"failure fixpoint medians: k=8 {med8:.1f}ms (<100ms), "
               f"k=16 {med16:.1f}ms (<500ms); worsts {worst8:.0f}/{worst16:.0f}ms")


def test_c07_waypoint_latency(k16_hop):
    _topo, graph, store = k16_hop
    engine = PolicyEngine(graph, store, HOP)
    nodes = sorted(graph.nodes)
    rng = random.Random(7)
    latencies = []
    for pid in range(100):
        stops = rng.sample(nodes, 7)
        text = f"{stops[0]} : {' '.join(map(str, stops[1:6]))} : {stops[6]}"
        engine.add(parse_policy(pid, text))
        t0 = time.perf_counter()
        result = engine.evaluate(pid)
        latencies.append(time.perf_counter() - t0)
        hops = result.paths[0].hops
        pos = 0
        for stop in stops:
            pos = hops.index(stop, pos)
    median_ms = statistics.median(latencies) * 1e3
    assert median_ms < 10.0, f"median waypoint evaluation {median_ms:.2f}ms"
    _passed(7, f"100 five-waypoint policies on k=16: median {median_ms:.2f}ms "
               f"(<10ms), all visit their waypoints in order")


def test_c07_not_constraints_match_the_oracle(k8_uniform):
    topo, graph, store = k8_uniform
    engine = PolicyEngine(graph, store, SD)
    nodes = sorted(graph.nodes)
    rng = random.Random(71)
    checked = 0
    for pid in range(15):
        excluded = set(rng.sample(nodes, rng.randint(1, 3)))
        s, t = rng.sample(sorted(set(nodes) - excluded), 2)
        body = " ".join(f"!{x}" for x in sorted(excluded))
        engine.add(parse_policy(pid, f"{s} : {body} : {t}"))
        result = engine.evaluate(pid)
        path = result.paths[0]
        assert not excluded & set(path.hops)
        pruned = graph.fork()
        for x in excluded:
            pruned.apply_deltas(pruned.ingest_event(RemoveNode(x), SD.link_cost))
        want = oracle.apsp_additive(pruned, SD)
        assert path.cost == want.cost_of(s, t)
        # every destination's search tree, not just this pair, matches the
        # node-deleted oracle
        view = {
            (x, d): ForwardingRule(x, d, key[2], key[0], key[1])
            for d in pruned.nodes
            for x, key in search(graph, SD, d, frozenset(excluded)).items()
        }
        assert oracle.compare_view(want, view) == []
        checked += 1
    _passed(7, f"{checked} NOT-constraint policies equal the node-deleted "
               f"oracle, zero tolerance")


def test_c07_backup_pairs_are_link_disjoint(k8_uniform):
    _topo, graph, store = k8_uniform
    engine = PolicyEngine(graph, store, SD)
    nodes = sorted(graph.nodes)
    rng = random.Random(72)
    for pid in range(200):
        s, t = rng.sample(nodes, 2)
        engine.add(parse_policy(pid, f"{s} : backup : {t}"))
        primary, backup = engine.evaluate(pid).paths
        taken = {frozenset(e) for e in path_links(primary)}
        overlap = [e for e in path_links(backup) if frozenset(e) in taken]
        assert overlap == [], f"policy {pid}: shared links {overlap}"
    _passed(7, "200 backup pairs on k=8 are link-disjoint, zero violations")


def test_c08_event_orderings_emit_identical_batches():
    # events on distinct links commute, so an epoch's batch must not depend
    # on the order its events are listed in
    topo = wl.gen_fattree(8, wl.WeightPlan(wl.PlanKind.UNIFORM, seed=88))
    engines = []
    for _ in range(3):
        graph = build_graph(topo, SD.link_cost)
        engines.append((graph, initialize(graph, SD)))
    rng = random.Random(8)
    up = {(a, b): p for a, b, p in topo.links}
    down: dict = {}
    for epoch in range(1, 101):
        events = []
        for a, b in rng.sample(sorted(up) + sorted(down), 4):
            if (a, b) in down:
                up[(a, b)] = down.pop((a, b))
                events.append(AddLink(a, b, up[(a, b)]))
            elif rng.random() < 0.5:
                down[(a, b)] = up.pop((a, b))
                events.append(RemoveLink(a, b))
            else:
                u = float(rng.randint(1, 99))
                up[(a, b)] = replace(up[(a, b)], utilization=u)
                events.append(UpdateWeight(a, b, u))
        orders = [events, events[::-1], rng.sample(events, len(events))]
        batches = [
            step_epoch(store, graph, order)
            for (graph, store), order in zip(engines, orders)
        ]
        assert batches[0] == batches[1] == batches[2], f"epoch {epoch} diverged"
    assert engines[0][0] == engines[1][0] == engines[2][0]
    _passed(8, "100 epochs of 4 events on distinct links, listed in three "
               "orders: identical change batches")


def test_c09_weight_update_batches(k8_uniform):
    topo, _graph, _store = k8_uniform
    table = []
    for size in [1, 2, 4, 8, 16, 32, 64]:
        scenario = wl.Scenario(wl.ScenarioKind.WEIGHT_UPDATE_BATCHES,
                               trials=50, batch_size=size, seed=size)
        lines = wl.gen_weight_update_batches(topo, scenario)
        graph = build_graph(topo, SD.link_cost)
        store = initialize(graph, SD)
        latencies = []
        events = []
        for line in lines[1:]:
            if line.startswith("epoch"):
                if events:
                    t0 = time.perf_counter()
                    step_epoch(store, graph, events)
                    latencies.append(time.perf_counter() - t0)
                    want = oracle.apsp_additive(graph, SD)
                    assert oracle.compare_view(want, store.established_rules()) == []
                    events = []
            else:
                events.append(parse_event(line))
        if events:
            t0 = time.perf_counter()
            step_epoch(store, graph, events)
            latencies.append(time.perf_counter() - t0)
            want = oracle.apsp_additive(graph, SD)
            assert oracle.compare_view(want, store.established_rules()) == []
        med_us = statistics.median(latencies) * 1e6
        table.append((size, len(latencies), med_us, size * 1e6 / med_us))
    print("\nbatch_size  batches  median_us  updates_per_s")
    for size, batches, med_us, ups in table:
        print(f"{size:10d}  {batches:7d}  {med_us:9.0f}  {ups:13.0f}")
    _passed(9, f"weight batches at sizes {{1..64}}: oracle-equivalent after "
               f"every batch; throughput table above (timing not asserted)")


def test_c10_delta_hygiene_and_reversibility(k8_hop, k8_uniform, k16_hop):
    # every long-lived store from the criteria above is still clean
    for _topo, graph, store in (k8_hop, k8_uniform, k16_hop):
        store.check_integrity(graph)
        graph.check_integrity()

    # scripted reversals restore the exact initial state
    for gi in range(10):
        rng = random.Random(9000 + gi)
        topo = random_connected_topology(rng, rng.randint(10, 30))
        graph = build_graph(topo, SD.link_cost)
        store = initialize(graph, SD)
        graph0 = graph.fork()
        est0 = dict(store._est)
        cands0 = candidates(store, graph)

        links = sorted({(min(a, b), max(a, b), w) for (a, b, w), _ in graph.edge_items()})
        removed = rng.sample(links, min(4, len(links) - 1))
        a_u, b_u, w_u = next(l for l in links if l not in removed)
        forward = [RemoveLink(a, b, w) for a, b, w in removed]
        forward.append(UpdateWeight(a_u, b_u, 99.0))
        inverse = [UpdateWeight(a_u, b_u, w_u)]
        inverse += [AddLink(a, b, props(utilization=w)) for a, b, w in reversed(removed)]
        for ev in forward + inverse:
            step_epoch(store, graph, [ev])
            store.check_integrity(graph)
        assert graph == graph0
        assert store._est == est0
        assert candidates(store, graph) == cands0
    _passed(10, "no zero multiplicities anywhere; full reversals restore the "
                "exact initial established view and candidate multisets")
