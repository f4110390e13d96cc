import math
import random

import pytest

from deltapath import oracle
from deltapath.errors import InvalidWeightError, TooLargeError
from deltapath.graph_model import RemoveLink, build_graph
from deltapath.strategy import builtin

from conftest import (
    props,
    random_connected_topology,
    topology,
    triangle,
    utilization_topology,
)

SD = builtin("sd_utilization")
WIDEST = builtin("shortest_widest")


def sd_graph(n, weighted_links):
    return build_graph(utilization_topology(n, weighted_links), SD.link_cost)


def width_graph(n, links_with_caps):
    # capacity plays the width role (utilization 0)
    topo = topology(n, [(a, b, props(capacity=float(c))) for a, b, c in links_with_caps])
    return build_graph(topo, WIDEST.link_cost)


# --- an independent slow reference: per-pair label correction with the
# --- selection order written out as a key (keeps the oracle honest)


def slow_reference(graph, strategy):
    def key(cand):
        nxt, cost, length = cand
        return (-cost if strategy.maximize else cost, length, nxt)

    nodes = sorted(graph.nodes)
    best = {}  # (s, t) -> (next, cost, length)
    for t in nodes:
        best[(t, t)] = (t, strategy.tautology_cost, 0)
    changed = True
    while changed:
        changed = False
        for s in nodes:
            for t in nodes:
                cands = []
                if s == t:
                    cands.append((t, strategy.tautology_cost, 0))
                for (x, w), _m in graph.out_edges(s).items():
                    via = best.get((x, t))
                    if via is None:
                        continue
                    cands.append((x, strategy.path_cost(w, via[1]), via[2] + 1))
                if not cands:
                    continue
                winner = min(cands, key=key)
                if best.get((s, t)) != winner:
                    best[(s, t)] = winner
                    changed = True
    return best


def assert_matches_slow(result, graph, strategy):
    slow = slow_reference(graph, strategy)
    for s in sorted(graph.nodes):
        for t in sorted(graph.nodes):
            expect = slow.get((s, t))
            if expect is None:
                assert not result.reachable(s, t), (s, t)
                continue
            assert result.reachable(s, t), (s, t)
            nxt, cost, length = expect
            assert result.cost_of(s, t) == pytest.approx(cost, rel=1e-12), (s, t)
            assert result.length_of(s, t) == length, (s, t)
            assert result.next_of(s, t) == nxt, (s, t)


class TestAdditive:
    def test_triangle_by_hand(self):
        g = build_graph(triangle(), SD.link_cost)
        r = oracle.apsp_additive(g, SD)
        assert r.cost_of(0, 2) == 2
        assert r.length_of(0, 2) == 2
        assert r.next_of(0, 2) == 1
        assert r.witnesses(0, 2) == {1}
        assert r.cost_of(0, 0) == 0 and r.next_of(0, 0) == 0

    def test_unit_star(self):
        g = sd_graph(5, [(0, i, 1) for i in range(1, 5)])
        r = oracle.apsp_additive(g, SD)
        assert all(r.cost_of(0, i) == 1 for i in range(1, 5))
        assert r.cost_of(1, 2) == 2 and r.next_of(1, 2) == 0

    def test_disconnected_pair(self):
        g = sd_graph(4, [(0, 1, 1), (2, 3, 1)])
        r = oracle.apsp_additive(g, SD)
        assert not r.reachable(0, 3)
        assert r.triple(0, 3) is None
        assert r.next_of(0, 3) is None

    def test_rejects_widest_strategy(self):
        g = sd_graph(2, [(0, 1, 1)])
        with pytest.raises(InvalidWeightError):
            oracle.apsp_additive(g, WIDEST)

    def test_unit_weights_equal_bfs(self):
        rng = random.Random(7)
        topo = random_connected_topology(rng, 24)
        hop = builtin("hop_count")
        g = build_graph(topo, hop.link_cost)
        r = oracle.apsp_additive(g, hop)
        # BFS per source
        for s in range(24):
            dist = {s: 0}
            frontier = [s]
            while frontier:
                nxt = []
                for u in frontier:
                    for (v, _w), _m in g.out_edges(u).items():
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
            for t, d in dist.items():
                assert r.cost_of(s, t) == d
                assert r.length_of(s, t) == d

    def test_suffix_optimality(self):
        rng = random.Random(21)
        g = build_graph(random_connected_topology(rng, 30), SD.link_cost)
        r = oracle.apsp_additive(g, SD)
        for s, t, cost, length, nxt in r.pairs():
            if s == t:
                continue
            w = min(w for (dst, w) in g.out_edges(s) if dst == nxt)
            assert cost == pytest.approx(w + r.cost_of(nxt, t))
            assert length == 1 + r.length_of(nxt, t)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_slow_reference_integer_weights(self, seed):
        rng = random.Random(seed)
        g = build_graph(random_connected_topology(rng, rng.randint(5, 12)), SD.link_cost)
        assert_matches_slow(oracle.apsp_additive(g, SD), g, SD)

    @pytest.mark.parametrize("seed", range(6, 10))
    def test_matches_slow_reference_real_weights(self, seed):
        rng = random.Random(seed)
        topo = random_connected_topology(rng, rng.randint(5, 12))
        free_bw = builtin("sd_free_bw")
        g = build_graph(topo, free_bw.link_cost)
        assert_matches_slow(oracle.apsp_additive(g, free_bw), g, free_bw)

    def test_parallel_links_use_the_cheapest(self):
        g = sd_graph(2, [(0, 1, 5), (0, 1, 2)])
        r = oracle.apsp_additive(g, SD)
        assert r.cost_of(0, 1) == 2


class TestWidest:
    def test_two_routes_take_the_wider(self):
        # 0-1-2 bottleneck 3 vs 0-3-2 bottleneck 5
        g = width_graph(4, [(0, 1, 3), (1, 2, 6), (0, 3, 5), (3, 2, 9)])
        r = oracle.widest_paths_bruteforce(g, WIDEST)
        assert r.cost_of(0, 2) == 5
        assert r.next_of(0, 2) == 3
        assert r.length_of(0, 2) == 2

    def test_equal_width_prefers_direct_link(self):
        g = width_graph(3, [(0, 2, 7), (0, 1, 7), (1, 2, 7)])
        r = oracle.widest_paths_bruteforce(g, WIDEST)
        assert r.cost_of(0, 2) == 7
        assert r.length_of(0, 2) == 1
        assert r.next_of(0, 2) == 2

    def test_single_edge_graph(self):
        g = width_graph(2, [(0, 1, 4)])
        r = oracle.widest_paths_bruteforce(g, WIDEST)
        assert r.cost_of(0, 1) == 4
        assert r.cost_of(0, 0) == math.inf

    def test_too_large_is_rejected(self):
        g = width_graph(15, [(i, i + 1, 1) for i in range(14)])
        with pytest.raises(TooLargeError):
            oracle.widest_paths_bruteforce(g, WIDEST)

    def test_parallel_links_use_the_widest(self):
        g = width_graph(2, [(0, 1, 2), (0, 1, 8)])
        r = oracle.widest_paths_bruteforce(g, WIDEST)
        assert r.cost_of(0, 1) == 8

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_slow_reference(self, seed):
        rng = random.Random(100 + seed)
        links = []
        n = rng.randint(4, 10)
        topo = random_connected_topology(rng, n)
        links = [(a, b, props(capacity=float(rng.randint(1, 9)))) for a, b, _p in topo.links]
        g = build_graph(topology(n, links), WIDEST.link_cost)
        assert_matches_slow(oracle.widest_paths_bruteforce(g, WIDEST), g, WIDEST)

    def test_reference_agrees_with_bruteforce(self):
        rng = random.Random(33)
        n = 11
        topo = random_connected_topology(rng, n)
        links = [(a, b, props(capacity=float(rng.randint(1, 6)))) for a, b, _p in topo.links]
        g = build_graph(topology(n, links), WIDEST.link_cost)
        brute = oracle.widest_paths_bruteforce(g, WIDEST)
        ref = oracle.widest_reference(g, WIDEST)
        for s in range(n):
            for t in range(n):
                assert brute.triple(s, t) == ref.triple(s, t)


class TestAffectedPairs:
    def test_identical_graphs(self, triangle_graph):
        assert oracle.affected_pairs(triangle_graph, triangle_graph, SD) == set()

    def test_leaf_unlink_touches_all_its_pairs(self):
        g = sd_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        after = g.fork()
        after.apply_deltas(after.ingest_event(RemoveLink(2, 3), SD.link_cost))
        changed = oracle.affected_pairs(g, after, SD)
        assert changed == {(0, 3), (1, 3), (2, 3), (3, 0), (3, 1), (3, 2)}

    def test_triangle_minus_one_edge(self, triangle_graph):
        after = triangle_graph.fork()
        after.apply_deltas(after.ingest_event(RemoveLink(0, 1), SD.link_cost))
        changed = oracle.affected_pairs(triangle_graph, after, SD)
        assert changed == {(0, 1), (1, 0), (0, 2), (2, 0)}


def test_compare_view_reports_divergence(triangle_graph):
    from deltapath.routing_core import ForwardingRule

    r = oracle.apsp_additive(triangle_graph, SD)
    good = {
        (s, t): ForwardingRule(s, t, nxt, cost, length, 1)
        for s, t, cost, length, nxt in r.pairs()
    }
    assert oracle.compare_view(r, good) == []
    bad = dict(good)
    bad[(0, 2)] = bad[(0, 2)]._replace(p_cost=99.0)
    assert oracle.compare_view(r, bad) == [(0, 2, "cost 99.0 vs oracle 2.0")]
    del bad[(0, 2)]
    assert oracle.compare_view(r, bad) == [(0, 2, "oracle-reachable pair missing from engine")]
