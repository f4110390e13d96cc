from dataclasses import replace

import pytest

from deltapath import workloads as wl
from deltapath.errors import InfeasibleError, OddArityError
from deltapath.graph_model import (
    NodeLabel, NodeRecord, RemoveNode, Topology, build_graph, parse_event,
)
from deltapath.strategy import builtin

HOP = builtin("hop_count")


class TestFattree:
    def test_k4_counts(self):
        topo = wl.gen_fattree(4)
        assert len(topo.nodes) == 20
        assert len(topo.links) == 32

    def test_k2_is_five_switches(self):
        topo = wl.gen_fattree(2)
        assert len(topo.nodes) == 5
        assert len(topo.links) == 4

    def test_k48_matches_the_big_deployment(self):
        topo = wl.gen_fattree(48)
        assert len(topo.nodes) == 2880

    def test_odd_arity_rejected(self):
        with pytest.raises(OddArityError):
            wl.gen_fattree(5)
        with pytest.raises(OddArityError):
            wl.gen_fattree(0)

    def test_every_edge_switch_reaches_every_other(self):
        topo = wl.gen_fattree(4)
        g = build_graph(topo, HOP.link_cost)
        edges = range(4 * 4 // 2)  # edge switches take ids 0 .. k*k/2 - 1
        # BFS from one edge switch covers the whole switch fabric within 4 hops
        dist = {edges[0]: 0}
        frontier = [edges[0]]
        while frontier:
            nxt = []
            for u in frontier:
                for (v, _w), _m in g.out_edges(u).items():
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        assert set(dist) == set(n.id for n in topo.nodes)
        assert max(dist[e] for e in edges) <= 4

    def test_hosts_as_metadata_by_default(self):
        topo = wl.gen_fattree(4)
        assert {n.label for n in topo.nodes} == {NodeLabel.SWITCH}
        with_hosts = wl.gen_fattree(4, hosts=True)
        assert len(with_hosts.nodes) == 20 + 16
        hosts = [n.id for n in with_hosts.nodes if n.label is NodeLabel.HOST]
        assert len(hosts) == 16
        # two hosts hang off each of the eight edge switches
        assert sorted(a for a, b, _p in with_hosts.links if b in hosts) == [
            e for e in range(8) for _ in range(2)
        ]

    def test_uniform_plan_draws_integers_in_range(self):
        topo = wl.gen_fattree(4, wl.WeightPlan(wl.PlanKind.UNIFORM, seed=3))
        utils = {p.utilization for _a, _b, p in topo.links}
        assert all(1 <= u <= 100 and u == int(u) for u in utils)
        assert len(utils) > 3
        hop_topo = wl.gen_fattree(4)
        assert all(p.utilization == 0.0 for _a, _b, p in hop_topo.links)


class TestJellyfish:
    def test_small_regular_graph(self):
        topo = wl.gen_jellyfish(10, 3, seed=1)
        assert len(topo.links) == 15
        degree = {n.id: 0 for n in topo.nodes}
        for a, b, _p in topo.links:
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {3}

    def test_complete_graph_at_r_equals_n_minus_1(self):
        topo = wl.gen_jellyfish(6, 5, seed=1)
        assert len(topo.links) == 15

    def test_deployment_scale_fractional_degree(self):
        topo = wl.gen_jellyfish(1280, 10.8, seed=7)
        assert len(topo.nodes) == 1280
        assert len(topo.links) == 6912

    def test_same_seed_same_graph(self):
        a = wl.gen_jellyfish(20, 4, seed=5)
        b = wl.gen_jellyfish(20, 4, seed=5)
        assert a.links == b.links

    @pytest.mark.parametrize("seed", range(4))
    def test_simple_and_connected(self, seed):
        topo = wl.gen_jellyfish(24, 3, seed=seed)
        pairs = {(min(a, b), max(a, b)) for a, b, _p in topo.links}
        assert len(pairs) == len(topo.links)  # simple: no parallels
        assert all(a != b for a, b in pairs)
        adj = {}
        for a, b in pairs:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        seen, frontier = {0}, [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        assert len(seen) == 24

    def test_infeasible_parameters(self):
        with pytest.raises(InfeasibleError):
            wl.gen_jellyfish(5, 3, seed=1)  # odd stub count
        with pytest.raises(InfeasibleError):
            wl.gen_jellyfish(4, 4, seed=1)  # r >= n


class TestScenarios:
    def test_link_failures_are_one_removal_per_epoch(self):
        topo = wl.gen_fattree(4)
        lines = list(wl.gen_failure_events(
            topo, wl.Scenario(wl.ScenarioKind.LINK_FAILURE, trials=20, seed=9)
        ))
        epochs = [l for l in lines if l.startswith("epoch")]
        removals = [l for l in lines if l.startswith("-link")]
        resets = [l for l in lines if l == "reset"]
        assert len(epochs) == len(removals) == len(resets) == 20
        for l in removals:
            parse_event(l)

    def test_switch_failure_expands_at_ingest(self):
        topo = wl.gen_fattree(4)
        lines = wl.gen_failure_events(
            topo, wl.Scenario(wl.ScenarioKind.SWITCH_FAILURE, trials=5, seed=2)
        )
        ev = parse_event(next(l for l in lines if l.startswith("-node")))
        assert isinstance(ev, RemoveNode)
        g = build_graph(topo, HOP.link_cost)
        degree = sum(1 for _ in g.out_edges(ev.id).items())
        recs = g.ingest_event(ev, HOP.link_cost)
        assert len(recs) == degree

    def test_fixed_seed_reproduces_the_file(self):
        topo = wl.gen_fattree(4)
        sc = wl.Scenario(wl.ScenarioKind.LINK_FAILURE, trials=10, seed=4)
        assert list(wl.gen_failure_events(topo, sc)) == list(wl.gen_failure_events(topo, sc))

    def test_weight_batches_follow_paths_and_clamp(self):
        topo = wl.gen_fattree(4, wl.WeightPlan(wl.PlanKind.UNIFORM, seed=11))
        sc = wl.Scenario(wl.ScenarioKind.WEIGHT_UPDATE_BATCHES, trials=40, batch_size=4, seed=3)
        lines = wl.gen_weight_update_batches(topo, sc)
        updates = [l for l in lines if l.startswith("weight")]
        assert len(updates) == 40 * 4
        utils = {}
        for l in updates:
            ev = parse_event(l)
            key = (min(ev.a, ev.b), max(ev.a, ev.b))
            # each update raises by exactly 5 points until the clamp
            prev = utils.get(key)
            if prev is not None:
                assert ev.utilization == min(100.0, prev + 5.0)
            assert 1.0 <= ev.utilization <= 100.0
            utils[key] = ev.utilization

    def test_weight_batch_lines_keep_the_applied_utilization(self):
        topo = wl.gen_fattree(4, wl.WeightPlan(wl.PlanKind.UNIFORM, seed=11))
        links = [(a, b, replace(p, utilization=p.utilization - 0.6543211))
                 for a, b, p in topo.links]
        topo = Topology(topo.nodes, links)
        util = {(min(a, b), max(a, b)): p.utilization for a, b, p in links}
        sc = wl.Scenario(wl.ScenarioKind.WEIGHT_UPDATE_BATCHES, trials=30, batch_size=4, seed=3)
        updates = [l for l in wl.gen_weight_update_batches(topo, sc) if l.startswith("weight")]
        assert len(updates) == 30 * 4
        for line in updates:
            ev = parse_event(line)
            key = (min(ev.a, ev.b), max(ev.a, ev.b))
            util[key] = min(100.0, util[key] + 5.0)
            assert ev.utilization == util[key], line

    def test_weight_batch_size_is_respected_per_epoch(self):
        topo = wl.gen_fattree(4, wl.WeightPlan(wl.PlanKind.UNIFORM, seed=1))
        sc = wl.Scenario(wl.ScenarioKind.WEIGHT_UPDATE_BATCHES, trials=6, batch_size=8, seed=5)
        lines = list(wl.gen_weight_update_batches(topo, sc))
        count = 0
        sizes = []
        for line in lines[1:]:
            if line.startswith("epoch"):
                if count:
                    sizes.append(count)
                count = 0
            elif line.startswith("weight"):
                count += 1
        sizes.append(count)
        assert sizes == [8] * 6

    def test_request_batches(self):
        topo = wl.gen_fattree(4)
        sc = wl.Scenario(wl.ScenarioKind.PATH_REQUEST_BATCHES, trials=3, batch_size=5, seed=0)
        lines = wl.gen_request_batches(topo, sc)
        reqs = [l for l in lines if l.startswith("req")]
        assert len(reqs) == 15
        flows = [int(l.split()[1]) for l in reqs]
        assert flows == list(range(1, 16))

    def test_sweep_constants(self):
        assert wl.WEIGHT_BATCH_SIZES == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        assert wl.PATH_REQUEST_SIZES[-1] == 8192
        assert len(wl.PATH_REQUEST_SIZES) == 14

    def test_generate_dispatch(self):
        topo = wl.gen_fattree(2, wl.WeightPlan(wl.PlanKind.UNIFORM, seed=2))
        for kind in wl.ScenarioKind:
            lines = list(wl.generate(topo, wl.Scenario(kind, trials=2, seed=1)))
            assert lines[0].startswith("#")

    def test_weight_batches_demand_the_uniform_plan(self):
        topo = wl.gen_fattree(2)
        with pytest.raises(InfeasibleError):
            wl.gen_weight_update_batches(
                topo, wl.Scenario(wl.ScenarioKind.WEIGHT_UPDATE_BATCHES, trials=1)
            )

    @pytest.mark.parametrize("kind,nodes,missing", [
        (wl.ScenarioKind.LINK_FAILURE, 3, "at least one link"),
        (wl.ScenarioKind.SWITCH_FAILURE, 0, "at least one node"),
        (wl.ScenarioKind.PATH_REQUEST_BATCHES, 1, "at least two nodes"),
        (wl.ScenarioKind.WEIGHT_UPDATE_BATCHES, 1, "at least two nodes"),
    ])
    def test_degenerate_topologies_are_infeasible(self, kind, nodes, missing):
        topo = Topology([NodeRecord(i) for i in range(nodes)], [])
        with pytest.raises(InfeasibleError, match=missing):
            wl.generate(topo, wl.Scenario(kind, trials=2, seed=1))

    @pytest.mark.parametrize("kind,trials,batch_size,want", [
        ("link-failure", 3, 1, ["-link 4 12", "-link 13 18", "-link 0 9"]),
        ("switch-failure", 3, 1, ["-node 19", "-node 4", "-node 13"]),
        ("path-requests", 2, 2, ["req 1 19 4", "req 2 13 16", "req 3 0 14", "req 4 11 1"]),
        ("weight-batches", 2, 2, [
            "weight 13 19 utilization=82.0", "weight 4 13 utilization=24.0",
            "weight 4 13 utilization=29.0", "weight 4 12 utilization=44.0",
        ]),
    ])
    def test_seeded_lines_are_pinned(self, kind, trials, batch_size, want):
        """Benchmarks built on these generators (perfbench's churn batches
        among them) depend on a seed giving the same lines."""
        topo = wl.gen_fattree(4, wl.WeightPlan(wl.PlanKind.UNIFORM, seed=11))
        sc = wl.Scenario(wl.ScenarioKind(kind), trials=trials, batch_size=batch_size, seed=5)
        lines = wl.generate(topo, sc)
        assert [l for l in lines if l.split()[0] not in ("#", "epoch", "reset")] == want

    def test_write_lines(self, tmp_path):
        path = tmp_path / "events.txt"
        wl.write_lines(["epoch 1", "-link 0 1"], path)
        assert path.read_text() == "epoch 1\n-link 0 1\n"
