import random
from dataclasses import replace

import pytest

from deltapath import oracle, policy_engine as pe
from deltapath.errors import (
    NoBackupError,
    PolicySyntaxError,
    UnknownNodeError,
    UnreachableError,
)
from deltapath.graph_model import AddLink, AddNode, RemoveLink, RemoveNode, build_graph
from deltapath.path_retrieval import Path, path_links, retrieve
from deltapath.routing_core import initialize, step_epoch
from deltapath.strategy import builtin, builtin_names
from deltapath.workloads import PlanKind, WeightPlan, gen_jellyfish

from conftest import (
    props,
    random_connected_topology,
    random_events,
    rules_by_id,
    search_tree,
    triangle,
    utilization_topology,
)

SD = builtin("sd_utilization")
FREE_BW = builtin("sd_free_bw")
WIDEST = builtin("shortest_widest")
BUILTINS = [builtin(name) for name in builtin_names()]


def engine_for(topo):
    g = build_graph(topo, SD.link_cost)
    rules = initialize(g, SD)
    return g, rules, pe.PolicyEngine(g, rules, SD)


def without_nodes(g, nodes):
    pruned = g.fork()
    for n in sorted(nodes):
        pruned.apply_deltas(pruned.ingest_event(RemoveNode(n), SD.link_cost))
    return pruned


def oracle_tree(want, dst):
    """The oracle's rules toward `dst` in the search's key form (SD costs
    are unsigned): node -> (cost, length, next)."""
    return {s: want.triple(s, dst) for s in want.ids if want.reachable(s, dst)}


class TestParse:
    def test_waypoint_form(self):
        p = pe.parse_policy(1, "10 : 42 : 77")
        assert p == pe.Policy(1, 10, 77, pe.Waypoints((42,)))

    def test_not_form(self):
        p = pe.parse_policy(2, "10 : !42 : 77")
        assert p == pe.Policy(2, 10, 77, pe.NotNodes(frozenset({42})))

    def test_backup_form(self):
        p = pe.parse_policy(3, "10 : backup : 77")
        assert p == pe.Policy(3, 10, 77, pe.PathRule.BACKUP)
        assert pe.parse_policy(4, "10:2way:77").body is pe.PathRule.TWO_WAY
        assert pe.parse_policy(5, "10:redundant:77").body is pe.PathRule.REDUNDANT

    def test_multiple_constraints_in_either_spelling(self):
        assert pe.parse_policy(6, "1 : 2 : 3 : 4").body == pe.Waypoints((2, 3))
        assert pe.parse_policy(7, "1 : 2 3 : 4").body == pe.Waypoints((2, 3))
        assert pe.parse_policy(8, "1 : !2 !3 : 4").body == pe.NotNodes(
            frozenset({2, 3})
        )

    def test_degenerate_empty_constraints(self):
        assert pe.parse_policy(9, "1 :: 4").body == pe.Waypoints(())

    @pytest.mark.parametrize(
        "text",
        ["10", "a : 1 : b", "1 : 2 !3 : 4", "1 : !x : 4", "1 : !1 : 4"],
    )
    def test_rejects_bad_grammar(self, text):
        with pytest.raises(PolicySyntaxError):
            pe.parse_policy(0, text)

    def test_unknown_nodes_rejected_at_add(self, triangle_graph):
        rules = initialize(triangle_graph, SD)
        engine = pe.PolicyEngine(triangle_graph, rules, SD)
        with pytest.raises(UnknownNodeError):
            engine.add(pe.parse_policy(1, "0 : 9 : 2"))
        with pytest.raises(UnknownNodeError):
            engine.add(pe.parse_policy(2, "0 : !9 : 2"))


class TestWaypoints:
    def test_single_waypoint_on_triangle(self):
        _g, _rules, engine = engine_for(triangle())
        engine.add(pe.parse_policy(1, "0 : 1 : 2"))
        res = engine.evaluate(1)
        assert res.paths[0].hops == (0, 1, 2)
        assert res.paths[0].cost == 2.0
        assert not res.revisits

    def test_no_constraints_reduces_to_plain_retrieval(self):
        _g, rules, engine = engine_for(triangle())
        engine.add(pe.parse_policy(1, "0 :: 2"))
        res = engine.evaluate(1)
        assert res.paths[0] == retrieve(rules.established_rules(), 0, 2)

    def test_five_waypoints_visit_in_order_with_oracle_segments(self):
        rng = random.Random(4)
        topo = random_connected_topology(rng, 20)
        g, _rules, engine = engine_for(topo)
        want = oracle.solve(g, SD)
        stops = [0, 5, 11, 3, 17, 8, 19]
        engine.add(pe.parse_policy(1, "0 : 5 11 3 17 8 : 19"))
        res = engine.evaluate(1)
        hops = res.paths[0].hops
        # waypoints appear in order
        pos = 0
        for stop in stops:
            pos = hops.index(stop, pos)
        # each segment is the oracle optimum; total cost is their sum
        assert res.paths[0].cost == pytest.approx(
            sum(want.cost_of(a, b) for a, b in zip(stops, stops[1:]))
        )

    def test_revisits_are_flagged(self):
        # path graph: going 0 -> 2 -> 1 must revisit node 1
        topo = utilization_topology(3, [(0, 1, 1), (1, 2, 1)])
        _g, _rules, engine = engine_for(topo)
        engine.add(pe.parse_policy(1, "0 : 2 : 1"))
        res = engine.evaluate(1)
        assert res.paths[0].hops == (0, 1, 2, 1)
        assert res.revisits

    @pytest.mark.parametrize("strategy", [SD, FREE_BW, WIDEST], ids=lambda s: s.name)
    def test_builtin_cost_combines_the_segment_costs(self, strategy):
        rng = random.Random(8)
        g = build_graph(random_connected_topology(rng, 16), strategy.link_cost)
        rules = initialize(g, strategy)
        engine = pe.PolicyEngine(g, rules, strategy)
        view = rules.established_rules()
        combine = min if strategy.maximize else sum
        for pid in range(20):
            stops = rng.sample(range(16), 4)
            engine.add(pe.Policy(pid, stops[0], stops[-1], pe.Waypoints(tuple(stops[1:-1]))))
            want = combine(retrieve(view, a, b).cost for a, b in zip(stops, stops[1:]))
            assert engine.evaluate(pid).paths[0].cost == want

    def test_tautology_counts_once_per_path(self):
        # a tautology that is not the sum's identity: 0 -> 2 costs 2 + (3 + 1)
        strategy = replace(SD, tautology_cost=1.0)
        g = build_graph(utilization_topology(3, [(0, 1, 2), (1, 2, 3)]), strategy.link_cost)
        rules = initialize(g, strategy)
        engine = pe.PolicyEngine(g, rules, strategy)
        engine.add(pe.parse_policy(1, "0 : 1 : 2"))
        path = engine.evaluate(1).paths[0]
        assert path == retrieve(rules.established_rules(), 0, 2)
        assert path.cost == 6.0

    @pytest.mark.parametrize("base", [SD, WIDEST], ids=lambda s: s.name)
    def test_custom_path_cost_is_folded_over_the_hops(self, base):
        """A lambda clone of a built-in path cost, over fractional weights
        and parallel links, costs a waypoint path as the fold of its path
        cost over the hops, each over its best parallel link."""
        fp = (lambda w, c: min(w, c)) if base.maximize else (lambda w, c: w + c)
        strategy = replace(base, path_cost=fp)
        rng = random.Random(9)
        topo = random_connected_topology(rng, 14)
        topo.links = [(a, b, replace(p, utilization=rng.uniform(0.1, 9.9)))
                      for a, b, p in topo.links + topo.links[:6]]
        g = build_graph(topo, strategy.link_cost)
        engine = pe.PolicyEngine(g, initialize(g, strategy), strategy)
        best = max if strategy.maximize else min
        weights = {}
        for (a, b, w), _m in g.edge_items():
            weights[(a, b)] = best(w, weights.get((a, b), w))
        for pid in range(40):
            stops = rng.sample(range(14), 4)
            engine.add(pe.Policy(pid, stops[0], stops[-1], pe.Waypoints(tuple(stops[1:-1]))))
            path = engine.evaluate(pid).paths[0]
            cost = strategy.tautology_cost
            for e in reversed(path_links(path)):
                cost = strategy.path_cost(weights[e], cost)
            assert path.cost == cost


class TestNotConstraints:
    def test_excluding_the_relay_takes_the_heavy_edge(self):
        _g, _rules, engine = engine_for(triangle())
        engine.add(pe.parse_policy(1, "0 : !1 : 2"))
        res = engine.evaluate(1)
        assert res.paths[0].hops == (0, 2)
        assert res.paths[0].cost == 3.0

    def test_excluding_an_off_path_node_changes_nothing(self):
        topo = utilization_topology(4, [(0, 1, 1), (1, 2, 1), (0, 3, 5), (3, 2, 5)])
        _g, rules, engine = engine_for(topo)
        engine.add(pe.parse_policy(1, "0 : !3 : 2"))
        res = engine.evaluate(1)
        assert res.paths[0] == retrieve(rules.established_rules(), 0, 2)

    def test_excluding_a_cut_vertex_is_unreachable(self):
        topo = utilization_topology(3, [(0, 1, 1), (1, 2, 1)])
        _g, _rules, engine = engine_for(topo)
        engine.add(pe.parse_policy(1, "0 : !1 : 2"))
        with pytest.raises(UnreachableError):
            engine.evaluate(1)

    def test_excluded_node_already_gone_from_base(self):
        topo = utilization_topology(4, [(0, 1, 1), (1, 2, 1), (0, 3, 5), (3, 2, 5)])
        g, rules, engine = engine_for(topo)
        engine.add(pe.parse_policy(1, "0 : !3 : 2"))
        step_epoch(rules, g, [RemoveNode(3)])
        res = engine.evaluate(1)
        assert res.paths[0].hops == (0, 1, 2)

    def test_excluding_both_ends_of_a_link(self):
        topo = utilization_topology(
            5, [(0, 1, 1), (1, 2, 1), (2, 4, 1), (0, 3, 5), (3, 4, 5)]
        )
        g, _rules, engine = engine_for(topo)
        engine.add(pe.parse_policy(1, "0 : !1 !2 : 4"))
        res = engine.evaluate(1)
        assert res.paths[0].hops == (0, 3, 4)
        pruned = without_nodes(g, {1, 2})
        assert res.paths[0].cost == oracle.solve(pruned, SD).cost_of(0, 4)

    def test_widest_path_avoiding_the_base_path_matches_the_oracle(self):
        # NOT the inner nodes of each pair's own path, so every mask bites
        rng = random.Random(5)
        g = build_graph(random_connected_topology(rng, 14), WIDEST.link_cost)
        rules = initialize(g, WIDEST)
        engine = pe.PolicyEngine(g, rules, WIDEST)
        pairs = [(s, t) for s in range(14) for t in range(14)]
        outcomes = set()
        for pid, (s, t) in enumerate(rng.sample(pairs, 40)):
            skip = frozenset(retrieve(rules.established_rules(), s, t).hops[1:-1])
            if not skip:
                continue
            engine.add(pe.Policy(pid, s, t, pe.NotNodes(skip)))
            want = oracle.solve(without_nodes(g, skip), WIDEST)
            outcomes.add(want.reachable(s, t))
            if not want.reachable(s, t):
                with pytest.raises(UnreachableError):
                    engine.evaluate(pid)
                continue
            path = engine.evaluate(pid).paths[0]
            assert not skip & set(path.hops)
            assert path.cost == want.cost_of(s, t) > 0
        assert outcomes == {True, False}

    def test_search_tree_tracks_epochs(self):
        rng = random.Random(12)
        topo = random_connected_topology(rng, 12)
        g, rules, _engine = engine_for(topo)
        for ev in random_events(rng, g, 15):
            step_epoch(rules, g, [ev])
            # the tree toward 9 equals a fresh solve of (graph minus node 5)
            want = oracle.solve(without_nodes(g, {5}), SD)
            assert search_tree(g, SD, 9, frozenset({5})) == oracle_tree(want, 9)

    def test_link_inside_excluded_star_leaves_result_unchanged(self):
        topo = utilization_topology(4, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (0, 2, 4)])
        g, rules, engine = engine_for(topo)
        engine.add(pe.parse_policy(1, "0 : !3 : 2"))
        before = engine.evaluate(1).paths
        step_epoch(rules, g, [RemoveLink(1, 3)])
        assert engine.evaluate(1).paths == before


class TestBackup:
    def test_square_gives_the_two_disjoint_sides(self):
        topo = utilization_topology(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        _g, _rules, engine = engine_for(topo)
        engine.add(pe.parse_policy(1, "0 : backup : 2"))
        res = engine.evaluate(1)
        primary, backup = res.paths
        assert primary.hops == (0, 1, 2)  # tie broken toward smaller next id
        assert backup.hops == (0, 3, 2)
        assert res.kind == "failover"

    def test_triangle_backup_is_the_direct_link(self):
        _g, _rules, engine = engine_for(triangle())
        engine.add(pe.parse_policy(1, "0 : backup : 2"))
        primary, backup = engine.evaluate(1).paths
        assert primary.hops == (0, 1, 2) and primary.cost == 2.0
        assert backup.hops == (0, 2) and backup.cost == 3.0

    def test_path_graph_has_no_backup(self):
        topo = utilization_topology(3, [(0, 1, 1), (1, 2, 1)])
        _g, _rules, engine = engine_for(topo)
        engine.add(pe.parse_policy(1, "0 : backup : 2"))
        with pytest.raises(NoBackupError):
            engine.evaluate(1)

    def test_disjointness_on_random_graphs(self):
        rng = random.Random(77)
        hits = 0
        for seed in range(6):
            topo = random_connected_topology(random.Random(seed), 12, avg_degree=4.0)
            _g, _rules, engine = engine_for(topo)
            s, t = rng.sample(range(12), 2)
            engine.add(pe.parse_policy(1, f"{s} : 2way : {t}"))
            try:
                res = engine.evaluate(1)
            except NoBackupError:
                continue
            hits += 1
            primary, backup = res.paths
            undirected = {frozenset(e) for e in path_links(primary)}
            assert all(frozenset(e) not in undirected for e in path_links(backup))
            assert res.kind == "split"
        assert hits >= 3  # the fixture actually exercises the property

    def test_base_store_is_untouched_by_backup_eval(self):
        g, rules, engine = engine_for(triangle())
        before = dict(rules._est)
        engine.add(pe.parse_policy(1, "0 : redundant : 2"))
        res = engine.evaluate(1)
        assert res.kind == "duplicate"
        assert rules._est == before
        assert g.multiplicity(0, 1, 1.0) == 1


def oracle_path(want, s, d) -> Path:
    """The oracle's route from s to d, read along its next hops."""
    hops = [s]
    while hops[-1] != d:
        hops.append(want.next_of(hops[-1], d))
    return Path(tuple(hops), want.cost_of(s, d))


class TestStoreSlots:
    """NOT and backup searches write their rows over the rule store's own
    slots, which stop following the graph's sorted order once a removed
    node leaves its slot dead and a fresh id takes the next one."""

    @pytest.mark.parametrize("strategy", BUILTINS, ids=lambda s: s.name)
    def test_not_and_backup_over_a_dead_and_an_appended_slot(self, strategy):
        topo = gen_jellyfish(20, 4, WeightPlan(PlanKind.UNIFORM, seed=7), seed=7)
        g = build_graph(topo, strategy.link_cost)
        rules = initialize(g, strategy)
        engine = pe.PolicyEngine(g, rules, strategy)
        step_epoch(rules, g, [RemoveNode(7)])
        # -2 stays alone, so that some groups have no rule
        fresh = -1
        step_epoch(rules, g, [AddNode(-2), AddNode(fresh),
                              AddLink(fresh, 3, props(utilization=2.0)),
                              AddLink(fresh, 12, props(utilization=4.0))])
        assert rules.ids[-2:] == [-2, fresh] and 7 in rules.slot and 7 not in g.nodes
        assert rules.ids != sorted(g.nodes)
        nots = [(fresh, {5, 9}, 15), (0, {3}, fresh), (fresh, {3}, 18), (11, {2, 6}, 4)]
        for pid, (s, avoid, t) in enumerate(nots):
            engine.add(pe.Policy(pid, s, t, pe.NotNodes(frozenset(avoid))))
            path = engine.evaluate(pid).paths[0]
            assert path == oracle_path(oracle.solve(without_nodes(g, avoid), strategy), s, t)
        for pid, (s, t) in enumerate([(fresh, 15), (16, fresh), (1, 19)], len(nots)):
            engine.add(pe.parse_policy(pid, f"{s} : backup : {t}"))
            primary, backup = engine.evaluate(pid).paths
            pruned = g.fork()
            for a, b in path_links(primary):
                for w in pruned.weights_between(a, b):
                    pruned.apply_deltas(pruned.ingest_event(RemoveLink(a, b, w),
                                                            strategy.link_cost))
            assert backup == oracle_path(oracle.solve(pruned, strategy), s, t)
        # a custom path cost is set up by one search per destination; its
        # rule count is what its rows hold, the rules the epochs kept
        custom = replace(strategy, name="custom", path_cost=lambda w, c: strategy.path_cost(w, c))
        store = initialize(g, custom)
        assert store.rule_count() == sum(map(len, rules_by_id(store).values()))
        assert store.rule_count() == rules.rule_count()
        assert rules_by_id(store) == rules_by_id(rules)
