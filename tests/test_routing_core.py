import copy
import gc
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltapath import oracle
from deltapath import routing_core as rc
from deltapath.errors import (
    DeltaPathError,
    IntegrityError,
    InvalidWeightError,
    NonConvergenceError,
    UnknownLinkError,
)
from deltapath.graph_model import (
    AddLink,
    AddNode,
    GraphStore,
    NodeRecord,
    RemoveLink,
    RemoveNode,
    Topology,
    UpdateWeight,
    build_graph,
)
from deltapath.policy_engine import NotNodes, PathRule, Policy, PolicyEngine, parse_policy
from deltapath.strategy import (
    Strategy,
    WeightDomain,
    builtin,
    builtin_names,
    cost_typecode,
    path_cost_kind,
)
from deltapath.workloads import PlanKind, WeightPlan, gen_fattree, gen_jellyfish

from rounds_reference import candidates, solve_rounds, step_rounds

from conftest import (
    affected_pairs,
    all_fixpoint,
    key_at,
    loose_topologies,
    props,
    random_connected_topology,
    random_events,
    real_weight_topologies,
    rules_by_id,
    search_tree,
    set_key,
    slotted_store,
    topology,
    triangle,
    utilization_topology,
    widest_paths_bruteforce,
)

SD = builtin("sd_utilization")
FREE_BW = builtin("sd_free_bw")
HOP = builtin("hop_count")
WIDEST = builtin("shortest_widest")
BUILTINS = [builtin(name) for name in builtin_names()]
# the columns of a row, in the order its tuple holds them
COLUMNS = ("cost", "length", "next")


def recount(store) -> int:
    """The rules in the rows, counted afresh."""
    return sum(map(len, rules_by_id(store).values()))


def sd_engine(n, weighted_links):
    g = build_graph(utilization_topology(n, weighted_links), SD.link_cost)
    return g, rc.initialize(g, SD)


class TestInitialize:
    def test_single_node(self):
        g = GraphStore()
        g.add_node(NodeRecord(5))
        store = rc.initialize(g, SD)
        view = store.established_rules()
        assert len(view) == 1
        assert view[(5, 5)] == rc.ForwardingRule(5, 5, 5, 0.0, 0, 1)

    def test_empty_topology_rejected(self):
        with pytest.raises(DeltaPathError):
            rc.initialize(GraphStore(), SD)

    def test_triangle_routes_around_the_heavy_edge(self):
        g = build_graph(triangle(), SD.link_cost)
        store = rc.initialize(g, SD)
        want = oracle.solve(g, SD)
        rule = store.established_rules()[(0, 2)]
        assert (rule.p_cost, rule.p_length, rule.next) == (
            want.cost_of(0, 2), want.length_of(0, 2), want.next_of(0, 2),
        )
        assert rule.next == 1 and rule.p_cost == 2
        # 3 tautologies + 14 derivations; 3-hop derivations are length-capped
        assert sum(len(c) for c in candidates(store, g).values()) == 17

    def test_hop_count_prefers_direct_links(self):
        topo = random_connected_topology(random.Random(3), 15)
        g = build_graph(topo, HOP.link_cost)
        store = rc.initialize(g, HOP)
        view = store.established_rules()
        for a, b, _p in topo.links:
            assert view[(a, b)].p_cost == 1
            assert view[(a, b)].p_length == 1
            assert view[(b, a)].next == a

    def test_connected_graph_has_all_pairs(self):
        n = 17
        topo = random_connected_topology(random.Random(11), n)
        g = build_graph(topo, SD.link_cost)
        store = rc.initialize(g, SD)
        assert store.rule_count() == n * n
        store.check_integrity(g)


class TestStepEpoch:
    def test_empty_batch_changes_nothing(self, triangle_graph):
        store = rc.initialize(triangle_graph, SD)
        before = dict(store._est)
        assert rc.step_epoch(store, triangle_graph, []) == []
        assert store._est == before
        assert store.epoch == 1

    def test_weight_update_retracts_and_replaces(self):
        # the worked update example: (1,3) drops from weight 5 to 3
        g, store = sd_engine(4, [(1, 3, 5), (1, 2, 2), (2, 3, 2)])
        batch = rc.step_epoch(store, g, [UpdateWeight(1, 3, 3.0)])
        assert rc.ForwardingRule(1, 3, 2, 4.0, 2, -1) in batch  # old 2-hop route
        assert rc.ForwardingRule(1, 3, 3, 3.0, 1, 1) in batch   # direct at new weight
        assert rc.ForwardingRule(3, 1, 2, 4.0, 2, -1) in batch
        assert rc.ForwardingRule(3, 1, 1, 3.0, 1, 1) in batch
        store.check_integrity(g)

    def test_triangle_link_removal_matches_oracle_diff(self, triangle_graph):
        store = rc.initialize(triangle_graph, SD)
        before = triangle_graph.fork()
        batch = rc.step_epoch(store, triangle_graph, [RemoveLink(0, 1)])
        rule = store.established_rules()[(0, 2)]
        assert (rule.next, rule.p_cost, rule.p_length) == (2, 3.0, 1)
        changed_pairs = {(r.src, r.dst) for r in batch}
        assert changed_pairs == affected_pairs(before, triangle_graph, SD)

    def test_output_applies_as_edits(self):
        rng = random.Random(5)
        topo = random_connected_topology(rng, 14)
        g = build_graph(topo, SD.link_cost)
        store = rc.initialize(g, SD)
        mirror = {
            (s, d): rule for (s, d), rule in store.established_rules().items()
        }
        for ev in random_events(rng, g, 40):
            batch = rc.step_epoch(store, g, [ev])
            for r in batch:
                if r.delta == -1:
                    assert mirror.pop((r.src, r.dst)) == r._replace(delta=1)
            for r in batch:
                if r.delta == 1:
                    mirror[(r.src, r.dst)] = r
            assert mirror == dict(store.established_rules().items())

    def test_node_removal_drops_all_its_pairs(self):
        g, store = sd_engine(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 9)])
        rc.step_epoch(store, g, [RemoveNode(1)])
        view = store.established_rules()
        assert all(1 not in pair for pair in view)
        assert view[(0, 2)].p_cost == 10.0  # rerouted over the heavy edge
        store.check_integrity(g)

    def test_node_add_then_link(self):
        g, store = sd_engine(2, [(0, 1, 1)])
        batch = rc.step_epoch(
            store, g, [AddNode(2), AddLink(1, 2, props(utilization=4.0))]
        )
        view = store.established_rules()
        assert view[(2, 2)].p_cost == 0.0
        assert view[(0, 2)].p_cost == 5.0
        assert rc.ForwardingRule(2, 2, 2, 0.0, 0, 1) in batch
        store.check_integrity(g)

    def test_removing_both_ends_of_a_link_in_one_epoch(self):
        g = build_graph(gen_fattree(4), HOP.link_cost)
        store = rc.initialize(g, HOP)
        before = dict(store._est)
        (a, b, _w), _m = next(g.edge_items())
        labels = {n: g.nodes[n].label for n in (a, b)}
        links = {
            (min(n, x), max(n, x), w): g.link_props(n, x, w)
            for n in (a, b)
            for (x, w) in g.out_edges(n)
        }
        rc.step_epoch(store, g, [RemoveNode(a), RemoveNode(b)])
        g.check_integrity()
        store.check_integrity(g)
        assert oracle.compare_view(
            oracle.solve(g, HOP), store.established_rules()
        ) == []
        restore = [AddNode(n, labels[n]) for n in (a, b)]
        restore += [AddLink(x, y, p) for (x, y, _w), p in links.items()]
        rc.step_epoch(store, g, restore)
        assert store._est == before


class TestHorizonGrowth:
    def build_square(self):
        # 0-1-2-3 with a heavy chord 3-0: best (0,3) path has 3 hops
        return sd_engine(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 9)])

    def test_added_node_can_use_full_length_paths(self):
        g, store = self.build_square()
        rc.step_epoch(store, g, [AddNode(4), AddLink(4, 0, props(utilization=1.0))])
        rule = store.established_rules()[(4, 3)]
        assert (rule.p_cost, rule.p_length) == (4.0, 4)
        store.check_integrity(g)

    def test_retraction_after_growth_stays_exact(self):
        g, store = self.build_square()
        rc.step_epoch(store, g, [AddNode(4), AddLink(4, 0, props(utilization=1.0))])
        # force retraction of the long-established chain in the grown graph
        rc.step_epoch(store, g, [UpdateWeight(1, 2, 90.0)])
        want = oracle.solve(g, SD)
        assert oracle.compare_view(want, store.established_rules()) == []
        store.check_integrity(g)
        # and shrink again: removals must not leak stale candidates
        rc.step_epoch(store, g, [RemoveNode(4)])
        store.check_integrity(g)


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_event_replay_matches_oracle(self, seed):
        rng = random.Random(seed)
        strategy = (SD, HOP, builtin("sd_free_bw"))[seed % 3]
        topo = random_connected_topology(rng, rng.randint(6, 18))
        g = build_graph(topo, strategy.link_cost)
        store = rc.initialize(g, strategy)
        for ev in random_events(rng, g, 30):
            rc.step_epoch(store, g, [ev])
            # exact under sd_free_bw's fractional weights too
            bad = oracle.compare_view(oracle.solve(g, strategy), store.established_rules())
            assert bad == [], bad[:5]
            store.check_integrity(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_equals_reinitialize(self, seed):
        rng = random.Random(100 + seed)
        topo = random_connected_topology(rng, 12)
        g = build_graph(topo, SD.link_cost)
        store = rc.initialize(g, SD)
        for ev in random_events(rng, g, 20):
            rc.step_epoch(store, g, [ev])
            fresh = rc.initialize(g, SD)
            assert store._est == fresh._est

    def test_full_reversal_restores_everything(self):
        rng = random.Random(17)
        topo = random_connected_topology(rng, 12)
        g = build_graph(topo, SD.link_cost)
        store = rc.initialize(g, SD)
        est0 = dict(store._est)
        graph0 = g.fork()
        # scripted: remove three links, update one, then invert in reverse order
        links = sorted({(min(s, d), max(s, d), w) for (s, d, w), _ in g.edge_items()})
        picks = rng.sample(links, 4)
        forward = [RemoveLink(a, b, w) for a, b, w in picks[:3]]
        a, b, w = picks[3]
        forward.append(UpdateWeight(a, b, 77.0))
        inverse = [UpdateWeight(a, b, w)]
        for a2, b2, w2 in reversed(picks[:3]):
            inverse.append(AddLink(a2, b2, props(utilization=w2)))
        for ev in forward + inverse:
            rc.step_epoch(store, g, [ev])
        assert g == graph0
        assert store._est == est0

    def test_widest_matches_bruteforce(self):
        rng = random.Random(23)
        for _ in range(4):
            n = rng.randint(4, 10)
            topo = random_connected_topology(rng, n)
            links = [
                (a, b, props(capacity=float(rng.randint(1, 8))))
                for a, b, _p in topo.links
            ]
            g = build_graph(topology(n, links), WIDEST.link_cost)
            store = rc.initialize(g, WIDEST)
            want = widest_paths_bruteforce(g, WIDEST)
            assert oracle.compare_view(want, store.established_rules()) == []
            # a removal epoch keeps them aligned
            a, b, w = sorted({(s, d, w) for (s, d, w), _ in g.edge_items()})[0]
            rc.step_epoch(store, g, [RemoveLink(a, b, w)])
            want = widest_paths_bruteforce(g, WIDEST)
            assert oracle.compare_view(want, store.established_rules()) == []
            store.check_integrity(g)


class TestWidestRepair:
    def test_entry_from_a_changed_neighbour_is_skipped(self):
        """Linking 0-3 widens 4's route toward 0 but makes it longer, so
        the rule 4's child 2 had through 4 gets worse.  2 is reseeded from
        its neighbour 1 before 1 settles with a new key; that entry extends
        1's old key and must be skipped."""
        links = [(0, 4, 1.0), (1, 2, 1.0), (1, 4, 3.0), (2, 4, 1.0), (3, 4, 2.0)]
        g = build_graph(
            topology(5, [(a, b, props(capacity=c)) for a, b, c in links]),
            WIDEST.link_cost,
        )
        store = rc.initialize(g, WIDEST)
        assert key_at(store, 0, 2) == (-1.0, 2, 4)
        assert key_at(store, 0, 1) == (-1.0, 2, 4)
        rc.step_epoch(store, g, [AddLink(3, 0, props(capacity=3.0))])
        assert key_at(store, 0, 4) == (-2.0, 2, 3)
        assert key_at(store, 0, 1) == (-2.0, 3, 4)
        assert key_at(store, 0, 2) == (-1.0, 3, 4)  # not (-1.0, 3, 1)
        assert store.last_stats.stale_pops >= 1
        assert store._est == rc.initialize(g, WIDEST)._est
        want = widest_paths_bruteforce(g, WIDEST)
        assert oracle.compare_view(want, store.established_rules()) == []

    def test_worse_child_with_a_tight_neighbour_only_moves_its_next(self):
        """A child that a settled node makes worse goes through phase 1's
        decision: one with another neighbour that extends to its cost and
        length keeps them, and nothing is dropped."""
        capacity = {(0, 1): 1, (0, 3): 1, (1, 2): 3, (1, 4): 3, (1, 5): 1,
                    (1, 6): 3, (2, 3): 3, (2, 4): 2, (2, 5): 1, (3, 6): 1,
                    (4, 5): 1}
        g = build_graph(
            topology(7, [(a, b, props(capacity=float(c))) for (a, b), c in capacity.items()]),
            WIDEST.link_cost,
        )
        store = rc.initialize(g, WIDEST)
        rc.step_epoch(store, g, [AddLink(0, 4, props(capacity=3.0))])
        assert store.last_stats.groups_invalidated == 0
        assert store._est == rc.initialize(g, WIDEST)._est


class TestEpochStats:
    def test_switch_failures_do_not_count_to_the_horizon(self):
        g = build_graph(gen_fattree(8), HOP.link_cost)
        store = rc.initialize(g, HOP)
        for node in sorted(g.nodes):
            restore = [AddNode(node, g.nodes[node].label)]
            for (x, w), mult in g.out_edges(node).items():
                restore += [AddLink(node, x, g.link_props(node, x, w))] * mult
            batch = rc.step_epoch(store, g, [RemoveNode(node)])
            stats = store.last_stats
            assert stats.heap_pops <= 2 * stats.groups_invalidated, (node, stats)
            assert stats.groups_changed == len({(r.src, r.dst) for r in batch})
            assert min(stats.ingest_ns, stats.invalidate_ns,
                       stats.recompute_ns, stats.diff_ns) > 0
            rc.step_epoch(store, g, restore)

    def test_rules_equal_a_recount(self):
        """`rules`, kept from each batch's +1 and -1, equals a recount of
        the rows after a link failure, a switch failure, a weight batch and
        a node added with its links, and `rule_count()` reads it.  The
        weight batch re-weights 8 of the 32 links, 16 edge changes, and is
        re-solved: each live destination, and none repaired."""
        g = build_graph(gen_fattree(4, WeightPlan(PlanKind.UNIFORM, seed=4)), SD.link_cost)
        store = rc.initialize(g, SD)
        assert store.rule_count() == recount(store) == 400
        links = sorted({(a, b) for (a, b, _w), _m in g.edge_items() if a < b})
        epochs = [
            [RemoveLink(*links[0])],
            [RemoveNode(links[5][0])],
            [UpdateWeight(a, b, float(10 + i)) for i, (a, b) in enumerate(links[8:16])],
            [AddNode(10**6), AddLink(10**6, links[20][0], props(utilization=3.0))],
        ]
        for events in epochs:
            rc.step_epoch(store, g, events)
            stats = store.last_stats
            assert stats.rules == recount(store) == store.rule_count(), events
            assert len(store.established_rules()) == store.rule_count()
            if isinstance(events[0], UpdateWeight):
                assert (stats.destinations_resolved, stats.destinations_repaired) == (19, 0)
            else:
                assert stats.destinations_resolved == 0 < stats.destinations_repaired

    def test_empty_epoch_does_no_work(self, triangle_graph):
        store = rc.initialize(triangle_graph, SD)
        assert store.last_stats is None
        rc.step_epoch(store, triangle_graph, [])
        stats = store.last_stats
        assert (stats.destinations_repaired, stats.destinations_resolved,
                stats.groups_invalidated, stats.heap_pops, stats.groups_changed) == (0, 0, 0, 0, 0)


class TestStress:
    def test_parallel_links_against_the_oracle(self):
        rng = random.Random(61)
        topo = random_connected_topology(rng, 10)
        g = build_graph(topo, SD.link_cost)
        store = rc.initialize(g, SD)
        graph0 = g.fork()
        est0 = dict(store._est)
        pairs = sorted({(min(a, b), max(a, b), w) for (a, b, w), _ in g.edge_items()})
        forward = []
        for a, b, w in rng.sample(pairs, 5):
            # an exact duplicate (multiplicity 2) and a parallel different weight
            forward.append(AddLink(a, b, props(utilization=w)))
            forward.append(AddLink(a, b, props(utilization=float(int(w) % 100 + 1))))
        for ev in forward:
            rc.step_epoch(store, g, [ev])
            bad = oracle.compare_view(
                oracle.solve(g, SD), store.established_rules()
            )
            assert bad == [], bad[:3]
            store.check_integrity(g)
        # removing one copy of a doubled link must not change any route
        a, b, w = forward[0].a, forward[0].b, SD.link_cost(forward[0].props)
        view_before = dict(store._est)
        rc.step_epoch(store, g, [RemoveLink(a, b, w)])
        assert store._est == view_before
        rc.step_epoch(store, g, [AddLink(a, b, forward[0].props)])
        # full unwind restores the initial state exactly
        for ev in reversed(forward):
            w_ev = SD.link_cost(ev.props)
            rc.step_epoch(store, g, [RemoveLink(ev.a, ev.b, w_ev)])
        assert g == graph0
        assert store._est == est0

    def test_node_churn_against_the_oracle(self):
        rng = random.Random(62)
        topo = random_connected_topology(rng, 12)
        g = build_graph(topo, SD.link_cost)
        store = rc.initialize(g, SD)
        next_id = 12
        live_extra = []
        for step in range(40):
            roll = rng.random()
            if roll < 0.3:
                anchor_pool = sorted(g.nodes)
                anchors = rng.sample(anchor_pool, min(2, len(anchor_pool)))
                events = [AddNode(next_id)]
                events += [
                    AddLink(a, next_id, props(utilization=float(rng.randint(1, 100))))
                    for a in anchors
                ]
                live_extra.append(next_id)
                next_id += 1
            elif roll < 0.5 and live_extra:
                events = [RemoveNode(live_extra.pop(rng.randrange(len(live_extra))))]
            else:
                events = random_events(rng, g, 1)
            rc.step_epoch(store, g, events)
            bad = oracle.compare_view(
                oracle.solve(g, SD), store.established_rules()
            )
            assert bad == [], (step, bad[:3])
            store.check_integrity(g)


class TestIntegrity:
    def engine(self):
        topo = random_connected_topology(random.Random(41), 12)
        g = build_graph(topo, SD.link_cost)
        store = rc.initialize(g, SD)
        store.check_integrity(g)
        return g, store

    def test_worse_established_key_is_caught(self):
        g, store = self.engine()
        group, cands = next(
            (grp, c) for grp, c in sorted(candidates(store, g).items()) if len(c) > 1
        )
        worse = sorted(cands)[1]
        set_key(store, group[1], group[0], worse)
        with pytest.raises(AssertionError, match="stale selection"):
            store.check_integrity(g)

    def test_deleted_pair_is_caught(self):
        g, store = self.engine()
        # a pair no other rule routes through, so only its own group breaks
        via = {(key[2], d) for d, row in rules_by_id(store).items()
               for s, key in row.items() if s != d}
        s, d = next(p for p in sorted(store.established_rules())
                    if p[0] != p[1] and p not in via)
        set_key(store, d, s, None)
        with pytest.raises(AssertionError, match="no rule"):
            store.check_integrity(g)

    @pytest.mark.parametrize("column", ["cost", "length", "next"])
    def test_short_column_is_caught(self, column):
        g, store = self.engine()
        row = list(store._est[3])
        k = COLUMNS.index(column)
        row[k] = row[k][:-1]
        store._est[3] = tuple(row)
        with pytest.raises(AssertionError, match="column of the row of 3 is not as long"):
            store.check_integrity(g)

    def test_next_past_the_slots_is_caught(self):
        g, store = self.engine()
        set_key(store, 3, 5, key_at(store, 3, 5))  # a copy of the row, to write
        store._est[3][2][store.slot[5]] = len(store.ids)
        with pytest.raises(AssertionError, match="row of 3 names a next past the slots"):
            store.check_integrity(g)

    @pytest.mark.parametrize("column,value", [("cost", 5.0), ("length", 2), ("next", -2)])
    def test_empty_entry_that_is_not_the_empty_rule_is_caught(self, column, value):
        g, store = self.engine()
        set_key(store, 3, 5, None)
        store._est[3][COLUMNS.index(column)][store.slot[5]] = value
        with pytest.raises(AssertionError, match=r"\(5, 3\) has no rule but is not the empty"):
            store.check_integrity(g)

    @pytest.mark.parametrize("corruption,message", [
        ("another_id", "slot 3 holds 3, whose slot is 5"),
        ("no_slot", "slot 5 holds 99, which has no slot"),
        ("extra_id", "12 nodes have a slot but 13 slots hold a node"),
    ])
    def test_slots_and_ids_that_are_not_inverse_are_caught(self, corruption, message):
        g, store = self.engine()
        assert store.ids == list(range(12))
        if corruption == "another_id":
            store.slot[3], store.slot[5] = store.slot[5], store.slot[3]
        elif corruption == "no_slot":
            store.ids[5] = 99
        else:
            store.ids.append(99)
        with pytest.raises(AssertionError, match=message):
            store.check_integrity(g)

    def test_group_of_a_removed_node_is_caught(self):
        g, store = self.engine()
        # the node leaves the table but its links and rules stay behind
        del g.nodes[5]
        with pytest.raises(AssertionError, match="names a removed node"):
            store.check_integrity(g)


class TestAtomicEpochs:
    @pytest.mark.parametrize("events,error", [
        ([RemoveNode(3), RemoveLink(0, 99)], UnknownLinkError),
        ([AddNode(100), RemoveLink(0, 8), RemoveLink(0, 8)], UnknownLinkError),
        ([UpdateWeight(0, 8, 50.0), RemoveLink(0, 99)], UnknownLinkError),
        ([AddLink(0, 8, props(delay=3.0)), RemoveLink(0, 99)], UnknownLinkError),
    ], ids=["remove-node", "add-node", "refresh-props", "parallel-props"])
    def test_failed_epoch_changes_nothing(self, events, error):
        g = build_graph(gen_fattree(4), HOP.link_cost)
        store = rc.initialize(g, HOP)
        graph0, est0, ids0 = g.fork(), dict(store._est), list(store.ids)
        with pytest.raises(error):
            rc.step_epoch(store, g, events)
        assert g == graph0
        g.check_integrity()
        assert store._est == est0
        assert store.epoch == 0
        assert store.rule_count() == recount(store) == 400
        assert store.ids == ids0 and store.slot == {v: i for i, v in enumerate(ids0)}

    @pytest.mark.parametrize("event", [
        AddLink(0, 2, props(utilization=0.0)),
        UpdateWeight(0, 1, 0.0),
    ], ids=["add-link", "update-weight"])
    def test_weight_outside_the_domain_changes_nothing(self, event):
        # initialize rejects a 0.0 sd_utilization weight; an epoch must too
        g = build_graph(utilization_topology(3, [(0, 1, 5), (1, 2, 5)]), SD.link_cost)
        store = rc.initialize(g, SD)
        graph0, est0 = g.fork(), dict(store._est)
        with pytest.raises(InvalidWeightError, match="outside domain"):
            rc.step_epoch(store, g, [event])
        assert g == graph0
        g.check_integrity()
        assert store._est == est0
        assert store.epoch == 0

    def test_failed_repair_changes_nothing(self):
        # the last update gives an edge of weight 1, over which DIPPING
        # makes a path cheaper: the repair raises after changing rules
        g = build_graph(
            utilization_topology(6, [(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5),
                                     (4, 5, 5), (5, 0, 5), (0, 3, 7)]),
            DIPPING.link_cost,
        )
        store = rc.initialize(g, DIPPING)
        graph0, est0 = g.fork(), dict(store._est)
        valid = [UpdateWeight(0, 1, 9.0), RemoveLink(0, 3)]
        with pytest.raises(NonConvergenceError):
            rc.step_epoch(store, g, valid + [UpdateWeight(2, 3, 1.0)])
        assert g == graph0
        g.check_integrity()
        assert store._est == est0
        assert store.epoch == 0
        rc.step_epoch(store, g, valid)
        store.check_integrity(g)

    @pytest.mark.parametrize("site", ["rule", "sort"])
    def test_a_fault_while_building_the_batch_changes_nothing(self, monkeypatch, site):
        """MemoryError from the batch's first ForwardingRule, or from its
        sort, in a link failure: the graph, the rows, `epoch` and
        `last_stats` stay as they were, and the next clean epoch emits
        what an untouched engine emits."""
        class Unsortable(rc.ForwardingRule):
            __slots__ = ()

            def __lt__(self, other):
                raise MemoryError

        class NoRule(rc.ForwardingRule):
            """Fails at its first construction, by call or by `_make`."""
            __slots__ = ()

            def __new__(cls, *args):
                raise MemoryError

            @classmethod
            def _make(cls, iterable):
                raise MemoryError

        topo = gen_fattree(4)
        a, b, _p = topo.links[0]
        g = build_graph(topo, HOP.link_cost)
        store = rc.initialize(g, HOP)
        rc.step_epoch(store, g, [])
        graph0, est0, stats0 = g.fork(), copy.deepcopy(store._est), store.last_stats
        with monkeypatch.context() as m:
            m.setattr(rc, "ForwardingRule", NoRule if site == "rule" else Unsortable)
            with pytest.raises(MemoryError):
                rc.step_epoch(store, g, [RemoveLink(a, b)])
        assert g == graph0
        assert store._est == est0
        assert store.epoch == 1 and store.last_stats is stats0
        assert store.rule_count() == stats0.rules == 400
        g_clean = build_graph(topo, HOP.link_cost)
        clean = rc.initialize(g_clean, HOP)
        rc.step_epoch(clean, g_clean, [])
        batch = rc.step_epoch(store, g, [RemoveLink(a, b)])
        assert batch and batch == rc.step_epoch(clean, g_clean, [RemoveLink(a, b)])
        assert store.epoch == clean.epoch == 2

    @pytest.mark.parametrize("site", ["_relaxed_costs", "_fill_rows"])
    @pytest.mark.parametrize("born", [False, True], ids=["weights", "weights-and-a-birth"])
    def test_a_fault_in_the_resolve_changes_nothing(self, monkeypatch, site, born):
        """MemoryError from the re-solve's second call to `_relaxed_costs`
        or `_fill_rows`, with blocks of 64 destinations, so that the first
        block of fat-tree k=8's 80 (81 with a node born) is already in the
        rows: the graph, the rows, the slots, `epoch`, `last_stats` and the
        rule count stay as they were, every list in the graph's edge cache
        is the graph's, and the next clean epoch emits what an untouched
        engine emits."""
        topo = gen_fattree(8, WeightPlan(PlanKind.UNIFORM, seed=2))
        g = build_graph(topo, SD.link_cost)
        store = rc.initialize(g, SD)
        links = sorted({(a, b) for (a, b, _w), _m in g.edge_items() if a < b})
        events = [UpdateWeight(a, b, float(1 + 7 * i % 97)) for i, (a, b) in enumerate(links[:40])]
        if born:
            events = [AddNode(10**6), AddLink(10**6, links[0][0], props(utilization=5.0))] + events
        graph0, est0, rows0, ids0 = g.fork(), copy.deepcopy(store._est), dict(store._est), list(store.ids)
        cached = rc._near_of(store, g)
        for x in g.nodes:
            cached[x]  # every list cached before the epoch writes edges
        real, calls = getattr(rc, site), []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise MemoryError
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(rc, "_BLOCK_ELEMENTS", 1)
            m.setattr(rc, site, failing)
            with pytest.raises(MemoryError):
                rc.step_epoch(store, g, events)
        assert len(calls) == 2
        assert g == graph0
        assert store._est == est0 and store._est.keys() == rows0.keys()
        assert all(store._est[d] is row for d, row in rows0.items())
        assert store.ids == ids0 and store.slot == {v: i for i, v in enumerate(ids0)}
        assert store.epoch == 0 and store.last_stats is None
        assert store.rule_count() == recount(store) == 6400
        fresh = rc._Near(g, store.slot)
        assert all(g.edge_cache[x] == fresh[x] for x in g.nodes)
        g_clean = build_graph(topo, SD.link_cost)
        clean = rc.initialize(g_clean, SD)
        batch = rc.step_epoch(store, g, events)
        assert batch and batch == rc.step_epoch(clean, g_clean, events)
        assert store.last_stats.destinations_resolved == len(g.nodes)
        assert_same_stores(store, clean)
        store.check_integrity(g)

    def test_failed_first_epoch_leaves_the_store_empty(self):
        g, store = GraphStore(), rc.RuleStore(SHRINKING)
        events = [AddNode(0), AddNode(1), AddNode(2)]
        events += [AddLink(a, b, props()) for a, b in [(0, 1), (1, 2), (2, 0)]]
        with pytest.raises(NonConvergenceError):
            rc.step_epoch(store, g, events)
        assert g == GraphStore()
        assert store._est == {}
        assert store.epoch == -1
        assert store.rule_count() == 0 and store.ids == [] and store.slot == {}


class TestSnapshots:
    """`dict(store._est)` copies only the table of rows, and is still a
    true snapshot: a row is never changed once its epoch ends, because an
    epoch copies a row before its first write.  The benchmark's set-up and
    restore checks and `bench`'s undo check rely on this."""

    @staticmethod
    def links(g):
        return sorted({(a, b) for (a, b, _w), _m in g.edge_items() if a < b})

    def test_a_shallow_copy_outlives_every_kind_of_epoch(self):
        g = build_graph(gen_fattree(4, WeightPlan(PlanKind.UNIFORM, seed=4)), SD.link_cost)
        store = rc.initialize(g, SD)
        epochs = [
            lambda: [RemoveLink(*self.links(g)[0])],
            lambda: [RemoveNode(self.links(g)[5][0])],
            lambda: [UpdateWeight(a, b, float(10 + i))
                     for i, (a, b) in enumerate(self.links(g)[8:16])],
        ]
        for events in epochs:
            shallow, deep = dict(store._est), copy.deepcopy(store._est)
            assert rc.step_epoch(store, g, events()) != []
            assert shallow == deep
            store.check_integrity(g)
        # an epoch that fails while ingesting: no row is even copied
        shallow, deep = dict(store._est), copy.deepcopy(store._est)
        a, b = self.links(g)[0]
        with pytest.raises(UnknownLinkError):
            rc.step_epoch(store, g, [RemoveLink(a, b), RemoveNode(b), RemoveLink(0, 99)])
        assert shallow == deep
        assert all(store._est[d] is row for d, row in shallow.items())
        assert store._est.keys() == shallow.keys()

    def test_an_epoch_that_fails_in_the_repair_puts_the_same_rows_back(self):
        # the repair copies rows and changes them before it raises
        g = build_graph(
            utilization_topology(6, [(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5),
                                     (4, 5, 5), (5, 0, 5), (0, 3, 7)]),
            DIPPING.link_cost,
        )
        store = rc.initialize(g, DIPPING)
        shallow, deep = dict(store._est), copy.deepcopy(store._est)
        with pytest.raises(NonConvergenceError):
            rc.step_epoch(store, g, [UpdateWeight(0, 1, 9.0), RemoveLink(0, 3),
                                     UpdateWeight(2, 3, 1.0)])
        assert shallow == deep
        assert all(store._est[d] is row for d, row in shallow.items())
        assert store._est.keys() == shallow.keys()


class TestSlots:
    """A node keeps its slot for good: a removed node's slot reads None in
    every row and a restored node takes it back, so every row keeps its
    length and a restore gives back rows equal to the old ones.  A new id
    takes the next slot, whatever the id."""

    def test_a_switch_failure_and_its_restore_reuse_the_slot(self):
        g = build_graph(gen_fattree(4), HOP.link_cost)
        store = rc.initialize(g, HOP)
        before, ids = dict(store._est), list(store.ids)
        assert ids == sorted(g.nodes)
        node = ids[7]
        restore = [AddNode(node, g.nodes[node].label)]
        for (x, w), mult in g.out_edges(node).items():
            restore += [AddLink(node, x, g.link_props(node, x, w))] * mult
        rc.step_epoch(store, g, [RemoveNode(node)])
        assert store.ids == ids and store.slot[node] == 7
        assert node not in store._est
        assert all(len(column) == len(ids) for row in store._est.values() for column in row)
        assert all(key_at(store, d, node) is None for d in store._est)
        rc.step_epoch(store, g, restore)
        assert store.ids == ids and store.slot[node] == 7
        assert all(len(column) == len(ids) for row in store._est.values() for column in row)
        assert store._est == before

    def test_view_items_equal_a_lookup_per_pair_over_a_dead_slot(self):
        """The view's `items()`, made row by row, give each pair's rule as
        `__getitem__` does, in iteration order: under a negated cost, with
        a failed switch's slot empty in every row and a fresh id's slot
        after it."""
        g = build_graph(gen_fattree(4, WeightPlan(PlanKind.UNIFORM, seed=7)), WIDEST.link_cost)
        store = rc.initialize(g, WIDEST)
        rc.step_epoch(store, g, [RemoveNode(7), AddNode(-5), AddLink(-5, 3, props())])
        assert store.slot[7] < store.slot[-5] and 7 not in g.nodes
        view = store.established_rules()
        items = list(view.items())
        assert items == [(p, view[p]) for p in view]
        assert len(items) == len(view) == store.rule_count() == 20 * 20
        assert any(rule.p_cost > 0 for _p, rule in items)
        assert ((0, 3), view[(0, 3)]) in view.items()

    def test_a_new_id_takes_the_next_slot(self):
        g = build_graph(gen_fattree(4), HOP.link_cost)
        store = rc.initialize(g, HOP)
        n = len(store.ids)
        rc.step_epoch(store, g, [AddNode(10**6), AddLink(10**6, 3, props())])
        assert store.slot[10**6] == n and store.ids[n] == 10**6
        assert all(len(column) == n + 1 for row in store._est.values() for column in row)
        assert store.established_rules()[(10**6, 0)].next == 3
        store.check_integrity(g)
        # removed and added back, it keeps the slot
        rc.step_epoch(store, g, [RemoveNode(10**6)])
        rc.step_epoch(store, g, [AddNode(10**6), AddLink(10**6, 5, props())])
        assert store.slot[10**6] == n and len(store.ids) == n + 1
        store.check_integrity(g)


@st.composite
def node_epochs(draw):
    """Epochs that add nodes (ids up to 10**6, new or removed before) with
    links to live nodes, and remove nodes and links."""
    epochs = []
    for _ in range(draw(st.integers(1, 6))):
        epochs.append(draw(st.lists(st.tuples(
            st.sampled_from(["+node", "-node", "-link"]),
            st.integers(0, 10**6), st.integers(0, 999), st.integers(1, 5),
        ), min_size=1, max_size=4)))
    return draw(loose_topologies()), epochs


@settings(max_examples=60, deadline=None)
@given(node_epochs(), st.sampled_from(BUILTINS))
def test_slots_over_random_node_epochs_equal_a_fresh_initialize(script, strategy):
    """After every epoch of random node births and removals, the view
    equals a fresh `initialize` of the graph by node id (the fresh slots
    are in sorted id order, the store's in order of birth), the rule count
    equals a recount, and the integrity check passes.  Each epoch's events
    are drawn against a scratch graph that applies them in turn."""
    topo, epochs = script
    g = build_graph(topo, strategy.link_cost)
    store = rc.initialize(g, strategy)
    seen = set(g.nodes)
    for ops in epochs:
        scratch, events = g.fork(), []
        for kind, new_id, pick, u in ops:
            live = sorted(scratch.nodes)
            spare = sorted(seen - scratch.nodes.keys())
            if kind == "+node":
                n = spare[pick % len(spare)] if spare and pick % 2 else new_id
                if n in scratch.nodes:
                    continue
                step = [AddNode(n)]
                step += [AddLink(m, n, props(utilization=float(u))) for m in live[:pick % 3]]
                seen.add(n)
            elif kind == "-node" and live:
                step = [RemoveNode(live[pick % len(live)])]
            elif kind == "-link":
                links = sorted({(a, b, w) for (a, b, w), _m in scratch.edge_items() if a < b})
                if not links:
                    continue
                step = [RemoveLink(*links[pick % len(links)])]
            else:
                continue
            for ev in step:
                scratch.apply_deltas(scratch.ingest_event(ev, strategy.link_cost))
            events += step
        rc.step_epoch(store, g, events)
        assert g == scratch
        if g.nodes:
            assert rules_by_id(store) == rules_by_id(rc.initialize(g, strategy))
        assert store.rule_count() == recount(store)
        store.check_integrity(g)


class TestEventsResolveInOrder:
    """Each event of an epoch resolves against the graph as the earlier
    events of the epoch left it."""

    @pytest.mark.parametrize("events", [
        [AddNode(5), AddLink(5, 1, props()), RemoveNode(1)],
        [RemoveNode(0), AddNode(0), RemoveNode(1)],
        [AddLink(0, 2, props()), RemoveLink(0, 2)],
    ], ids=["link-then-end", "readded-then-neighbour", "add-then-remove"])
    def test_same_epoch_sequence_on_a_path(self, events):
        def path():
            g = build_graph(topology(3, [(0, 1), (1, 2)]), HOP.link_cost)
            return g, rc.initialize(g, HOP)

        g, store = path()
        g2, rounds = path()
        assert rc.step_epoch(store, g, events) == step_rounds(rounds, g2, events)
        g.check_integrity()
        store.check_integrity(g)
        assert oracle.compare_view(
            oracle.solve(g, HOP), store.established_rules()
        ) == []


@st.composite
def failing_epochs(draw):
    """A valid prefix of events on disjoint nodes of a fat-tree k=4, then
    one event that fails while ingesting or applying the epoch."""
    strategy = draw(st.sampled_from([HOP, SD]))
    g = build_graph(gen_fattree(4, WeightPlan(PlanKind.UNIFORM, seed=4)), strategy.link_cost)
    links = sorted({(min(a, b), max(a, b)) for (a, b, _w), _m in g.edge_items()})
    nodes = sorted(g.nodes)
    used: set = set()
    prefix = []
    for kind, pick, u in draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 999), st.integers(1, 99)),
        max_size=6,
    )):
        free = [(a, b) for a, b in links if a not in used and b not in used]
        if kind == 0 and free:
            a, b = free[pick % len(free)]
            prefix.append(RemoveLink(a, b))
        elif kind == 1 and free:
            a, b = free[pick % len(free)]
            prefix.append(UpdateWeight(a, b, float(u)))
        elif kind == 2:
            spare = [
                (a, b) for a in nodes for b in nodes
                if a < b and (a, b) not in links and not {a, b} & used
            ]
            if not spare:
                continue
            a, b = spare[pick % len(spare)]
            prefix.append(AddLink(a, b, props(utilization=float(u))))
        elif kind == 3:
            alive = [n for n in nodes if n not in used]
            a = b = alive[pick % len(alive)]
            prefix.append(RemoveNode(a))
        else:
            a = b = 100 + len(prefix)
            prefix.append(AddNode(a))
        used.update((a, b))
    removed = [ev for ev in prefix if isinstance(ev, RemoveLink)]
    bad = draw(st.sampled_from([
        RemoveLink(0, 99),
        UpdateWeight(0, 99, 5.0),
        RemoveNode(99),
        AddNode(next(n for n in nodes if n not in used)),
        AddLink(1, 1, props()),
        AddLink(1, 99, props()),
    ] + removed))
    return strategy, g, prefix, bad


@settings(max_examples=40, deadline=None)
@given(failing_epochs())
def test_failing_epoch_leaves_graph_and_rules_unchanged(case):
    strategy, g, prefix, bad = case
    store = rc.initialize(g, strategy)
    graph0, est0 = g.fork(), dict(store._est)
    with pytest.raises((DeltaPathError, ValueError)):
        rc.step_epoch(store, g, prefix + [bad])
    assert g == graph0
    assert store._est == est0
    rc.step_epoch(store, g, prefix)
    bad_pairs = oracle.compare_view(
        oracle.solve(g, strategy), store.established_rules()
    )
    assert bad_pairs == [], bad_pairs[:3]
    store.check_integrity(g)


def assert_cache_is_the_graphs(g):
    """Every list in the graph's edge cache equals a fresh `_Near`'s."""
    cache = g.edge_cache
    if cache is not None:
        fresh = rc._Near(g, cache.slot)
        stale = [x for x in list(cache) if cache[x] != fresh[x]]
        assert not stale, stale


def outcome(engine, policy):
    """What `engine` evaluates `policy` to: its result, or the error it raises."""
    try:
        return engine.evaluate(policy)
    except DeltaPathError as exc:
        return type(exc), str(exc)


def outside_write(g, strategy, data) -> list:
    """One link added, removed or re-weighted through `apply_deltas` of an
    `ingest_event`, not `step_epoch`; what `apply_deltas` returned."""
    links = sorted({(a, b, w) for (a, b, w), _m in g.edge_items() if a < b})
    live = sorted(g.nodes)
    events = [AddLink(a, b, props(utilization=u)) for a in live for b in live if a < b
              for u in (1.0, 4.0)]
    events += [RemoveLink(a, b, w) for a, b, w in links]
    events += [UpdateWeight(a, b, u) for a, b, _w in links
               if len(set(g.weights_between(a, b))) == 1 for u in (2.0, 5.0)]
    if not events:
        return []
    return g.apply_deltas(g.ingest_event(data.draw(st.sampled_from(events)), strategy.link_cost))


@settings(max_examples=100, deadline=None)
@given(loose_topologies(), st.sampled_from(BUILTINS), st.data())
def test_the_edge_cache_follows_every_write(topo, strategy, data):
    """Epochs, epochs that fail at an injected MemoryError (the first
    `_empty_row`, at the latest while building the batch) and link writes
    from outside `step_epoch`, undone later by `undo_deltas`, in any
    order: after each, every list in the graph's edge cache is the
    graph's, and each NOT and backup evaluation equals the one on a fork
    of the graph, which starts with no cache.  The store steps epochs
    only while no outside write is left."""
    g = build_graph(topo, strategy.link_cost)
    store = rc.initialize(g, strategy)
    engine = PolicyEngine(g, store, strategy)
    kinds = st.sampled_from(["+link", "-link", "weight", "+node", "-node", "-ends"])
    epoch_ops = st.lists(st.tuples(kinds, st.integers(0, 999), st.integers(1, 5)),
                         min_size=1, max_size=4)
    spare: list = []
    writes: list = []

    def no_row(*_args):
        raise MemoryError

    steps = st.lists(st.sampled_from(["epoch", "fail", "write", "undo"]), max_size=10)
    for step in data.draw(steps):
        if step == "write":
            writes.append(outside_write(g, strategy, data))
        elif step == "undo" and writes:
            g.undo_deltas(writes.pop())
        elif step in ("epoch", "fail"):
            while writes:
                g.undo_deltas(writes.pop())
            kept = list(spare)
            events = one_epoch(data.draw(epoch_ops), g, spare)
            if step == "epoch":
                rc.step_epoch(store, g, events)
            else:
                graph0, est0 = g.fork(), dict(store._est)
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(rc, "_empty_row", no_row)
                    with pytest.raises(MemoryError):
                        rc.step_epoch(store, g, events)
                assert g == graph0 and store._est == est0
                spare[:] = kept
        assert_cache_is_the_graphs(g)
        live = sorted(g.nodes)
        if len(live) > 1:
            s, t = data.draw(st.sampled_from([(a, b) for a in live for b in live if a != b]))
            policies = [Policy(1, s, t, PathRule.BACKUP)]
            others = [x for x in live if x not in (s, t)]
            if others:
                masked = frozenset({data.draw(st.sampled_from(others))})
                policies.append(Policy(2, s, t, NotNodes(masked)))
            fresh = PolicyEngine(g.fork(), store, strategy)
            for policy in policies:
                assert outcome(engine, policy) == outcome(fresh, policy), policy
            assert_cache_is_the_graphs(g)
    while writes:
        g.undo_deltas(writes.pop())
    assert_cache_is_the_graphs(g)
    store.check_integrity(g)


@pytest.mark.parametrize("strategy", BUILTINS, ids=lambda s: s.name)
def test_two_stores_search_one_graph_over_their_own_slots(strategy):
    """Two stores with their own slot maps, one in id order and one
    reversed, search one graph in turn with a node masked: each search
    returns the row that the same search on a fork of the graph, with no
    edge cache, returns, so the graph's cache is rebound to each store's
    slots in turn."""
    g = build_graph(gen_jellyfish(20, 4, WeightPlan(PlanKind.UNIFORM, seed=7), seed=7),
                    strategy.link_cost)
    up = rc.initialize(g, strategy)
    down = rc.RuleStore(strategy)
    down.ids = sorted(g.nodes, reverse=True)
    down.slot = {v: i for i, v in enumerate(down.ids)}
    rng = random.Random(5)
    rows = []
    for d in sorted(g.nodes)[:6]:
        mask = frozenset({rng.choice(sorted(g.nodes.keys() - {d}))})
        for store in (up, down, up, down):
            row = rc.search(store, g, d, skip_nodes=mask)
            assert row == rc.search(store, g.fork(), d, skip_nodes=mask)
            rows.append(row)
    assert rows[0] != rows[1]  # the slot maps order the rows apart


def test_check_integrity_reads_no_cached_edges():
    """A wrong list planted in the graph's edge cache, for an end of no
    changed link: node 2 of a ring of six unit links gets a link to 4 of
    weight 3 that the graph lacks.  The repair of a link failure reads it
    and routes 2 over it toward 4, and only toward 4 would the link
    improve a rule, so the rules agree with the planted lists:
    `check_integrity` must read fresh lists of its own to refute them."""
    g, store = sd_engine(6, [(i, (i + 1) % 6, 1) for i in range(6)])
    near = rc._near_of(store, g)
    planted = near[2] + [(store.slot[4], 3.0, 4)]
    near[2] = planted
    rc.step_epoch(store, g, [RemoveLink(3, 4)])
    assert g.edge_cache[2] is planted
    assert key_at(store, 4, 2) == (3.0, 1, 4)
    with pytest.raises(IntegrityError, match=r"stale selection for \(2, 4\)"):
        store.check_integrity(g)


def test_a_dropped_graph_and_its_edge_cache_are_collected():
    """The graph holds its edge cache and the cache holds the graph, a
    reference cycle: a full collection, as perfbench's set-up makes before
    it builds a new engine, frees both."""
    def caches():
        return sum(isinstance(o, rc._Near) for o in gc.get_objects())

    gc.collect()
    before = caches()
    g, store = sd_engine(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    rc.search(store, g, 3)
    assert g.edge_cache is not None and caches() == before + 1
    del g, store
    gc.collect()
    assert caches() == before


class TestDeterminism:
    def test_batch_order_does_not_change_outputs(self):
        rng = random.Random(37)
        topo = random_connected_topology(rng, 14)
        g1 = build_graph(topo, SD.link_cost)
        g2 = build_graph(topo, SD.link_cost)
        s1 = rc.initialize(g1, SD)
        s2 = rc.initialize(g2, SD)
        links = sorted({(min(a, b), max(a, b), w) for (a, b, w), _ in g1.edge_items()})
        batch = [RemoveLink(a, b, w) for a, b, w in rng.sample(links, 5)]
        shuffled = list(batch)
        rng.shuffle(shuffled)
        assert rc.step_epoch(s1, g1, batch) == rc.step_epoch(s2, g2, shuffled)


@st.composite
def engine_scripts(draw):
    """A small initial graph plus abstract ops interpreted against the
    evolving link set, so every shrunk example stays valid."""
    n = draw(st.integers(2, 7))
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    initial = draw(
        st.lists(
            st.tuples(st.sampled_from(all_pairs), st.integers(1, 5)),
            min_size=1, max_size=8, unique_by=lambda t: t[0],
        )
    )
    ops = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 63), st.integers(1, 5)),
            max_size=12,
        )
    )
    return n, initial, ops


@settings(max_examples=30, deadline=None)
@given(engine_scripts())
def test_model_based_oracle_equivalence(script):
    n, initial, ops = script
    topo = utilization_topology(n, [(a, b, w) for (a, b), w in initial])
    g = build_graph(topo, SD.link_cost)
    store = rc.initialize(g, SD)
    live = {pair: float(w) for pair, w in initial}
    spare = [p for p in [(a, b) for a in range(n) for b in range(a + 1, n)]
             if p not in live]
    for kind, pick, w in ops:
        if kind == 0 and spare:
            pair = spare.pop(pick % len(spare))
            live[pair] = float(w)
            ev = AddLink(*pair, props(utilization=float(w)))
        elif kind == 1 and len(live) > 1:
            pair = sorted(live)[pick % len(live)]
            spare.append(pair)
            del live[pair]
            ev = RemoveLink(*pair)
        elif live:
            pair = sorted(live)[pick % len(live)]
            live[pair] = float(w)
            ev = UpdateWeight(*pair, float(w))
        else:
            continue
        rc.step_epoch(store, g, [ev])
        bad = oracle.compare_view(
            oracle.solve(g, SD), store.established_rules()
        )
        assert bad == [], (ev, bad[:3])
        store.check_integrity(g)


# a shrinking "additive" cost violates monotonicity and cycles forever
SHRINKING = Strategy(
    name="shrinking",
    link_cost=lambda p: 1.0,
    path_cost=lambda w, c: c - w,
    tautology_cost=0.0,
    maximize=False,
    weight_domain=WeightDomain(0.0, math.inf, lo_open=True),
)


# extending a path over an edge of weight w < 2 makes it cheaper
DIPPING = Strategy(
    name="dipping",
    link_cost=SD.link_cost,
    path_cost=lambda w, c: c + w - 2.0,
    tautology_cost=0.0,
    maximize=False,
    weight_domain=SD.weight_domain,
)


def test_nonconvergent_strategy_is_caught():
    g = build_graph(topology(3, [(0, 1), (1, 2), (2, 0)]), SHRINKING.link_cost)
    with pytest.raises(NonConvergenceError):
        rc.initialize(g, SHRINKING)


def rounds_fixpoint(topo, strategy):
    """The first fixpoint as the synchronous rounds reach it: one epoch that
    adds every node and link to an empty graph and an empty store."""
    g = GraphStore()
    store = rc.RuleStore(strategy)
    events = [AddNode(n.id, n.label) for n in topo.nodes]
    events += [AddLink(a, b, p) for a, b, p in topo.links]
    step_rounds(store, g, events)
    return g, store


def assert_search_matches_rounds(topo, strategy):
    g, rounds = rounds_fixpoint(topo, strategy)
    store = rc.initialize(g, strategy)
    assert store._est == rounds._est
    store.check_integrity(g)


class TestSearchMatchesRounds:
    """`initialize` builds the first fixpoint by search; the synchronous
    rounds of `rounds_reference` are the reference for it."""

    @pytest.mark.parametrize("name", ["fattree4", "jellyfish20"])
    @pytest.mark.parametrize("strategy", BUILTINS, ids=lambda s: s.name)
    def test_builtin_strategies(self, strategy, name):
        plan = WeightPlan(PlanKind.UNIFORM, seed=7)
        if name == "fattree4":
            topo = gen_fattree(4, plan)
        else:
            topo = gen_jellyfish(20, 4, plan, seed=7)
        assert_search_matches_rounds(topo, strategy)


@settings(max_examples=60, deadline=None)
@given(loose_topologies(), st.sampled_from(BUILTINS))
def test_search_matches_rounds_on_loose_graphs(topo, strategy):
    assert_search_matches_rounds(topo, strategy)


# sd_utilization's path cost as a function path_cost_kind does not know,
# so the search calls it and checks it
CUSTOM_SUM = Strategy(
    name="custom_sum",
    link_cost=SD.link_cost,
    path_cost=lambda w, c: w + c,
    tautology_cost=0.0,
    maximize=False,
    weight_domain=SD.weight_domain,
)


# sd_free_bw's path cost as a function path_cost_kind does not know
CUSTOM_FREE_BW = Strategy(
    name="custom_free_bw",
    link_cost=FREE_BW.link_cost,
    path_cost=lambda w, c: w + c,
    tautology_cost=0.0,
    maximize=False,
    weight_domain=FREE_BW.weight_domain,
)


# hop_count's path cost as a function path_cost_kind does not know, so the
# search calls it rather than inlining the sum
CUSTOM_HOP = Strategy(
    name="custom_hop",
    link_cost=HOP.link_cost,
    path_cost=lambda w, c: 1 + c,
    tautology_cost=0,
    maximize=False,
    weight_domain=HOP.weight_domain,
)


@settings(max_examples=100, deadline=None)
@given(loose_topologies(), st.data())
def test_hop_count_search_equals_the_custom_search(topo, data):
    """hop_count's search inlines the sum, CUSTOM_HOP's calls its path
    cost: under any node and link mask, the masked destination included,
    the trees agree key for key and type for type."""
    assert path_cost_kind(HOP) == "sum"
    assert path_cost_kind(CUSTOM_HOP) is None
    g = build_graph(topo, HOP.link_cost)
    ids = sorted(g.nodes)
    skip_nodes = frozenset(data.draw(st.lists(st.sampled_from(ids), max_size=3)))
    pairs = sorted({(a, b) for a, b, _p in topo.links})
    skip_links = frozenset(
        data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else ()
    )
    for d in ids:
        assert_same_rules(
            search_tree(g, HOP, d, skip_nodes, skip_links),
            search_tree(g, CUSTOM_HOP, d, skip_nodes, skip_links),
        )


def test_hop_count_search_takes_the_smaller_parent():
    """Node 6 is three hops from 0 through 4 or through 5.  5 settles
    first (its next, 1, is smaller than 4's, 2), so 6 is offered 5 before
    4; the smaller next, 4, must win in hop_count's inlined sum, in
    CUSTOM_HOP's call and in the all-destination solve."""
    links = [(0, 1), (0, 2), (1, 5), (2, 4), (4, 6), (5, 6)]
    g = build_graph(topology(7, links), HOP.link_cost)
    tree = search_tree(g, HOP, 0)
    assert tree[5] == (2, 2, 1) and tree[4] == (2, 2, 2)
    assert tree[6] == (3, 3, 4)
    assert_same_rules(tree, search_tree(g, CUSTOM_HOP, 0))
    assert key_at(all_fixpoint(g, HOP), 0, 6) == (3, 3, 4)


@pytest.mark.parametrize("strategy", BUILTINS, ids=lambda s: s.name)
def test_all_fixpoint_breaks_ties_by_id_over_any_slots(strategy):
    """Over slots that hold the ids in reverse order, the all-destination
    solve gives `initialize`'s rules, by id: a tie between next hops goes
    to the smaller id, not the smaller slot.  On this jellyfish, taking
    the smaller slot named another next for 133 of the 400 hop_count
    rules and 6 of the shortest_widest ones."""
    g = build_graph(gen_jellyfish(20, 4, WeightPlan(PlanKind.UNIFORM, seed=7), seed=7),
                    strategy.link_cost)
    store = rc.RuleStore(strategy)
    store.ids = sorted(g.nodes, reverse=True)
    store.slot = {v: i for i, v in enumerate(store.ids)}
    store._rules = rc._all_fixpoint(store, g, np.arange(len(store.ids)))
    assert rules_by_id(store) == rules_by_id(rc.initialize(g, strategy))
    assert store.rule_count() == recount(store) == 400
    store.check_integrity(g)


def pruned_topology(topo, skip_nodes, skip_links):
    """`topo` without the nodes and links `search` masks."""
    cut = set(skip_links) | {(b, a) for a, b in skip_links}
    nodes = [n for n in topo.nodes if n.id not in skip_nodes]
    links = [(a, b, p) for a, b, p in topo.links
             if a not in skip_nodes and b not in skip_nodes and (a, b) not in cut]
    return Topology(nodes, links)


@settings(max_examples=100, deadline=None)
@given(loose_topologies(), st.sampled_from(BUILTINS), st.data())
def test_search_stopped_at_the_source_agrees_with_the_full_search(topo, strategy, data):
    """Under any node and link mask, the full search toward d equals the
    rounds on the pruned graph; the search stopped once s settles holds
    s's rule and every rule on s's path, each equal to the full search's
    (and whatever else it settled is final too)."""
    g = build_graph(topo, strategy.link_cost)
    ids = sorted(g.nodes)
    skip_nodes = frozenset(data.draw(st.lists(st.sampled_from(ids), max_size=3)))
    pairs = sorted({(a, b) for a, b, _p in topo.links})
    skip_links = frozenset(
        data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else ()
    )
    _g, rounds = rounds_fixpoint(pruned_topology(topo, skip_nodes, skip_links), strategy)
    for d in ids:
        full = search_tree(g, strategy, d, skip_nodes, skip_links)
        assert_same_rules(full, rules_by_id(rounds).get(d, {}))
        for s in ids:
            part = search_tree(g, strategy, d, skip_nodes, skip_links, until=s)
            assert_same_rules(part, {x: full[x] for x in part})
            if s not in full:
                assert part == full
                continue
            x = s
            while x != d:
                assert x in part, (s, d, x)
                x = full[x][2]


# sd_utilization's sum, except that a link of weight 9 takes 1 off a path
DISCOUNT_SUM = Strategy(
    name="discount_sum",
    link_cost=SD.link_cost,
    path_cost=lambda w, c: c - 1 if w == 9 else w + c,
    tautology_cost=0.0,
    maximize=False,
    weight_domain=SD.weight_domain,
)


def test_custom_path_cost_settles_past_the_source():
    """On the path 0-1-2-3 toward 0, only the link (2, 3), beyond the
    source 1, improves a path by extending it.  A built-in stops once 1
    settles; a custom path cost settles the whole tree, so the check sees
    (2, 3) and refuses it."""
    assert path_cost_kind(DISCOUNT_SUM) is None
    g = build_graph(utilization_topology(4, [(0, 1, 1), (1, 2, 1), (2, 3, 9)]),
                    SD.link_cost)
    assert search_tree(g, SD, 0, until=1) == {0: (0.0, 0, 0), 1: (1.0, 1, 0)}
    with pytest.raises(NonConvergenceError):
        search_tree(g, DISCOUNT_SUM, 0, until=1)


def assert_same_rules(got, want):
    """Equal rule tables, down to the type of every value in every key and
    the sign of a zero cost."""
    assert got == want
    for pair, key in got.items():
        assert [type(v) for v in key] == [type(v) for v in want[pair]], pair
        assert repr(key) == repr(want[pair]), pair


def assert_same_stores(got, want):
    """`assert_same_rules` for every row of two stores, by node id."""
    got, want = rules_by_id(got), rules_by_id(want)
    assert got.keys() == want.keys()
    for d, row in got.items():
        assert_same_rules(row, want[d])


# shortest_widest's path cost as a function path_cost_kind does not know
CUSTOM_WIDEST = Strategy(
    name="custom_widest",
    link_cost=WIDEST.link_cost,
    path_cost=lambda w, c: w if w < c else c,
    tautology_cost=math.inf,
    maximize=True,
    weight_domain=WIDEST.weight_domain,
)


# the built-in additive path cost over int weights 1 to 3 on
# `real_weight_topologies`, so that an int cost and a length part ways
INT_SUM = Strategy(
    name="int_sum",
    link_cost=lambda p: 1 + int(p.utilization) % 7,
    path_cost=SD.path_cost,
    tautology_cost=0,
    maximize=False,
    weight_domain=SD.weight_domain,
)


# INT_SUM's path cost as a function path_cost_kind does not know
CUSTOM_INT_SUM = replace(INT_SUM, name="custom_int_sum", path_cost=lambda w, c: w + c)


# the built-in additive path cost over one float link cost, where a cost
# is the fold of 0.1 over the hops (0.30000000000000004 at three), and
# over one int link cost other than 1
TENTH_SUM = replace(SD, name="tenth_sum", link_cost=lambda p: 0.1)
CUSTOM_TENTH_SUM = replace(TENTH_SUM, name="custom_tenth_sum", path_cost=lambda w, c: w + c)
THREE_SUM = replace(INT_SUM, name="three_sum", link_cost=lambda p: 3)
CUSTOM_THREE_SUM = replace(THREE_SUM, name="custom_three_sum", path_cost=lambda w, c: w + c)


@pytest.mark.parametrize("builtin_strategy,clone", [
    (SD, CUSTOM_SUM), (FREE_BW, CUSTOM_FREE_BW), (HOP, CUSTOM_HOP),
    (INT_SUM, CUSTOM_INT_SUM), (TENTH_SUM, CUSTOM_TENTH_SUM), (THREE_SUM, CUSTOM_THREE_SUM),
    (WIDEST, CUSTOM_WIDEST),
], ids=["sd_utilization", "sd_free_bw", "hop_count", "int_sum", "float_constant",
        "int_constant", "shortest_widest"])
@settings(max_examples=150, deadline=None)
@given(topo=real_weight_topologies())
# a path of seven hops, where the fold of 0.1 (0.7) and 7 * 0.1 part ways
@example(topo=utilization_topology(8, [(i, i + 1, 1) for i in range(7)]))
# a star: a class of degree 1 beside one of degree n - 1
@example(topo=utilization_topology(6, [(0, i, i) for i in range(1, 6)]))
# isolated nodes (degree 0 has no class) beside classes of degree 1 and 2
@example(topo=utilization_topology(7, [(1, 2, 3), (2, 4, 1), (4, 6, 2)]))
# parallel links: in link order the wider copy comes second (links are
# kept sorted by weight), and the lighter first
@example(topo=utilization_topology(3, [(0, 1, 2), (0, 1, 1), (1, 2, 3), (0, 2, 9)]))
def test_all_destination_solve_equals_the_heap_search(builtin_strategy, clone, topo):
    """A built-in is solved for every destination at once, its clone by
    one heap search per destination: the rules agree key for key, type for
    type and, for a width of 0, sign for sign.  Under int_sum a cheaper
    path can be longer, so the int costs of the float relaxation are
    checked against the search, which keeps cost and length apart; under
    one link cost, solved from the hop counts alone, the float costs are
    checked against the search's own additions."""
    assert path_cost_kind(builtin_strategy) is not None
    assert path_cost_kind(clone) is None
    g = build_graph(topo, builtin_strategy.link_cost)
    assert all_fixpoint(g, builtin_strategy) is not None  # no fallback here
    assert_same_stores(rc.initialize(g, builtin_strategy), rc.initialize(g, clone))


@pytest.mark.parametrize("builtin_strategy,clone", [
    (SD, CUSTOM_SUM), (FREE_BW, CUSTOM_FREE_BW), (INT_SUM, CUSTOM_INT_SUM),
    (WIDEST, CUSTOM_WIDEST),
], ids=["sd_utilization", "sd_free_bw", "int_sum", "shortest_widest"])
def test_the_copy_that_counts_may_come_second_in_link_order(builtin_strategy, clone):
    """A parallel copy of (0, 1) added by an event comes after the other
    links in link order.  Its utilization is lower, so it is the lighter
    copy under the sums and the wider one under shortest_widest: the
    solve must take it, as the heap search of the clone does."""
    cost = builtin_strategy.link_cost
    g = build_graph(utilization_topology(3, [(0, 1, 5), (1, 2, 4), (0, 2, 8)]), cost)
    g.apply_deltas(g.ingest_event(AddLink(0, 1, props(utilization=2.0)), cost))
    assert [w for a, b, w in g.links() if (a, b) == (0, 1)] == [
        cost(props(utilization=5.0)), cost(props(utilization=2.0))]
    assert all_fixpoint(g, builtin_strategy) is not None  # no fallback here
    store = rc.initialize(g, builtin_strategy)
    assert_same_stores(store, rc.initialize(g, clone))
    assert key_at(store, 1, 0)[0] == (-1 if builtin_strategy.maximize else 1) * cost(
        props(utilization=2.0))


@pytest.mark.parametrize("builtin_strategy,clone", [
    (SD, CUSTOM_SUM), (FREE_BW, CUSTOM_FREE_BW), (HOP, CUSTOM_HOP),
    (WIDEST, CUSTOM_WIDEST),
], ids=["sd_utilization", "sd_free_bw", "hop_count", "shortest_widest"])
@pytest.mark.parametrize("name", ["jellyfish150", "fattree8"])
def test_blocks_past_one_word_and_one_block(monkeypatch, builtin_strategy, clone, name):
    """Set-up solves blocks of destinations, each a whole number of
    64-destination words as far as `_BLOCK_ELEMENTS` allows (n x
    destinations), and cuts each degree class into runs of rows by
    `_RUN_ELEMENTS` (edges x destinations).  With the defaults every
    destination of these graphs (150 and 80) is one block that ends in the
    middle of its second or third word; with a block budget of 64 n, the
    blocks are one word wide and the last ends mid-word; with budgets of 1,
    the blocks are one word and every run is one row.  Each way the rules
    equal the oracle's exactly, and the heap search of the custom clone key
    for key and type for type."""
    plan = WeightPlan(PlanKind.UNIFORM, seed=3)
    if name == "jellyfish150":
        topo = gen_jellyfish(150, 6, plan, seed=3)
    else:
        topo = gen_fattree(8, plan)
    g = build_graph(topo, builtin_strategy.link_cost)
    n = len(g.nodes)
    assert 64 < n < 192 and n % 64
    want = rc.initialize(g, clone)
    result = oracle.solve(g, builtin_strategy)
    cases = [(rc._BLOCK_ELEMENTS, rc._RUN_ELEMENTS, n), (64 * n, rc._RUN_ELEMENTS, 64), (1, 1, 64)]
    for block, run, width in cases:
        with monkeypatch.context() as m:
            m.setattr(rc, "_BLOCK_ELEMENTS", block)
            m.setattr(rc, "_RUN_ELEMENTS", run)
            layouts = recorded_layouts(m)
            assert all_fixpoint(g, builtin_strategy) is not None  # no fallback here
            store = rc.initialize(g, builtin_strategy)
            assert [args[-1] for args in layouts] == [width, width]
            if run == 1:
                assert {r.stop - r.start for r, _run, _k in rc._layout(*layouts[0]).runs} == {1}
        assert_same_stores(store, want)
        assert oracle.compare_view(result, store.established_rules()) == [], (block, run)


def recorded_layouts(m):
    """Patch `_layout` within the monkeypatch context `m` to record the
    arguments of each call; the list they are recorded in."""
    calls = []
    layout = rc._layout

    def recording(*args):
        calls.append(args)
        return layout(*args)

    m.setattr(rc, "_layout", recording)
    return calls


def hub_topology(n):
    """Node 0 linked to every other node, and the odd neighbours linked in
    pairs (1, 3), (5, 7), ...: classes of degree 1, 2 and n - 1."""
    links = [(0, i, 1 + i % 7) for i in range(1, n)]
    links += [(i, i + 2, 1 + i % 5) for i in range(1, n - 2, 4)]
    return utilization_topology(n, links)


def test_a_hub_sets_up_in_bounded_memory():
    """Set-up takes each node's neighbours per degree class, so a hub of
    699 neighbours costs no table padded to its degree: under
    sd_utilization `initialize`'s traced memory rises at most 10 MiB above
    what it keeps (the 45 MiB store), where a table of every node's
    neighbours padded to the largest degree took 19 MiB.  The rules equal
    the oracle's exactly."""
    rc.initialize(build_graph(triangle(), SD.link_cost), SD)  # first calls allocate for good
    g = build_graph(hub_topology(700), SD.link_cost)
    tracemalloc.start()
    try:
        store = rc.initialize(g, SD)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept <= 10 * 2**20, (peak - kept) / 2**20
    assert oracle.compare_view(oracle.solve(g, SD), store.established_rules()) == []


@pytest.mark.parametrize("name", ["fattree12", "hub700", "jellyfish150"])
def test_set_up_sizes_its_blocks_and_runs(monkeypatch, name):
    """Under sd_utilization `_layout`'s runs tile each degree class
    exactly: in order, each row holding one node's neighbours and every
    node with a neighbour in one row, and each of its classes spans the
    runs of its degree.  Each run's (edges x destinations) array is within
    `_RUN_ELEMENTS` or the run is one row (the hub's 699 neighbours), and
    the block's (nodes x destinations) matrices are within
    `_BLOCK_ELEMENTS` or the block is one word."""
    plan = WeightPlan(PlanKind.UNIFORM, seed=3)
    topo = {
        "fattree12": lambda: gen_fattree(12, plan),
        "hub700": lambda: hub_topology(700),
        "jellyfish150": lambda: gen_jellyfish(150, 6, plan, seed=3),
    }[name]()
    g = build_graph(topo, SD.link_cost)
    with monkeypatch.context() as m:
        layouts = recorded_layouts(m)
        store = rc.initialize(g, SD)
    [args] = layouts
    n, width = args[0], args[-1]
    edges = rc._layout(*args)
    assert width == n or width % 64 == 0 and width < n
    assert width * n <= rc._BLOCK_ELEMENTS or width == 64
    slot = store.slot
    neighbours = {slot[x]: sorted({slot[y] for y, _w in g.out_edges(x)}) for x in g.nodes}
    assert sorted(edges.nodes.tolist()) == sorted(x for x, near in neighbours.items() if near)
    end = ends = 0
    degrees = []
    for rows, run, k in edges.runs:
        assert (rows.start, run.start) == (end, ends)
        end, ends = rows.stop, run.stop
        table = edges.us[run].reshape(-1, k).tolist()
        assert [neighbours[x] for x in edges.nodes[rows].tolist()] == table
        assert len(table) * k * width <= rc._RUN_ELEMENTS or len(table) == 1
        degrees.append(k)
    assert (end, ends) == (len(edges.nodes), len(edges.us))
    assert degrees == sorted(degrees)
    # each class whole, as its runs together
    assert [k for _rows, _run, k in edges.classes] == sorted(set(degrees))
    for rows, run, k in edges.classes:
        inside = [r for r in edges.runs if r[2] == k]
        assert rows == slice(inside[0][0].start, inside[-1][0].stop)
        assert run == slice(inside[0][1].start, inside[-1][1].stop)


# sd_utilization with a nan weight for a utilization of 3
NAN_SUM = replace(SD, name="nan_sum",
                  link_cost=lambda p: math.nan if p.utilization == 3 else p.utilization)
# shortest_widest over widths that are negative below a utilization of 3
SIGNED_WIDEST = replace(WIDEST, name="signed_widest", link_cost=lambda p: p.utilization - 3)


@pytest.mark.parametrize("strategy,links,first", [
    (SD, [(0, 1, 5), (1, 2, 0)], 0.0),
    (CUSTOM_SUM, [(0, 1, 5), (1, 2, 0)], 0.0),
    (NAN_SUM, [(0, 1, 3), (1, 2, 0), (0, 2, 4)], math.nan),
    (NAN_SUM, [(0, 1, 0), (1, 2, 3), (0, 2, 4)], 0.0),
    (SIGNED_WIDEST, [(0, 1, 2), (1, 2, 1), (0, 2, 5)], -1.0),
], ids=["sd_zero", "custom_zero", "nan_first", "zero_first", "negative_width"])
def test_initialize_names_the_first_weight_outside_the_domain(strategy, links, first):
    """`initialize` checks every weight against the strategy's domain,
    whatever its path cost, and raises with the message `validate_weight`
    gives for the first one outside it in `links()` order: nan there
    before 0.0, 0.0 before nan, and -1.0 before the smaller -2.0."""
    g = build_graph(utilization_topology(3, links), strategy.link_cost)
    # both domains here end at inf; nan fails either test
    open_at_0 = strategy.weight_domain.lo_open
    outside = [w for _a, _b, w in g.links() if not (w > 0 if open_at_0 else w >= 0)]
    assert repr(outside[0]) == repr(first)
    with pytest.raises(InvalidWeightError) as err:
        rc.initialize(g, strategy)
    assert str(err.value) == f"weight {first} outside domain of strategy {strategy.name!r}"


# the built-in additive path cost over a link cost that can be infinite
INF_SUM = Strategy(
    name="inf_sum",
    link_cost=lambda p: math.inf if p.utilization > 50 else p.utilization,
    path_cost=SD.path_cost,
    tautology_cost=0.0,
    maximize=False,
    weight_domain=SD.weight_domain,
)


# the built-in additive path cost from a tautology cost other than zero
ONE_SUM = Strategy(
    name="one_sum",
    link_cost=SD.link_cost,
    path_cost=SD.path_cost,
    tautology_cost=1.0,
    maximize=False,
    weight_domain=SD.weight_domain,
)


# the built-in additive path cost over int weights beyond 2**53, where
# float addition is no longer exact
BIG_INT_SUM = Strategy(
    name="big_int_sum",
    link_cost=lambda p: 2**53 + int(p.utilization),
    path_cost=SD.path_cost,
    tautology_cost=0,
    maximize=False,
    weight_domain=SD.weight_domain,
)


# the built-in additive path cost over int weights whose total is exact in
# float but whose (cost * n + length) code, on four nodes, would not be
COMPOSITE_INT_SUM = Strategy(
    name="composite_int_sum",
    link_cost=lambda p: 2**50 + int(p.utilization),
    path_cost=SD.path_cost,
    tautology_cost=0,
    maximize=False,
    weight_domain=SD.weight_domain,
)


# the built-in additive path cost from an int tautology over int and
# float weights
MIXED_SUM = Strategy(
    name="mixed_sum",
    link_cost=lambda p: p.utilization if p.utilization > 50 else int(p.utilization),
    path_cost=SD.path_cost,
    tautology_cost=0,
    maximize=False,
    weight_domain=SD.weight_domain,
)


@pytest.mark.parametrize("strategy,rule_0_3", [
    (INF_SUM, (math.inf, 3, 1)), (ONE_SUM, (94.0, 3, 1)),
    (BIG_INT_SUM, (3 * 2**53 + 93, 3, 1)), (MIXED_SUM, (93.0, 3, 1)),
], ids=["inf_weight", "tautology_one", "int_beyond_2_53", "int_and_float"])
def test_additive_strategy_outside_the_solver_falls_back_to_search(strategy, rule_0_3):
    """Behind an inf link, search gives a rule of cost inf, which the
    relaxation would call unreachable; a path that starts from cost 1.0
    rounds differently from one that starts from 0; int costs of 2**53 or
    more are not exact in float; and under an int tautology a path's cost
    is int or float depending on its weights.  `initialize` must repair from
    an empty tree, and the rounds from an empty store agree with it."""
    g = build_graph(utilization_topology(4, [(0, 1, 1), (1, 2, 90), (2, 3, 2)]),
                    strategy.link_cost)
    assert path_cost_kind(strategy) == "sum"
    assert all_fixpoint(g, strategy) is None
    store = rc.initialize(g, strategy)
    assert_same_stores(store, solve_rounds(g, strategy))
    assert key_at(store, 3, 0) == rule_0_3
    assert type(key_at(store, 3, 0)[0]) is type(rule_0_3[0])


def test_a_negative_weight_is_left_to_the_repair():
    """A negative weight makes a cycle, over its link and back, that
    lowers every cost it reaches on each pass, so the relaxation would not
    end: `_all_fixpoint` refuses it."""
    neg = replace(SD, name="neg_sum", link_cost=lambda p: p.utilization - 50,
                  weight_domain=WeightDomain(-math.inf, math.inf))
    g = build_graph(utilization_topology(3, [(0, 1, 60), (1, 2, 40)]), neg.link_cost)
    assert path_cost_kind(neg) == "sum"
    assert all_fixpoint(g, neg) is None


def test_int_costs_past_the_composite_bound_are_solved():
    """Int weights whose total (each link both ways) is below 2**53 are
    solved for every destination at once, although their (cost * n +
    length) code would not be exact in float: here 2S is below 2**53,
    (2S + 1) * 4 is not.  The costs come back as int, and the rounds from
    an empty store agree."""
    g = build_graph(utilization_topology(4, [(0, 1, 1), (1, 2, 90), (2, 3, 2)]),
                    COMPOSITE_INT_SUM.link_cost)
    assert all_fixpoint(g, COMPOSITE_INT_SUM) is not None
    store = rc.initialize(g, COMPOSITE_INT_SUM)
    assert_same_stores(store, solve_rounds(g, COMPOSITE_INT_SUM))
    assert key_at(store, 3, 0) == (3 * 2**50 + 93, 3, 1)
    assert type(key_at(store, 3, 0)[0]) is int


# small int weights beside one of 2**52 - 2**8 (utilization 100):
# their total, each link counted both ways, is just below 2**53, and an
# offer back over the heavy link, w + C[u, d], is 2**53 - 2**9 + 8
NEAR_INT_SUM = replace(
    INT_SUM, name="near_int_sum",
    link_cost=lambda p: 2**52 - 2**8 if p.utilization == 100 else int(p.utilization),
)
CUSTOM_NEAR_INT_SUM = replace(NEAR_INT_SUM, name="custom_near_int_sum",
                              path_cost=lambda w, c: w + c)


def _ring(n, seed):
    rng = random.Random(seed)
    return utilization_topology(n, [(i, (i + 1) % n, rng.randint(1, 99)) for i in range(n)])


def recorded_cost_dtypes(m):
    """Patch `_relaxed_costs` within the monkeypatch context `m` to record
    the dtype of each cost matrix it returns; the list they are recorded
    in."""
    dtypes = []
    relaxed = rc._relaxed_costs

    def recording(*args):
        cost = relaxed(*args)
        dtypes.append(cost.dtype)
        return cost

    m.setattr(rc, "_relaxed_costs", recording)
    return dtypes


class _RecordedGathers:
    """numpy as `routing_core` sees it, with `take` recording, for each
    gather over a 2-D table of neighbours (the relaxation's), whether the
    table was a run's own, a view into the layout's edges, or a copy of
    its live rows."""

    def __init__(self):
        self.whole = self.compressed = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def take(self, a, indices, *args, **kwargs):
        if np.ndim(indices) == 2:
            if indices.base is None:
                self.compressed += 1
            else:
                self.whole += 1
        return np.take(a, indices, *args, **kwargs)


# the built-in additive path cost over float weights near 2**23, one per
# utilization from 1 to 7
_HEAVY = {1: 1.0, 2: 2.0, 3: 2.0**21 - 1, 4: 2.0**21 + 1, 5: 2.0**22 - 1,
          6: 2.0**23 + 1, 7: 2.0**23 + 3}
HEAVY_SUM = replace(SD, name="heavy_sum", link_cost=lambda p: _HEAVY[p.utilization])
CUSTOM_HEAVY_SUM = replace(HEAVY_SUM, name="custom_heavy_sum", path_cost=lambda w, c: w + c)


@pytest.mark.parametrize("strategy,clone,topo,dtype,run", [
    (SD, CUSTOM_SUM, _ring(40, 3), np.float32, None),
    # a ring of five and a path of four
    (SD, CUSTOM_SUM, utilization_topology(9, [(0, 1, 7), (1, 2, 2), (2, 3, 9), (3, 4, 1),
                                              (4, 0, 3), (5, 6, 4), (6, 7, 8), (7, 8, 2)]),
     np.float32, None),
    (NEAR_INT_SUM, CUSTOM_NEAR_INT_SUM,
     utilization_topology(4, [(0, 1, 100), (1, 2, 3), (2, 3, 5)]), np.float64, None),
    (INT_SUM, CUSTOM_INT_SUM, _ring(40, 3), np.float32, None),
    # a ring of four whose weights total 2**23: twice that is 2**24
    (HEAVY_SUM, CUSTOM_HEAVY_SUM,
     utilization_topology(4, [(0, 1, 5), (1, 2, 4), (2, 3, 3), (3, 0, 1)]), np.float32, None),
    # the same ring one unit heavier: twice the total is 2**24 + 2
    (HEAVY_SUM, CUSTOM_HEAVY_SUM,
     utilization_topology(4, [(0, 1, 5), (1, 2, 4), (2, 3, 3), (3, 0, 2)]), np.float64, None),
    # odd weights above 2**23: the cost from 0 to 3, 2**24 + 5, has no float32
    (HEAVY_SUM, CUSTOM_HEAVY_SUM,
     utilization_topology(4, [(0, 1, 6), (1, 2, 7), (2, 3, 1)]), np.float64, None),
    # a ring of 300 in runs of 109 rows, and in runs of one row
    (SD, CUSTOM_SUM, _ring(300, 3), np.float32, rc._RUN_ELEMENTS),
    (SD, CUSTOM_SUM, _ring(300, 3), np.float32, 1),
], ids=["ring40", "two_components", "int_near_2_53", "int_sum", "at_2_24", "one_past_2_24",
        "odd_above_2_23", "ring300", "ring300_one_row_runs"])
def test_relaxed_costs_equal_the_heap_search(monkeypatch, strategy, clone, topo, dtype, run):
    """The relaxation of unequal weights agrees with one heap search per
    destination, key for key and type for type: on a ring of 40, whose
    best paths reach 20 hops, so that it sweeps at least 20 times; across
    two components, whose groups between them get no rule; over int
    weights whose total is just below the 2**53 guard, and over small int
    weights, whose costs stay int.  It runs in float32 exactly where every
    weight is integral and twice their total is at most 2**24, so that
    every offer w + C[u, d] is an integer float32 holds, and in float64
    past that: one unit past, and over odd weights whose sums float32
    would round.  On a ring of 300 in runs of many rows, the late sweeps
    leave most rows of a run idle: the relaxation gathers some runs whole
    and others compressed to their live rows; in runs of one row it only
    ever gathers whole runs."""
    g = build_graph(topo, strategy.link_cost)
    assert all_fixpoint(g, strategy) is not None  # no fallback here
    with monkeypatch.context() as m:
        dtypes = recorded_cost_dtypes(m)
        gathers = _RecordedGathers()
        if run is not None:
            m.setattr(rc, "_RUN_ELEMENTS", run)
            m.setattr(rc, "np", gathers)
        store = rc.initialize(g, strategy)
    assert dtypes == [dtype]
    assert_same_stores(store, rc.initialize(g, clone))
    if run == 1:
        assert gathers.whole > 0 and gathers.compressed == 0
    elif run is not None:
        assert gathers.whole > 0 and gathers.compressed > 0
    if len(g.nodes) == 40:
        assert max(key[1] for row in rules_by_id(store).values() for key in row.values()) >= 20
    if len(g.nodes) == 9:
        assert all((x < 5) == (d < 5) for d, row in rules_by_id(store).items() for x in row)
        assert store.rule_count() == 5 * 5 + 4 * 4
    if strategy is NEAR_INT_SUM:
        total = sum(w for (_a, _b, w), _m in g.edge_items())
        assert 2**53 - 2**9 < total < 2**53
        assert key_at(store, 3, 0) == (2**52 - 2**8 + 8, 3, 1)
        assert type(key_at(store, 3, 0)[0]) is int
    if strategy is HEAVY_SUM:
        total = sum(w for _a, _b, w in g.links())
        assert (2 * total <= 2**24) == (dtype is np.float32)
        if len(g.links()) == 3:
            assert float(np.float32(2**24 + 5)) == 2**24 + 4
            assert key_at(store, 3, 0) == (2**24 + 5, 3, 1)


def test_the_churn_topology_relaxes_in_float32(monkeypatch):
    """fattree12-sdutil-churn's topology (fat-tree k=12, uniform plan,
    seed 0) under sd_utilization draws integral utilizations, so its one
    block of destinations relaxes in float32."""
    g = build_graph(gen_fattree(12, WeightPlan(PlanKind.UNIFORM, seed=0)), SD.link_cost)
    with monkeypatch.context() as m:
        dtypes = recorded_cost_dtypes(m)
        rc.initialize(g, SD)
    assert dtypes == [np.float32]


@settings(max_examples=150, deadline=None)
@given(topo=st.one_of(real_weight_topologies(), loose_topologies()))
# a ring of 40, whose best paths reach 20 hops
@example(topo=_ring(40, 3))
def test_float32_relaxation_equals_float64_within_the_bound(topo):
    """Wherever every weight is integral and twice their total is at most
    2**24, the relaxation over a float32 layout gives the float64 layout's
    costs exactly, and the same tight edges."""
    g = build_graph(topo, SD.link_cost)
    with pytest.MonkeyPatch.context() as m:
        layouts = recorded_layouts(m)
        rc.initialize(g, SD)
    if not layouts:
        return  # no links: nothing to relax
    [(n, a, b, weight, size)] = layouts
    weight = weight.astype(np.float64)
    if not ((np.floor(weight) == weight).all() and 2 * weight.sum() <= 2**24):
        return
    dests = np.arange(n)
    wide = rc._layout(n, a, b, weight, size)
    narrow = rc._layout(n, a, b, weight.astype(np.float32), size)
    cost, narrow_cost = rc._relaxed_costs(n, wide, dests), rc._relaxed_costs(n, narrow, dests)
    assert narrow_cost.dtype == np.float32
    assert np.array_equal(narrow_cost.astype(np.float64), cost)
    assert np.array_equal(rc._tight(narrow_cost, narrow, False), rc._tight(cost, wide, False))


def bfs_reference(n, edges, tight, dests, ids):
    """Per destination slot, a plain BFS over the edges (u, x) of the
    layout that are tight for it (all of them where `tight` is None):
    {x: (fewest hops, slot of the next)} for every reached x, the next
    being the neighbour one hop closer with the smallest id."""
    us = edges.us.tolist()
    xs = [x for rows, _run, k in edges.runs for x in np.repeat(edges.nodes[rows], k).tolist()]
    if tight is not None:
        flags = np.unpackbits(tight.view(np.uint8), axis=1, bitorder="little")
    out = []
    for j, d in enumerate(dests.tolist()):
        via = {}  # u -> the nodes x that may route through u
        for e, (u, x) in enumerate(zip(us, xs)):
            if tight is None or flags[e, j]:
                via.setdefault(u, []).append(x)
        hops, frontier, level = {d: (0, d)}, [d], 0
        while frontier:
            level += 1
            closer = {}
            for u in frontier:
                for x in via.get(u, ()):
                    if x not in hops:
                        closer.setdefault(x, []).append(u)
            hops.update({x: (level, min(near, key=ids.__getitem__)) for x, near in closer.items()})
            frontier = list(closer)
        out.append(hops)
    return out


def _path(n):
    return utilization_topology(n, [(i, i + 1, 1 + i % 5) for i in range(n - 1)])


# (topology, destination slots or None for all): paths whose deepest
# group sits 1 to 17 hops out, across the bit planes' boundaries, rings,
# the hub, two components, and paths of 100 to 200 nodes, on either
# side of the 16-bit keys' bound
TIGHT_BFS_CASES = {
    **{f"path{depth + 1}": (_path(depth + 1), None) for depth in (1, 2, 3, 4, 7, 8, 15, 16, 17)},
    "ring16": (_ring(16, 5), None),
    "ring34": (_ring(34, 5), [0, 3, 17, 33]),
    # toward 0, node 11 routes the long way round, 11 hops over tight edges,
    # beside its heavy link to 0, whose key holds the smallest rank
    "ring12_heavy": (utilization_topology(12, [(i, i + 1, 1) for i in range(11)]
                                          + [(11, 0, 90)]), None),
    "hub70": (hub_topology(70), None),
    "hub70_some": (hub_topology(70), list(range(0, 70, 3))),
    # a path of 10 and a ring of 9, apart: neither reaches the other
    "two_components": (utilization_topology(19, [(i, i + 1, 2 + i % 3) for i in range(9)]
                                            + [(10 + i, 10 + (i + 1) % 9, 1 + i % 4)
                                               for i in range(9)]), None),
    "path100": (_path(100), None),
    "path150": (_path(150), None),
    "path200": (_path(200), None),
}
# the cases whose keys pass 16 bits, over every edge and over the tight ones
WIDE_KEYS = {"path150": (False, True), "path200": (True, True)}


@pytest.mark.parametrize("name", list(TIGHT_BFS_CASES))
def test_tight_bfs_equals_a_plain_bfs(name):
    """`_tight_bfs` gives each group the fewest hops over the tight edges,
    or over every edge where `tight` is None, and as next the neighbour
    one hop closer with the smallest id, as a plain BFS does: with the
    slots in id order and out of it, for every destination (blocks that
    end mid-word past 64 nodes) and for a few.  Its keys are 16-bit up to
    the 100-node path, where (levels + 2) * n, plus levels * n over the
    tight edges, stays within 2**15; on the 150-node path only over the
    tight edges, and on the 200-node path both ways, they are 32-bit."""
    topo, some = TIGHT_BFS_CASES[name]
    g = build_graph(topo, SD.link_cost)
    n = len(g.nodes)
    a, b, w = map(np.array, zip(*g.links()))
    dests = np.arange(n) if some is None else np.array(some)
    edges = rc._layout(n, a, b, w.astype(float), len(dests))
    tight = rc._tight(rc._relaxed_costs(n, edges, dests), edges, False)
    shuffled = list(range(n))
    random.Random(n).shuffle(shuffled)
    dtypes = {}
    for ids in (list(range(n)), [3 * i - n for i in shuffled]):
        by_id = np.argsort(ids)
        rank = None if ids == sorted(ids) else np.argsort(by_id)
        for bits in (None, tight):
            hops, nxt = rc._tight_bfs(bits, n, dests, edges, rank, by_id)
            dtypes.setdefault(bits is not None, set()).add(hops.dtype)
            assert hops.shape == nxt.shape == (n, len(dests))
            for j, want in enumerate(bfs_reference(n, edges, bits, dests, ids)):
                # a destination's own next is written by `_fill_rows`
                got = {x: (hops[x, j], nxt[x, j] if hops[x, j] else x)
                       for x in range(n) if hops[x, j] >= 0}
                assert got == want, (name, j)
    wide = WIDE_KEYS.get(name, (False, False))
    assert dtypes == {over: {np.dtype(np.int32 if w else np.int16)} for over, w in enumerate(wide)}


# the built-in width path cost from a tautology width other than inf
FIVE_WIDEST = Strategy(
    name="five_widest",
    link_cost=WIDEST.link_cost,
    path_cost=WIDEST.path_cost,
    tautology_cost=5.0,
    maximize=True,
    weight_domain=WIDEST.weight_domain,
)


# the built-in width path cost over int widths
INT_WIDEST = Strategy(
    name="int_widest",
    link_cost=lambda p: int(p.free_bandwidth()),
    path_cost=WIDEST.path_cost,
    tautology_cost=math.inf,
    maximize=True,
    weight_domain=WIDEST.weight_domain,
)


@pytest.mark.parametrize("strategy,pair,rule", [
    (FIVE_WIDEST, (0, 1), (-5.0, 1, 1)),
    (INT_WIDEST, (0, 3), (0, 3, 1)),
], ids=["tautology_five", "int_widths"])
def test_widest_strategy_outside_the_solver_falls_back_to_search(strategy, pair, rule):
    """A tautology width of 5.0 caps every route at 5.0, and the search
    keeps an int width int.  `initialize` must repair from an empty tree,
    and the rounds from an empty store agree with it."""
    g = build_graph(utilization_topology(4, [(0, 1, 1), (1, 2, 90), (2, 3, 2)]),
                    strategy.link_cost)
    assert path_cost_kind(strategy) == "min"
    assert all_fixpoint(g, strategy) is None
    store = rc.initialize(g, strategy)
    assert_same_stores(store, solve_rounds(g, strategy))
    assert key_at(store, pair[1], pair[0]) == rule
    assert type(key_at(store, pair[1], pair[0])[0]) is type(rule[0])


# the built-in path costs selected in the direction that does not converge:
# the longest additive path and the narrowest bottleneck
MAX_SUM = replace(SD, name="max_sum", maximize=True)
MIN_WIDTH = replace(WIDEST, name="min_width", maximize=False)


@pytest.mark.parametrize("strategy", [
    MAX_SUM, replace(MAX_SUM, path_cost=CUSTOM_SUM.path_cost),
    MIN_WIDTH, replace(MIN_WIDTH, path_cost=CUSTOM_WIDEST.path_cost),
], ids=["max_sum", "max_sum_clone", "min_width", "min_width_clone"])
def test_builtin_path_cost_in_the_other_direction_does_not_converge(strategy):
    """`path_cost_kind` knows a built-in path cost only in its own
    direction, so the search calls the other one and checks it, as it
    checks a lambda clone."""
    assert path_cost_kind(strategy) is None
    g = build_graph(triangle(), strategy.link_cost)
    with pytest.raises(NonConvergenceError):
        rc.initialize(g, strategy)


def one_epoch(ops, graph, spare):
    """Abstract ops as one epoch of events valid against `graph` in order:
    added, removed and re-weighted links, nodes added (new ids, or ids
    removed in an earlier epoch) and removed, and both ends of a link
    removed together.  A link of `graph` changes at most once per epoch,
    and a link added this epoch is not re-weighted; a node can be removed
    after the epoch touched it (its added links included), and is left
    alone after that.  `spare` collects removed ids."""
    live = sorted(graph.nodes)
    links = sorted({(a, b, w) for (a, b, w), _m in graph.edge_items() if a < b})
    linked, gone, used, events = set(), set(), set(), []
    fresh = max(live + spare, default=-1) + 1
    for kind, pick, u in ops:
        alive = [n for n in live if n not in gone]
        free = [l for l in links if l not in used and not {l[0], l[1]} & gone]
        if kind == "+link" and len(alive) > 1:
            a, b = alive[pick % len(alive)], alive[(pick // 7) % len(alive)]
            if a != b:
                events.append(AddLink(a, b, props(utilization=float(u))))
                linked.add(frozenset((a, b)))
        elif kind in ("-link", "weight") and free:
            a, b, w = free[pick % len(free)]
            used.add((a, b, w))
            if kind == "-link":
                events.append(RemoveLink(a, b, w))
            elif len(graph.weights_between(a, b)) == 1 and frozenset((a, b)) not in linked:
                events.append(UpdateWeight(a, b, float(u)))
        elif kind == "+node":
            n = spare.pop(pick % len(spare)) if spare and pick % 2 else fresh
            fresh = max(fresh, n + 1)
            events.append(AddNode(n))
            live.append(n)
            for m in alive[:pick % 3]:
                events.append(AddLink(m, n, props(utilization=float(u))))
        elif kind in ("-node", "-ends"):
            ends = [(n,) for n in alive]
            if kind == "-ends":
                ends = [(a, b) for a, b, _w in links if not {a, b} & gone]
            if ends:
                for n in ends[pick % len(ends)]:
                    events.append(RemoveNode(n))
                    gone.add(n)
    spare.extend(sorted(gone))
    return events


@st.composite
def epoch_scripts(draw):
    kinds = st.sampled_from(["+link", "-link", "weight", "+node", "-node", "-ends"])
    ops = st.tuples(kinds, st.integers(0, 999), st.integers(1, 5))
    epochs = st.lists(st.lists(ops, min_size=1, max_size=4), min_size=1, max_size=8)
    return draw(loose_topologies()), draw(epochs)


@settings(max_examples=150, deadline=None)
@given(epoch_scripts(), st.sampled_from(BUILTINS + [CUSTOM_SUM]))
def test_repair_emits_the_rounds_batches(script, strategy):
    """Random epochs replayed through `step_epoch` and through the
    reference rounds give the same batch for batch."""
    topo, epochs = script
    g1 = build_graph(topo, strategy.link_cost)
    g2 = build_graph(topo, strategy.link_cost)
    s1, s2 = rc.initialize(g1, strategy), rc.initialize(g2, strategy)
    spare: list = []
    for ops in epochs:
        events = one_epoch(ops, g1, spare)
        assert rc.step_epoch(s1, g1, events) == step_rounds(s2, g2, events), events
        assert s1._est == s2._est
    g1.check_integrity()
    s1.check_integrity(g1)


def forced_step(store, graph, events, resolve):
    """`step_epoch` with every epoch that changes a link re-solved where
    `resolve`, and none otherwise."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rc, "_RESOLVE_LINKS", 1 if resolve else math.inf)
        m.setattr(rc, "_RESOLVE_SHARE", 0.0 if resolve else math.inf)
        return rc.step_epoch(store, graph, events)


@pytest.mark.parametrize("strategy", BUILTINS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", [0, 1])
def test_resolved_epochs_emit_the_repairs_batches(strategy, seed):
    """With every epoch that changes a link re-solved, random link epochs,
    an epoch that brings in a fresh id smaller than every other (so that
    the slots leave id order), one that removes a node and one that brings
    it back, with link epochs after each, emit the repair's batches and
    leave the repair's rows, key for key and type for type, which the
    oracle's view equals."""
    rng = random.Random(seed)
    topo = gen_jellyfish(20, 4, WeightPlan(PlanKind.UNIFORM, seed=seed), seed=seed)
    g1, g2 = build_graph(topo, strategy.link_cost), build_graph(topo, strategy.link_cost)
    resolved, repaired = rc.initialize(g1, strategy), rc.initialize(g2, strategy)
    fresh = min(g1.nodes) - 1
    back: list = []
    for kind in ["links", "birth", "links", "removal", "links", "return", "links"] * 2:
        if kind == "birth":
            events = [AddNode(fresh)] + [AddLink(fresh, x, props(utilization=float(u)))
                                         for x, u in zip(rng.sample(sorted(g1.nodes), 3), (2, 9, 40))]
            fresh -= 1
        elif kind == "removal":
            gone = rng.choice(sorted(g1.nodes))
            events = [RemoveNode(gone)]
            back = [AddNode(gone, g1.nodes[gone].label)]
            for (x, w), mult in g1.out_edges(gone).items():
                back += [AddLink(gone, x, g1.link_props(gone, x, w))] * mult
        elif kind == "return":
            events = back
        else:
            events = random_events(rng, g1, rng.randint(1, 8))
        edges = dict(g1.edge_items())
        batch = forced_step(resolved, g1, events, True)
        assert batch == forced_step(repaired, g2, events, False), (kind, events)
        changed = dict(g1.edge_items()) != edges
        assert resolved.last_stats.destinations_resolved == (len(g1.nodes) if changed else 0)
        assert resolved.last_stats.destinations_repaired == 0 or not changed
        assert repaired.last_stats.destinations_resolved == 0
        assert resolved.rule_count() == repaired.rule_count() == recount(resolved)
        assert_same_stores(resolved, repaired)
        assert oracle.compare_view(oracle.solve(g1, strategy), resolved.established_rules()) == []
    # the two fresh ids, the smallest, hold the last slots
    assert resolved.ids[20:] == [-1, -2]
    resolved.check_integrity(g1)


# additive delay that grows with the queue: a custom link cost under the
# built-in additive path cost, whose costs have no `array` typecode
QUEUE_DELAY = replace(SD, name="queue_delay", link_cost=lambda p: p.delay + p.utilization / 8)


@pytest.mark.parametrize("strategy", [QUEUE_DELAY, INT_SUM], ids=lambda s: s.name)
def test_resolved_list_columns_equal_the_repair(strategy):
    """Where `cost_typecode` is None, a row's cost column is a list: float
    delays, and INT_SUM's int costs.  The re-solve compares such a row
    with its old one, and diffs it slot by slot, element by element, and
    its weight batches, link failures and restores emit the repair's
    batches and leave its rows, key for key and type for type."""
    assert cost_typecode(strategy) is None
    topo = gen_fattree(4, WeightPlan(PlanKind.UNIFORM, seed=3))
    g1, g2 = build_graph(topo, strategy.link_cost), build_graph(topo, strategy.link_cost)
    resolved, repaired = rc.initialize(g1, strategy), rc.initialize(g2, strategy)
    links = sorted({(a, b): p for a, b, p in topo.links}.items())
    epochs = [
        [UpdateWeight(a, b, float(1 + 13 * i % 90)) for i, ((a, b), _p) in enumerate(links[:12])],
        [RemoveLink(a, b) for (a, b), _p in links[3:9]],
        [AddLink(a, b, p) for (a, b), p in links[3:9]],
        [UpdateWeight(a, b, float(1 + 29 * i % 90)) for i, ((a, b), _p) in enumerate(links[6:])],
    ]
    for events in epochs:
        batch = forced_step(resolved, g1, events, True)
        assert batch and batch == forced_step(repaired, g2, events, False), events
        assert resolved.last_stats.destinations_resolved == len(g1.nodes)
        assert all(type(row[0]) is list for row in resolved._est.values())
        assert_same_stores(resolved, repaired)
    assert oracle.compare_view(oracle.solve(g1, strategy), resolved.established_rules()) == []
    resolved.check_integrity(g1)


class TestCustomStrategy:
    def jellyfish(self):
        topo = gen_jellyfish(20, 4, WeightPlan(PlanKind.UNIFORM, seed=7), seed=7)
        return build_graph(topo, SD.link_cost)

    def test_initialize_equals_the_builtin(self):
        assert path_cost_kind(CUSTOM_SUM) is None
        g = self.jellyfish()
        store = rc.initialize(g, CUSTOM_SUM)
        # the custom cost's column is a list, the built-in's an array
        assert rules_by_id(store) == rules_by_id(rc.initialize(g, SD))
        store.check_integrity(g)

    def test_not_search_tree_equals_node_deleted_oracle(self):
        g = self.jellyfish()
        excluded = frozenset({3, 11, 12})
        pruned = g.fork()
        for n in sorted(excluded):
            pruned.apply_deltas(pruned.ingest_event(RemoveNode(n), SD.link_cost))
        want = oracle.solve(pruned, SD)
        for d in pruned.nodes:
            tree = search_tree(g, CUSTOM_SUM, d, excluded)
            assert tree == {
                s: want.triple(s, d) for s in want.ids if want.reachable(s, d)
            }

    def test_not_evaluation_of_a_shrinking_strategy_raises(self):
        g = build_graph(topology(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
                        SHRINKING.link_cost)
        engine = PolicyEngine(g, slotted_store(g, SHRINKING), SHRINKING)
        with pytest.raises(NonConvergenceError):
            engine.eval_not(parse_policy(1, "0 : !1 : 3"))


def test_rule_store_is_picklable():
    import pickle

    g, store = sd_engine(3, [(0, 1, 1), (1, 2, 1)])
    clone = pickle.loads(pickle.dumps(store))
    assert clone._est == store._est
    assert clone.strategy.name == store.strategy.name
    # the clone keeps working independently
    rc.step_epoch(clone, g.fork(), [RemoveLink(1, 2)])
    assert key_at(store, 2, 0) is not None


def test_rows_take_at_most_20_bytes_per_pair():
    """Fat-tree k=16: 102 400 rules in 320 rows, each three columns of 320
    slots, 16 bytes a pair: a cost of 8 (floats, or hop_count's int64)
    and a C int each for the length and the next's slot.  Every built-in,
    under equal weights (idle links, and a utilization of 50 on every
    link under sd_utilization, whose weight an idle link zeroes) and
    under unequal ones (the uniform plan; hop_count's weights stay 1).  A
    list of shared keys took 8 bytes a pair under equal weights, and a
    key tuple per pair about 96 under unequal ones."""
    rc.initialize(build_graph(triangle(), HOP.link_cost), HOP)  # first calls allocate for good
    idle = gen_fattree(16, WeightPlan(PlanKind.HOP_COUNT, seed=0))
    busy = replace(idle, links=[(a, b, replace(p, utilization=50.0)) for a, b, p in idle.links])
    uniform = gen_fattree(16, WeightPlan(PlanKind.UNIFORM, seed=0))
    for strategy in BUILTINS:
        sd, hop = strategy.name == "sd_utilization", strategy.name == "hop_count"
        for equal, topo in ((True, busy if sd else idle), (False, uniform)):
            g = build_graph(topo, strategy.link_cost)
            assert (len({w for _a, _b, w in g.links()}) == 1) == (equal or hop)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                store = rc.initialize(g, strategy)
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert store.rule_count() == 102_400
            assert grown / store.rule_count() <= 20, (strategy.name, equal)


def test_unequal_int_keys_stay_apart():
    """Over unequal weights two pairs with the same length and next but
    costs 2**41 and 3 * 2**40 keep costs of their own, as ints."""
    n = 3
    # one row, toward destination 0
    cost = np.zeros((1, n), dtype=np.int64)
    length = np.full((1, n), -1, dtype=np.int64)
    nxt = np.zeros((1, n), dtype=np.int32)
    length[0, 0] = 0
    cost[0, 1], length[0, 1] = 2**41, 1
    cost[0, 2], length[0, 2] = 3 * 2**40, 1
    store = rc.RuleStore(THREE_SUM)  # an int tautology cost
    rc._take_slots(store, range(n))
    assert rc._fill_rows(store, np.arange(1), cost, length, nxt) == 3
    assert rules_by_id(store) == {0: {0: (0, 0, 0), 1: (2**41, 1, 0), 2: (3 * 2**40, 1, 0)}}
    assert all(type(v) is int for key in rules_by_id(store)[0].values() for v in key)


def test_a_negative_zero_tautology_keeps_its_sign():
    """A float tautology cost of -0.0 equals 0, so set-up solves it, and
    each destination's own rule keeps the -0.0, as the repair from empty
    keeps it; every other rule is the same float either way."""
    strategy = replace(SD, tautology_cost=-0.0)
    g = build_graph(gen_fattree(4, WeightPlan(PlanKind.UNIFORM, seed=3)), strategy.link_cost)
    store = all_fixpoint(g, strategy)
    assert store is not None
    rules = rules_by_id(store)
    for d in g.nodes:
        assert repr(rules[d][d][0]) == "-0.0"
        assert rules[d] == search_tree(g, strategy, d)
    view = store.established_rules()
    assert all(repr(view[(d, d)].p_cost) == "-0.0" for d in g.nodes)


def test_rules_to_csv_format():
    batch = [
        rc.ForwardingRule(1, 3, 3, 5.0, 1, -1),
        rc.ForwardingRule(1, 3, 2, 4.0, 2, 1),
    ]
    text = rc.rules_to_csv(7, batch)
    assert text.split("\n") == ["7,1,3,3,5.0,1,-1", "7,1,3,2,4.0,2,1", ""]
