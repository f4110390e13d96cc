import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapath import oracle
from deltapath import routing_core as rc
from deltapath.errors import (
    DeltaPathError,
    NonConvergenceError,
    UnknownLinkError,
)
from deltapath.graph_model import (
    AddLink,
    AddNode,
    EdgeRecord,
    GraphStore,
    NodeRecord,
    RemoveLink,
    RemoveNode,
    UpdateWeight,
    build_graph,
)
from deltapath.policy_engine import PolicyEngine, parse_policy
from deltapath.strategy import (
    Strategy,
    WeightDomain,
    builtin,
    builtin_names,
    path_cost_kind,
)
from deltapath.workloads import PlanKind, WeightPlan, gen_fattree, gen_jellyfish

from rounds_reference import step_rounds

from conftest import (
    props,
    random_connected_topology,
    random_events,
    topology,
    triangle,
    utilization_topology,
)

SD = builtin("sd_utilization")
HOP = builtin("hop_count")
WIDEST = builtin("shortest_widest")
BUILTINS = [builtin(name) for name in builtin_names()]


def sd_engine(n, weighted_links):
    g = build_graph(utilization_topology(n, weighted_links), SD.link_cost)
    return g, rc.initialize(g, SD)


def view_snapshot(store, graph):
    return dict(store._est), rc.candidates(store, graph)


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
        want = oracle.apsp_additive(g, SD)
        rule = store.established_rules()[(0, 2)]
        assert (rule.p_cost, rule.p_length, rule.next) == (
            want.cost_of(0, 2), want.length_of(0, 2), want.next_of(0, 2),
        )
        assert rule.next == 1 and rule.p_cost == 2
        # 3 tautologies + 14 derivations; 3-hop derivations are length-capped
        assert sum(len(c) for c in rc.candidates(store, g).values()) == 17

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


class TestDerive:
    def test_from_tautology(self):
        taut = rc.ForwardingRule(2, 2, 2, 0.0, 0, 1)
        edge = EdgeRecord(2, 1, 1.0, 1)
        assert rc.derive(taut, edge, SD) == rc.ForwardingRule(1, 2, 2, 1.0, 1, 1)

    def test_delta_is_the_product(self):
        rule = rc.ForwardingRule(0, 2, 1, 2.0, 2, 1)
        edge = EdgeRecord(0, 3, 1.0, -1)
        derived = rc.derive(rule, edge, SD)
        assert derived.delta == -1
        assert (derived.src, derived.dst, derived.next) == (3, 2, 0)
        assert (derived.p_cost, derived.p_length) == (3.0, 3)

    def test_requires_matching_src(self):
        rule = rc.ForwardingRule(0, 2, 1, 2.0, 2, 1)
        with pytest.raises(DeltaPathError):
            rc.derive(rule, EdgeRecord(1, 3, 1.0, 1), SD)

    def test_horizon_suppression(self):
        rule = rc.ForwardingRule(0, 2, 1, 2.0, 4, 1)
        edge = EdgeRecord(0, 3, 1.0, 1)
        assert rc.derive(rule, edge, SD, horizon=5) is None
        assert rc.derive(rule, edge, SD, horizon=6) is not None


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
        assert changed_pairs == oracle.affected_pairs(before, triangle_graph, SD)

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
        assert (1, 1) not in rc.candidates(store, g)

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
            oracle.apsp_additive(g, HOP), store.established_rules()
        ) == []
        restore = [AddNode(n, labels[n]) for n in (a, b)]
        restore += [AddLink(x, y, p) for (x, y, _w), p in links.items()]
        rc.step_epoch(store, g, restore)
        assert store._est == before

    def test_strategy_mismatch_rejected(self, triangle_graph):
        store = rc.initialize(triangle_graph, SD)
        with pytest.raises(DeltaPathError):
            rc.step_epoch(store, triangle_graph, [], strategy=HOP)


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
        want = oracle.apsp_additive(g, SD)
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
        rtol = 0.0 if strategy is not builtin("sd_free_bw") else 1e-9
        for ev in random_events(rng, g, 30):
            rc.step_epoch(store, g, [ev])
            want = oracle.apsp_additive(g, strategy)
            view = store.established_rules()
            if strategy.name == "sd_free_bw":
                bad = oracle.compare_view(
                    want, view, rtol=1e-9, check_length=False, witness_next=True
                )
            else:
                bad = oracle.compare_view(want, view)
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
            assert rc.candidates(store, g) == rc.candidates(fresh, g)

    def test_candidates_are_exactly_the_join_of_established_and_graph(self):
        rng = random.Random(9)
        topo = random_connected_topology(rng, 10)
        g = build_graph(topo, SD.link_cost)
        store = rc.initialize(g, SD)
        for ev in random_events(rng, g, 15):
            rc.step_epoch(store, g, [ev])
        expect: dict = {}
        for n in g.nodes:
            expect.setdefault((n, n), {})[(0.0, 0, n)] = 1
        view = store.established_rules()
        for (s, d), rule in view.items():
            for (x, w), mult in g.out_edges(s).items():
                derived = rc.derive(rule, EdgeRecord(s, x, w, 1), SD, len(g.nodes))
                if derived is None:
                    continue
                grp = expect.setdefault((derived.src, derived.dst), {})
                key = (derived.p_cost, derived.p_length, derived.next)
                grp[key] = grp.get(key, 0) + mult
        assert rc.candidates(store, g) == expect

    def test_full_reversal_restores_everything(self):
        rng = random.Random(17)
        topo = random_connected_topology(rng, 12)
        g = build_graph(topo, SD.link_cost)
        store = rc.initialize(g, SD)
        est0, cand0 = view_snapshot(store, g)
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
        assert rc.candidates(store, g) == cand0

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
            want = oracle.widest_paths_bruteforce(g, WIDEST)
            assert oracle.compare_view(want, store.established_rules()) == []
            # a removal epoch keeps them aligned
            a, b, w = sorted({(s, d, w) for (s, d, w), _ in g.edge_items()})[0]
            rc.step_epoch(store, g, [RemoveLink(a, b, w)])
            want = oracle.widest_paths_bruteforce(g, WIDEST)
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
        assert store._est[(2, 0)] == (-1.0, 2, 4)
        assert store._est[(1, 0)] == (-1.0, 2, 4)
        rc.step_epoch(store, g, [AddLink(3, 0, props(capacity=3.0))])
        assert store._est[(4, 0)] == (-2.0, 2, 3)
        assert store._est[(1, 0)] == (-2.0, 3, 4)
        assert store._est[(2, 0)] == (-1.0, 3, 4)  # not (-1.0, 3, 1)
        assert store.last_stats.stale_pops >= 1
        assert store._est == rc.initialize(g, WIDEST)._est
        want = oracle.widest_paths_bruteforce(g, WIDEST)
        assert oracle.compare_view(want, store.established_rules()) == []


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

    def test_empty_epoch_does_no_work(self, triangle_graph):
        store = rc.initialize(triangle_graph, SD)
        assert store.last_stats is None
        rc.step_epoch(store, triangle_graph, [])
        stats = store.last_stats
        assert (stats.destinations_repaired, stats.groups_invalidated,
                stats.heap_pops, stats.groups_changed) == (0, 0, 0, 0)


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
                oracle.apsp_additive(g, SD), store.established_rules()
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
                oracle.apsp_additive(g, SD), store.established_rules()
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
            (grp, c) for grp, c in sorted(rc.candidates(store, g).items()) if len(c) > 1
        )
        worse = sorted(cands)[1]
        store._est[group] = worse
        with pytest.raises(AssertionError, match="stale selection"):
            store.check_integrity(g)

    def test_deleted_pair_is_caught(self):
        g, store = self.engine()
        # a pair no other rule routes through, so only its own group breaks
        via = {(key[2], d) for (s, d), key in store._est.items() if s != d}
        s, d = next(p for p in sorted(store._est) if p[0] != p[1] and p not in via)
        del store._est[(s, d)]
        with pytest.raises(AssertionError, match="no rule"):
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
    ], ids=["remove-node", "add-node", "refresh-props"])
    def test_failed_epoch_changes_nothing(self, events, error):
        g = build_graph(gen_fattree(4), HOP.link_cost)
        store = rc.initialize(g, HOP)
        graph0, est0 = g.fork(), dict(store._est)
        with pytest.raises(error):
            rc.step_epoch(store, g, events)
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

    def test_failed_first_epoch_leaves_the_store_empty(self):
        g, store = GraphStore(), rc.RuleStore(SHRINKING)
        events = [AddNode(0), AddNode(1), AddNode(2)]
        events += [AddLink(a, b, props()) for a, b in [(0, 1), (1, 2), (2, 0)]]
        with pytest.raises(NonConvergenceError):
            rc.step_epoch(store, g, events)
        assert g == GraphStore()
        assert store._est == {}
        assert store.epoch == -1


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
            oracle.apsp_additive(g, HOP), store.established_rules()
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
        oracle.apsp_additive(g, strategy), store.established_rules()
    )
    assert bad_pairs == [], bad_pairs[:3]
    store.check_integrity(g)


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
            oracle.apsp_additive(g, SD), store.established_rules()
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


@st.composite
def loose_topologies(draw):
    """Small graphs with parallel links (equal or different weights),
    isolated nodes and any number of components."""
    n = draw(st.integers(1, 8))
    links = []
    if n > 1:
        for a, b, u in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 5)),
            max_size=12,
        )):
            if a != b:
                links.append((a, b, props(utilization=float(u))))
    return topology(n, links)


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


class TestCustomStrategy:
    def jellyfish(self):
        topo = gen_jellyfish(20, 4, WeightPlan(PlanKind.UNIFORM, seed=7), seed=7)
        return build_graph(topo, SD.link_cost)

    def test_initialize_equals_the_builtin(self):
        assert path_cost_kind(CUSTOM_SUM) is None
        g = self.jellyfish()
        store = rc.initialize(g, CUSTOM_SUM)
        assert store._est == rc.initialize(g, SD)._est
        store.check_integrity(g)

    def test_not_search_tree_equals_node_deleted_oracle(self):
        g = self.jellyfish()
        excluded = frozenset({3, 11, 12})
        pruned = g.fork()
        for n in sorted(excluded):
            pruned.apply_deltas(pruned.ingest_event(RemoveNode(n), SD.link_cost))
        want = oracle.apsp_additive(pruned, SD)
        for d in pruned.nodes:
            tree = rc.search(g, CUSTOM_SUM, d, excluded)
            assert tree == {
                s: want.triple(s, d) for s in want.ids if want.reachable(s, d)
            }

    def test_not_evaluation_of_a_shrinking_strategy_raises(self):
        g = build_graph(topology(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
                        SHRINKING.link_cost)
        engine = PolicyEngine(g, rc.RuleStore(SHRINKING), SHRINKING)
        with pytest.raises(NonConvergenceError):
            engine.eval_not(parse_policy(1, "0 : !1 : 3"))


def test_step_accepts_an_epoch_batch(triangle_graph):
    from deltapath.graph_model import Epoch

    store = rc.initialize(triangle_graph, SD)
    batch = rc.step_epoch(store, triangle_graph, Epoch(1, [RemoveLink(0, 1)]))
    assert len(batch) == 8


def test_rule_store_is_picklable():
    import pickle

    g, store = sd_engine(3, [(0, 1, 1), (1, 2, 1)])
    clone = pickle.loads(pickle.dumps(store))
    assert clone._est == store._est
    assert clone.strategy.name == store.strategy.name
    # the clone keeps working independently
    rc.step_epoch(clone, g.fork(), [RemoveLink(1, 2)])
    assert (0, 2) in store._est


def test_rules_to_csv_format():
    batch = [
        rc.ForwardingRule(1, 3, 3, 5.0, 1, -1),
        rc.ForwardingRule(1, 3, 2, 4.0, 2, 1),
    ]
    text = rc.rules_to_csv(7, batch, header=True)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,src,dst,next,p_cost,p_length,delta"
    assert lines[1] == "7,1,3,3,5.0,1,-1"
    assert lines[2] == "7,1,3,2,4.0,2,1"
