import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapath import graph_model as gm
from deltapath.errors import (
    AmbiguousLinkError,
    DuplicateNodeError,
    EventParseError,
    IntegrityError,
    NegativeMultiplicityError,
    UnknownLinkError,
    UnknownNodeError,
)
from deltapath.strategy import builtin

from conftest import props, topology, utilization_topology

SD = builtin("sd_utilization")


def sd_graph(n, weighted_links):
    return gm.build_graph(utilization_topology(n, weighted_links), SD.link_cost)


class TestIngest:
    def test_remove_link_emits_one_negative_record(self):
        # removal of a stored (1, 3, 5) link names the stored weight, and
        # the record names the link with its ends in order
        g = sd_graph(4, [(1, 3, 5)])
        for a, b in [(1, 3), (3, 1)]:
            recs = g.ingest_event(gm.RemoveLink(a, b), SD.link_cost)
            assert recs == [gm.EdgeRecord(1, 3, 5.0, -1)]

    def test_add_node_emits_no_edge_records(self):
        g = gm.GraphStore()
        assert g.ingest_event(gm.AddNode(7), SD.link_cost) == []
        assert 7 in g.nodes

    def test_update_weight_is_remove_then_add(self):
        g = sd_graph(4, [(1, 3, 5)])
        recs = g.ingest_event(gm.UpdateWeight(3, 1, 3.0), SD.link_cost)
        keyed = {(r.src, r.dst, r.w): r.delta for r in recs}
        assert keyed == {(1, 3, 5.0): -1, (1, 3, 3.0): 1}

    def test_remove_node_retracts_all_incident_edges(self):
        # one record per neighbour and weight, retracting every parallel copy
        g = sd_graph(4, [(0, 1, 2), (1, 2, 4), (2, 1, 4)])
        recs = g.ingest_event(gm.RemoveNode(1), SD.link_cost)
        assert 1 not in g.nodes
        assert sorted((r.src, r.dst, r.delta) for r in recs) == [(0, 1, -1), (1, 2, -2)]

    def test_unknown_node_and_link_errors(self):
        g = sd_graph(2, [(0, 1, 1)])
        with pytest.raises(UnknownNodeError):
            g.ingest_event(gm.AddLink(0, 9, props()), SD.link_cost)
        with pytest.raises(UnknownNodeError):
            g.ingest_event(gm.RemoveNode(9), SD.link_cost)
        with pytest.raises(UnknownLinkError):
            g.ingest_event(gm.RemoveLink(0, 9), SD.link_cost)
        with pytest.raises(UnknownLinkError):
            g.ingest_event(gm.RemoveLink(0, 1, w=42.0), SD.link_cost)
        with pytest.raises(DuplicateNodeError):
            g.ingest_event(gm.AddNode(0), SD.link_cost)

    def test_remove_without_weight_errors_when_ambiguous(self):
        g = sd_graph(2, [(0, 1, 1), (0, 1, 7)])
        with pytest.raises(AmbiguousLinkError):
            g.ingest_event(gm.RemoveLink(0, 1), SD.link_cost)
        # naming the weight disambiguates
        recs = g.ingest_event(gm.RemoveLink(0, 1, w=7.0), SD.link_cost)
        assert {r.w for r in recs} == {7.0}


class TestApplyDeltas:
    def test_cancelling_deltas_leave_store_unchanged(self):
        g = gm.GraphStore()
        g.add_node(gm.NodeRecord(0))
        g.add_node(gm.NodeRecord(1))
        net = g.apply_deltas(
            [gm.EdgeRecord(0, 1, 1.0, 1, props()), gm.EdgeRecord(0, 1, 1.0, -1)]
        )
        assert net == []
        assert list(g.edge_items()) == []

    def test_parallel_links_accumulate_multiplicity(self):
        g = sd_graph(2, [(0, 1, 1)])
        g.apply_deltas(g.ingest_event(gm.AddLink(0, 1, props(utilization=1.0)), SD.link_cost))
        assert g.multiplicity(0, 1, 1.0) == 2
        assert g.multiplicity(1, 0, 1.0) == 2

    def test_update_weight_nets_to_two_records(self):
        # the recurring update scenario: (1,3,5) replaced by (1,3,3)
        g = sd_graph(4, [(1, 3, 5)])
        net = g.apply_deltas(g.ingest_event(gm.UpdateWeight(1, 3, 3.0), SD.link_cost))
        # each record carries the properties its link held before
        assert set(net) == {
            gm.EdgeRecord(1, 3, 3.0, 1, None),
            gm.EdgeRecord(1, 3, 5.0, -1, props(utilization=5.0)),
        }
        assert g.weights_between(1, 3) == [3.0]
        assert g.weights_between(3, 1) == [3.0]

    def test_a_link_record_stores_both_directions(self):
        g = sd_graph(4, [])
        g.apply_deltas([gm.EdgeRecord(0, 3, 7.0, 1, props())])
        assert g.multiplicity(0, 3, 7.0) == g.multiplicity(3, 0, 7.0) == 1
        # (3, 0) names the same link, whose properties are stored
        g.apply_deltas([gm.EdgeRecord(3, 0, 7.0, 1)])
        assert g.multiplicity(3, 0, 7.0) == 2
        assert g.link_props(3, 0, 7.0) == g.link_props(0, 3, 7.0) == props()
        assert list(g._props) == [(0, 3, 7.0)]

    @pytest.mark.parametrize("records", [
        [gm.EdgeRecord(0, 3, 7.0, 1)],
        [gm.EdgeRecord(0, 1, 1.0, -1), gm.EdgeRecord(3, 0, 7.0, 2)],
    ], ids=["alone", "after-a-valid-record"])
    def test_a_new_link_without_properties_is_refused(self, records):
        """A link that is not stored and brings no properties would fail
        `check_integrity` and break a later `UpdateWeight`: the records are
        refused and nothing changes."""
        g = sd_graph(4, [(0, 1, 1)])
        before = g.fork()
        with pytest.raises(UnknownLinkError, match="without properties"):
            g.apply_deltas(records)
        assert g == before
        g.check_integrity()

    def test_negative_multiplicity_is_rejected_atomically(self):
        g = sd_graph(2, [(0, 1, 1)])
        with pytest.raises(NegativeMultiplicityError):
            g.apply_deltas(
                [gm.EdgeRecord(0, 1, 9.0, -1), gm.EdgeRecord(1, 0, 9.0, -1)]
            )
        assert g.multiplicity(0, 1, 1.0) == 1  # untouched


class TestGraphIntegrity:
    """Each store is corrupted by a direct write that no event can make."""

    @pytest.mark.parametrize("corrupt,match", [
        (lambda g: g._adj[0].update({(1, 2.0): 0}), "zero multiplicity"),
        (lambda g: g._adj[0].update({(1, 2.0): 2}), "asymmetric multiplicities"),
        (lambda g: g.nodes.pop(2), "missing node"),
        (lambda g: g._props.pop((0, 1, 2.0)), "no properties"),
        (lambda g: g._props.update({(0, 2, 4.0): props()}), "no link"),
        (lambda g: g._props.update({(2, 1, 4.0): props()}), "no link"),
    ], ids=["zero-multiplicity", "asymmetric", "missing-node", "missing-props",
            "props-without-link", "props-keyed-backwards"])
    def test_corruption_is_reported(self, corrupt, match):
        g = sd_graph(3, [(0, 1, 2), (1, 2, 4)])
        g.check_integrity()
        corrupt(g)
        with pytest.raises(IntegrityError, match=match):
            g.check_integrity()


def build_by_events(topo, link_cost):
    """The store that `AddLink` events build through `apply_deltas`."""
    g = gm.GraphStore()
    for rec in topo.nodes:
        g.add_node(rec)
    deltas = []
    for a, b, p in topo.links:
        deltas += g.ingest_event(gm.AddLink(a, b, p), link_cost)
    g.apply_deltas(deltas)
    return g


@st.composite
def parallel_topologies(draw):
    """Up to 6 nodes with negative or gapped ids and up to 14 links, drawn
    from few utilizations (the weight) and delays, so that parallel links
    of equal weight with different properties and parallel links of
    different weights are common."""
    ids = draw(st.lists(st.integers(-5, 9), min_size=1, max_size=6, unique=True))
    links = []
    if len(ids) > 1:
        ends = st.sampled_from(ids)
        for a, b, u, d in draw(st.lists(
            st.tuples(ends, ends, st.sampled_from([1.0, 2.0]), st.sampled_from([0.0, 3.0])),
            max_size=14,
        )):
            if a != b:
                links.append((a, b, props(utilization=u, delay=d)))
    return gm.Topology([gm.NodeRecord(i) for i in ids], links)


class TestBuildGraph:
    @settings(max_examples=150, deadline=None)
    @given(parallel_topologies())
    def test_equals_the_store_built_by_events(self, topo):
        g = gm.build_graph(topo, SD.link_cost)
        want = build_by_events(topo, SD.link_cost)
        assert g == want
        assert list(g.edge_items()) == list(want.edge_items())
        g.check_integrity()

    @settings(max_examples=100, deadline=None)
    @given(parallel_topologies())
    def test_link_items_are_the_ordered_half_of_edge_items(self, topo):
        g = gm.build_graph(topo, SD.link_cost)
        for remove in (None, min(g.nodes)):
            if remove is not None:  # again once a node and its links are gone
                g.apply_deltas(g.ingest_event(gm.RemoveNode(remove), SD.link_cost))
            half = [(key, m) for key, m in g.edge_items() if key[0] < key[1]]
            assert sorted((link, g.multiplicity(*link)) for link in g.links()) == sorted(half)

    @pytest.mark.parametrize("nodes,links,error", [
        ([0, 1], [(0, 1), (0, 5)], UnknownNodeError),
        ([0, 1], [(5, 1)], UnknownNodeError),
        ([0, 1], [(0, 1), (1, 1)], ValueError),
        ([0, 1, 0], [(0, 1)], DuplicateNodeError),
    ], ids=["unknown-second-end", "unknown-first-end", "self-link", "duplicate-node"])
    def test_bad_topologies_raise_what_the_events_raise(self, nodes, links, error):
        topo = gm.Topology([gm.NodeRecord(i) for i in nodes],
                           [(a, b, props()) for a, b in links])
        for build in (gm.build_graph, build_by_events):
            with pytest.raises(error) as raised:
                build(topo, SD.link_cost)
            assert type(raised.value) is error


class TestFork:
    def test_fork_is_independent(self):
        g = sd_graph(3, [(0, 1, 1), (1, 2, 1)])
        copy = g.fork()
        copy.apply_deltas(copy.ingest_event(gm.RemoveNode(1), SD.link_cost))
        assert 1 not in copy.nodes
        assert 1 in g.nodes
        assert g.multiplicity(0, 1, 1.0) == 1

    def test_fork_of_empty_store(self):
        assert gm.GraphStore().fork() == gm.GraphStore()

    def test_fork_then_same_events_stay_identical(self):
        g = sd_graph(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        copy = g.fork()
        for store in (g, copy):
            store.apply_deltas(
                store.ingest_event(gm.UpdateWeight(1, 2, 9.0), SD.link_cost)
            )
        assert g == copy

    def test_store_is_picklable(self):
        g = sd_graph(3, [(0, 1, 1), (1, 2, 2)])
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g


@st.composite
def link_scripts(draw):
    """Sequences of matched add/remove operations over a small node set."""
    n = draw(st.integers(2, 6))
    ops = []
    live = []
    for _ in range(draw(st.integers(1, 30))):
        if live and draw(st.booleans()):
            ops.append(("remove", live.pop(draw(st.integers(0, len(live) - 1)))))
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1))
            if a == b:
                continue
            w = float(draw(st.integers(1, 5)))
            ops.append(("add", (a, b, w)))
            live.append((a, b, w))
    for edge in live:
        ops.append(("remove", edge))
    return n, ops


@settings(max_examples=60, deadline=None)
@given(link_scripts())
def test_matched_event_sequences_empty_the_store(script):
    n, ops = script
    g = gm.GraphStore()
    for i in range(n):
        g.add_node(gm.NodeRecord(i))
    for kind, (a, b, w) in ops:
        ev = (
            gm.AddLink(a, b, props(utilization=w))
            if kind == "add"
            else gm.RemoveLink(a, b, w)
        )
        g.apply_deltas(g.ingest_event(ev, SD.link_cost))
        g.check_integrity()
    assert list(g.edge_items()) == []


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 12))
def test_replay_is_order_insensitive_within_a_batch(rnd, n):
    base = topology(n, [(i, (i + 1) % n) for i in range(n - 1)])
    deltas = []
    g1 = gm.build_graph(base, SD.link_cost)
    g2 = gm.build_graph(base, SD.link_cost)
    for i in range(n - 1):
        deltas += g1.ingest_event(gm.RemoveLink(i, i + 1), SD.link_cost)
    shuffled = list(deltas)
    rnd.shuffle(shuffled)
    g1.apply_deltas(deltas)
    # mirror the node-table mutation on g2, then apply shuffled deltas
    for i in range(n - 1):
        g2.ingest_event(gm.RemoveLink(i, i + 1), SD.link_cost)
    g2.apply_deltas(shuffled)
    assert g1 == g2


class TestFiles:
    def test_topology_round_trip(self, tmp_path):
        topo = topology(3, [(0, 1), (1, 2, props(capacity=40, utilization=12.5))])
        path = tmp_path / "topo.txt"
        gm.save_topology(topo, path)
        loaded = gm.load_topology(path)
        assert [n.id for n in loaded.nodes] == [0, 1, 2]
        assert loaded.links[1][2].capacity == 40
        assert loaded.links[1][2].utilization == 12.5

    def test_topology_round_trip_keeps_real_utilizations(self, tmp_path):
        free_bw = builtin("sd_free_bw")
        topo = topology(
            3,
            [
                (0, 1, props(capacity=7.5, utilization=100 / 7, delay=1 / 3)),
                (1, 2, props(capacity=10.0, utilization=14.285714285714286)),
            ],
        )
        path = tmp_path / "topo.txt"
        gm.save_topology(topo, path)
        loaded = gm.load_topology(path)
        assert loaded.links == topo.links
        assert gm.build_graph(loaded, free_bw.link_cost) == gm.build_graph(
            topo, free_bw.link_cost
        )

    def test_topology_comments_and_errors(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("# header\nnode 0 switch\nnode 1 host\nfrob 1 2\n")
        with pytest.raises(EventParseError, match="line 4"):
            gm.load_topology(path)

    def test_topology_link_before_its_nodes(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("link 0 1 capacity=10.0\nnode 0 switch\nnode 1 host\n")
        loaded = gm.load_topology(path)
        assert [n.id for n in loaded.nodes] == [0, 1]
        assert [(a, b) for a, b, _p in loaded.links] == [(0, 1)]

    @pytest.mark.parametrize(
        "ev",
        [
            gm.AddLink(3, 4, props(capacity=25, utilization=10, delay=0.5)),
            gm.RemoveLink(3, 4),
            gm.RemoveLink(3, 4, w=2.5),
            gm.AddNode(9, gm.NodeLabel.FIREWALL),
            gm.RemoveNode(9),
            gm.UpdateWeight(3, 4, 55.0),
        ],
    )
    def test_event_line_round_trip(self, ev):
        assert gm.parse_event(gm.format_event(ev)) == ev

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.builds(
                gm.AddLink,
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.builds(
                    gm.LinkProperties,
                    capacity=st.floats(0.0, 1e12, exclude_min=True),
                    utilization=st.floats(0.0, 100.0),
                    delay=st.floats(0.0, 1e12),
                ),
            ),
            st.builds(
                gm.RemoveLink,
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.none() | st.floats(allow_nan=False, allow_infinity=False),
            ),
            st.builds(gm.AddNode, st.integers(0, 10**6), st.sampled_from(gm.NodeLabel)),
            st.builds(gm.RemoveNode, st.integers(0, 10**6)),
            st.builds(
                gm.UpdateWeight,
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.floats(0.0, 100.0),
            ),
        )
    )
    def test_event_line_round_trip_is_lossless(self, ev):
        line = gm.format_event(ev)
        if isinstance(ev, gm.AddLink) and ev.a == ev.b:
            # no graph can hold a self-link, so its line is refused
            with pytest.raises(EventParseError, match="self-link"):
                gm.parse_event(line)
        else:
            assert gm.parse_event(line) == ev

    def test_parse_event_rejects_garbage(self):
        with pytest.raises(EventParseError):
            gm.parse_event("+link 1")
        with pytest.raises(EventParseError, match="line 12"):
            gm.parse_event("~link 1 2", line_no=12)
        with pytest.raises(EventParseError):
            gm.parse_event("weight 1 2 delay=3")


def test_link_properties_validation():
    with pytest.raises(ValueError):
        gm.LinkProperties(capacity=0.0)
    with pytest.raises(ValueError, match="finite"):
        gm.LinkProperties(capacity=float("inf"))
    with pytest.raises(ValueError):
        gm.LinkProperties(capacity=1.0, utilization=101.0)
    with pytest.raises(ValueError):
        gm.LinkProperties(capacity=1.0, delay=-0.1)
    assert props(capacity=10, utilization=40).free_bandwidth() == 6.0
