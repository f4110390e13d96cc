import random

import pytest

from deltapath import oracle, path_retrieval as pr
from deltapath.errors import CycleDetectedError, UnreachableError
from deltapath.graph_model import build_graph
from deltapath.routing_core import initialize
from deltapath.strategy import builtin, builtin_names

from conftest import random_connected_topology, set_key, utilization_topology

SD = builtin("sd_utilization")


@pytest.fixture
def triangle_view(triangle_graph):
    return initialize(triangle_graph, SD).established_rules()


class TestRetrieve:
    def test_self_path(self, triangle_view):
        p = pr.retrieve(triangle_view, 1, 1)
        assert p.hops == (1,)
        assert p.cost == 0.0
        assert p.length == 0

    def test_triangle_two_hop(self, triangle_view):
        p = pr.retrieve(triangle_view, 0, 2)
        assert p.hops == (0, 1, 2)
        assert p.cost == 2.0
        assert p.length == 2

    def test_unreachable_components(self):
        g = build_graph(
            utilization_topology(4, [(0, 1, 1), (2, 3, 1)]), SD.link_cost
        )
        view = initialize(g, SD).established_rules()
        with pytest.raises(UnreachableError):
            pr.retrieve(view, 0, 3)

    def test_corrupted_view_is_detected(self, triangle_graph):
        # two rules pointing at each other can only come from corruption
        store = initialize(triangle_graph, SD)
        set_key(store, 9, 0, (1.0, 1, 1))
        set_key(store, 9, 1, (1.0, 1, 0))
        with pytest.raises(CycleDetectedError):
            pr.retrieve(store.established_rules(), 0, 9)

    def test_missing_suffix_is_unreachable(self, triangle_graph):
        store = initialize(triangle_graph, SD)
        set_key(store, 9, 0, (1.0, 1, 1))
        with pytest.raises(UnreachableError, match=r"\(1, 9\)"):
            pr.retrieve(store.established_rules(), 0, 9)


class TestPathLinks:
    def test_two_hop_windowing(self):
        p = pr.Path((0, 1, 2), 2.0)
        assert pr.path_links(p) == [(0, 1), (1, 2)]

    def test_self_path_has_no_links(self):
        assert pr.path_links(pr.Path((7,), 0.0)) == []

    def test_k_hops_give_k_pairs(self):
        p = pr.Path(tuple(range(6)), 5.0)
        assert len(pr.path_links(p)) == 5


class TestConsistency:
    @pytest.mark.parametrize("name", builtin_names())
    @pytest.mark.parametrize("seed", range(3))
    def test_cost_and_optimality(self, seed, name):
        strategy = builtin(name)
        rng = random.Random(seed)
        topo = random_connected_topology(rng, 16)
        g = build_graph(topo, strategy.link_cost)
        view = initialize(g, strategy).established_rules()
        want = oracle.solve(g, strategy)
        best = max if strategy.maximize else min
        weights = {}
        for (a, b, w), _m in g.edge_items():
            weights[(a, b)] = best(w, weights.get((a, b), w))
        for s in range(16):
            for t in range(16):
                p = pr.retrieve(view, s, t)
                assert p.cost == view[(s, t)].p_cost
                assert p.cost == want.cost_of(s, t)
                assert p.length == view[(s, t)].p_length
                # fold the path cost along the hops, from t back to s
                cost = strategy.tautology_cost
                for e in reversed(pr.path_links(p)):
                    cost = strategy.path_cost(weights[e], cost)
                assert p.cost == cost

    def test_every_suffix_is_its_own_retrieval(self):
        rng = random.Random(40)
        topo = random_connected_topology(rng, 14)
        g = build_graph(topo, SD.link_cost)
        view = initialize(g, SD).established_rules()
        for s in range(14):
            for t in range(14):
                hops = pr.retrieve(view, s, t).hops
                for i in range(1, len(hops)):
                    assert pr.retrieve(view, hops[i], t).hops == hops[i:]
