import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapath.errors import InvalidWeightError, UnknownStrategyError
from deltapath.graph_model import build_graph
from deltapath.routing_core import initialize
from deltapath.strategy import SATURATED_WEIGHT, builtin, builtin_names

from conftest import props, topology, utilization_topology


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == [
            "hop_count", "sd_free_bw", "sd_utilization", "shortest_widest",
        ]
        with pytest.raises(UnknownStrategyError):
            builtin("bellman_ford")

    def test_cli_aliases(self):
        assert builtin("hopcount").name == "hop_count"
        assert builtin("sd-freebw").name == "sd_free_bw"
        assert builtin("sd-util").name == "sd_utilization"
        assert builtin("widest").name == "shortest_widest"

    def test_hop_count_table_row(self):
        s = builtin("hop_count")
        assert s.link_cost(props(capacity=3, utilization=99)) == 1
        assert s.path_cost(1, 4) == 5
        assert s.tautology_cost == 0

    def test_free_bandwidth_table_row(self):
        s = builtin("sd_free_bw")
        # capacity 10 at 50% leaves 5 free -> weight 1/5
        assert s.link_cost(props(capacity=10, utilization=50)) == pytest.approx(0.2)
        assert s.path_cost(0.2, 0.5) == pytest.approx(0.7)

    def test_saturated_link_gets_sentinel_weight(self):
        s = builtin("sd_free_bw")
        assert s.link_cost(props(capacity=10, utilization=100)) == SATURATED_WEIGHT

    def test_utilization_table_row(self):
        s = builtin("sd_utilization")
        assert s.link_cost(props(utilization=37.0)) == 37.0

    def test_widest_table_row(self):
        s = builtin("shortest_widest")
        assert s.link_cost(props(capacity=10, utilization=40)) == 6.0
        assert s.path_cost(3, 5) == 3  # min of pair
        assert s.path_cost(7, 5) == 5
        assert s.tautology_cost == math.inf
        assert s.maximize

    def test_additive_domain_rejects_nonpositive(self):
        s = builtin("sd_utilization")
        with pytest.raises(InvalidWeightError):
            s.validate_weight(0.0)
        assert s.validate_weight(1.0) == 1.0
        # widest allows zero-width links (fully utilized)
        assert builtin("shortest_widest").validate_weight(0.0) == 0.0


class TestCompare:
    """The engine's selection order, seen through the rules it settles."""

    def test_primary_key_dominates(self):
        # two hops of weight 1 beat one hop of weight 3
        s = builtin("sd_utilization")
        g = build_graph(utilization_topology(3, [(0, 2, 3), (0, 1, 1), (1, 2, 1)]),
                        s.link_cost)
        assert initialize(g, s).established_rules()[(0, 2)][2:5] == (1, 2.0, 2)

    def test_widest_prefers_fewer_hops_on_equal_width(self):
        s = builtin("shortest_widest")

        def rule_0_3(width_of_detour):
            links = [(0, 3, props(capacity=10.0))]
            links += [(a, b, props(capacity=width_of_detour))
                      for a, b in ((0, 1), (1, 2), (2, 3))]
            g = build_graph(topology(4, links), s.link_cost)
            return initialize(g, s).established_rules()[(0, 3)][2:5]

        assert rule_0_3(10.0) == (3, 10.0, 1)
        # wider always wins regardless of hops
        assert rule_0_3(11.0) == (1, 11.0, 3)

    def test_tie_break_by_smallest_next(self):
        s = builtin("hop_count")
        g = build_graph(topology(4, [(0, 2), (2, 3), (0, 1), (1, 3)]), s.link_cost)
        view = initialize(g, s).established_rules()
        assert view[(0, 3)][2:5] == (1, 2, 2)
        assert view[(3, 0)][2:5] == (1, 2, 2)
        assert view[(1, 2)][2:5] == (0, 2, 2)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.01, 100.0, allow_nan=False),
    st.floats(0.0, 1000.0, allow_nan=False),
    st.sampled_from(["hop_count", "sd_free_bw", "sd_utilization"]),
)
def test_additive_extension_strictly_grows_cost(w, c, name):
    s = builtin(name)
    assert s.path_cost(w, c) > c


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 100.0, allow_nan=False), st.floats(0.0, 100.0, allow_nan=False))
def test_widest_extension_never_widens(w, c):
    s = builtin("shortest_widest")
    assert s.path_cost(w, c) <= c
