import math
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltapath
from deltapath import oracle
from deltapath.errors import TooLargeError
from deltapath.graph_model import RemoveLink, RemoveNode, build_graph, save_topology
from deltapath.routing_core import ForwardingRule, initialize, step_epoch
from deltapath.strategy import Strategy, builtin, builtin_names
from deltapath.workloads import PlanKind, WeightPlan, gen_fattree, gen_jellyfish

from conftest import (
    affected_pairs,
    cost_and_length,
    key_at,
    loose_topologies,
    pairs,
    props,
    random_connected_topology,
    real_weight_topologies,
    rule_store,
    set_key,
    topology,
    triangle,
    utilization_topology,
    widest_paths_bruteforce,
    witnesses,
)

SD = builtin("sd_utilization")
HOP = builtin("hop_count")
WIDEST = builtin("shortest_widest")
BUILTINS = [builtin(name) for name in builtin_names()]


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
            assert result.cost_of(s, t) == cost, (s, t)
            assert result.length_of(s, t) == length, (s, t)
            assert result.next_of(s, t) == nxt, (s, t)


class TestAdditive:
    def test_triangle_by_hand(self):
        g = build_graph(triangle(), SD.link_cost)
        r = oracle.solve(g, SD)
        assert r.cost_of(0, 2) == 2
        assert r.length_of(0, 2) == 2
        assert r.next_of(0, 2) == 1
        assert witnesses(r, g, 0, 2) == {1}
        assert r.cost_of(0, 0) == 0 and r.next_of(0, 0) == 0

    def test_unit_star(self):
        g = sd_graph(5, [(0, i, 1) for i in range(1, 5)])
        r = oracle.solve(g, SD)
        assert all(r.cost_of(0, i) == 1 for i in range(1, 5))
        assert r.cost_of(1, 2) == 2 and r.next_of(1, 2) == 0

    def test_disconnected_pair(self):
        g = sd_graph(4, [(0, 1, 1), (2, 3, 1)])
        r = oracle.solve(g, SD)
        assert not r.reachable(0, 3)
        assert r.triple(0, 3) is None
        assert r.next_of(0, 3) is None

    def test_unit_weights_equal_bfs(self):
        rng = random.Random(7)
        topo = random_connected_topology(rng, 24)
        hop = builtin("hop_count")
        g = build_graph(topo, hop.link_cost)
        r = oracle.solve(g, hop)
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
        r = oracle.solve(g, SD)
        for s, t, cost, length, nxt in pairs(r):
            if s == t:
                continue
            w = min(w for (dst, w) in g.out_edges(s) if dst == nxt)
            assert cost == w + r.cost_of(nxt, t)
            assert length == 1 + r.length_of(nxt, t)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_slow_reference_integer_weights(self, seed):
        rng = random.Random(seed)
        g = build_graph(random_connected_topology(rng, rng.randint(5, 12)), SD.link_cost)
        assert_matches_slow(oracle.solve(g, SD), g, SD)

    @pytest.mark.parametrize("seed", range(6, 10))
    def test_matches_slow_reference_real_weights(self, seed):
        rng = random.Random(seed)
        topo = random_connected_topology(rng, rng.randint(5, 12))
        free_bw = builtin("sd_free_bw")
        g = build_graph(topo, free_bw.link_cost)
        assert_matches_slow(oracle.solve(g, free_bw), g, free_bw)

    def test_parallel_links_use_the_cheapest(self):
        g = sd_graph(2, [(0, 1, 5), (0, 1, 2)])
        r = oracle.solve(g, SD)
        assert r.cost_of(0, 1) == 2


class TestWidest:
    def test_two_routes_take_the_wider(self):
        # 0-1-2 bottleneck 3 vs 0-3-2 bottleneck 5
        g = width_graph(4, [(0, 1, 3), (1, 2, 6), (0, 3, 5), (3, 2, 9)])
        r = widest_paths_bruteforce(g, WIDEST)
        assert r.cost_of(0, 2) == 5
        assert r.next_of(0, 2) == 3
        assert r.length_of(0, 2) == 2

    def test_equal_width_prefers_direct_link(self):
        g = width_graph(3, [(0, 2, 7), (0, 1, 7), (1, 2, 7)])
        r = widest_paths_bruteforce(g, WIDEST)
        assert r.cost_of(0, 2) == 7
        assert r.length_of(0, 2) == 1
        assert r.next_of(0, 2) == 2

    def test_single_edge_graph(self):
        g = width_graph(2, [(0, 1, 4)])
        r = widest_paths_bruteforce(g, WIDEST)
        assert r.cost_of(0, 1) == 4
        assert r.cost_of(0, 0) == math.inf

    def test_too_large_is_rejected(self):
        g = width_graph(15, [(i, i + 1, 1) for i in range(14)])
        with pytest.raises(TooLargeError):
            widest_paths_bruteforce(g, WIDEST)

    def test_parallel_links_use_the_widest(self):
        g = width_graph(2, [(0, 1, 2), (0, 1, 8)])
        r = widest_paths_bruteforce(g, WIDEST)
        assert r.cost_of(0, 1) == 8

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_slow_reference(self, seed):
        rng = random.Random(100 + seed)
        links = []
        n = rng.randint(4, 10)
        topo = random_connected_topology(rng, n)
        links = [(a, b, props(capacity=float(rng.randint(1, 9)))) for a, b, _p in topo.links]
        g = build_graph(topology(n, links), WIDEST.link_cost)
        assert_matches_slow(widest_paths_bruteforce(g, WIDEST), g, WIDEST)

    def test_reference_agrees_with_bruteforce(self):
        rng = random.Random(33)
        n = 11
        topo = random_connected_topology(rng, n)
        links = [(a, b, props(capacity=float(rng.randint(1, 6)))) for a, b, _p in topo.links]
        g = build_graph(topology(n, links), WIDEST.link_cost)
        brute = widest_paths_bruteforce(g, WIDEST)
        ref = oracle.solve(g, WIDEST)
        for s in range(n):
            for t in range(n):
                assert brute.triple(s, t) == ref.triple(s, t)


class TestAffectedPairs:
    def test_identical_graphs(self, triangle_graph):
        assert affected_pairs(triangle_graph, triangle_graph, SD) == set()

    def test_leaf_unlink_touches_all_its_pairs(self):
        g = sd_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        after = g.fork()
        after.apply_deltas(after.ingest_event(RemoveLink(2, 3), SD.link_cost))
        changed = affected_pairs(g, after, SD)
        assert changed == {(0, 3), (1, 3), (2, 3), (3, 0), (3, 1), (3, 2)}

    def test_triangle_minus_one_edge(self, triangle_graph):
        after = triangle_graph.fork()
        after.apply_deltas(after.ingest_event(RemoveLink(0, 1), SD.link_cost))
        changed = affected_pairs(triangle_graph, after, SD)
        assert changed == {(0, 1), (1, 0), (0, 2), (2, 0)}


def rules_of(result):
    """The oracle's own answer as {(s, t): ForwardingRule}."""
    return {
        (s, t): ForwardingRule(s, t, nxt, cost, length, 1)
        for s, t, cost, length, nxt in pairs(result)
    }


def compare_rules(result, rules):
    """`compare_view` of the established view of a store holding `rules`."""
    return oracle.compare_view(result, rule_store(rules).established_rules())


def test_compare_view_reports_divergence(triangle_graph):
    r = oracle.solve(triangle_graph, SD)
    good = rules_of(r)
    assert compare_rules(r, good) == []
    bad = dict(good)
    bad[(0, 2)] = bad[(0, 2)]._replace(p_cost=99.0)
    assert compare_rules(r, bad) == [(0, 2, "cost 99.0 vs oracle 2.0")]
    del bad[(0, 2)]
    assert compare_rules(r, bad) == [(0, 2, "oracle-reachable pair missing from engine")]


# --- properties of a solve that take nothing from its kernels on trust:
# --- `witnesses` re-derives the optimal next hops from the cost matrix,
# --- one source at a time


def assert_witness_properties(result, graph):
    """Every reachable pair's next is its smallest tie-broken witness, and
    its length is one more than the fewest hops of its cost-level
    witnesses."""
    _cost, length = cost_and_length(result)
    for s in result.ids:
        for t in result.ids:
            if not result.reachable(s, t):
                assert result.next_of(s, t) is None, (s, t)
                continue
            assert result.next_of(s, t) == min(witnesses(result, graph, s, t)), (s, t)
            if s == t:
                assert result.length_of(s, t) == 0
                continue
            j = result.index[t]
            hops = min(length[result.index[x], j]
                       for x in witnesses(result, graph, s, t, tie_break=False))
            assert length[result.index[s], j] == 1 + hops, (s, t)


@pytest.mark.parametrize("strategy", BUILTINS, ids=lambda s: s.name)
@settings(max_examples=60, deadline=None)
@given(topo=st.one_of(loose_topologies(), real_weight_topologies()))
def test_next_and_length_follow_from_the_witnesses(strategy, topo):
    g = build_graph(topo, strategy.link_cost)
    assert_witness_properties(oracle.solve(g, strategy), g)


def real_weight_fattree(k):
    """A fat-tree whose utilizations are drawn reals, so sd_utilization
    weights are not integral (seeded by k)."""
    topo = gen_fattree(k)
    rng = random.Random(k)
    topo.links = [
        (a, b, replace(p, utilization=rng.uniform(1.0, 100.0))) for a, b, p in topo.links
    ]
    return topo


def test_witness_properties_on_a_real_weight_fattree():
    """n = 320: fewest hops over real weights at the size that used to go
    through a per-target scan, with every tie decided exactly."""
    g = build_graph(real_weight_fattree(16), SD.link_cost)
    result = oracle.solve(g, SD)
    assert len(result.ids) == 320
    assert_witness_properties(result, g)


@pytest.mark.parametrize("strategy,topo", [
    (builtin("sd_free_bw"), lambda: gen_fattree(16, WeightPlan(PlanKind.UNIFORM, seed=0))),
    (SD, lambda: real_weight_fattree(16)),
], ids=["sd_free_bw-fattree16", "sd_utilization-real-fattree16"])
def test_costs_equal_the_engines_exactly(strategy, topo):
    """The oracle adds each weight to the far end's cost, w + D[x, t], as
    the engine does, so fractional weights compare exactly on all 102 400
    pairs of a fat-tree k=16."""
    g = build_graph(topo(), strategy.link_cost)
    view = initialize(g, strategy).established_rules()
    assert oracle.compare_view(oracle.solve(g, strategy), view) == []


def test_a_ring_takes_a_sweep_per_hop():
    """On a ring of n nodes whose heavy link no best path takes, the best
    paths run up to n - 1 hops, so each relaxation sweeps about n times:
    the most the oracle ever sweeps.  n = 300 solves in under a second on
    a 2-vCPU VM; the bound leaves room for a slower machine."""
    n = 300
    links = [(i, i + 1, 0.1) for i in range(n - 1)] + [(n - 1, 0, 100)]
    g = sd_graph(n, links)
    start = time.perf_counter()
    result = oracle.solve(g, SD)
    elapsed = time.perf_counter() - start
    assert result.length_of(0, n - 1) == n - 1 and result.next_of(n - 1, 0) == n - 2
    assert oracle.compare_view(result, initialize(g, SD).established_rules()) == []
    assert elapsed < 10.0, f"{elapsed:.1f} s"


# int weights just above 2**51: three of them total below 2**53, five past it
BIG_INT = Strategy(
    name="big_int",
    link_cost=lambda p: 2**51 + int(p.utilization),
    path_cost=SD.path_cost,
    tautology_cost=0,
    maximize=False,
    weight_domain=SD.weight_domain,
)


def test_int_weights_past_exact_float_sums_are_refused():
    """Three int links total 3 * 2**51 + 6, below 2**53: solved, exactly.
    Five total past 2**53, where a float sum could round: TooLargeError,
    not an inexact check.  Float weights are summed as the engine sums
    them, so the same totals in float solve."""
    g = build_graph(utilization_topology(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)]),
                    BIG_INT.link_cost)
    r = oracle.solve(g, BIG_INT)
    assert r.cost_of(0, 3) == 3 * 2**51 + 6
    assert oracle.compare_view(r, initialize(g, BIG_INT).established_rules()) == []
    links = [(i, i + 1, 1) for i in range(5)]
    with pytest.raises(TooLargeError, match=r"2\*\*53"):
        oracle.solve(build_graph(utilization_topology(6, links), BIG_INT.link_cost),
                             BIG_INT)
    as_float = replace(BIG_INT, link_cost=lambda p: float(BIG_INT.link_cost(p)))
    g = build_graph(utilization_topology(6, links), as_float.link_cost)
    assert oracle.compare_view(oracle.solve(g, as_float),
                               initialize(g, as_float).established_rules()) == []


# int widths of 2**53 and more: 2**53 + 1 and 2**53 + 3 have no float64
BIG_WIDTH = Strategy(
    name="big_width",
    link_cost=lambda p: 2**53 + int(p.utilization),
    path_cost=WIDEST.path_cost,
    tautology_cost=WIDEST.tautology_cost,
    maximize=True,
    weight_domain=WIDEST.weight_domain,
)


def test_int_widths_past_exact_floats_are_refused():
    """The widths 2**53 + 1 and 2**53 + 3 round to other floats, so an
    exact check would name all six pairs of a correct store:
    TooLargeError instead, as for int sums past 2**53."""
    g = build_graph(utilization_topology(3, [(0, 1, 1), (1, 2, 3)]), BIG_WIDTH.link_cost)
    assert initialize(g, BIG_WIDTH).established_rules()[(0, 2)].p_cost == 2**53 + 1
    with pytest.raises(TooLargeError, match=r"2\*\*53"):
        oracle.solve(g, BIG_WIDTH)


@pytest.mark.parametrize("strategy,topo", [
    (HOP, lambda: gen_fattree(16)),
    (SD, lambda: real_weight_fattree(12)),
], ids=["hop_count-fattree16", "sd_utilization-real-fattree12"])
def test_solve_memory_is_bounded(strategy, topo):
    """The traced peak of one solve (numpy buffers included) stays under
    8 MiB: a few (N, N) matrices plus blocks of (edges x targets).  An
    (edges x N) or N^3 temporary is 10.5 MiB or 44 MiB here."""
    g = build_graph(topo(), strategy.link_cost)
    oracle.solve(g, strategy)  # numpy's first calls allocate for good
    tracemalloc.start()
    try:
        oracle.solve(g, strategy)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_compare_view_memory_is_bounded():
    """The traced peak of checking the established view of hop_count
    fat-tree k=16 (102 400 pairs) stays under 4 MiB: the mask of missing
    pairs plus the oracle's keys for one row.  Keys and columns for the
    whole view at once are 16.8 MiB here."""
    g = build_graph(gen_fattree(16), HOP.link_cost)
    view = initialize(g, HOP).established_rules()
    result = oracle.solve(g, HOP)
    tracemalloc.start()
    try:
        bad = oracle.compare_view(result, view)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bad == []
    assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_the_widest_check_loads_no_scipy(tmp_path):
    """Solving and checking shortest_widest, in the library and through
    `run --verify`, never loads scipy, and an additive solve does not
    either."""
    small = gen_jellyfish(20, 4, WeightPlan(PlanKind.UNIFORM))
    save_topology(small, tmp_path / "jellyfish20.txt")
    save_topology(triangle(), tmp_path / "triangle.txt")
    a, b, _props = small.links[0]
    (tmp_path / "events.txt").write_text(f"epoch 1\n-link {a} {b}\n")
    script = textwrap.dedent("""
        import sys
        from pathlib import Path
        from deltapath import oracle
        from deltapath.cli import main
        from deltapath.graph_model import build_graph, load_topology
        from deltapath.routing_core import initialize
        from deltapath.strategy import builtin
        from deltapath.workloads import PlanKind, WeightPlan, gen_jellyfish

        tmp = Path(sys.argv[1])
        widest, plan = builtin("shortest_widest"), WeightPlan(PlanKind.UNIFORM)
        g = build_graph(gen_jellyfish(64, 6, plan), widest.link_cost)
        view = initialize(g, widest).established_rules()
        assert oracle.compare_view(oracle.solve(g, widest), view) == []
        assert main(["run", "--topology", str(tmp / "jellyfish20.txt"), "--strategy", "widest",
                     "--events", str(tmp / "events.txt"), "--out", str(tmp / "m.csv"),
                     "--verify"]) == 0
        print("scipy" in sys.modules)
        sd = builtin("sd_utilization")
        oracle.solve(build_graph(load_topology(tmp / "triangle.txt"), sd.link_cost), sd)
        print("scipy" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(deltapath.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_hop_count_loads_no_scipy(tmp_path):
    """hop_count's weights are all equal, so `initialize` reads its costs
    from the hop counts, and epochs repair without a Dijkstra: set-up,
    a link failure, its restore and a switch failure load no scipy, and
    neither do the oracle's solve, `compare_view` and `run --verify`."""
    topo = gen_fattree(4)
    save_topology(topo, tmp_path / "fattree4.txt")
    a, b, _props = topo.links[0]
    (tmp_path / "events.txt").write_text(f"epoch 1\n-link {a} {b}\nepoch 2\n-node {a}\n")
    script = textwrap.dedent("""
        import sys
        from pathlib import Path
        from deltapath import oracle
        from deltapath.cli import main
        from deltapath.graph_model import AddLink, RemoveLink, RemoveNode, build_graph
        from deltapath.routing_core import initialize, step_epoch
        from deltapath.strategy import builtin
        from deltapath.workloads import gen_fattree

        tmp = Path(sys.argv[1])
        hop = builtin("hop_count")
        topo = gen_fattree(8)
        g = build_graph(topo, hop.link_cost)
        store = initialize(g, hop)
        a, b, props = topo.links[0]
        assert step_epoch(store, g, [RemoveLink(a, b)])
        assert step_epoch(store, g, [AddLink(a, b, props)])
        assert step_epoch(store, g, [RemoveNode(a)])
        print("scipy" in sys.modules)
        assert oracle.compare_view(oracle.solve(g, hop), store.established_rules()) == []
        assert main(["run", "--topology", str(tmp / "fattree4.txt"), "--strategy", "hopcount",
                     "--events", str(tmp / "events.txt"), "--out", str(tmp / "m.csv"),
                     "--verify"]) == 0
        print("scipy" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(deltapath.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_no_built_in_loads_scipy(tmp_path):
    """Under every built-in, over unequal real weights where a strategy
    has them, set-up, a link failure, its restore and a switch failure,
    the oracle's solve with `compare_view`, and `run --verify` load no
    scipy: nothing in the program imports it."""
    topo = gen_fattree(4, WeightPlan(PlanKind.UNIFORM, seed=0))
    save_topology(topo, tmp_path / "fattree4.txt")
    a, b, _props = topo.links[0]
    (tmp_path / "events.txt").write_text(f"epoch 1\n-link {a} {b}\nepoch 2\n-node {a}\n")
    script = textwrap.dedent("""
        import sys
        from pathlib import Path
        import numpy as np
        from deltapath import oracle
        from deltapath.cli import main
        from deltapath.graph_model import AddLink, RemoveLink, RemoveNode, build_graph
        from deltapath.routing_core import (
            RuleStore, _all_fixpoint, _take_slots, initialize, step_epoch,
        )
        from deltapath.strategy import builtin
        from deltapath.workloads import PlanKind, WeightPlan, gen_fattree

        tmp = Path(sys.argv[1])
        topo = gen_fattree(8, WeightPlan(PlanKind.UNIFORM, seed=0))
        a, b, props = topo.links[0]
        for name in ("hopcount", "sd-freebw", "widest", "sd-util"):
            strategy = builtin(name)
            g = build_graph(topo, strategy.link_cost)
            empty = RuleStore(strategy)
            _take_slots(empty, g.nodes)
            assert _all_fixpoint(empty, g, np.arange(len(empty.ids)))
            store = initialize(g, strategy)
            assert step_epoch(store, g, [RemoveLink(a, b)])
            assert step_epoch(store, g, [AddLink(a, b, props)])
            assert step_epoch(store, g, [RemoveNode(a)])
            result = oracle.solve(g, strategy)
            assert oracle.compare_view(result, store.established_rules()) == []
            assert main(["run", "--topology", str(tmp / "fattree4.txt"), "--strategy", name,
                         "--events", str(tmp / "events.txt"), "--out", str(tmp / "m.csv"),
                         "--verify"]) == 0
        weights = {w for _a, _b, w in g.links()}
        print(len(weights) > 1, "scipy" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(deltapath.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


# --- compare_view: its reasons and their order


def test_compare_view_reasons_in_view_order_then_missing_row_major():
    # a triangle (0-2 direct costs 3, through 1 costs 2) and a separate link 3-4
    g = sd_graph(5, [(0, 1, 1), (1, 2, 1), (0, 2, 3), (3, 4, 1)])
    r = oracle.solve(g, SD)
    good = rules_of(r)
    assert compare_rules(r, good) == []
    view = {
        (2, 1): good[(2, 1)]._replace(p_length=2),
        (0, 3): ForwardingRule(0, 3, 1, 5.0, 2, 1),
        (1, 0): good[(1, 0)]._replace(p_cost=7.0),
        (0, 2): good[(0, 2)]._replace(next=2),
        (0, 9): ForwardingRule(0, 9, 1, 1.0, 1, 1),
    }
    for pair, rule in good.items():
        if pair not in view and pair not in {(4, 3), (2, 0), (0, 1)}:
            view[pair] = rule
    assert compare_rules(r, view) == [
        (2, 1, "length 2 vs oracle 1"),
        (0, 3, "engine reaches an oracle-unreachable pair"),
        (1, 0, "cost 7.0 vs oracle 1.0"),
        (0, 2, "next 2 vs oracle 1"),
        (0, 9, "engine reaches an oracle-unreachable pair"),
        (0, 1, "oracle-reachable pair missing from engine"),
        (2, 0, "oracle-reachable pair missing from engine"),
        (4, 3, "oracle-reachable pair missing from engine"),
    ]
    # one reason per pair, the first that applies: cost, then length, then next
    view[(1, 0)] = good[(1, 0)]._replace(p_cost=7.0, p_length=5, next=2)
    view[(2, 1)] = good[(2, 1)]._replace(p_length=2, next=0)
    assert compare_rules(r, view)[:3] == [
        (2, 1, "length 2 vs oracle 1"),
        (0, 3, "engine reaches an oracle-unreachable pair"),
        (1, 0, "cost 7.0 vs oracle 1.0"),
    ]


def test_compare_view_names_nodes_the_oracle_lacks():
    g = sd_graph(3, [(0, 1, 1), (1, 2, 1)])
    r = oracle.solve(g, SD)
    view = {(9, 9): ForwardingRule(9, 9, 9, 0.0, 0, 1), **rules_of(r)}
    view[(7, 0)] = ForwardingRule(7, 0, 0, 1.0, 1, 1)
    assert compare_rules(r, view) == [
        (9, 9, "engine reaches an oracle-unreachable pair"),
        (7, 0, "engine reaches an oracle-unreachable pair"),
    ]


# sd_utilization's sum over a link cost of 2**53 for every link
HUGE = Strategy(
    name="huge",
    link_cost=lambda p: float(2**53),
    path_cost=SD.path_cost,
    tautology_cost=0.0,
    maximize=False,
    weight_domain=SD.weight_domain._replace(hi=math.inf),
)


def test_costs_compare_as_python_compares_them():
    """An int cost of 2**53 + 1 rounds to the oracle's float 2**53, but
    is not equal to it; a Fraction of 1/3 is not the float 1/3."""
    g = build_graph(topology(2, [(0, 1)]), HUGE.link_cost)
    r = oracle.solve(g, HUGE)
    assert r.cost_of(0, 1) == 2.0**53
    view = rules_of(r)
    view[(0, 1)] = view[(0, 1)]._replace(p_cost=2**53)
    assert compare_rules(r, view) == []
    view[(0, 1)] = view[(0, 1)]._replace(p_cost=2**53 + 1)
    assert compare_rules(r, view) == [
        (0, 1, "cost 9007199254740993 vs oracle 9007199254740992.0"),
    ]
    third = oracle.solve(sd_graph(2, [(0, 1, 1 / 3)]), SD)
    view = rules_of(third)
    view[(0, 1)] = view[(0, 1)]._replace(p_cost=Fraction(1, 3))
    assert compare_rules(third, view) == [
        (0, 1, "cost 1/3 vs oracle 0.3333333333333333"),
    ]


def test_compare_view_of_a_corrupted_established_view():
    """A hop_count fat-tree k=4 store (400 pairs) whose rows were
    corrupted: a changed cost, a cost of None, an entry at a slot for a
    node the oracle lacks, and a deleted entry, each named."""
    g = build_graph(gen_fattree(4), HOP.link_cost)
    store = initialize(g, HOP)
    r = oracle.solve(g, HOP)
    rows, slot = store._est, store.slot
    (d0, s0), (d1, s1), (d2, _s2), (d3, s3) = (
        (d, next(x for x in store.ids if x != d)) for d in list(rows)[:4]
    )
    cost, length, nxt = key_at(store, d0, s0)
    set_key(store, d0, s0, (cost + 1, length, nxt))
    cost1, length1, nxt1 = key_at(store, d1, s1)
    set_key(store, d1, s1, (None, length1, nxt1))
    slot[99] = len(store.ids)  # a slot for a node the graph lacks
    store.ids.append(99)
    for d in list(rows):
        set_key(store, d, 99, (1, 1, d2) if d == d2 else None)
    set_key(store, d3, s3, None)
    view = store.established_rules()
    assert oracle.compare_view(r, view) == [
        (s0, d0, f"cost {cost + 1} vs oracle {float(cost)}"),
        (s1, d1, f"cost None vs oracle {float(cost1)}"),
        (99, d2, "engine reaches an oracle-unreachable pair"),
        (s3, d3, "oracle-reachable pair missing from engine"),
    ]


def test_compare_view_names_one_wrong_entry_of_a_fattree16():
    """hop_count fat-tree k=16 after an aggregation switch fails: the
    failed switch keeps its slot, empty in every row, and the view
    compares clean.  A wrong next, cost or length in one entry of one
    row is then the one mismatch named."""
    g = build_graph(gen_fattree(16), HOP.link_cost)
    store = initialize(g, HOP)
    assert step_epoch(store, g, [RemoveNode(130)])
    assert 130 in store.slot and 130 not in g.nodes
    r = oracle.solve(g, HOP)
    view = store.established_rules()
    assert oracle.compare_view(r, view) == []
    s, d = 200, 5
    cost, length, nxt = key = key_at(store, d, s)
    for wrong, reason in [
        ((cost, length, s), f"next {s} vs oracle {nxt}"),
        ((cost + 2, length, nxt), f"cost {cost + 2} vs oracle {float(cost)}"),
        ((cost, length + 2, nxt), f"length {length + 2} vs oracle {length}"),
    ]:
        set_key(store, d, s, wrong)
        assert oracle.compare_view(r, view) == [(s, d, reason)]
    set_key(store, d, s, key)
    assert oracle.compare_view(r, view) == []


# --- compare_view against a loop over the view's entries


def reference_compare(result, view):
    """`compare_view` as a loop over `view.items()`: `_mismatch` for each
    entry in view order, then the oracle-reachable pairs the view lacks,
    row-major in `ids` order."""
    bad = []
    for (s, t), rule in view.items():
        reason = oracle._mismatch(result, s, t, rule.p_cost, rule.p_length, rule.next)
        if reason is not None:
            bad.append((s, t, reason))
    for s in result.ids:
        for t in result.ids:
            if result.reachable(s, t) and (s, t) not in view:
                bad.append((s, t, "oracle-reachable pair missing from engine"))
    return bad


@st.composite
def row_corruptions(draw):
    """Edits to a store's rows, each (kind, destination pick, source pick,
    value pick), the picks taken modulo what the store holds."""
    kinds = st.sampled_from(["cost", "near", "length", "next", "drop", "add", "slot", "row"])
    pick = st.integers(0, 1 << 10)
    return draw(st.lists(st.tuples(kinds, pick, pick, pick), max_size=6))


def corrupt(store, edits):
    """Apply `row_corruptions` to the store's rows: a cost moved by 1 or
    by a relative 1e-12, a length moved by 1, another next, an entry
    deleted or set where there was none, a slot for a node the graph
    lacks, and a row for a destination the graph lacks.  A next is always
    a node with a slot, as the next column holds slots."""
    rows, ids = store._est, store.ids
    for kind, dp, sp, vp in edits:
        d = list(rows)[dp % len(rows)]
        k = sp % len(ids)
        s = ids[k]
        key = key_at(store, d, s)
        if kind == "slot":
            store.slot[1000 + len(ids)] = len(ids)
            ids.append(1000 + len(ids))
            for other in list(rows):
                set_key(store, other, ids[-1], None)
            set_key(store, d, ids[-1], (vp, 1, d if d in store.slot else ids[vp % len(ids)]))
        elif kind == "row":
            rows.pop(2000 + dp, None)
            set_key(store, 2000 + dp, s, (vp, 1, s))
        elif kind == "add" or key is None:
            set_key(store, d, s, (vp % 4, vp % 3, ids[vp % len(ids)]))
        elif kind == "cost":
            set_key(store, d, s, (key[0] + 1, key[1], key[2]))
        elif kind == "near":
            set_key(store, d, s, (key[0] * (1 + 1e-12), key[1], key[2]))
        elif kind == "length":
            set_key(store, d, s, (key[0], key[1] + 1, key[2]))
        elif kind == "next":
            set_key(store, d, s, (key[0], key[1], ids[vp % len(ids)]))
        else:
            set_key(store, d, s, None)


@pytest.mark.parametrize("strategy", BUILTINS, ids=lambda s: f"{s.name}-exact")
@settings(max_examples=40, deadline=None)
@given(topo=loose_topologies(), edits=row_corruptions())
def test_compare_view_equals_the_entry_loop(strategy, topo, edits):
    g = build_graph(topo, strategy.link_cost)
    store = initialize(g, strategy)
    corrupt(store, edits)
    result = oracle.solve(g, strategy)
    view = store.established_rules()
    assert oracle.compare_view(result, view) == reference_compare(result, view)
