"""Golden change batches: a seeded replay whose emitted batches must hash
to constants recorded from a known-good engine.

The engine's output is a diff of two fixpoints, and the fixpoint is
unique under the built-in strategies, so any change to how the engine
reaches it must leave these hashes alone.  The script mixes link
failures, additions, weight updates and node churn (new ids grow the
horizon, re-added ids do not) on a fat-tree and a jellyfish, for every
built-in strategy and two worker counts.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from deltapath import workloads as wl
from deltapath.graph_model import (
    AddLink,
    AddNode,
    RemoveLink,
    RemoveNode,
    UpdateWeight,
    build_graph,
)
from deltapath.routing_core import initialize, rules_to_csv, step_epoch
from deltapath.strategy import builtin

from conftest import props

EPOCHS = 60

# sha256 of the initial view (as epoch 0) and every emitted batch, each
# rendered by rules_to_csv
GOLDEN = {
    ("hop_count", "fattree4"):
        "df5ff12f369896166ad1afb303fbab6893a89b353baf88cc722829f7cbe9afb0",
    ("hop_count", "jellyfish20"):
        "b48a9c2bc47c2d4feaec16d14c28a9302d0e0df7db22aa2905f6ee8f7d4184b7",
    ("sd_free_bw", "fattree4"):
        "1f328cd13bd4b0626abf3bd7888f2606987819505cecb6bb84822bdd12b192e6",
    ("sd_free_bw", "jellyfish20"):
        "31ff8da0b19d566be38bc085cf898c4ca3701f45a2bec01edc39f8d91ee5b60d",
    ("sd_utilization", "fattree4"):
        "39c7df6beacb0934ee59535c82d0de38745969429d82c27562534de492d65a6a",
    ("sd_utilization", "jellyfish20"):
        "bd07b346664349617fca8e93fbeaac8f8a7c9650f6814d08a6c92fc9603cb497",
    ("shortest_widest", "fattree4"):
        "b3df87aa6f85f3fe4b7d0787527b05ee108f629af4085cba56f80db0e8f6ef31",
    ("shortest_widest", "jellyfish20"):
        "33a89682434700ce8e0245809ef577eefa7ac7c2c90b6e67485f252a14ce35ea",
}


def _topology(name):
    plan = wl.WeightPlan(wl.PlanKind.UNIFORM, seed=7)
    if name == "fattree4":
        return wl.gen_fattree(4, plan)
    return wl.gen_jellyfish(20, 4, plan, seed=7)


def _links(graph):
    return sorted({(min(a, b), max(a, b)) for (a, b, _w), _m in graph.edge_items()})


def _epoch(rng, graph, floor, spare):
    """One epoch of events, valid against `graph` in order: events of one
    epoch never touch the same link twice."""
    nodes = sorted(graph.nodes)
    links = _links(graph)
    linked = set(links)
    roll = rng.random()
    if roll < 0.25 and len(links) > 2:
        picks = rng.sample(links, rng.randint(1, 2))
        return [RemoveLink(a, b, graph.weights_between(a, b)[0]) for a, b in picks]
    if roll < 0.4:
        for _ in range(50):
            a, b = sorted(rng.sample(nodes, 2))
            if (a, b) not in linked:
                return [AddLink(a, b, props(utilization=float(rng.randint(1, 99))))]
        return []
    if roll < 0.65 and links:
        picks = rng.sample(links, min(len(links), rng.randint(1, 3)))
        return [UpdateWeight(a, b, float(rng.randint(1, 99))) for a, b in picks]
    if roll < 0.8 and len(nodes) > floor:
        victim = rng.choice(nodes)
        spare.append(victim)
        events = [RemoveNode(victim)]
        others = [(a, b) for a, b in links if victim not in (a, b)]
        if others and rng.random() < 0.5:
            a, b = rng.choice(others)
            events.append(UpdateWeight(a, b, float(rng.randint(1, 99))))
        return events
    if spare and rng.random() < 0.5:
        new = spare.pop(rng.randrange(len(spare)))
    else:
        new = max(nodes + spare) + 1
    anchors = rng.sample(nodes, min(len(nodes), rng.randint(1, 3)))
    return [AddNode(new)] + [
        AddLink(a, new, props(utilization=float(rng.randint(1, 99)))) for a in anchors
    ]


def _replay_digest(strategy_name, topo_name, workers):
    strategy = builtin(strategy_name)
    graph = build_graph(_topology(topo_name), strategy.link_cost)
    store = initialize(graph, strategy, workers)
    digest = hashlib.sha256()
    digest.update(rules_to_csv(0, sorted(store.established_rules().values())).encode())
    rng = random.Random(f"{strategy_name}/{topo_name}")
    floor = len(graph.nodes) - 3
    spare = []
    for epoch in range(1, EPOCHS + 1):
        batch = step_epoch(store, graph, _epoch(rng, graph, floor, spare))
        digest.update(rules_to_csv(epoch, batch).encode())
    store.check_integrity(graph)
    return digest.hexdigest()


@pytest.mark.parametrize("strategy_name,topo_name", sorted(GOLDEN))
def test_emitted_batches_match_golden(strategy_name, topo_name):
    digests = {w: _replay_digest(strategy_name, topo_name, w) for w in (1, 3)}
    assert digests[1] == digests[3]
    assert digests[1] == GOLDEN[(strategy_name, topo_name)]
