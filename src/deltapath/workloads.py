"""Topology generators, weight plans, and benchmark event scripts.

Everything here is a pure function of its parameters and seed.  Scenario
generators check their input when called and then yield the
line-oriented event-file format as it is consumed (with a `reset`
directive between failure trials telling the replay harness to restore
the initial state).
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

from .errors import InfeasibleError, OddArityError
from .graph_model import (
    LinkProperties,
    NodeLabel,
    NodeRecord,
    Topology,
    UpdateWeight,
    build_graph,
    format_event,
)
from .strategy import builtin

# Benchmark sweeps: weight updates go up to 1024 per epoch, path requests
# up to 8192 per batch, both in powers of two.
WEIGHT_BATCH_SIZES = [2**i for i in range(11)]
PATH_REQUEST_SIZES = [2**i for i in range(14)]

DEFAULT_CAPACITY = 10.0
DEFAULT_DELAY = 1.0


class PlanKind(str, Enum):
    HOP_COUNT = "hopcount"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class WeightPlan:
    """Link utilization assignment: `hopcount` leaves links idle so every
    weight is uniform, `uniform` draws integer utilizations in [1, 100]."""

    kind: PlanKind = PlanKind.HOP_COUNT
    seed: int = 0

    def properties(self, rng: random.Random) -> LinkProperties:
        if self.kind is PlanKind.UNIFORM:
            utilization = float(rng.randint(1, 100))
        else:
            utilization = 0.0
        return LinkProperties(DEFAULT_CAPACITY, utilization, DEFAULT_DELAY)


class ScenarioKind(str, Enum):
    LINK_FAILURE = "link-failure"
    SWITCH_FAILURE = "switch-failure"
    WEIGHT_UPDATE_BATCHES = "weight-batches"
    PATH_REQUEST_BATCHES = "path-requests"


@dataclass(frozen=True)
class Scenario:
    kind: ScenarioKind
    trials: int = 500
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def _assign_plan(topo: Topology, plan: WeightPlan) -> Topology:
    rng = random.Random(plan.seed)
    topo.links = [(a, b, plan.properties(rng)) for a, b, _p in topo.links]
    return topo


def gen_fattree(k: int, plan: WeightPlan = WeightPlan(), hosts: bool = False) -> Topology:
    """A k-ary fat-tree at switch granularity: k pods of k/2 edge and k/2
    aggregation switches plus (k/2)^2 cores, 5k^2/4 switches total.  Edge
    switches take ids 0 .. k^2/2 - 1, aggregation switches the next k^2/2
    ids and cores the rest.  `hosts` adds k/2 host nodes per edge switch.
    """
    if k < 2 or k % 2:
        raise OddArityError(f"fat-tree arity must be even and >= 2, got {k}")
    half = k // 2
    topo = Topology()

    def edge_id(pod, i):
        return pod * half + i

    agg_base = k * half
    core_base = 2 * k * half

    for pod in range(k):
        for i in range(half):
            topo.nodes.append(NodeRecord(edge_id(pod, i), NodeLabel.SWITCH))
        for j in range(half):
            topo.nodes.append(NodeRecord(agg_base + pod * half + j, NodeLabel.SWITCH))
    for c in range(half * half):
        topo.nodes.append(NodeRecord(core_base + c, NodeLabel.SWITCH))

    placeholder = LinkProperties(DEFAULT_CAPACITY)
    for pod in range(k):
        for i in range(half):
            for j in range(half):
                topo.links.append(
                    (edge_id(pod, i), agg_base + pod * half + j, placeholder)
                )
        for j in range(half):
            for l in range(half):
                topo.links.append(
                    (agg_base + pod * half + j, core_base + j * half + l, placeholder)
                )

    if hosts:
        next_id = core_base + half * half
        for pod in range(k):
            for i in range(half):
                for _ in range(half):
                    topo.nodes.append(NodeRecord(next_id, NodeLabel.HOST))
                    topo.links.append((edge_id(pod, i), next_id, placeholder))
                    next_id += 1
    return _assign_plan(topo, plan)


def _pair_random_regular(rng, degrees, n):
    """Connect random open port pairs; when stuck, splice into an existing
    edge (remove (a, b), add the stuck node to both ends)."""
    free = {i: d for i, d in enumerate(degrees) if d}
    pairs: set[tuple[int, int]] = set()

    def key(a, b):
        return (a, b) if a < b else (b, a)

    def consume(node):
        free[node] -= 1
        if not free[node]:
            del free[node]

    stall = 0
    while free:
        open_nodes = sorted(free)
        if len(open_nodes) >= 2 and stall < 60:
            a, b = rng.sample(open_nodes, 2)
            if key(a, b) not in pairs:
                pairs.add(key(a, b))
                consume(a)
                consume(b)
                stall = 0
            else:
                stall += 1
            continue
        # endgame: splice the remaining ports into random existing edges
        p = rng.choice(open_nodes)
        done = False
        for _ in range(200):
            a, b = rng.choice(sorted(pairs))
            if p in (a, b) or key(p, a) in pairs or key(p, b) in pairs:
                continue
            if free.get(p, 0) >= 2:
                pairs.remove(key(a, b))
                pairs.add(key(p, a))
                pairs.add(key(p, b))
                consume(p)
                consume(p)
                done = True
                break
            others = [q for q in open_nodes if q != p]
            if others:
                q = rng.choice(others)
                if q not in (a, b) and key(q, b) not in pairs and key(p, a) not in pairs and q != a and p != b:
                    pairs.remove(key(a, b))
                    pairs.add(key(p, a))
                    pairs.add(key(q, b))
                    consume(p)
                    consume(q)
                    done = True
                    break
        if not done:
            return None
        stall = 0
    return pairs


def gen_jellyfish(
    n: int, r: float, plan: WeightPlan = WeightPlan(), seed: int = 0
) -> Topology:
    """Random r-regular graph on n switches: random port matching with
    splice repairs, retried until simple and connected.

    A fractional r yields a near-regular graph with floor/ceil degrees
    (network-facing port counts in the source tables are averages).
    """
    stubs_total = round(n * r)
    if n < 2 or r <= 0 or math.ceil(r) >= n:
        raise InfeasibleError(f"no simple {r}-regular graph on {n} nodes")
    if stubs_total % 2:
        raise InfeasibleError(f"n*r must be even, got {n}*{r}")
    rng = random.Random(seed)
    degrees = [stubs_total // n] * n
    for i in rng.sample(range(n), stubs_total - (stubs_total // n) * n):
        degrees[i] += 1

    if all(d == n - 1 for d in degrees):
        pairs = {(a, b) for a in range(n) for b in range(a + 1, n)}
        return _finish_jellyfish(pairs, n, plan)

    for _attempt in range(50):
        pairs = _pair_random_regular(rng, list(degrees), n)
        if pairs is None:
            continue
        seen = {0}
        frontier = [0]
        adj: dict[int, list[int]] = {}
        for a, b in pairs:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if len(seen) == n:
            return _finish_jellyfish(pairs, n, plan)
    raise InfeasibleError(
        f"port matching failed to produce a simple connected graph (n={n}, r={r})"
    )


def _finish_jellyfish(pairs, n, plan):
    topo = Topology(nodes=[NodeRecord(i, NodeLabel.SWITCH) for i in range(n)])
    placeholder = LinkProperties(DEFAULT_CAPACITY)
    topo.links = [(a, b, placeholder) for a, b in sorted(pairs)]
    return _assign_plan(topo, plan)


# --- event scripts -----------------------------------------------------------


def gen_failure_events(topo: Topology, scenario: Scenario) -> Iterator[str]:
    """One epoch per trial removing a random link (or switch with all its
    attached links), each trial starting from the same state."""
    if scenario.kind not in (ScenarioKind.LINK_FAILURE, ScenarioKind.SWITCH_FAILURE):
        raise ValueError(f"wrong scenario kind {scenario.kind}")
    if scenario.kind is ScenarioKind.LINK_FAILURE:
        if not topo.links:
            raise InfeasibleError("link failures need a topology with at least one link")
    elif not topo.nodes:
        raise InfeasibleError("switch failures need a topology with at least one node")

    def lines():
        rng = random.Random(scenario.seed)
        yield f"# {scenario.kind.value} x{scenario.trials} seed={scenario.seed}"
        for trial in range(1, scenario.trials + 1):
            yield f"epoch {trial}"
            if scenario.kind is ScenarioKind.LINK_FAILURE:
                a, b, _p = topo.links[rng.randrange(len(topo.links))]
                yield f"-link {a} {b}"
            else:
                node = topo.nodes[rng.randrange(len(topo.nodes))]
                yield f"-node {node.id}"
            yield "reset"

    return lines()


def gen_weight_update_batches(topo: Topology, scenario: Scenario) -> Iterator[str]:
    """Batches of utilization bumps along randomly selected paths.

    Each batch gathers the links of random shortest paths (under the
    evolving utilization weights) until `batch_size` distinct links are
    collected, then raises each link's utilization by 5% of capacity,
    clamped at full; updates accumulate across batches.
    """
    if scenario.kind is not ScenarioKind.WEIGHT_UPDATE_BATCHES:
        raise ValueError(f"wrong scenario kind {scenario.kind}")
    if len(topo.nodes) < 2:
        raise InfeasibleError("weight-update batches need a topology with at least two nodes")
    if any(p.utilization <= 0 for _a, _b, p in topo.links):
        raise InfeasibleError("weight-update batches need the uniform plan")

    def lines():
        # only this scenario loads the oracle
        from . import oracle

        strategy = builtin("sd_utilization")
        rng = random.Random(scenario.seed)
        graph = build_graph(topo, strategy.link_cost)
        util = {}
        for a, b, props in topo.links:
            util[(min(a, b), max(a, b))] = props.utilization
        nodes = [n.id for n in topo.nodes]
        yield f"# weight-batches x{scenario.trials} size={scenario.batch_size}"
        for trial in range(1, scenario.trials + 1):
            result = oracle.solve(graph, strategy)
            batch: list[tuple[int, int]] = []
            chosen = set()
            for _ in range(50 * scenario.batch_size):
                if len(batch) >= scenario.batch_size:
                    break
                s, t = rng.sample(nodes, 2)
                if not result.reachable(s, t):
                    continue
                node = s
                while node != t:
                    nxt = result.next_of(node, t)
                    key = (min(node, nxt), max(node, nxt))
                    if key not in chosen:
                        chosen.add(key)
                        batch.append(key)
                        if len(batch) >= scenario.batch_size:
                            break
                    node = nxt
            yield f"epoch {trial}"
            events = []
            for a, b in batch:
                new_util = min(100.0, util[(a, b)] + 5.0)
                util[(a, b)] = new_util
                events.append(UpdateWeight(a, b, new_util))
            for ev in events:
                yield format_event(ev)
            for ev in events:
                graph.apply_deltas(graph.ingest_event(ev, strategy.link_cost))

    return lines()


def gen_request_batches(topo: Topology, scenario: Scenario) -> Iterator[str]:
    """Batches of random path requests, one epoch per batch."""
    if scenario.kind is not ScenarioKind.PATH_REQUEST_BATCHES:
        raise ValueError(f"wrong scenario kind {scenario.kind}")
    if len(topo.nodes) < 2:
        raise InfeasibleError("path requests need a topology with at least two nodes")

    def lines():
        rng = random.Random(scenario.seed)
        nodes = [n.id for n in topo.nodes]
        yield f"# path-requests x{scenario.trials} size={scenario.batch_size}"
        flow = 0
        for trial in range(1, scenario.trials + 1):
            yield f"epoch {trial}"
            for _ in range(scenario.batch_size):
                s, t = rng.sample(nodes, 2)
                flow += 1
                yield f"req {flow} {s} {t}"

    return lines()


def generate(topo: Topology, scenario: Scenario) -> Iterator[str]:
    """Dispatch on the scenario kind."""
    if scenario.kind in (ScenarioKind.LINK_FAILURE, ScenarioKind.SWITCH_FAILURE):
        return gen_failure_events(topo, scenario)
    if scenario.kind is ScenarioKind.WEIGHT_UPDATE_BATCHES:
        return gen_weight_update_batches(topo, scenario)
    return gen_request_batches(topo, scenario)


def write_lines(lines: Iterable[str], path) -> None:
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)
