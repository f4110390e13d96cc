"""Seeded inputs for the three benchmark workloads.

Everything a run feeds the engine is generated here, before any timing
starts: the topology (from a fixed seed), and from the run's seed the
failure targets, the utilization batches, the retrieval pairs and the
policies.  The measurement loop only replays the steps built here
(restores are derived from the graph at run time, since they re-add a
failed element with its current properties).

A workload is a topology plus an endless-enough list of trials; a trial is
a short list of steps the runner executes in order.  Steps are plain
tuples:

    ("fail_link", a, b)          epoch removing one link
    ("fail_switch", n)           epoch removing a switch and its links
    ("restore",)                 epoch re-adding what the last failure removed
    ("batch", size, events)      epoch of UpdateWeight events
    ("retrieve", pairs)          one retrieval batch
    ("waypoint", stops)          evaluate a five-waypoint policy
    ("not", s, t, excluded)      add and evaluate a NOT policy
    ("backup", s, t)             add and evaluate a backup policy
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from deltapath import LinkProperties, Strategy, Topology, build_graph, builtin, oracle
from deltapath import workloads as wl
from deltapath.graph_model import parse_event

# Each workload has one topology and one initial weight assignment; the
# run's seed draws everything that happens on it.  Drawing the topology
# too would make set-up and epoch costs differ by seed far more than they
# differ between runs of the same code.
TOPOLOGY_SEED = 0
RETRIEVAL_BATCH = 8192
WAYPOINTS = 5
# Link failures are drawn round-robin from this many strata of links
# ordered by how many routes cross them, so every run sees the same mix of
# lightly and heavily used links and the latency median does not depend on
# which of them a seed happens to favour.
LINK_STRATA = 5
# link failures after each utilization batch of the churn workload
LINKS_PER_BATCH = 8
# link failures per cycle of the policy workload
LINKS_PER_CYCLE = 8


@dataclass
class Workload:
    name: str
    strategy: Strategy
    topo: Topology
    trials: list = field(default_factory=list)
    # steps replayed after every set-up, before the trials continue
    warmup: list = field(default_factory=list)
    policies: bool = False  # install a PolicyEngine and call on_epoch
    # NOT policies kept alive at once; older ones are removed
    max_not_forks: int = 0
    # a ("not", s, t, excluded) step that is expected to hit a known
    # defect; evaluated once after the run, apart from its operations
    defect_probe: tuple | None = None


def _link_loads(topo, strategy):
    """Routes crossing each undirected link in the initial fixpoint, from
    the oracle's tie-broken next hops."""
    result = oracle.solve(build_graph(topo, strategy.link_cost), strategy)
    ids, nxt = result.ids, result.next_matrix
    loads: dict[tuple[int, int], int] = {}
    n = len(ids)
    for i in range(n):
        row = nxt[i]
        for j in range(n):
            k = row[j]
            if i != j and k >= 0:
                a, b = ids[i], ids[k]
                key = (a, b) if a < b else (b, a)
                loads[key] = loads.get(key, 0) + 1
    return loads


class _LinkDraws:
    """Endless link-failure targets, round-robin over strata of link load;
    the targets are the links that carry at least one route."""

    def __init__(self, topo, strategy, rng):
        self._strategy = strategy
        self._rng = rng
        self._turn = 0
        self.refresh(topo)

    def refresh(self, topo):
        """Re-rank the links after the weights changed."""
        loads = _link_loads(topo, self._strategy)
        links = sorted(
            (l for l in {(min(a, b), max(a, b)) for a, b, _p in topo.links}
             if loads.get(l, 0) > 0),
            key=lambda l: (loads.get(l, 0), l),
        )
        size = len(links) / LINK_STRATA
        self._strata = [
            links[round(i * size):round((i + 1) * size)] for i in range(LINK_STRATA)
        ]
        self._queues = [[] for _ in self._strata]

    def next(self):
        i = self._turn % LINK_STRATA
        self._turn += 1
        if not self._queues[i]:
            self._queues[i] = list(self._strata[i])
            self._rng.shuffle(self._queues[i])
        return self._queues[i].pop()


def _pairs(rng, nodes, count):
    return [tuple(rng.sample(nodes, 2)) for _ in range(count)]


def _stops(rng, nodes):
    return tuple(rng.sample(nodes, WAYPOINTS + 2))


def failover(seed: int) -> Workload:
    """hop_count on fat-tree k=16: link failures with every tenth trial a
    switch failure, each epoch followed by a retrieval batch and two
    five-waypoint evaluations."""
    strategy = builtin("hop_count")
    topo = wl.gen_fattree(16)
    rng = random.Random(seed)
    draws = _LinkDraws(topo, strategy, rng)
    nodes = topo.node_ids()
    work = Workload("fattree16-hop-failover", strategy, topo, policies=True)
    # batches with every switch live are drawn from a small shared pool
    pool = [_pairs(rng, nodes, RETRIEVAL_BATCH) for _ in range(8)]

    def reads(live, pairs):
        return [("retrieve", pairs)] + [("waypoint", _stops(rng, live)) for _ in range(2)]

    for trial in range(150):
        if trial % 10 == 9:
            n = rng.choice(nodes)
            live = [x for x in nodes if x != n]
            fail = ("fail_switch", n)
            pairs = _pairs(rng, live, RETRIEVAL_BATCH)
        else:
            fail = ("fail_link", *draws.next())
            live = nodes
            pairs = rng.choice(pool)
        work.trials.append(
            [fail, *reads(live, pairs), ("restore",), *reads(nodes, rng.choice(pool))]
        )
    return work


def _weight_batch(topo, size, seed):
    """One `gen_weight_update_batches` batch on the current utilizations;
    returns the events and the topology with them applied."""
    scenario = wl.Scenario(
        wl.ScenarioKind.WEIGHT_UPDATE_BATCHES, trials=1, batch_size=size, seed=seed
    )
    lines = wl.gen_weight_update_batches(topo, scenario)
    events = [parse_event(line) for line in lines if line.startswith("weight")]
    util = {(ev.a, ev.b): ev.utilization for ev in events}
    links = []
    for a, b, p in topo.links:
        u = util.get((a, b), util.get((b, a)))
        links.append((a, b, p if u is None else LinkProperties(p.capacity, u, p.delay)))
    return events, Topology(topo.nodes, links)


def churn(seed: int) -> Workload:
    """sd_utilization on fat-tree k=12 (uniform plan): weight batches of
    1, 4, 16 and 64 links, each followed by link failures, and one switch
    failure per cycle; every failure is restored."""
    strategy = builtin("sd_utilization")
    topo = wl.gen_fattree(12, wl.WeightPlan(wl.PlanKind.UNIFORM, seed=TOPOLOGY_SEED))
    rng = random.Random(seed)
    draws = _LinkDraws(topo, strategy, rng)
    nodes = topo.node_ids()
    work = Workload("fattree12-sdutil-churn", strategy, topo)
    current = topo
    for cycle in range(8):
        for size in (1, 4, 16, 64):
            events, current = _weight_batch(current, size, rng.randrange(2**31))
            draws.refresh(current)
            work.trials.append([("batch", size, events)])
            for _ in range(LINKS_PER_BATCH):
                work.trials.append([("fail_link", *draws.next()), ("restore",)])
        work.trials.append([("fail_switch", rng.choice(nodes)), ("restore",)])
    return work


def policy(seed: int) -> Workload:
    """shortest_widest on jellyfish n=64 r=6 (uniform plan): NOT, backup
    and waypoint policies, with link failures and restores while the NOT
    forks are live, and one retrieval batch per cycle."""
    strategy = builtin("shortest_widest")
    plan = wl.WeightPlan(wl.PlanKind.UNIFORM, seed=TOPOLOGY_SEED)
    topo = wl.gen_jellyfish(64, 6, plan, seed=TOPOLOGY_SEED)
    rng = random.Random(seed)
    draws = _LinkDraws(topo, strategy, rng)
    nodes = topo.node_ids()
    links = sorted({(min(a, b), max(a, b)) for a, b, _p in topo.links})
    neighbours = {n: set() for n in nodes}
    for a, b in links:
        neighbours[a].add(b)
        neighbours[b].add(a)
    work = Workload(
        "jellyfish64-widest-policy", strategy, topo,
        policies=True, max_not_forks=2,
    )

    def not_step(excluded=None):
        if excluded is None:
            # No two excluded nodes are adjacent: excluding adjacent nodes
            # hits a known defect, which `defect_probe` reproduces instead.
            excluded = set()
            for _ in range(rng.randint(1, 3)):
                excluded.add(rng.choice(
                    [n for n in nodes if n not in excluded and not neighbours[n] & excluded]
                ))
        s, t = rng.sample([n for n in nodes if n not in excluded], 2)
        return ("not", s, t, frozenset(excluded))

    work.defect_probe = not_step(rng.choice(links))

    # bring the live NOT forks up to their number before the first failure
    work.warmup = [not_step() for _ in range(work.max_not_forks + 1)]
    # every kind of step comes at the head of a cycle, so that even the
    # short first pass of a traced run exercises each layer
    for cycle in range(40):
        work.trials.append([
            not_step(),
            ("waypoint", _stops(rng, nodes)),
            ("backup", *rng.sample(nodes, 2)),
            ("retrieve", _pairs(rng, nodes, RETRIEVAL_BATCH)),
        ])
        for _ in range(LINKS_PER_CYCLE):
            work.trials.append([("fail_link", *draws.next()), ("restore",)])
    return work


WORKLOADS = {
    "fattree16-hop-failover": failover,
    "fattree12-sdutil-churn": churn,
    "jellyfish64-widest-policy": policy,
}
