"""Command-line front end: generators, event replay, benchmarks, queries.

`DELTAPATH_LOG` (debug/info/warning) controls log verbosity.  Exit code is
zero iff the command completed without error and, under --verify, without
any divergence from the oracle.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

from . import oracle, workloads
from .errors import DeltaPathError, EventParseError, VerifyMismatchError
from .graph_model import (
    AddLink,
    AddNode,
    GraphStore,
    Topology,
    TopologyEvent,
    build_graph,
    load_topology,
    parse_event,
    save_topology,
)
from .path_retrieval import PathRequest, retrieve
from .policy_engine import PolicyEngine, parse_policy
from .routing_core import RuleStore, initialize, rules_to_csv, step_epoch
from .strategy import Strategy, builtin

log = logging.getLogger("deltapath")

STRATEGY_CHOICES = ["hopcount", "sd-freebw", "sd-util", "widest"]


@dataclass
class MetricRecord:
    epoch: int
    events: int
    rules_changed: int
    fixpoint_us: int
    requests: int = 0
    retrieval_us: int = 0


@dataclass
class EpochBlock:
    epoch_id: int
    events: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    policy_adds: list = field(default_factory=list)
    policy_removes: list = field(default_factory=list)
    reset: bool = False


def parse_event_file(path) -> list[EpochBlock]:
    """Split an event file into per-epoch blocks; `reset` becomes its own
    block instructing the replay to restore the initial state."""
    blocks: list[EpochBlock] = []
    current: EpochBlock | None = None
    last_epoch = 0
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if fields[0] == "epoch":
                try:
                    epoch_id = int(fields[1])
                except (IndexError, ValueError):
                    raise EventParseError("epoch needs an integer id", line_no) from None
                if epoch_id <= last_epoch:
                    raise EventParseError(
                        f"epoch ids must increase, got {epoch_id} after {last_epoch}",
                        line_no,
                    )
                last_epoch = epoch_id
                current = EpochBlock(epoch_id)
                blocks.append(current)
            elif fields[0] == "reset":
                blocks.append(EpochBlock(last_epoch, reset=True))
                current = None
            elif fields[0] == "req":
                if current is None:
                    raise EventParseError("req outside an epoch", line_no)
                try:
                    current.requests.append(
                        PathRequest(int(fields[1]), int(fields[2]), int(fields[3]))
                    )
                except (IndexError, ValueError):
                    raise EventParseError("req needs flow, src, dst", line_no) from None
            elif fields[0] == "+policy":
                if current is None:
                    raise EventParseError("+policy outside an epoch", line_no)
                try:
                    pid = int(fields[1])
                except (IndexError, ValueError):
                    raise EventParseError("+policy needs an id", line_no) from None
                current.policy_adds.append((pid, " ".join(fields[2:]), line_no))
            elif fields[0] == "-policy":
                if current is None:
                    raise EventParseError("-policy outside an epoch", line_no)
                try:
                    current.policy_removes.append(int(fields[1]))
                except (IndexError, ValueError):
                    raise EventParseError("-policy needs an id", line_no) from None
            else:
                if current is None:
                    raise EventParseError(f"{fields[0]!r} outside an epoch", line_no)
                current.events.append(parse_event(line, line_no))
    return blocks


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


class _RowWriter:
    """Streams metric rows as they are produced; CSV grows a header from
    the first row, JSONL is one object per line."""

    def __init__(self, path, fmt: str):
        self.fmt = fmt
        self.stream, self._close = _open_out(path)
        self._wrote_header = False

    def write(self, row: dict) -> None:
        if self.fmt == "jsonl":
            self.stream.write(json.dumps(row) + "\n")
        else:
            if not self._wrote_header:
                self.stream.write(",".join(row) + "\n")
                self._wrote_header = True
            self.stream.write(",".join(str(v) for v in row.values()) + "\n")
        self.stream.flush()

    def close(self) -> None:
        if self._close:
            self.stream.close()


def _emit_rows(rows: list[dict], path, fmt: str) -> None:
    writer = _RowWriter(path, fmt)
    try:
        for row in rows:
            writer.write(row)
    finally:
        writer.close()


def _format_path(path, suffix="") -> str:
    hops = "-".join(str(h) for h in path.hops)
    return f"path={hops} cost={path.cost:g} length={path.length}{suffix}"


def _verify_epoch(graph: GraphStore, store: RuleStore, strategy: Strategy) -> None:
    view = store.established_rules()
    if strategy.maximize:
        if len(graph.nodes) <= 14:
            result = oracle.widest_paths_bruteforce(graph, strategy)
        else:
            result = oracle.widest_reference(graph, strategy)
        bad = oracle.compare_view(result, view)
    else:
        integral = all(
            float(w).is_integer() for (_a, _b, w), _m in graph.edge_items()
        )
        result = oracle.apsp_additive(graph, strategy)
        if integral:
            bad = oracle.compare_view(result, view)
        else:
            bad = oracle.compare_view(
                result, view, rtol=1e-9, check_length=False, witness_next=True
            )
    if bad:
        s, t, reason = bad[0]
        raise VerifyMismatchError(
            f"epoch {store.epoch}: pair ({s}, {t}) diverges from the oracle: {reason}"
        )


class _Replay:
    """Replay context: engine, policies, and the pristine topology for
    `reset` directives."""

    def __init__(self, topo: Topology, strategy: Strategy):
        self.topo = topo
        self.strategy = strategy
        self.reset()

    def reset(self) -> None:
        self.graph = build_graph(self.topo, self.strategy.link_cost)
        t0 = time.perf_counter()
        self.store = initialize(self.graph, self.strategy)
        self.init_us = int((time.perf_counter() - t0) * 1e6)
        self.policies = PolicyEngine(self.graph, self.store, self.strategy)

    def warn_duplicates(self, events: list[TopologyEvent]) -> None:
        for ev in events:
            if isinstance(ev, AddLink):
                w = self.strategy.link_cost(ev.props)
                if self.graph.multiplicity(ev.a, ev.b, w):
                    log.warning(
                        "duplicate link (%s, %s, %g): multiplicity will rise",
                        ev.a, ev.b, w,
                    )

    def step(self, block: EpochBlock) -> MetricRecord:
        self.warn_duplicates(block.events)
        t0 = time.perf_counter()
        batch = step_epoch(self.store, self.graph, block.events)
        fixpoint_us = int((time.perf_counter() - t0) * 1e6)
        if batch and log.isEnabledFor(logging.DEBUG):
            log.debug("rule changes:\n%s", rules_to_csv(block.epoch_id, batch))

        retrieval_us = 0
        if block.requests:
            view = self.store.established_rules()
            t0 = time.perf_counter()
            for req in block.requests:
                retrieve(view, req.src, req.dst)
            retrieval_us = int((time.perf_counter() - t0) * 1e6)

        for pid, text, line_no in block.policy_adds:
            try:
                policy = parse_policy(pid, text)
            except DeltaPathError as exc:
                raise EventParseError(str(exc), line_no) from None
            self.policies.add(policy)
            result = self.policies.evaluate(policy)
            for i, path in enumerate(result.paths):
                role = "" if len(result.paths) == 1 else f" role={'primary' if i == 0 else 'backup'}"
                print(_format_path(path, f" policy={pid}{role}"))
        for pid in block.policy_removes:
            self.policies.remove(pid)

        return MetricRecord(
            epoch=block.epoch_id,
            events=len(block.events),
            rules_changed=len(batch),
            fixpoint_us=fixpoint_us,
            requests=len(block.requests),
            retrieval_us=retrieval_us,
        )


def cmd_run(args) -> int:
    strategy = builtin(args.strategy)
    topo = load_topology(args.topology)
    blocks = parse_event_file(args.events) if args.events else []
    replay = _Replay(topo, strategy)
    writer = _RowWriter(args.out, args.format)
    epochs = 0
    try:
        writer.write(asdict(MetricRecord(0, 0, replay.store.rule_count(),
                                         replay.init_us)))
        if args.verify:
            _verify_epoch(replay.graph, replay.store, strategy)
        for block in blocks:
            if block.reset:
                replay.reset()
                continue
            writer.write(asdict(replay.step(block)))
            epochs += 1
            if args.verify:
                _verify_epoch(replay.graph, replay.store, strategy)
    finally:
        writer.close()
    log.info("replayed %d epochs", epochs)
    return 0


def cmd_query(args) -> int:
    strategy = builtin(args.strategy)
    topo = load_topology(args.topology)
    replay = _Replay(topo, strategy)
    for block in parse_event_file(args.events) if args.events else []:
        if block.reset:
            replay.reset()
        else:
            replay.step(block)
    path = retrieve(replay.store.established_rules(), args.src, args.dst)
    print(_format_path(path))
    return 0


def _bench_failures(args, topo, strategy) -> list[dict]:
    """Time single failures on one initialized engine; each failure is
    undone outside the timed region and must restore the rules exactly."""
    import random

    rng = random.Random(args.seed)
    kind = workloads.ScenarioKind(args.kind)
    replay = _Replay(topo, strategy)
    graph, store = replay.graph, replay.store
    before = dict(store._est)
    rows = []
    latencies = []
    for trial in range(1, args.trials + 1):
        if kind is workloads.ScenarioKind.LINK_FAILURE:
            a, b, p = topo.links[rng.randrange(len(topo.links))]
            events: list[TopologyEvent] = [parse_event(f"-link {a} {b}")]
            restore = [AddLink(a, b, graph.link_props(a, b, strategy.link_cost(p)))]
            target = f"{a}-{b}"
        else:
            node = topo.nodes[rng.randrange(len(topo.nodes))]
            events = [parse_event(f"-node {node.id}")]
            restore = [AddNode(node.id, graph.nodes[node.id].label)]
            for (x, w), mult in graph.out_edges(node.id).items():
                restore += [AddLink(node.id, x, graph.link_props(node.id, x, w))] * mult
            target = str(node.id)
        t0 = time.perf_counter()
        batch = step_epoch(store, graph, events)
        us = int((time.perf_counter() - t0) * 1e6)
        step_epoch(store, graph, restore)
        if store._est != before:
            raise VerifyMismatchError(
                f"trial {trial}: restoring {target} did not restore the rules"
            )
        latencies.append(us)
        rows.append(
            {"trial": trial, "target": target, "rules_changed": len(batch),
             "fixpoint_us": us}
        )
    print(
        f"# {args.kind}: median={statistics.median(latencies) / 1000:.2f}ms "
        f"worst={max(latencies) / 1000:.2f}ms over {args.trials} trials",
        file=sys.stderr,
    )
    return rows


def _bench_weight_batches(args, topo, strategy) -> list[dict]:
    sizes = [s for s in workloads.WEIGHT_BATCH_SIZES if s <= args.batch_size]
    rows = []
    for size in sizes:
        scenario = workloads.Scenario(
            workloads.ScenarioKind.WEIGHT_UPDATE_BATCHES,
            trials=args.trials, batch_size=size, seed=args.seed,
        )
        lines = workloads.gen_weight_update_batches(topo, scenario)
        replay = _Replay(topo, strategy)
        latencies = []
        events: list[TopologyEvent] = []
        for line in lines[1:]:
            if line.startswith("epoch"):
                if events:
                    t0 = time.perf_counter()
                    step_epoch(replay.store, replay.graph, events)
                    latencies.append((time.perf_counter() - t0) * 1e6)
                    events = []
            else:
                events.append(parse_event(line))
        if events:
            t0 = time.perf_counter()
            step_epoch(replay.store, replay.graph, events)
            latencies.append((time.perf_counter() - t0) * 1e6)
        med = statistics.median(latencies)
        rows.append(
            {
                "batch_size": size,
                "batches": len(latencies),
                "median_us": int(med),
                "worst_us": int(max(latencies)),
                "updates_per_s": int(size * 1e6 / med) if med else 0,
            }
        )
    return rows


def _bench_path_requests(args, topo, strategy) -> list[dict]:
    import random

    rng = random.Random(args.seed)
    sizes = [s for s in workloads.PATH_REQUEST_SIZES if s <= args.batch_size]
    replay = _Replay(topo, strategy)
    view = replay.store.established_rules()
    nodes = [n.id for n in topo.nodes]
    rows = []
    for size in sizes:
        latencies = []
        for _ in range(args.trials):
            reqs = [tuple(rng.sample(nodes, 2)) for _ in range(size)]
            t0 = time.perf_counter()
            for s, t in reqs:
                retrieve(view, s, t)
            latencies.append((time.perf_counter() - t0) * 1e6)
        med = statistics.median(latencies)
        rows.append(
            {
                "batch_size": size,
                "batches": args.trials,
                "median_us": int(med),
                "worst_us": int(max(latencies)),
                "requests_per_s": int(size * 1e6 / med) if med else 0,
            }
        )
    return rows


def cmd_bench(args) -> int:
    strategy = builtin(args.strategy)
    topo = load_topology(args.topology)
    kind = workloads.ScenarioKind(args.kind)
    if kind in (workloads.ScenarioKind.LINK_FAILURE, workloads.ScenarioKind.SWITCH_FAILURE):
        rows = _bench_failures(args, topo, strategy)
    elif kind is workloads.ScenarioKind.WEIGHT_UPDATE_BATCHES:
        rows = _bench_weight_batches(args, topo, strategy)
    else:
        rows = _bench_path_requests(args, topo, strategy)
    _emit_rows(rows, args.out, args.format)
    return 0


def cmd_gen(args) -> int:
    plan = workloads.WeightPlan(workloads.PlanKind(args.plan), args.seed)
    if args.what == "fattree":
        topo = workloads.gen_fattree(args.k, plan, hosts=args.hosts)
        save_topology(topo, args.out)
    elif args.what == "jellyfish":
        topo = workloads.gen_jellyfish(args.n, args.r, plan, args.seed)
        save_topology(topo, args.out)
    else:  # scenario
        topo = load_topology(args.topology)
        scenario = workloads.Scenario(
            workloads.ScenarioKind(args.kind),
            trials=args.trials,
            batch_size=args.batch_size,
            seed=args.seed,
        )
        workloads.write_lines(workloads.generate(topo, scenario), args.out)
    log.info("wrote %s", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltapath",
        description="Incremental all-pairs QoS routing engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, events=True):
        p.add_argument("--topology", required=True, help="topology file")
        p.add_argument("--strategy", default="hopcount", choices=STRATEGY_CHOICES)
        if events:
            p.add_argument("--events", help="event file to replay")
        p.add_argument("--out", default="-", help="output path (default stdout)")
        p.add_argument("--format", default="csv", choices=["csv", "jsonl"])
        p.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("gen", help="generate topologies and event scripts")
    gen_sub = gen.add_subparsers(dest="what", required=True)
    fat = gen_sub.add_parser("fattree")
    fat.add_argument("--k", type=int, required=True, help="even arity")
    fat.add_argument("--hosts", action="store_true", help="emit hosts as nodes")
    jelly = gen_sub.add_parser("jellyfish")
    jelly.add_argument("--n", type=int, required=True, help="switch count")
    jelly.add_argument("--r", type=float, required=True, help="network ports per switch")
    scen = gen_sub.add_parser("scenario")
    scen.add_argument("--kind", required=True,
                      choices=[k.value for k in workloads.ScenarioKind])
    scen.add_argument("--topology", required=True)
    scen.add_argument("--trials", type=int, default=500)
    scen.add_argument("--batch-size", type=int, default=1)
    for p in (fat, jelly, scen):
        p.add_argument("--plan", default="hopcount",
                       choices=[k.value for k in workloads.PlanKind])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-o", "--out", required=True)

    run = sub.add_parser("run", help="replay an event file and emit metrics")
    common(run)
    run.add_argument("--verify", action="store_true",
                     help="cross-check every epoch against the oracle")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="benchmark scenarios")
    common(bench, events=False)
    bench.add_argument("--kind", required=True,
                       choices=[k.value for k in workloads.ScenarioKind])
    bench.add_argument("--trials", type=int, default=20)
    bench.add_argument("--batch-size", type=int, default=1024)
    bench.set_defaults(func=cmd_bench)

    query = sub.add_parser("query", help="retrieve one path")
    common(query)
    query.add_argument("src", type=int)
    query.add_argument("dst", type=int)
    query.set_defaults(func=cmd_query)

    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("DELTAPATH_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (e.g. `| head`) closed the pipe; exit quietly
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError, AttributeError):
            pass
        return 0
    except DeltaPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
