"""Command-line front end: generators, event replay, benchmarks, queries.

`bench` replays the scenario `gen scenario` writes for the same kind,
trials, batch size and seed, through `run`'s parser and `_Replay.step`.

`DELTAPATH_LOG` (debug/info/warning) controls log verbosity; at debug,
`run` logs each epoch's rule changes and `EpochStats`.  `DELTAPATH_CHECK=1`
makes `run` check the graph's and the rule store's integrity after the
set-up, after every epoch and after every reset.  Exit code is zero iff
the command completed without error and, under --verify, without any
divergence from the oracle.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields

from . import workloads
from .errors import DeltaPathError, EventParseError, IntegrityError, VerifyMismatchError
from .graph_model import (
    AddLink,
    AddNode,
    GraphStore,
    RemoveLink,
    Topology,
    TopologyEvent,
    build_graph,
    load_topology,
    parse_event,
    save_topology,
)
from .path_retrieval import PathRequest, retrieve
from .policy_engine import PolicyEngine, parse_policy
from .routing_core import EpochStats, RuleStore, initialize, rules_to_csv, step_epoch
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
    """The blocks of an event file, as `parse_blocks` splits them."""
    with open(path) as fh:
        return list(parse_blocks(fh))


def parse_blocks(lines) -> Iterator[EpochBlock]:
    """Split event-file lines into per-epoch blocks, each yielded once it is
    complete so that a replay holds one at a time.  `reset` becomes its own
    block telling the replay to restore the initial state."""
    current: EpochBlock | None = None
    last_epoch = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] in ("epoch", "reset"):
            if current is not None:
                yield current
                current = None
        elif current is None:
            raise EventParseError(f"{fields[0]!r} outside an epoch", line_no)
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
        elif fields[0] == "reset":
            yield EpochBlock(last_epoch, reset=True)
        elif fields[0] == "req":
            try:
                current.requests.append(
                    PathRequest(int(fields[1]), int(fields[2]), int(fields[3]))
                )
            except (IndexError, ValueError):
                raise EventParseError("req needs flow, src, dst", line_no) from None
        elif fields[0] == "+policy":
            try:
                pid = int(fields[1])
            except (IndexError, ValueError):
                raise EventParseError("+policy needs an id", line_no) from None
            current.policy_adds.append((pid, " ".join(fields[2:]), line_no))
        elif fields[0] == "-policy":
            try:
                current.policy_removes.append(int(fields[1]))
            except (IndexError, ValueError):
                raise EventParseError("-policy needs an id", line_no) from None
        else:
            current.events.append(parse_event(line, line_no))
    if current is not None:
        yield current


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


def _format_path(path, suffix="") -> str:
    hops = "-".join(str(h) for h in path.hops)
    return f"path={hops} cost={path.cost:g} length={path.length}{suffix}"


def _verify_epoch(graph: GraphStore, store: RuleStore, strategy: Strategy) -> None:
    # only `run --verify` loads the oracle, which sums in the engine's
    # order, so every strategy compares exactly
    from . import oracle

    bad = oracle.compare_view(oracle.solve(graph, strategy), store.established_rules())
    if bad:
        s, t, reason = bad[0]
        raise VerifyMismatchError(
            f"epoch {store.epoch}: pair ({s}, {t}) diverges from the oracle: {reason}"
        )


def _check_integrity(graph: GraphStore, store: RuleStore, epoch: str) -> None:
    """`check_integrity` of the graph and the store, its IntegrityError
    reported as a VerifyMismatchError naming the epoch."""
    try:
        graph.check_integrity()
        store.check_integrity(graph)
    except IntegrityError as exc:
        raise VerifyMismatchError(f"epoch {epoch}: integrity check failed: {exc}") from None


def _format_stats(stats: EpochStats) -> str:
    """`name=value` for every EpochStats field, the ns timings in ms."""
    parts = []
    for f in fields(stats):
        value = getattr(stats, f.name)
        if f.name.endswith("_ns"):
            parts.append(f"{f.name[:-3]}_ms={value / 1e6:.3f}")
        else:
            parts.append(f"{f.name}={value}")
    return " ".join(parts)


class _Replay:
    """Replay context: engine, policies, the pristine topology for `reset`
    directives, and the last step's `fixpoint_ns` and `retrieval_ns`."""

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
        t0 = time.perf_counter_ns()
        batch = step_epoch(self.store, self.graph, block.events)
        self.fixpoint_ns = time.perf_counter_ns() - t0
        if log.isEnabledFor(logging.DEBUG):
            log.debug("epoch %d stats: %s", block.epoch_id,
                      _format_stats(self.store.last_stats))
            if batch:
                log.debug("rule changes:\n%s", rules_to_csv(block.epoch_id, batch))

        self.retrieval_ns = 0
        if block.requests:
            view = self.store.established_rules()
            t0 = time.perf_counter_ns()
            for r in block.requests:
                retrieve(view, r.src, r.dst)
            self.retrieval_ns = time.perf_counter_ns() - t0

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
            fixpoint_us=self.fixpoint_ns // 1000,
            requests=len(block.requests),
            retrieval_us=self.retrieval_ns // 1000,
        )


def cmd_run(args) -> int:
    strategy = builtin(args.strategy)
    topo = load_topology(args.topology)
    blocks = parse_event_file(args.events) if args.events else []
    check = os.environ.get("DELTAPATH_CHECK") == "1"
    replay = _Replay(topo, strategy)
    writer = _RowWriter(args.out, args.format)
    epochs = 0
    try:
        writer.write(asdict(MetricRecord(0, 0, replay.store.rule_count(),
                                         replay.init_us)))
        if check:
            _check_integrity(replay.graph, replay.store, "0")
        if args.verify:
            _verify_epoch(replay.graph, replay.store, strategy)
        for block in blocks:
            if block.reset:
                replay.reset()
                if check:
                    _check_integrity(replay.graph, replay.store,
                                     f"{block.epoch_id} (reset)")
                continue
            writer.write(asdict(replay.step(block)))
            epochs += 1
            if check:
                _check_integrity(replay.graph, replay.store, str(block.epoch_id))
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


def _undo(graph: GraphStore, failure: TopologyEvent) -> list[TopologyEvent]:
    """Events that put back what `failure` is about to remove from `graph`:
    the link with its stored props, or the node with all its links."""
    if isinstance(failure, RemoveLink):
        w = graph.weights_between(failure.a, failure.b)[0]
        return [AddLink(failure.a, failure.b, graph.link_props(failure.a, failure.b, w))]
    node = failure.id
    undo: list[TopologyEvent] = [AddNode(node, graph.nodes[node].label)]
    for (x, w), mult in graph.out_edges(node).items():
        undo += [AddLink(node, x, graph.link_props(node, x, w))] * mult
    return undo


def _scenario_lines(topo: Topology, args, batch_size: int) -> Iterator[str]:
    """The lines `gen scenario` writes for `args`, at `batch_size`."""
    return workloads.generate(topo, workloads.Scenario(
        workloads.ScenarioKind(args.kind), args.trials, batch_size, args.seed))


def _bench_failures(args, topo: Topology, strategy: Strategy, writer: _RowWriter) -> None:
    """Time each trial's failure on one initialized engine; each failure is
    undone outside the timed region and must restore the rules exactly."""
    replay = _Replay(topo, strategy)
    graph, store = replay.graph, replay.store
    # rows are never changed once their epoch ends, and a restored node
    # takes back its slot, so the restored rows equal these column for column
    before = dict(store._est)
    latencies = []
    for block in parse_blocks(_scenario_lines(topo, args, args.batch_size)):
        if block.reset:
            continue
        (failure,) = block.events
        undo = _undo(graph, failure)
        target = (f"{failure.a}-{failure.b}" if isinstance(failure, RemoveLink)
                  else str(failure.id))
        record = replay.step(block)
        step_epoch(store, graph, undo)
        if store._est != before:
            raise VerifyMismatchError(
                f"trial {block.epoch_id}: restoring {target} did not restore the rules"
            )
        latencies.append(record.fixpoint_us)
        writer.write({"trial": block.epoch_id, "target": target,
                      "rules_changed": record.rules_changed,
                      "fixpoint_us": record.fixpoint_us})
    print(
        f"# {args.kind}: median={statistics.median(latencies) / 1000:.2f}ms "
        f"worst={max(latencies) / 1000:.2f}ms over {args.trials} trials",
        file=sys.stderr,
    )


def _bench_sweep(args, topo: Topology, strategy: Strategy, writer: _RowWriter) -> None:
    """One row per batch size up to --batch-size: that size's scenario
    replayed on a fresh engine, its epochs' update or retrieval times
    summarized from their ns timings."""
    weights = args.kind == workloads.ScenarioKind.WEIGHT_UPDATE_BATCHES
    sizes = workloads.WEIGHT_BATCH_SIZES if weights else workloads.PATH_REQUEST_SIZES
    for size in [s for s in sizes if s <= args.batch_size]:
        replay = _Replay(topo, strategy)
        latencies = []
        for block in parse_blocks(_scenario_lines(topo, args, size)):
            replay.step(block)
            latencies.append(replay.fixpoint_ns if weights else replay.retrieval_ns)
        med = statistics.median(latencies)
        writer.write({
            "batch_size": size,
            "batches": len(latencies),
            "median_us": int(med) // 1000,
            "worst_us": max(latencies) // 1000,
            "updates_per_s" if weights else "requests_per_s":
                int(size * 1e9 / med) if med else 0,
        })


def cmd_bench(args) -> int:
    strategy = builtin(args.strategy)
    topo = load_topology(args.topology)
    failures = (workloads.ScenarioKind.LINK_FAILURE, workloads.ScenarioKind.SWITCH_FAILURE)
    bench = _bench_failures if args.kind in failures else _bench_sweep
    writer = _RowWriter(args.out, args.format)
    try:
        bench(args, topo, strategy, writer)
    finally:
        writer.close()
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
        workloads.write_lines(_scenario_lines(topo, args, args.batch_size), args.out)
    log.info("wrote %s", args.out)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltapath",
        description="Incremental all-pairs QoS routing engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, events=True, out=True):
        p.add_argument("--topology", required=True, help="topology file")
        p.add_argument("--strategy", default="hopcount", choices=STRATEGY_CHOICES)
        if events:
            p.add_argument("--events", help="event file to replay")
        if out:
            p.add_argument("--out", default="-", help="output path (default stdout)")
            p.add_argument("--format", default="csv", choices=["csv", "jsonl"])

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
    scen.add_argument("--trials", type=_positive_int, default=500)
    scen.add_argument("--batch-size", type=_positive_int, default=1)
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
    bench.add_argument("--trials", type=_positive_int, default=20)
    bench.add_argument("--batch-size", type=_positive_int, default=1024)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=cmd_bench)

    query = sub.add_parser("query", help="retrieve one path")
    common(query, out=False)
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
