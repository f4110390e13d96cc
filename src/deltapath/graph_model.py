"""Delta-encoded property graph and topology event ingestion.

The network is an undirected property graph.  A link's identity for delta
aggregation is (src, dst, w) with src < dst: its properties ride along but
do not participate in aggregation.  The store keeps each link's
multiplicity under both directions, for the routing engine's adjacency,
and its properties once.  Multiplicities are signed counts; a link whose
count reaches zero is garbage-collected, so parallel links are just
multiplicities above one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterator, KeysView, NamedTuple, Union

from .errors import (
    AmbiguousLinkError,
    DuplicateNodeError,
    EventParseError,
    IntegrityError,
    NegativeMultiplicityError,
    UnknownLinkError,
    UnknownNodeError,
)

NodeId = int

LinkCostFn = Callable[["LinkProperties"], float]


class NodeLabel(str, Enum):
    SWITCH = "switch"
    SERVER = "server"
    FIREWALL = "firewall"
    HOST = "host"


@dataclass(frozen=True)
class NodeRecord:
    """A network node: unique id and type label."""

    id: NodeId
    label: NodeLabel = NodeLabel.SWITCH


@dataclass(frozen=True)
class LinkProperties:
    """Per-link attributes: capacity (Gbit/s, positive and finite),
    utilization (% of capacity, 0..100), average delay (ms)."""

    capacity: float
    utilization: float = 0.0
    delay: float = 0.0

    def __post_init__(self):
        # written so that NaN, for which every comparison is false, fails
        if not self.capacity > 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        # an infinite capacity makes free_bandwidth() inf, or nan when full
        if self.capacity == math.inf:
            raise ValueError(f"capacity must be finite, got {self.capacity}")
        self.check_utilization(self.utilization)
        if not self.delay >= 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")

    @staticmethod
    def check_utilization(utilization: float) -> None:
        if not 0.0 <= utilization <= 100.0:
            raise ValueError(f"utilization must be in [0, 100], got {utilization}")

    def free_bandwidth(self) -> float:
        return self.capacity * (1.0 - self.utilization / 100.0)


class EdgeRecord(NamedTuple):
    """The delta of one undirected link, ends `src < dst`; the unit of
    topology change.  `props` are the properties the link takes, or, in
    what `apply_deltas` returns, those it held before (None for none)."""

    src: NodeId
    dst: NodeId
    w: float
    delta: int
    props: LinkProperties | None = None


# --- topology events -------------------------------------------------------


@dataclass(frozen=True)
class AddLink:
    a: NodeId
    b: NodeId
    props: LinkProperties


@dataclass(frozen=True)
class RemoveLink:
    a: NodeId
    b: NodeId
    w: float | None = None  # None: resolve against the unique stored weight


@dataclass(frozen=True)
class AddNode:
    id: NodeId
    label: NodeLabel = NodeLabel.SWITCH


@dataclass(frozen=True)
class RemoveNode:
    id: NodeId


@dataclass(frozen=True)
class UpdateWeight:
    """Utilization change on an existing link; re-keys the edge when the
    strategy's link cost moves with utilization."""

    a: NodeId
    b: NodeId
    utilization: float


TopologyEvent = Union[AddLink, RemoveLink, AddNode, RemoveNode, UpdateWeight]


class GraphStore:
    """Delta-multiset edge store plus the node table.

    Single-writer.  `fork` yields an independently writable copy; it serves
    the tests and the benchmark's NOT check, which prunes a copy for the
    oracle.
    """

    __slots__ = ("nodes", "_adj", "_props")

    def __init__(self):
        self.nodes: dict[NodeId, NodeRecord] = {}
        # src -> (dst, w) -> signed multiplicity (never zero), both directions
        self._adj: dict[NodeId, dict[tuple[NodeId, float], int]] = {}
        # (src, dst, w) with src < dst -> the link's properties
        self._props: dict[tuple[NodeId, NodeId, float], LinkProperties] = {}

    # --- inspection

    def edge_items(self) -> Iterator[tuple[tuple[NodeId, NodeId, float], int]]:
        for src, out in self._adj.items():
            for (dst, w), mult in out.items():
                yield (src, dst, w), mult

    def links(self) -> KeysView[tuple[NodeId, NodeId, float]]:
        """Each stored link once, as its key (src, dst, w) with `src < dst`,
        in the order they were stored: a view, so `zip(*graph.links())`
        reads the links with no Python step per link."""
        return self._props.keys()

    def multiplicity(self, src: NodeId, dst: NodeId, w: float) -> int:
        return self._adj.get(src, {}).get((dst, w), 0)

    def out_edges(self, src: NodeId) -> dict[tuple[NodeId, float], int]:
        return self._adj.get(src, {})

    def weights_between(self, a: NodeId, b: NodeId) -> list[float]:
        return sorted(w for (dst, w) in self._adj.get(a, {}) if dst == b)

    def link_props(self, a: NodeId, b: NodeId, w: float) -> LinkProperties | None:
        return self._props.get(_link(a, b, w))

    def __eq__(self, other):
        if not isinstance(other, GraphStore):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self._adj == other._adj
            and self._props == other._props
        )

    # --- mutation

    def add_node(self, record: NodeRecord) -> None:
        if record.id in self.nodes:
            raise DuplicateNodeError(f"node {record.id} already exists")
        self.nodes[record.id] = record

    def ingest_event(self, ev: TopologyEvent, link_cost: LinkCostFn) -> list[EdgeRecord]:
        """Translate one topology event into link deltas.

        Node additions/removals mutate the node table here; the returned
        deltas still have to go through `apply_deltas` to take effect on
        the edge store.  The event is resolved against the edge store as
        it is, so apply each event's deltas before ingesting the next.
        """
        match ev:
            case AddNode(id=n, label=label):
                self.add_node(NodeRecord(n, label))
                return []
            case RemoveNode(id=n):
                if n not in self.nodes:
                    raise UnknownNodeError(f"node {n} does not exist")
                del self.nodes[n]
                return [
                    EdgeRecord(*_link(n, x, w), -mult)
                    for (x, w), mult in self._adj.get(n, {}).items()
                ]
            case AddLink(a=a, b=b, props=props):
                self._check_ends(a, b)
                return [EdgeRecord(*_link(a, b, link_cost(props)), 1, props)]
            case RemoveLink(a=a, b=b, w=w):
                return [EdgeRecord(*_link(a, b, self._resolve_weight(a, b, w)), -1)]
            case UpdateWeight(a=a, b=b, utilization=u):
                w_old = self._resolve_weight(a, b, None)
                props_new = replace(self.link_props(a, b, w_old), utilization=u)
                return [
                    EdgeRecord(*_link(a, b, w_old), -1),
                    EdgeRecord(*_link(a, b, link_cost(props_new)), 1, props_new),
                ]
        raise TypeError(f"unknown event type: {ev!r}")

    def _check_ends(self, a: NodeId, b: NodeId) -> None:
        """Refuse a new link unless its ends are two nodes of the store."""
        if a not in self.nodes:
            raise UnknownNodeError(f"node {a} does not exist")
        if b not in self.nodes:
            raise UnknownNodeError(f"node {b} does not exist")
        if a == b:
            raise ValueError(f"self-link on node {a}")

    def _resolve_weight(self, a: NodeId, b: NodeId, w: float | None) -> float:
        stored = self.weights_between(a, b)
        if w is not None:
            if w not in stored:
                raise UnknownLinkError(f"no link ({a}, {b}) with weight {w}")
            return w
        if not stored:
            raise UnknownLinkError(f"no link between {a} and {b}")
        if len(set(stored)) > 1:
            raise AmbiguousLinkError(
                f"link ({a}, {b}) has weights {stored}; specify one"
            )
        return stored[0]

    def apply_deltas(self, deltas: list[EdgeRecord]) -> list[EdgeRecord]:
        """Fold link deltas into the store and return, sorted, the net
        change per (src, dst, w) link, each with the properties the link
        held before.  A record with `src > dst` names the same link.

        A stored link whose deltas cancel takes the properties they carry,
        returned as a zero-count record: that is how `UpdateWeight`
        refreshes a link whose cost does not move.  Atomic: raises
        NegativeMultiplicityError without mutating anything if some link
        would go below zero, and UnknownLinkError if a link that is not
        stored would be added without properties.
        """
        net: dict[tuple[NodeId, NodeId, float], int] = {}
        new_props: dict[tuple[NodeId, NodeId, float], LinkProperties] = {}
        for src, dst, w, delta, props in deltas:
            key = _link(src, dst, w)
            net[key] = net.get(key, 0) + delta
            if props is not None:
                new_props[key] = props

        for key, d in net.items():
            if d and self.multiplicity(*key) + d < 0:
                raise NegativeMultiplicityError(f"retraction of {key} below zero")
            if d > 0 and key not in self._props and key not in new_props:
                raise UnknownLinkError(f"new link {key} comes without properties")

        out = []
        for key, d in sorted(net.items()):
            m = self.multiplicity(*key) + d
            if not d and not (m and key in new_props):
                continue  # neither a count change nor a refresh
            old = self._props.get(key)
            out.append(EdgeRecord(*key, d, old))
            self._store_link(key, m, new_props.get(key, old))
        return out

    def undo_deltas(self, applied: list[EdgeRecord]) -> None:
        """Undo one `apply_deltas` call, given what it returned."""
        for src, dst, w, d, props in applied:
            self._store_link((src, dst, w), self.multiplicity(src, dst, w) - d, props)

    def _store_link(
        self, key: tuple[NodeId, NodeId, float], mult: int, props: LinkProperties | None
    ) -> None:
        """Store `mult` copies of the link `key` under both directions, with
        `props`; a count of zero removes the link."""
        a, b, w = key
        for src, dst in ((a, b), (b, a)):
            row = self._adj.setdefault(src, {})
            if mult:
                row[(dst, w)] = mult
            else:
                del row[(dst, w)]
                if not row:
                    del self._adj[src]
        if mult and props is not None:
            self._props[key] = props
        else:
            self._props.pop(key, None)

    def fork(self) -> GraphStore:
        """Independent copy sharing no mutable state with the original."""
        other = GraphStore()
        other.nodes = dict(self.nodes)  # the records are immutable
        other._adj = {src: dict(out) for src, out in self._adj.items()}
        other._props = dict(self._props)
        return other

    def check_integrity(self) -> None:
        """Raise IntegrityError unless every stored edge has a nonzero
        multiplicity, the same multiplicity backwards, and two nodes, and
        every link, keyed `src < dst`, has one entry of properties."""
        for (src, dst, w), mult in self.edge_items():
            if mult == 0:
                raise IntegrityError(f"zero multiplicity stored for ({src}, {dst}, {w})")
            back = self.multiplicity(dst, src, w)
            if back != mult:
                raise IntegrityError(
                    f"asymmetric multiplicities for ({src}, {dst}, {w}): {mult} vs {back}"
                )
            if src not in self.nodes or dst not in self.nodes:
                raise IntegrityError(f"edge ({src}, {dst}, {w}) references a missing node")
            if src < dst and (src, dst, w) not in self._props:
                raise IntegrityError(f"link ({src}, {dst}, {w}) has no properties")
        for src, dst, w in self._props:
            if not (src < dst and self.multiplicity(src, dst, w)):
                raise IntegrityError(f"properties stored for ({src}, {dst}, {w}), no link")


def _link(a: NodeId, b: NodeId, w: float) -> tuple[NodeId, NodeId, float]:
    """The key of a link between a and b: its ends in order."""
    return (a, b, w) if a < b else (b, a, w)


# --- topology container and file formats -----------------------------------


@dataclass
class Topology:
    """A generated or loaded topology, independent of any routing strategy."""

    nodes: list[NodeRecord] = field(default_factory=list)
    links: list[tuple[NodeId, NodeId, LinkProperties]] = field(default_factory=list)

    def node_ids(self) -> list[NodeId]:
        return [n.id for n in self.nodes]


def build_graph(topo: Topology, link_cost: LinkCostFn) -> GraphStore:
    """Materialize a Topology into a GraphStore under the given link cost.

    The store equals the one that adding each link by `AddLink` through
    `apply_deltas` would build, and refuses what that refuses: a repeated
    node id, a link to an unknown node, a self-link.  It counts each
    link's copies and writes each link once, in key order; of parallel
    copies with the same weight, the last one's properties are kept."""
    store = GraphStore()
    for rec in topo.nodes:
        store.add_node(rec)
    count: dict[tuple[NodeId, NodeId, float], int] = {}
    last: dict[tuple[NodeId, NodeId, float], LinkProperties] = {}
    for a, b, props in topo.links:
        store._check_ends(a, b)
        key = _link(a, b, link_cost(props))
        count[key] = count.get(key, 0) + 1
        last[key] = props
    for key in sorted(count):
        store._store_link(key, count[key], last[key])
    return store


def _parse_kv(parts: list[str], line_no: int | None) -> dict[str, float]:
    out = {}
    for part in parts:
        key, eq, value = part.partition("=")
        if not eq:
            raise EventParseError(f"expected key=value, got {part!r}", line_no)
        try:
            out[key] = float(value)
        except ValueError:
            raise EventParseError(f"bad number in {part!r}", line_no) from None
    return out


def _props_from_kv(kv: dict[str, float], line_no: int | None) -> LinkProperties:
    try:
        return LinkProperties(
            capacity=kv.get("capacity", 10.0),
            utilization=kv.get("utilization", 0.0),
            delay=kv.get("delay", 0.0),
        )
    except ValueError as exc:
        raise EventParseError(str(exc), line_no) from None


def _link_line(fields: list[str], line_no: int | None):
    """The ends and properties of a `link` or `+link` line."""
    a, b = int(fields[1]), int(fields[2])
    if a == b:
        raise EventParseError(f"self-link on node {a}", line_no)
    return a, b, _props_from_kv(_parse_kv(fields[3:], line_no), line_no)


def load_topology(path) -> Topology:
    """Read the line-oriented topology format.

    `node <id> <label>` and
    `link <id1> <id2> capacity=<f> utilization=<f> delay=<f>`; `#` comments.
    A link line may come before the node lines of its ends.
    """
    topo = Topology()
    node_lines: dict[NodeId, int] = {}
    link_lines: list[int] = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            kind = fields[0]
            try:
                if kind == "node":
                    label = NodeLabel(fields[2]) if len(fields) > 2 else NodeLabel.SWITCH
                    n = int(fields[1])
                    if n in node_lines:
                        raise EventParseError(
                            f"node {n} already declared on line {node_lines[n]}", line_no
                        )
                    node_lines[n] = line_no
                    topo.nodes.append(NodeRecord(n, label))
                elif kind == "link":
                    topo.links.append(_link_line(fields, line_no))
                    link_lines.append(line_no)
                else:
                    raise EventParseError(f"unknown directive {kind!r}", line_no)
            except (ValueError, IndexError) as exc:
                raise EventParseError(f"malformed {kind!r} line: {exc}", line_no) from None
    for (a, b, _p), line_no in zip(topo.links, link_lines):
        for n in (a, b):
            if n not in node_lines:
                raise EventParseError(f"node {n} does not exist", line_no)
    return topo


def _link_text(a: NodeId, b: NodeId, p: LinkProperties) -> str:
    """`a b` and the properties, as topology and event lines spell a link."""
    return f"{a} {b} capacity={p.capacity!r} utilization={p.utilization!r} delay={p.delay!r}"


def save_topology(topo: Topology, path) -> None:
    with open(path, "w") as fh:
        for rec in topo.nodes:
            fh.write(f"node {rec.id} {rec.label.value}\n")
        for a, b, p in topo.links:
            fh.write(f"link {_link_text(a, b, p)}\n")


def format_event(ev: TopologyEvent) -> str:
    """Render one event in the event-file line format."""
    match ev:
        case AddLink(a=a, b=b, props=p):
            return f"+link {_link_text(a, b, p)}"
        case RemoveLink(a=a, b=b, w=None):
            return f"-link {a} {b}"
        case RemoveLink(a=a, b=b, w=w):
            return f"-link {a} {b} w={w!r}"
        case AddNode(id=n, label=label):
            return f"+node {n} {label.value}"
        case RemoveNode(id=n):
            return f"-node {n}"
        case UpdateWeight(a=a, b=b, utilization=u):
            return f"weight {a} {b} utilization={u!r}"
    raise TypeError(f"unknown event type: {ev!r}")


def parse_event(line: str, line_no: int | None = None) -> TopologyEvent:
    """Parse one event-file line (not `epoch`/`req`/`policy` directives)."""
    fields = line.split()
    kind = fields[0]
    try:
        if kind == "+link":
            return AddLink(*_link_line(fields, line_no))
        if kind == "-link":
            a, b = int(fields[1]), int(fields[2])
            kv = _parse_kv(fields[3:], line_no)
            return RemoveLink(a, b, kv.get("w"))
        if kind == "+node":
            label = NodeLabel(fields[2]) if len(fields) > 2 else NodeLabel.SWITCH
            return AddNode(int(fields[1]), label)
        if kind == "-node":
            return RemoveNode(int(fields[1]))
        if kind == "weight":
            a, b = int(fields[1]), int(fields[2])
            kv = _parse_kv(fields[3:], line_no)
            if "utilization" not in kv:
                raise EventParseError("weight line needs utilization=<f>", line_no)
            LinkProperties.check_utilization(kv["utilization"])
            return UpdateWeight(a, b, kv["utilization"])
    except EventParseError:
        raise
    except (ValueError, IndexError) as exc:
        raise EventParseError(f"malformed {kind!r} line: {exc}", line_no) from None
    raise EventParseError(f"unknown event {kind!r}", line_no)
