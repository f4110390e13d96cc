"""Delta-encoded property graph and topology event ingestion.

The network is an undirected property graph stored as two directed edge
records per link.  Edge identity for delta aggregation is (src, dst, w):
link properties ride along but do not participate in aggregation.  Stored
multiplicities are signed counts; a key whose count reaches zero is
garbage-collected, so parallel links are just multiplicities above one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Union

from .errors import (
    AmbiguousLinkError,
    DuplicateNodeError,
    EventParseError,
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


@dataclass
class NodeRecord:
    """A network node: unique id, type label, free-form routing properties."""

    id: NodeId
    label: NodeLabel = NodeLabel.SWITCH
    properties: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LinkProperties:
    """Per-link attributes: capacity (Gbit/s), utilization (% of capacity,
    0..100), average delay (ms)."""

    capacity: float
    utilization: float = 0.0
    delay: float = 0.0

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if not 0.0 <= self.utilization <= 100.0:
            raise ValueError(f"utilization must be in [0, 100], got {self.utilization}")
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")

    def free_bandwidth(self) -> float:
        return self.capacity * (1.0 - self.utilization / 100.0)


class EdgeRecord(NamedTuple):
    """A directed weighted edge delta; the unit of topology change."""

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


@dataclass
class Epoch:
    """A logical timestamp batching input events.

    Events inside one epoch apply in file order, each against the graph
    as the earlier ones left it; the rules change once, by their net
    effect.
    """

    id: int
    events: list = field(default_factory=list)


class GraphStore:
    """Delta-multiset edge store plus the node table.

    Single-writer; `fork` yields an independently writable copy.
    """

    __slots__ = ("nodes", "_adj", "_props")

    def __init__(self):
        self.nodes: dict[NodeId, NodeRecord] = {}
        # src -> (dst, w) -> signed multiplicity (never zero)
        self._adj: dict[NodeId, dict[tuple[NodeId, float], int]] = {}
        # (src, dst, w) -> properties, kept for both directions
        self._props: dict[tuple[NodeId, NodeId, float], LinkProperties] = {}

    # --- inspection

    def edge_items(self) -> Iterator[tuple[tuple[NodeId, NodeId, float], int]]:
        for src, out in self._adj.items():
            for (dst, w), mult in out.items():
                yield (src, dst, w), mult

    def edge_count(self) -> int:
        """Directed keys currently stored (parallel links count once)."""
        return sum(len(out) for out in self._adj.values())

    def multiplicity(self, src: NodeId, dst: NodeId, w: float) -> int:
        return self._adj.get(src, {}).get((dst, w), 0)

    def out_edges(self, src: NodeId) -> dict[tuple[NodeId, float], int]:
        return self._adj.get(src, {})

    def weights_between(self, a: NodeId, b: NodeId) -> list[float]:
        return sorted(w for (dst, w) in self._adj.get(a, {}) if dst == b)

    def link_props(self, a: NodeId, b: NodeId, w: float) -> LinkProperties | None:
        return self._props.get((a, b, w))

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
        """Translate one topology event into edge deltas.

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
                out = []
                for (dst, w), mult in self._adj.get(n, {}).items():
                    for _ in range(mult):
                        out.append(EdgeRecord(n, dst, w, -1))
                        out.append(EdgeRecord(dst, n, w, -1))
                return out
            case AddLink(a=a, b=b, props=props):
                if a not in self.nodes:
                    raise UnknownNodeError(f"node {a} does not exist")
                if b not in self.nodes:
                    raise UnknownNodeError(f"node {b} does not exist")
                if a == b:
                    raise ValueError(f"self-link on node {a}")
                w = link_cost(props)
                return [EdgeRecord(a, b, w, 1, props), EdgeRecord(b, a, w, 1, props)]
            case RemoveLink(a=a, b=b, w=w):
                w = self._resolve_weight(a, b, w)
                return [EdgeRecord(a, b, w, -1), EdgeRecord(b, a, w, -1)]
            case UpdateWeight(a=a, b=b, utilization=u):
                w_old = self._resolve_weight(a, b, None)
                props_old = self._props[(a, b, w_old)]
                props_new = replace(props_old, utilization=u)
                w_new = link_cost(props_new)
                return [
                    EdgeRecord(a, b, w_old, -1),
                    EdgeRecord(b, a, w_old, -1),
                    EdgeRecord(a, b, w_new, 1, props_new),
                    EdgeRecord(b, a, w_new, 1, props_new),
                ]
        raise TypeError(f"unknown event type: {ev!r}")

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
        """Fold edge deltas into the store and return the net non-zero
        change per (src, dst, w) key.

        A stored key whose deltas cancel takes the properties they carry:
        that is how `UpdateWeight` refreshes a link whose cost does not move.
        Atomic: raises NegativeMultiplicityError without mutating anything
        if some key would go below zero.
        """
        net: dict[tuple[NodeId, NodeId, float], int] = {}
        new_props: dict[tuple[NodeId, NodeId, float], LinkProperties] = {}
        for rec in deltas:
            key = (rec.src, rec.dst, rec.w)
            net[key] = net.get(key, 0) + rec.delta
            if rec.props is not None:
                new_props[key] = rec.props

        for (src, dst, w), d in net.items():
            if d and self._adj.get(src, {}).get((dst, w), 0) + d < 0:
                raise NegativeMultiplicityError(
                    f"retraction of ({src}, {dst}, {w}) below zero"
                )

        out = []
        for key, d in sorted(net.items()):
            src, dst, w = key
            if d == 0:
                if key in new_props and (dst, w) in self._adj.get(src, ()):
                    self._props[key] = new_props[key]
                continue
            row = self._adj.setdefault(src, {})
            m = row.get((dst, w), 0) + d
            if m:
                row[(dst, w)] = m
                if key in new_props:
                    self._props[key] = new_props[key]
                elif key not in self._props and (dst, src, w) in self._props:
                    self._props[key] = self._props[(dst, src, w)]
            else:
                del row[(dst, w)]
                if not row:
                    del self._adj[src]
                self._props.pop(key, None)
            out.append(EdgeRecord(src, dst, w, d, new_props.get(key)))
        return out

    def undo_deltas(
        self,
        applied: list[EdgeRecord],
        props: dict[tuple[NodeId, NodeId, float], LinkProperties | None],
    ) -> None:
        """Undo one `apply_deltas` call, given what it returned and the
        properties each key it was passed had before it (None for none)."""
        for src, dst, w, d, _p in applied:
            row = self._adj.setdefault(src, {})
            m = row.get((dst, w), 0) - d
            if m:
                row[(dst, w)] = m
            else:
                del row[(dst, w)]
                if not row:
                    del self._adj[src]
        for key, p in props.items():
            if p is None:
                self._props.pop(key, None)
            else:
                self._props[key] = p

    def fork(self) -> GraphStore:
        """Independent copy sharing no mutable state with the original."""
        other = GraphStore()
        other.nodes = {
            n: NodeRecord(r.id, r.label, dict(r.properties))
            for n, r in self.nodes.items()
        }
        other._adj = {src: dict(out) for src, out in self._adj.items()}
        other._props = dict(self._props)
        return other

    def check_integrity(self) -> None:
        for (src, dst, w), mult in self.edge_items():
            assert mult != 0, f"zero multiplicity stored for ({src}, {dst}, {w})"
            back = self.multiplicity(dst, src, w)
            assert back == mult, (
                f"asymmetric multiplicities for ({src}, {dst}, {w}): {mult} vs {back}"
            )
            assert src in self.nodes and dst in self.nodes, (
                f"edge ({src}, {dst}, {w}) references a missing node"
            )


# --- topology container and file formats -----------------------------------


@dataclass
class Topology:
    """A generated or loaded topology, independent of any routing strategy."""

    nodes: list[NodeRecord] = field(default_factory=list)
    links: list[tuple[NodeId, NodeId, LinkProperties]] = field(default_factory=list)

    def node_ids(self) -> list[NodeId]:
        return [n.id for n in self.nodes]


def build_graph(topo: Topology, link_cost: LinkCostFn) -> GraphStore:
    """Materialize a Topology into a GraphStore under the given link cost."""
    store = GraphStore()
    deltas = []
    for rec in topo.nodes:
        store.add_node(NodeRecord(rec.id, rec.label, dict(rec.properties)))
    for a, b, props in topo.links:
        deltas.extend(store.ingest_event(AddLink(a, b, props), link_cost))
    store.apply_deltas(deltas)
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


def load_topology(path) -> Topology:
    """Read the line-oriented topology format.

    `node <id> <label>` and
    `link <id1> <id2> capacity=<f> utilization=<f> delay=<f>`; `#` comments.
    """
    topo = Topology()
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
                    topo.nodes.append(NodeRecord(int(fields[1]), label))
                elif kind == "link":
                    a, b = int(fields[1]), int(fields[2])
                    props = _props_from_kv(_parse_kv(fields[3:], line_no), line_no)
                    topo.links.append((a, b, props))
                else:
                    raise EventParseError(f"unknown directive {kind!r}", line_no)
            except (ValueError, IndexError) as exc:
                raise EventParseError(f"malformed {kind!r} line: {exc}", line_no) from None
    return topo


def save_topology(topo: Topology, path) -> None:
    with open(path, "w") as fh:
        for rec in topo.nodes:
            fh.write(f"node {rec.id} {rec.label.value}\n")
        for a, b, p in topo.links:
            fh.write(
                f"link {a} {b} capacity={p.capacity!r} "
                f"utilization={p.utilization!r} delay={p.delay!r}\n"
            )


def format_event(ev: TopologyEvent) -> str:
    """Render one event in the event-file line format."""
    match ev:
        case AddLink(a=a, b=b, props=p):
            return (
                f"+link {a} {b} capacity={p.capacity!r} "
                f"utilization={p.utilization!r} delay={p.delay!r}"
            )
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
            a, b = int(fields[1]), int(fields[2])
            return AddLink(a, b, _props_from_kv(_parse_kv(fields[3:], line_no), line_no))
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
            return UpdateWeight(a, b, kv["utilization"])
    except EventParseError:
        raise
    except (ValueError, IndexError) as exc:
        raise EventParseError(f"malformed {kind!r} line: {exc}", line_no) from None
    raise EventParseError(f"unknown event {kind!r}", line_no)
