"""deltapath: incremental all-pairs QoS routing for dynamic networks."""

from .errors import DeltaPathError
from .graph_model import (
    AddLink,
    AddNode,
    EdgeRecord,
    GraphStore,
    LinkProperties,
    NodeLabel,
    NodeRecord,
    RemoveLink,
    RemoveNode,
    Topology,
    UpdateWeight,
    build_graph,
    load_topology,
    save_topology,
)
from .path_retrieval import Path, PathRequest, path_links, retrieve
from .policy_engine import Policy, PolicyEngine, parse_policy
from .routing_core import (
    ForwardingRule,
    RuleStore,
    initialize,
    step_epoch,
)
from .strategy import Strategy, builtin, builtin_names

__version__ = "0.1.0"

__all__ = [
    "AddLink",
    "AddNode",
    "DeltaPathError",
    "EdgeRecord",
    "ForwardingRule",
    "GraphStore",
    "LinkProperties",
    "NodeLabel",
    "NodeRecord",
    "Path",
    "PathRequest",
    "Policy",
    "PolicyEngine",
    "RemoveLink",
    "RemoveNode",
    "RuleStore",
    "Strategy",
    "Topology",
    "UpdateWeight",
    "build_graph",
    "builtin",
    "builtin_names",
    "initialize",
    "load_topology",
    "parse_policy",
    "path_links",
    "retrieve",
    "save_topology",
    "step_epoch",
]
