"""Every edge of the graph is written in `graph_model`, by
`GraphStore._store_link` (or by `build_graph`, into a graph with no edge
cache yet), which drops the edge cache's lists of the ends it writes: no
other module of src/deltapath names the edge store's `_adj` or `_props`,
so none can write an edge past that drop."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "deltapath"
EDGE_STORE = {"_adj", "_props"}


def test_only_graph_model_names_the_edge_store():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "graph_model.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in EDGE_STORE
        or isinstance(node, ast.Name) and node.id in EDGE_STORE
    ]
    assert (SRC / "graph_model.py").is_file() and not found, found
