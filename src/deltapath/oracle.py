"""From-scratch reference solvers used for equivalence testing.

Nothing here shares code with the incremental engine: additive strategies
get a fresh Dijkstra per source (scipy), widest-path strategies get a
synchronous value iteration plus, under the brute-force entry point, an
exhaustive simple-path enumeration cross-checking the widths.  The only
deliberately shared piece of semantics is the selection tie-break, which
replicates the engine's key tuple (signed cost, p_length, next), whose
plain order is the selection order (see `strategy`): primary key per the
strategy, then fewer hops, then smallest next-hop id.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .errors import InvalidWeightError, TooLargeError
from .graph_model import GraphStore, NodeId
from .strategy import Strategy

# Above this size the O(N^3) tie-break arrays get replaced by a per-target
# scan; only reachable through non-integer weights on big graphs.
_DENSE_LIMIT = 180


class OracleResult:
    """Per ordered pair: optimal cost, tie-broken length, tie-broken next
    hop, and (on demand) the witness next-hop sets."""

    def __init__(self, ids, cost, length, nxt, nbr_idx, nbr_w, maximize, rtol):
        self.ids: tuple[NodeId, ...] = tuple(ids)
        self.index = {n: i for i, n in enumerate(self.ids)}
        self.maximize = maximize
        self._cost = cost
        self._length = length
        self._next = nxt
        self._nbr_idx = nbr_idx
        self._nbr_w = nbr_w
        self._rtol = rtol

    @property
    def cost_matrix(self):
        """(N, N) optimal costs in `ids` order; +-inf marks unreachable."""
        return self._cost

    @property
    def length_matrix(self):
        return self._length

    @property
    def next_matrix(self):
        """(N, N) tie-broken next hops as indices into `ids`; -1 if none."""
        return self._next

    def reachable(self, s: NodeId, t: NodeId) -> bool:
        if s not in self.index or t not in self.index:
            return False
        c = self._cost[self.index[s], self.index[t]]
        return c > -math.inf if self.maximize else c < math.inf

    def cost_of(self, s: NodeId, t: NodeId) -> float:
        return float(self._cost[self.index[s], self.index[t]])

    def length_of(self, s: NodeId, t: NodeId) -> int:
        return int(self._length[self.index[s], self.index[t]])

    def next_of(self, s: NodeId, t: NodeId) -> NodeId | None:
        n = self._next[self.index[s], self.index[t]]
        return None if n < 0 else self.ids[n]

    def triple(self, s: NodeId, t: NodeId):
        """(cost, length, next) when reachable, else None."""
        if not self.reachable(s, t):
            return None
        i, j = self.index[s], self.index[t]
        return (
            float(self._cost[i, j]),
            int(self._length[i, j]),
            self.ids[self._next[i, j]],
        )

    def pairs(self) -> Iterator[tuple[NodeId, NodeId, float, int, NodeId]]:
        """All reachable ordered pairs, self pairs included."""
        reach = (
            self._cost > -math.inf if self.maximize else self._cost < math.inf
        )
        for i, j in zip(*np.nonzero(reach)):
            yield (
                self.ids[i],
                self.ids[j],
                float(self._cost[i, j]),
                int(self._length[i, j]),
                self.ids[self._next[i, j]],
            )

    def witnesses(self, s: NodeId, t: NodeId, tie_break: bool = True) -> frozenset:
        """Next hops on some optimal path; with `tie_break`, restricted to
        paths that are also tie-break minimal (fewest hops)."""
        i, j = self.index[s], self.index[t]
        if i == j:
            return frozenset({s})
        if not self.reachable(s, t):
            return frozenset()
        xs = self._nbr_idx[i]
        ws = self._nbr_w[i]
        via = (
            np.minimum(ws, self._cost[xs, j])
            if self.maximize
            else ws + self._cost[xs, j]
        )
        base = self._cost[i, j]
        if self._rtol:
            mask = np.abs(via - base) <= self._rtol * abs(base) + 1e-12
        else:
            mask = via == base
        if tie_break:
            mask = mask & (self._length[xs, j] + 1 == self._length[i, j])
        return frozenset(self.ids[x] for x in xs[mask])


def _collect_edges(graph: GraphStore, widest: bool):
    """Sorted node ids plus the per-pair reduced weight (min for additive
    routing, max for widest) and per-source neighbor array views."""
    ids = sorted(graph.nodes)
    n = len(ids)
    index = {node: i for i, node in enumerate(ids)}
    wmin: dict[tuple[int, int], float] = {}
    for (src, dst, w), _mult in graph.edge_items():
        key = (index[src], index[dst])
        cur = wmin.get(key)
        if cur is None or (w > cur if widest else w < cur):
            wmin[key] = float(w)
    m = len(wmin)
    srcs = np.empty(m, dtype=np.int64)
    dsts = np.empty(m, dtype=np.int64)
    ws = np.empty(m, dtype=np.float64)
    for k, ((i, j), w) in enumerate(wmin.items()):
        srcs[k] = i
        dsts[k] = j
        ws[k] = w
    order = np.lexsort((dsts, srcs))
    srcs, dsts, ws = srcs[order], dsts[order], ws[order]
    indptr = np.searchsorted(srcs, np.arange(n + 1))
    nbr_idx = [dsts[indptr[s]:indptr[s + 1]] for s in range(n)]
    nbr_w = [ws[indptr[s]:indptr[s + 1]] for s in range(n)]
    return ids, wmin, (srcs, dsts, ws), nbr_idx, nbr_w


def _next_hops(D, LEN, flats, maximize, rtol):
    n = D.shape[0]
    nxt = np.full((n, n), n, dtype=np.int64)
    srcs, dsts, ws = flats
    if srcs.size:
        via = np.minimum(ws[:, None], D[dsts, :]) if maximize else ws[:, None] + D[dsts, :]
        base = D[srcs, :]
        if rtol:
            with np.errstate(invalid="ignore"):
                opt = np.abs(via - base) <= rtol * np.abs(base) + 1e-12
        else:
            opt = via == base
        opt &= base > -math.inf if maximize else base < math.inf
        opt &= LEN[dsts, :] + 1 == LEN[srcs, :]
        cand = np.where(opt, dsts[:, None], n)
        np.minimum.at(nxt, srcs, cand)
    nxt[nxt == n] = -1
    np.fill_diagonal(nxt, np.arange(n))
    return nxt


def _lengths_additive(D, wmin, n, rtol):
    """Fewest hops along cost-optimal paths, via relaxation over the
    shortest-path DAG (edge s->x is in the DAG iff w(s,x)+D(x,t)=D(s,t))."""
    if n > _DENSE_LIMIT:
        return _lengths_additive_scan(D, wmin, n, rtol)
    Wd = np.full((n, n), np.inf)
    for (i, j), w in wmin.items():
        Wd[i, j] = w
    via = Wd[:, :, None] + D[None, :, :]
    tol = rtol * np.abs(D) + 1e-12 if rtol else 0.0
    with np.errstate(invalid="ignore"):
        cond = np.abs(via - D[:, None, :]) <= (tol[:, None, :] if rtol else 0.0)
    cond &= np.isfinite(via)
    LEN = np.full((n, n), np.inf)
    np.fill_diagonal(LEN, 0.0)
    for _ in range(n):
        cand = np.where(cond, LEN[None, :, :], np.inf).min(axis=1) + 1.0
        new = np.minimum(LEN, cand)
        np.fill_diagonal(new, 0.0)
        if np.array_equal(new, LEN):
            break
        LEN = new
    return LEN


def _lengths_additive_scan(D, wmin, n, rtol):
    out_edges: dict[int, list[tuple[int, float]]] = {}
    for (i, j), w in wmin.items():
        out_edges.setdefault(i, []).append((j, w))
    LEN = np.full((n, n), np.inf)
    for t in range(n):
        col = D[:, t]
        LEN[t, t] = 0.0
        for s in np.argsort(col):
            if s == t or not np.isfinite(col[s]):
                continue
            tol = rtol * abs(col[s]) + 1e-12 if rtol else 0.0
            best = math.inf
            for x, w in out_edges.get(s, ()):
                if abs(w + col[x] - col[s]) <= tol and LEN[x, t] + 1 < best:
                    best = LEN[x, t] + 1
            LEN[s, t] = best
    return LEN


def apsp_additive(graph: GraphStore, strategy: Strategy, rtol: float = 1e-9) -> OracleResult:
    """All-pairs optima for an additive strategy: per-source Dijkstra with
    the engine's key-tuple tie-break applied.

    Integer-valued weights are solved exactly through a composite weight
    encoding (cost, hop count); real weights fall back to a relative
    tolerance when identifying cost ties.
    """
    if strategy.maximize:
        raise InvalidWeightError("apsp_additive requires an additive strategy")
    ids, wmin, flats, nbr_idx, nbr_w = _collect_edges(graph, widest=False)
    n = len(ids)
    rows, cols, data = flats
    if data.size and data.min() <= 0:
        raise InvalidWeightError(f"non-positive weight {data.min()}")
    if n == 0:
        empty = np.zeros((0, 0))
        return OracleResult(ids, empty, empty, empty.astype(np.int64),
                            nbr_idx, nbr_w, False, 0.0)

    integral = bool(np.all(data == np.floor(data)))
    max_w = data.max() if data.size else 1.0
    if integral and max_w * n * n < 2**52:
        m = float(n)
        comp = csr_matrix((data * m + 1.0, (rows, cols)), shape=(n, n))
        Dc = _dijkstra(comp, directed=True)
        finite = np.isfinite(Dc)
        with np.errstate(invalid="ignore"):
            LEN = np.where(finite, np.mod(Dc, m), np.inf)
        D = np.where(finite, (Dc - np.where(finite, LEN, 0.0)) / m, np.inf)
        used_rtol = 0.0
    else:
        mat = csr_matrix((data, (rows, cols)), shape=(n, n))
        D = _dijkstra(mat, directed=True)
        LEN = _lengths_additive(D, wmin, n, rtol)
        used_rtol = rtol
    nxt = _next_hops(D, LEN, flats, False, used_rtol)
    return OracleResult(ids, D, LEN, nxt, nbr_idx, nbr_w, False, used_rtol)


def _widest_value_iteration(wmin, n, chunk: int = 64):
    """Max-min widths by synchronous Bellman iteration, then fewest hops by
    relaxation over the width-optimal support graph."""
    Wd = np.full((n, n), -np.inf)
    for (i, j), w in wmin.items():
        Wd[i, j] = w
    W = np.full((n, n), -np.inf)
    np.fill_diagonal(W, np.inf)
    for _ in range(n + 1):
        changed = False
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            cand = np.minimum(Wd[:, :, None], W[None, :, lo:hi]).max(axis=1)
            new = np.maximum(W[:, lo:hi], cand)
            if not np.array_equal(new, W[:, lo:hi]):
                W[:, lo:hi] = new
                changed = True
        np.fill_diagonal(W, np.inf)
        if not changed:
            break
    LEN = np.full((n, n), np.inf)
    np.fill_diagonal(LEN, 0.0)
    for _ in range(n + 1):
        changed = False
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            support = np.minimum(Wd[:, :, None], W[None, :, lo:hi]) == W[:, None, lo:hi]
            support &= np.isfinite(Wd)[:, :, None]
            cand = np.where(support, LEN[None, :, lo:hi], np.inf).min(axis=1) + 1.0
            new = np.minimum(LEN[:, lo:hi], cand)
            if not np.array_equal(new, LEN[:, lo:hi]):
                LEN[:, lo:hi] = new
                changed = True
        np.fill_diagonal(LEN, 0.0)
        if not changed:
            break
    return W, LEN


def widest_reference(graph: GraphStore, strategy: Strategy) -> OracleResult:
    """Value-iteration reference for widest-path strategies (no size cap)."""
    if not strategy.maximize:
        raise InvalidWeightError("widest_reference requires a widest strategy")
    ids, wmin, flats, nbr_idx, nbr_w = _collect_edges(graph, widest=True)
    n = len(ids)
    if n == 0:
        empty = np.zeros((0, 0))
        return OracleResult(ids, empty, empty, empty.astype(np.int64),
                            nbr_idx, nbr_w, True, 0.0)
    W, LEN = _widest_value_iteration(wmin, n)
    nxt = _next_hops(W, LEN, flats, True, 0.0)
    return OracleResult(ids, W, LEN, nxt, nbr_idx, nbr_w, True, 0.0)


def _enumerate_widths(wmin, n):
    """Max over all simple paths of the min edge width, per ordered pair."""
    out_edges: dict[int, list[tuple[int, float]]] = {}
    for (i, j), w in wmin.items():
        out_edges.setdefault(i, []).append((j, w))
    best = np.full((n, n), -np.inf)
    np.fill_diagonal(best, np.inf)

    def dfs(origin, node, width, visited):
        for nxt, w in out_edges.get(node, ()):
            if nxt in visited:
                continue
            nw = min(width, w)
            if nw > best[origin, nxt]:
                best[origin, nxt] = nw
            visited.add(nxt)
            dfs(origin, nxt, nw, visited)
            visited.remove(nxt)

    for s in range(n):
        dfs(s, s, math.inf, {s})
    return best


def widest_paths_bruteforce(graph: GraphStore, strategy: Strategy) -> OracleResult:
    """Exhaustive widest-path reference for small graphs: widths certified
    by simple-path enumeration, tie-break replicating the selection order
    (max width, then fewest hops, then smallest next id)."""
    if len(graph.nodes) > 14:
        raise TooLargeError(f"{len(graph.nodes)} nodes; brute force capped at 14")
    result = widest_reference(graph, strategy)
    n = len(result.ids)
    _, wmin, _flats, _ni, _nw = _collect_edges(graph, widest=True)
    enum = _enumerate_widths(wmin, n)
    if not np.array_equal(enum, result._cost):
        raise AssertionError("width enumeration disagrees with value iteration")
    return result


def solve(graph: GraphStore, strategy: Strategy, rtol: float = 1e-9) -> OracleResult:
    """Route to the matching reference solver for the strategy family."""
    if strategy.maximize:
        return widest_reference(graph, strategy)
    return apsp_additive(graph, strategy, rtol)


def affected_pairs(
    graph_before: GraphStore, graph_after: GraphStore, strategy: Strategy
) -> set[tuple[NodeId, NodeId]]:
    """Ordered pairs whose established rule differs between the two graphs.

    A pair counts as affected when its reachability, optimal cost,
    tie-broken length, or tie-broken next hop changes.  Length is part of
    the comparison because it is part of a rule's identity: a changed
    suffix can shift a pair's hop count without moving its cost or next.
    """
    before = solve(graph_before, strategy)
    after = solve(graph_after, strategy)
    if before.ids == after.ids:
        same = (
            (before._cost == after._cost)
            & (before._length == after._length)
            & (before._next == after._next)
        )
        # inf == inf holds, so unreachable-on-both compares equal
        return {
            (before.ids[i], before.ids[j]) for i, j in zip(*np.nonzero(~same))
        }
    changed = set()
    for s in set(before.ids) | set(after.ids):
        for t in set(before.ids) | set(after.ids):
            if before.triple(s, t) != after.triple(s, t):
                changed.add((s, t))
    return changed


def compare_view(
    result: OracleResult,
    view,
    rtol: float = 0.0,
    check_length: bool = True,
    witness_next: bool = False,
) -> list[tuple]:
    """Mismatches between an established-rule view and an oracle result.

    Returns a list of (s, t, reason) tuples; empty means equivalence.  With
    `rtol`, costs compare within relative tolerance and, combined with
    `witness_next`, the next hop only has to lie in the cost-level witness
    set (used for real-valued weights where exact ties differ).
    """
    bad = []
    seen = set()
    for (s, t), rule in view.items():
        seen.add((s, t))
        tri = result.triple(s, t)
        if tri is None:
            bad.append((s, t, "engine reaches an oracle-unreachable pair"))
            continue
        cost, length, nxt = tri
        if rtol:
            scale = abs(cost) if cost not in (math.inf, -math.inf) else 1.0
            if not (rule.p_cost == cost or abs(rule.p_cost - cost) <= rtol * scale):
                bad.append((s, t, f"cost {rule.p_cost} vs oracle {cost}"))
                continue
        elif rule.p_cost != cost:
            bad.append((s, t, f"cost {rule.p_cost} vs oracle {cost}"))
            continue
        if check_length and rule.p_length != length:
            bad.append((s, t, f"length {rule.p_length} vs oracle {length}"))
            continue
        if witness_next:
            if rule.next not in result.witnesses(s, t, tie_break=False):
                bad.append((s, t, f"next {rule.next} not an oracle witness"))
        elif rule.next != nxt:
            bad.append((s, t, f"next {rule.next} vs oracle {nxt}"))
    for s, t, *_ in result.pairs():
        if (s, t) not in seen:
            bad.append((s, t, "oracle-reachable pair missing from engine"))
    return bad
