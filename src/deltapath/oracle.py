"""From-scratch reference solvers used for equivalence testing.

Nothing here shares code with the incremental engine: additive strategies
get a fresh Dijkstra per source, widest-path strategies get a synchronous
value iteration plus, under the brute-force entry point, an exhaustive
simple-path enumeration cross-checking the widths.  scipy is used only for
that Dijkstra: `apsp_additive` imports it on its first call, so a process
that checks only widest strategies never loads it.  The only
deliberately shared piece of semantics is the selection tie-break, which
replicates the engine's key tuple (signed cost, p_length, next), whose
plain order is the selection order (see `strategy`): primary key per the
strategy, then fewer hops, then smallest next-hop id.

Memory: a solve holds a few (N, N) matrices: the costs as float64, the
fewest hops as float32, exact below 2**24 hops, and the next hops as
int32.  Every kernel past the Dijkstra works on (directed edges x
targets) arrays over one block of targets at a time, each near
`_BLOCK_ELEMENTS` elements, so its working memory is O(N^2 +
_BLOCK_ELEMENTS) whatever the weights.  `compare_view` reads the view one
chunk of entries at a time, so it adds an (N, N) mask of the pairs not
yet seen plus a few words per entry of one chunk.
"""

from __future__ import annotations

import math
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidWeightError, TooLargeError
from .graph_model import GraphStore, NodeId
from .strategy import Strategy

# targets solved together, so that each (edges x targets) array stays near
# this many elements (512 KiB of float64) whatever the graph's size; larger
# blocks were no faster on fat-tree k=16 and raised the peak
_BLOCK_ELEMENTS = 1 << 16


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


class _Edges(NamedTuple):
    """One directed edge per ordered pair, sorted by (source, target): each
    source's edges are one run, the run of `heads[k]` starting at
    `starts[k]`, so a ufunc's `reduceat` over `starts` reduces per source."""

    srcs: np.ndarray
    dsts: np.ndarray
    ws: np.ndarray
    heads: np.ndarray
    starts: np.ndarray


def _collect_edges(graph: GraphStore, widest: bool):
    """Sorted node ids, the edges with each pair's reduced weight (min for
    additive routing, max for widest), and per-source neighbor array views."""
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
    srcs = np.fromiter((i for i, _j in wmin), np.int64, m)
    dsts = np.fromiter((j for _i, j in wmin), np.int64, m)
    ws = np.fromiter(wmin.values(), np.float64, m)
    order = np.lexsort((dsts, srcs))
    srcs, dsts, ws = srcs[order], dsts[order], ws[order]
    heads, starts = np.unique(srcs, return_index=True)
    indptr = np.searchsorted(srcs, np.arange(n + 1))
    nbr_idx = [dsts[indptr[s]:indptr[s + 1]] for s in range(n)]
    nbr_w = [ws[indptr[s]:indptr[s + 1]] for s in range(n)]
    return ids, _Edges(srcs, dsts, ws, heads, starts), nbr_idx, nbr_w


def _blocks(n: int, m: int):
    """Target columns [lo, hi) in blocks of about `_BLOCK_ELEMENTS // m`."""
    size = max(1, _BLOCK_ELEMENTS // max(m, 1))
    for lo in range(0, n, size):
        yield lo, min(lo + size, n)


def _via(D, edges: _Edges, maximize: bool, lo: int, hi: int):
    """(edges, targets lo:hi): each edge's source's cost toward each target
    through that edge."""
    w = edges.ws[:, None]
    return np.minimum(w, D[edges.dsts, lo:hi]) if maximize else w + D[edges.dsts, lo:hi]


def _ties(via, base, rtol: float):
    """Where `via` equals `base`: exactly, or with `rtol` within a relative
    tolerance plus 1e-12."""
    if not rtol:
        return via == base
    with np.errstate(invalid="ignore"):
        return np.abs(via - base) <= rtol * np.abs(base) + 1e-12


def _next_hops(D, LEN, edges: _Edges, maximize, rtol):
    """Tie-broken next hops: the smallest x over an edge s->x that carries
    an optimal path (`_ties`) one hop longer than x's."""
    n = D.shape[0]
    nxt = np.full((n, n), -1, dtype=np.int32)
    srcs, dsts, _ws, heads, starts = edges
    for lo, hi in _blocks(n, srcs.size):
        base = D[srcs, lo:hi]
        opt = _ties(_via(D, edges, maximize, lo, hi), base, rtol)
        opt &= base > -math.inf if maximize else base < math.inf
        del base
        opt &= LEN[dsts, lo:hi] + 1 == LEN[srcs, lo:hi]
        best = np.minimum.reduceat(np.where(opt, dsts[:, None], n), starts, axis=0)
        best[best == n] = -1
        nxt[heads, lo:hi] = best
    np.fill_diagonal(nxt, np.arange(n))
    return nxt


def _fewest_hops(D, edges: _Edges, maximize: bool, rtol: float):
    """Fewest hops along optimal paths: toward each target t, the hop
    distance to t over the edges s->x whose cost through x `_ties` D[s, t]
    (and is finite, for additive routing; whose width is, for widest), by
    synchronous relaxation from LEN[t, t] = 0."""
    n = D.shape[0]
    LEN = np.full((n, n), np.inf, dtype=np.float32)
    np.fill_diagonal(LEN, 0.0)
    srcs, dsts, ws, heads, starts = edges
    for lo, hi in _blocks(n, srcs.size):
        via = _via(D, edges, maximize, lo, hi)
        tight = _ties(via, D[srcs, lo:hi], rtol)
        tight &= np.isfinite(ws)[:, None] if maximize else np.isfinite(via)
        del via
        block = LEN[:, lo:hi]
        for _ in range(n + 1 if maximize else n):
            hops = np.where(tight, block[dsts], np.inf)
            cand = np.minimum.reduceat(hops, starts, axis=0) + 1.0
            new = np.minimum(block[heads], cand)
            if np.array_equal(new, block[heads]):
                break
            block[heads] = new
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
    # scipy loads on first use, so that a process checking only widest
    # strategies does not load it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    ids, edges, nbr_idx, nbr_w = _collect_edges(graph, widest=False)
    n = len(ids)
    rows, cols, data = edges.srcs, edges.dsts, edges.ws
    if data.size and data.min() <= 0:
        raise InvalidWeightError(f"non-positive weight {data.min()}")
    if n == 0:
        empty = np.zeros((0, 0))
        return OracleResult(ids, empty, empty, empty.astype(np.int32),
                            nbr_idx, nbr_w, False, 0.0)

    integral = bool(np.all(data == np.floor(data)))
    max_w = data.max() if data.size else 1.0
    if integral and max_w * n * n < 2**52:
        m = float(n)
        comp = csr_matrix((data * m + 1.0, (rows, cols)), shape=(n, n))
        Dc = dijkstra(comp, directed=True)
        finite = np.isfinite(Dc)
        LEN = np.empty((n, n), dtype=np.float32)
        with np.errstate(invalid="ignore"):
            np.mod(Dc, m, out=LEN)
        LEN[~finite] = np.inf
        # in place: D = (Dc - LEN) / m where finite, inf elsewhere
        D = Dc
        np.subtract(D, LEN, out=D, where=finite)
        D /= m
        used_rtol = 0.0
    else:
        mat = csr_matrix((data, (rows, cols)), shape=(n, n))
        D = dijkstra(mat, directed=True)
        LEN = _fewest_hops(D, edges, False, rtol)
        used_rtol = rtol
    nxt = _next_hops(D, LEN, edges, False, used_rtol)
    return OracleResult(ids, D, LEN, nxt, nbr_idx, nbr_w, False, used_rtol)


def _widths(edges: _Edges, n: int):
    """Max-min widths toward every target, by synchronous Bellman iteration
    over the edges."""
    W = np.full((n, n), -np.inf)
    np.fill_diagonal(W, np.inf)
    _srcs, dsts, ws, heads, starts = edges
    for lo, hi in _blocks(n, dsts.size):
        block = W[:, lo:hi]
        for _ in range(n + 1):
            via = np.minimum(ws[:, None], block[dsts])
            new = np.maximum(block[heads], np.maximum.reduceat(via, starts, axis=0))
            if np.array_equal(new, block[heads]):
                break
            block[heads] = new
    return W


def widest_reference(graph: GraphStore, strategy: Strategy) -> OracleResult:
    """Value-iteration reference for widest-path strategies (no size cap)."""
    if not strategy.maximize:
        raise InvalidWeightError("widest_reference requires a widest strategy")
    ids, edges, nbr_idx, nbr_w = _collect_edges(graph, widest=True)
    n = len(ids)
    if n == 0:
        empty = np.zeros((0, 0))
        return OracleResult(ids, empty, empty, empty.astype(np.int32),
                            nbr_idx, nbr_w, True, 0.0)
    W = _widths(edges, n)
    LEN = _fewest_hops(W, edges, True, 0.0)
    nxt = _next_hops(W, LEN, edges, True, 0.0)
    return OracleResult(ids, W, LEN, nxt, nbr_idx, nbr_w, True, 0.0)


def _enumerate_widths(edges: _Edges, n):
    """Max over all simple paths of the min edge width, per ordered pair."""
    out_edges: dict[int, list[tuple[int, float]]] = {}
    for i, j, w in zip(edges.srcs.tolist(), edges.dsts.tolist(), edges.ws.tolist()):
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
    _ids, edges, _ni, _nw = _collect_edges(graph, widest=True)
    enum = _enumerate_widths(edges, n)
    if not np.array_equal(enum, result._cost):
        raise AssertionError("width enumeration disagrees with value iteration")
    return result


def solve(graph: GraphStore, strategy: Strategy, rtol: float = 1e-9) -> OracleResult:
    """Route to the matching reference solver for the strategy family."""
    if strategy.maximize:
        return widest_reference(graph, strategy)
    return apsp_additive(graph, strategy, rtol)


def _mismatch(result: OracleResult, s, t, rule, rtol, check_length, witness_next):
    """Why the view's rule for (s, t) fails against the oracle, or None."""
    tri = result.triple(s, t)
    if tri is None:
        return "engine reaches an oracle-unreachable pair"
    cost, length, nxt = tri
    if rtol:
        scale = abs(cost) if cost not in (math.inf, -math.inf) else 1.0
        if not (rule.p_cost == cost or abs(rule.p_cost - cost) <= rtol * scale):
            return f"cost {rule.p_cost} vs oracle {cost}"
    elif rule.p_cost != cost:
        return f"cost {rule.p_cost} vs oracle {cost}"
    if check_length and rule.p_length != length:
        return f"length {rule.p_length} vs oracle {length}"
    if witness_next:
        if rule.next not in result.witnesses(s, t, tie_break=False):
            return f"next {rule.next} not an oracle witness"
    elif rule.next != nxt:
        return f"next {rule.next} vs oracle {nxt}"
    return None


def _screen(result: OracleResult, view, keys, rows, cols, rtol, check_length):
    """Which view entries certainly pass `_mismatch`, decided for all of
    them at once.

    The rules' (next, p_cost, p_length) become object columns, so that each
    value compares with the oracle's matrices at (rows, cols) as Python
    compares it (an int cost of 2**53 or more included).  The next must be
    the oracle's tie-broken next, also under `witness_next`: that next
    passed the test `witnesses` makes, under the result's own tolerance,
    so it is always a witness.  An entry not passed here may still pass
    `_mismatch`."""
    count = len(keys)
    passed = np.zeros(count, dtype=bool)
    known = np.flatnonzero((rows >= 0) & (cols >= 0))
    cost = result._cost[rows[known], cols[known]]
    reach = cost > -math.inf if result.maximize else cost < math.inf
    at, cost = known[reach], cost[reach]
    if not at.size:
        return passed
    rules = map(view.__getitem__, map(keys.__getitem__, at))
    attrs = chain.from_iterable(map(attrgetter("next", "p_cost", "p_length"), rules))
    values = np.fromiter(attrs, object, 3 * at.size).reshape(at.size, 3)
    i, j = rows[at], cols[at]
    if rtol:
        scale = np.where(np.isinf(cost), 1.0, np.abs(cost))
        # Python's float arithmetic raises the FPU's invalid flag on inf - inf
        with np.errstate(invalid="ignore"):
            ok = (values[:, 1] == cost) | (np.abs(values[:, 1] - cost) <= rtol * scale)
    else:
        ok = ~(values[:, 1] != cost)
    # `triple` takes int() of the length, which fails on inf
    length = result._length[i, j]
    finite = np.isfinite(length)
    ok &= finite
    if check_length:
        ok &= ~(values[:, 2] != np.where(finite, length, 0).astype(np.int64))
    nxt = result._next[i, j]
    ok &= nxt >= 0
    ok &= ~(values[:, 0] != np.array(result.ids, dtype=object)[nxt])
    passed[at] = ok
    return passed


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
    set (used for real-valued weights where exact ties differ).  The view's
    mismatches come first, in view order, then the oracle-reachable pairs
    the view lacks, in `ids` order.

    The view is read one chunk of entries at a time, so the working
    memory past the mask of missing pairs is that of one chunk.  In each
    chunk `_screen` passes most entries at once; the rest go through
    `_mismatch`, which builds the reasons.
    """
    index = result.index
    # an entry of a chunk holds its key, two indices, its rule's three
    # fields and a few masks, about 170 B traced: 1.4 MiB per chunk
    chunk = _BLOCK_ELEMENTS // 8
    missing = (
        result._cost > -math.inf if result.maximize else result._cost < math.inf
    )
    bad = []
    entries = iter(view)
    while keys := list(islice(entries, chunk)):
        count = len(keys)
        rows = np.fromiter(map(index.get, map(itemgetter(0), keys), repeat(-1)), np.intp, count)
        cols = np.fromiter(map(index.get, map(itemgetter(1), keys), repeat(-1)), np.intp, count)
        try:
            passed = _screen(result, view, keys, rows, cols, rtol, check_length)
        except (ArithmeticError, AttributeError, TypeError, ValueError):
            # what the screen cannot compare, `_mismatch` decides (or raises on)
            passed = np.zeros(count, dtype=bool)
        for k in np.flatnonzero(~passed).tolist():
            s, t = key = keys[k]
            reason = _mismatch(result, s, t, view[key], rtol, check_length, witness_next)
            if reason is not None:
                bad.append((s, t, reason))
        known = (rows >= 0) & (cols >= 0)
        missing[rows[known], cols[known]] = False
    ids = result.ids
    for i, j in zip(*(a.tolist() for a in np.nonzero(missing))):
        bad.append((ids[i], ids[j], "oracle-reachable pair missing from engine"))
    return bad
