"""From-scratch reference solvers used for equivalence testing.

Nothing here shares code with the incremental engine.  Every built-in
strategy is solved by Bellman's synchronous relaxation toward each target
(Bellman, "On a routing problem", Quarterly of Applied Mathematics 1958):
D[s, t] is the best over the edges s -> x of w extended by D[x, t], that
is w + D[x, t] for additive strategies and min(w, D[x, t]) for widest
ones.  That is the extension the engine's repair makes, in the same
order, so every cost is the engine's own float and every tie is exact,
real weights included.  That holds at any size for float weights, which
are summed as the engine sums them.  Weights of another type (hop_count's
ints) are summed exactly only while every path sum stays below 2**53;
past that, `apsp_additive` raises TooLargeError rather than check
inexactly.
The fewest hops come from the same relaxation over the edges that carry a
best path, and each next hop from one minimum over each source's edges.
The brute-force widest entry point also cross-checks the widths by
exhaustive simple-path enumeration.  The only deliberately shared piece
of semantics is the selection tie-break, which
replicates the engine's key tuple (signed cost, p_length, next), whose
plain order is the selection order (see `strategy`): primary key per the
strategy, then fewer hops, then smallest next-hop id.

Time: a relaxation ends one sweep after the last change, so it sweeps at
most one more time than the most hops of a best path: at most N times, as
on a ring of N nodes whose best paths all go the long way round.  Each
sweep reads only the edges whose far end changed in the sweep before.

Memory: a solve holds a few (N, N) matrices: the costs as float64, the
fewest hops as float32, exact below 2**24 hops, and the next hops as
int32.  Every kernel works on (targets x directed edges) arrays over one
block of targets at a time, each near `_BLOCK_ELEMENTS` elements (or of 8
targets, past 8192 edges), so its working memory is O(N^2 +
_BLOCK_ELEMENTS + 8 * edges) whatever the weights.
`compare_view` reads the view one chunk of entries at a time, so it adds
an (N, N) mask of the pairs not yet seen plus a few words per entry of
one chunk.
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

# targets solved together, so that each (targets x edges) array stays near
# this many elements (512 KiB of float64) whatever the graph's size; larger
# blocks were no faster on fat-tree k=16 and raised the peak
_BLOCK_ELEMENTS = 1 << 16


class OracleResult:
    """Per ordered pair: optimal cost, tie-broken length, tie-broken next
    hop, and (on demand) the witness next-hop sets."""

    def __init__(self, ids, cost, length, nxt, nbr_idx, nbr_w, maximize):
        self.ids: tuple[NodeId, ...] = tuple(ids)
        self.index = {n: i for i, n in enumerate(self.ids)}
        self.maximize = maximize
        self._cost = cost
        self._length = length
        self._next = nxt
        self._nbr_idx = nbr_idx
        self._nbr_w = nbr_w

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
        mask = via == self._cost[i, j]
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
    """Target columns [lo, hi) in blocks of about `_BLOCK_ELEMENTS // m`,
    and of at least 8: each sweep of `_relax` reads every edge to find the
    active ones, and 8 targets share that read (hop_count fat-tree k=32 on
    a 2-vCPU VM: 1.45 s a solve with 2 targets a block, 1.04 s with 8)."""
    size = max(8, _BLOCK_ELEMENTS // max(m, 1))
    for lo in range(0, n, size):
        yield lo, min(lo + size, n)


def _relax(block, edges: _Edges, offer, better, seeds) -> None:
    """Bellman's synchronous relaxation toward one block of targets, in
    place: block[j, x] is x's value toward the block's j-th target, and
    each sweep improves every column block[:, s] by `better` (a ufunc)
    with the best over the edges s -> x of `offer(k, block[:, x])`, k
    being those edges' indices, until a sweep changes no column.  A sweep
    offers only over the edges whose far end changed in the sweep before
    (the first, over the edges into the `seeds` columns): a far end that
    did not change offers what it offered before, which its sources
    already hold."""
    srcs, dsts = edges.srcs, edges.dsts
    changed = np.zeros(block.shape[1], dtype=bool)
    changed[seeds] = True
    first = np.ones(srcs.size, dtype=bool)
    while (k := changed.take(dsts).nonzero()[0]).size:
        s = srcs.take(k)
        # the first of each source's run of edges
        np.not_equal(s[1:], s[:-1], out=first[1:k.size])
        starts = first[:k.size].nonzero()[0]
        heads = s.take(starts)
        old = block.take(heads, axis=1)
        new = better(old, better.reduceat(offer(k, block.take(dsts.take(k), axis=1)), starts, axis=1))
        block[:, heads] = new
        changed[:] = False
        changed[heads] = (new != old).any(axis=0)


def _solve(ids, edges: _Edges, nbr_idx, nbr_w, maximize: bool) -> OracleResult:
    """Costs, fewest hops and tie-broken next hops toward one block of
    targets at a time.

    The costs relax from each target's own cost (0, or the width inf).  An
    edge s -> x is tight toward t when it carries a best path: its offer
    equals D[s, t], exactly, and t is reachable.  The fewest hops relax
    from 0 at the target over the tight edges, and s's next is the
    smallest x over a tight edge one hop closer."""
    n = len(ids)
    cost = np.empty((n, n))
    length = np.empty((n, n), dtype=np.float32)
    nxt = np.empty((n, n), dtype=np.int32)
    srcs, dsts, ws, heads, starts = edges
    if maximize:
        extend, better, unreached, own = np.minimum, np.maximum, -math.inf, math.inf
    else:
        extend, better, unreached, own = np.add, np.minimum, math.inf, 0.0

    def offer(k, far):
        return extend(ws.take(k), far)
    for lo, hi in _blocks(n, srcs.size):
        targets, rows = np.arange(lo, hi), np.arange(hi - lo)
        block = np.full((hi - lo, n), unreached)
        block[rows, targets] = own
        _relax(block, edges, offer, better, targets)
        base = block.take(srcs, axis=1)
        tight = offer(np.arange(srcs.size), block.take(dsts, axis=1)) == base
        tight &= base != unreached
        del base
        cost[:, lo:hi] = block.T
        # 1 over a tight edge, inf over the others
        step = np.where(tight, np.float32(1), np.float32(math.inf))
        hops = np.full((hi - lo, n), np.inf, dtype=np.float32)
        hops[rows, targets] = 0.0
        _relax(hops, edges, lambda k, far: far + step.take(k, axis=1), np.minimum, targets)
        tight &= hops.take(dsts, axis=1) + 1 == hops.take(srcs, axis=1)
        best = np.minimum.reduceat(np.where(tight, dsts, n), starts, axis=1)
        best[best == n] = -1
        length[:, lo:hi] = hops.T
        nxt[:, lo:hi] = -1
        nxt[heads, lo:hi] = best.T
        nxt[targets, targets] = targets
    return OracleResult(ids, cost, length, nxt, nbr_idx, nbr_w, maximize)


def apsp_additive(graph: GraphStore, strategy: Strategy) -> OracleResult:
    """All-pairs optima for an additive strategy, with the engine's
    key-tuple tie-break applied, exact for float weights and for weights
    of another type (ints) whose total is below 2**53.

    Raises InvalidWeightError on a weight that is not positive, and
    TooLargeError on a non-float weight when the weights' total, which
    bounds every path sum, is 2**53 or more: float64 no longer holds
    such sums exactly."""
    if strategy.maximize:
        raise InvalidWeightError("apsp_additive requires an additive strategy")
    ids, edges, nbr_idx, nbr_w = _collect_edges(graph, widest=False)
    if edges.ws.size and edges.ws.min() <= 0:
        raise InvalidWeightError(f"non-positive weight {edges.ws.min()}")
    weights = [w for (_a, _b, w), _m in graph.link_items()]
    if sum(weights) >= 2**53 and not all(isinstance(w, float) for w in weights):
        raise TooLargeError("weights total 2**53 or more, past exact float sums")
    return _solve(ids, edges, nbr_idx, nbr_w, False)


def widest_reference(graph: GraphStore, strategy: Strategy) -> OracleResult:
    """Value-iteration reference for widest-path strategies (no size cap)."""
    if not strategy.maximize:
        raise InvalidWeightError("widest_reference requires a widest strategy")
    return _solve(*_collect_edges(graph, widest=True), True)


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


def solve(graph: GraphStore, strategy: Strategy) -> OracleResult:
    """Route to the matching reference solver for the strategy family."""
    if strategy.maximize:
        return widest_reference(graph, strategy)
    return apsp_additive(graph, strategy)


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
    passed the test `witnesses` makes, so it is always a witness.  An entry not passed here may still pass
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

    Returns a list of (s, t, reason) tuples; empty means equivalence.  The
    oracle's costs are the engine's own floats, so the defaults compare
    every cost, length and next exactly.  With `rtol`, costs compare within
    a relative tolerance instead, and with `witness_next` the next hop only
    has to lie in the cost-level witness set.  The view's mismatches come
    first, in view order, then the oracle-reachable pairs the view lacks,
    in `ids` order.

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
