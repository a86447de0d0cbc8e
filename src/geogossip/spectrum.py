"""Interference graph, greedy channel assignment, and the QoE hint loop.

Candidate lists from a converged run become a weighted interference
graph; a deterministic greedy pass assigns each node the channel that
minimizes conflict with already-assigned neighbors.  The assignment is
only ever a *hint*: the controller keeps following a hinted channel
while observed quality beats its baseline, and otherwise reverts.
"""

import csv
import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain
from operator import add
from random import Random

import numpy as np

from .wire import DiscoveryItem

_RESTARTS = 16

# Float sums here are one left fold, reduce(add, xs, 0): the builtin sum
# of floats is compensated from Python 3.12 on, so its bits, and through
# them the greedy order and the restart choice, would depend on the
# interpreter.


class InterferenceGraph:
    def __init__(self):
        self.adj: dict[int, dict[int, float]] = {}

    def add_vertex(self, node_id: int):
        self.adj.setdefault(node_id, {})

    def add_edge(self, a: int, b: int, weight: float):
        if a == b or weight <= 0.0:
            return
        adj = self.adj
        row_a = adj.get(a)
        if row_a is None:
            row_a = adj[a] = {}
        row_b = adj.get(b)
        if row_b is None:
            row_b = adj[b] = {}
        # symmetrized by max: keep the larger of the two directed reports
        if weight > row_a.get(b, 0.0):
            row_a[b] = weight
            row_b[a] = weight

    def vertices(self) -> list[int]:
        return sorted(self.adj)

    def weighted_degree(self, node_id: int) -> float:
        return reduce(add, self.adj.get(node_id, {}).values(), 0)


def build_graph(lists: dict[int, list[tuple[DiscoveryItem, float]]]) -> InterferenceGraph:
    """Interference graph from per-node candidate lists."""
    g = InterferenceGraph()
    add_edge = g.add_edge
    for nid, entries in lists.items():
        g.add_vertex(nid)
        for item, utility in entries:
            add_edge(nid, item.node_id, utility)
    return g


def _csr(g: InterferenceGraph, nodes: list[int]):
    """The graph as CSR arrays over node positions in ``nodes``: row
    starts, neighbour indices and weights, each row in adjacency order."""
    pos = {n: i for i, n in enumerate(nodes)}
    rows = [g.adj[n] for n in nodes]
    starts = np.fromiter(accumulate(map(len, rows), initial=0), np.intp, len(rows) + 1)
    size = int(starts[-1])
    idx = np.fromiter(map(pos.__getitem__, chain.from_iterable(rows)), np.intp, size)
    wts = np.fromiter(chain.from_iterable(map(dict.values, rows)), np.float64, size)
    return starts, idx, wts


def _edges(starts: np.ndarray, idx: np.ndarray, wts: np.ndarray):
    """Edge arrays (ea, eb, ew) with ea < eb, sorted by (ea, eb).  With
    ``nodes`` sorted, that is the order of sorted (a, b) node-id pairs."""
    rows = np.arange(len(starts) - 1).repeat(starts[1:] - starts[:-1])
    upper = rows < idx
    ea = rows[upper]
    del rows  # drop each build temporary as soon as it is used
    eb = idx[upper]
    ew = wts[upper]
    del upper
    # ea is already ascending, so the stable sort only orders eb within a row
    order = np.lexsort((eb, ea))
    eb = eb[order]
    ew = ew[order]
    return ea, eb, ew


def _conflict(edges, channels: np.ndarray) -> float:
    """Conflict weight of a channel array indexed by node position.

    np.cumsum is a left fold, so the total has the bits of summing the
    conflicting weights one by one in sorted edge order; no conflict
    gives the int 0, as the builtin sum did.
    """
    ea, eb, ew = edges
    hit = ew[channels[ea] == channels[eb]]
    return hit.cumsum()[-1].item() if len(hit) else 0


def _sweep(bounds: list[int], idx: np.ndarray, wts: np.ndarray, channels: np.ndarray,
           k: int) -> None:
    """Move single nodes to their cheapest channel until no move helps,
    in every column of a channel matrix at once.

    Works in place on an n x R channel matrix indexed by node position,
    one column per start.  The graph is given as the CSR arrays of _csr:
    ``idx[bounds[i]:bounds[i + 1]]`` holds the positions of node i's
    neighbours and the same slice of ``wts`` the edge weights, in
    adjacency order.  While it runs, column r holds channel + r * k.

    Each column makes exactly the moves of full passes in index order
    over that column alone.  Passes evaluate only dirty nodes: those with
    a neighbour that moved, in any column, since their last evaluation;
    the scan wraps round to start the next pass.  One np.bincount gives
    every column's cost vector at once: bin r * k + c sums column r's
    weights on channel c in adjacency order, starting from 0.0, so it
    has the bits of that column's own scalar loop.  A node's move depends
    only on its neighbours' channels, so in a column where none of them
    moved the vector has the bits of the node's last evaluation, and the
    node does not move: it either stayed then or moved to that vector's
    first argmin.  The skipped evaluations, and the evaluations of a dirty
    node in its clean columns, are therefore exactly the ones that make
    no move.  The search stops where full passes would stop: when a pass
    finds nothing to move in any column.  Total conflict strictly
    decreases on every move, so this terminates.
    """
    cols = channels.shape[1]
    dirty = bytearray([1]) * len(channels)
    mark = np.frombuffer(dirty, np.uint8)
    offsets = np.arange(0, cols * k, k)
    channels += offsets
    i = dirty.find(1)
    while i >= 0:
        dirty[i] = 0
        start, end = bounds[i], bounds[i + 1]
        near = idx[start:end]
        cost = np.bincount(channels[near].ravel(), wts[start:end].repeat(cols), cols * k)
        # weights are finite and positive: the first minimum is the
        # lowest cheapest channel
        low = cost.reshape(cols, k).argmin(1) + offsets
        row = channels[i]
        move = cost[low] < cost[row]
        if np.count_nonzero(move):
            row[move] = low[move]
            mark[near] = 1
        i = dirty.find(1, i + 1)
        if i < 0:
            i = dirty.find(1)
    channels -= offsets


def greedy_assign(g: InterferenceGraph, k: int) -> dict[int, int]:
    """Channel assignment over k channels, keyed in ascending node id.

    A greedy pass processes nodes by weighted degree descending (ties by
    id) and gives each the channel with the least conflict against
    already-assigned neighbors.  The result is then refined by local
    single-node moves, plus _RESTARTS seeded random restarts:
    the plain greedy pass alone lands in poor local optima often enough
    to matter (it can leave conflict on instances a perfect assignment
    would resolve completely).  Of the starts with the lowest conflict,
    the first wins.  Deterministic for a given graph.

    A greedy pass with no conflict is returned at once: no single move
    can lower a zero cost, and no start can beat it.  Otherwise the
    greedy start and all the restarts, drawn from one seeded generator
    in a fixed order, are swept together as the columns of one matrix
    (see _sweep), which makes each start's moves exactly as a sweep of
    it alone would.  A restart after one that reaches zero conflict
    cannot win, so sweeping it too leaves the result unchanged.

    k is clamped to max degree + 1.  That is exact: with that many
    channels every node has a free one at or below its degree, the
    greedy pass leaves no conflict and is returned at once;
    a larger k only appends zero-cost channels the argmin never reaches.

    All sums run on CSR arrays built once per call, with the bits of
    scalar loops: np.bincount adds each bin's weights in input order
    (adjacency order), and np.cumsum is a left fold over the sorted edge
    order.  The greedy pass counts unassigned neighbours (channel -1) in
    bin 0 of ``channel + 1`` and drops that bin.
    """
    if k < 1:
        raise ValueError("need at least one channel")
    nodes = g.vertices()
    k = min(k, 1 + max((len(g.adj[n]) for n in nodes), default=0))
    starts, idx, wts = _csr(g, nodes)
    edges = _edges(starts, idx, wts)
    # the loops slice per node: prebuilt views, about 120 bytes each,
    # raised peak RSS on the 1,000-node bench runs by 1-2%
    bounds = starts.tolist()
    order = sorted(range(len(nodes)), key=lambda i: (-g.weighted_degree(nodes[i]), nodes[i]))
    greedy = np.full(len(nodes), -1, np.intp)
    for i in order:
        start, end = bounds[i], bounds[i + 1]
        greedy[i] = np.bincount(greedy[idx[start:end]] + 1, wts[start:end], k + 1)[1:].argmin()
    if _conflict(edges, greedy) == 0.0:
        return dict(zip(nodes, greedy.tolist()))
    rng = Random(0x5EED)
    channels = np.empty((len(nodes), 1 + _RESTARTS), np.intp)
    channels[:, 0] = greedy
    for r in range(1, 1 + _RESTARTS):
        channels[:, r] = [rng.randrange(k) for _ in nodes]
    _sweep(bounds, idx, wts, channels, k)
    weights = [_conflict(edges, column) for column in channels.T]
    best = weights.index(min(weights))
    return dict(zip(nodes, channels[:, best].tolist()))


def conflict_weight(g: InterferenceGraph, assignment: dict[int, int]) -> float:
    """Total weight of edges whose endpoints share a channel, summed in
    sorted edge order (see _conflict).  ``assignment`` covers every vertex."""
    nodes = g.vertices()
    channels = np.fromiter(map(assignment.__getitem__, nodes), np.intp, len(nodes))
    return _conflict(_edges(*_csr(g, nodes)), channels)


def local_conflict(g: InterferenceGraph, assignment: dict[int, int], node_id: int) -> float:
    own = assignment[node_id]
    return reduce(add, (w for m, w in g.adj.get(node_id, {}).items() if assignment[m] == own), 0)


@dataclass(frozen=True)
class HintState:
    channel: int
    baseline_channel: int
    baseline_qoe: float
    mode: str = "following"  # following | reverted


def qoe_step(state: HintState, hinted_channel: int, observed_qoe: float) -> HintState:
    """One control step after observing quality on the hinted channel.

    Improvement over the baseline keeps the node on the hint; anything
    else sends it straight back to its original channel.
    """
    if not math.isfinite(observed_qoe):
        raise ValueError("observed QoE must be finite")
    if observed_qoe > state.baseline_qoe:
        return HintState(hinted_channel, state.baseline_channel, state.baseline_qoe, "following")
    return HintState(state.baseline_channel, state.baseline_channel, state.baseline_qoe, "reverted")


def export_assignment_csv(g: InterferenceGraph, assignment: dict[int, int], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "channel", "local_conflict_weight"])
        for node in g.vertices():
            writer.writerow([node, assignment[node], repr(local_conflict(g, assignment, node))])
