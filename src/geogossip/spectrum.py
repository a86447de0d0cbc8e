"""Interference graph, greedy channel assignment, and the QoE hint loop.

Candidate lists from a converged run become a weighted interference
graph; a deterministic greedy pass assigns each node the channel that
minimizes conflict with already-assigned neighbors.  The assignment is
only ever a *hint*: the controller keeps following a hinted channel
while observed quality beats its baseline, and otherwise reverts.
"""

import csv
import math
from array import array
from dataclasses import dataclass
from random import Random

from .wire import DiscoveryItem

_RESTARTS = 16


class InterferenceGraph:
    def __init__(self):
        self.adj: dict[int, dict[int, float]] = {}

    def add_vertex(self, node_id: int):
        self.adj.setdefault(node_id, {})

    def add_edge(self, a: int, b: int, weight: float):
        if a == b or weight <= 0.0:
            return
        self.add_vertex(a)
        self.add_vertex(b)
        # symmetrized by max: keep the larger of the two directed reports
        cur = self.adj[a].get(b, 0.0)
        if weight > cur:
            self.adj[a][b] = weight
            self.adj[b][a] = weight

    def vertices(self) -> list[int]:
        return sorted(self.adj)

    def edges(self) -> list[tuple[int, int, float]]:
        return sorted(
            (a, b, w) for a, nbrs in self.adj.items() for b, w in nbrs.items() if a < b
        )

    def weighted_degree(self, node_id: int) -> float:
        return sum(self.adj.get(node_id, {}).values())


def build_graph(lists: dict[int, list[tuple[DiscoveryItem, float]]]) -> InterferenceGraph:
    """Interference graph from per-node candidate lists."""
    g = InterferenceGraph()
    for nid, entries in lists.items():
        g.add_vertex(nid)
        for item, utility in entries:
            g.add_edge(nid, item.node_id, utility)
    return g


def _sweep(nbrs: list[array], wts: list, assignment: list[int], k: int) -> None:
    """Move single nodes to their cheapest channel until no move helps.

    Works in place on an assignment indexed like ``nbrs``: ``nbrs[i]``
    holds the indices of node i's neighbours and ``wts[i]`` the edge
    weights in the same (adjacency) order.  Passes run in index order, as
    full passes would, but evaluate only dirty nodes: those with a
    neighbour that moved since their last evaluation.  A node's move
    depends only on its neighbours' channels, and its cost vector is
    summed from scratch in adjacency order, so a clean node would get the
    same bits and not move; a node that just moved sits at its argmin and
    would not move again.  The skipped evaluations are therefore exactly
    the ones that make no move, and the search stops where full passes
    would stop: when a pass finds nothing to move.  Total conflict
    strictly decreases on every move, so this terminates.
    """
    dirty = bytearray([1]) * len(assignment)
    i = dirty.find(1)
    while i >= 0:
        dirty[i] = 0
        cost = [0.0] * k
        for j, w in zip(nbrs[i], wts[i]):
            cost[assignment[j]] += w
        # weights are finite and positive: the first minimum is the
        # lowest cheapest channel
        best = cost.index(min(cost))
        if cost[best] < cost[assignment[i]]:
            assignment[i] = best
            for j in nbrs[i]:
                dirty[j] = 1
        i = dirty.find(1, i + 1)
        if i < 0:
            i = dirty.find(1)


def greedy_assign(g: InterferenceGraph, k: int) -> dict[int, int]:
    """Channel assignment over k channels, keyed in ascending node id.

    A greedy pass processes nodes by weighted degree descending (ties by
    id) and gives each the channel with the least conflict against
    already-assigned neighbors.  The result is then refined by local
    single-node moves, plus _RESTARTS seeded random restarts:
    the plain greedy pass alone lands in poor local optima often enough
    to matter (it can leave conflict on instances a perfect assignment
    would resolve completely).  Deterministic for a given graph.

    k is clamped to max degree + 1.  That is exact: with that many
    channels every node has a free one at or below its degree, the
    greedy pass leaves no conflict, and no sweep move or restart runs;
    a larger k only appends zero-cost channels the argmin never reaches.
    The local search re-evaluates only nodes whose neighbours moved
    (see _sweep), which makes the same moves as full passes.
    """
    if k < 1:
        raise ValueError("need at least one channel")
    nodes = g.vertices()
    k = min(k, 1 + max((len(g.adj[n]) for n in nodes), default=0))
    pos = {n: i for i, n in enumerate(nodes)}
    nbrs = [array("i", [pos[m] for m in g.adj[n]]) for n in nodes]
    wts = [g.adj[n].values() for n in nodes]
    order = sorted(range(len(nodes)), key=lambda i: (-g.weighted_degree(nodes[i]), nodes[i]))
    best = [-1] * len(nodes)
    for i in order:
        cost = [0.0] * k
        for j, w in zip(nbrs[i], wts[i]):
            ch = best[j]
            if ch >= 0:
                cost[ch] += w
        best[i] = cost.index(min(cost))
    _sweep(nbrs, wts, best, k)
    edges = g.edges()
    best_weight = _conflict(edges, dict(zip(nodes, best)))
    rng = Random(0x5EED)
    for _ in range(_RESTARTS):
        if best_weight == 0.0:
            break
        candidate = [rng.randrange(k) for _ in nodes]
        _sweep(nbrs, wts, candidate, k)
        weight = _conflict(edges, dict(zip(nodes, candidate)))
        if weight < best_weight:
            best, best_weight = candidate, weight
    return dict(zip(nodes, best))


def conflict_weight(g: InterferenceGraph, assignment: dict[int, int]) -> float:
    """Total weight of edges whose endpoints share a channel."""
    return _conflict(g.edges(), assignment)


def _conflict(edges: list[tuple[int, int, float]], assignment: dict[int, int]) -> float:
    """conflict_weight over g.edges() sorted once: the sum runs in that
    order, so its bits do not depend on which caller sorted."""
    return sum(w for a, b, w in edges if assignment[a] == assignment[b])


def local_conflict(g: InterferenceGraph, assignment: dict[int, int], node_id: int) -> float:
    return sum(
        w for nbr, w in g.adj.get(node_id, {}).items() if assignment[nbr] == assignment[node_id]
    )


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
