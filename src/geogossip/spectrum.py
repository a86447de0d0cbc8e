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


def _sweep(g: InterferenceGraph, assignment: dict[int, int], k: int) -> dict[int, int]:
    """Move single nodes to their cheapest channel until no move helps.
    Total conflict strictly decreases on every move, so this terminates."""
    assignment = dict(assignment)
    changed = True
    while changed:
        changed = False
        for node in sorted(assignment):
            cost = [0.0] * k
            for nbr, w in g.adj[node].items():
                cost[assignment[nbr]] += w
            best = min(range(k), key=lambda c: (cost[c], c))
            if cost[best] < cost[assignment[node]]:
                assignment[node] = best
                changed = True
    return assignment


def greedy_assign(g: InterferenceGraph, k: int) -> dict[int, int]:
    """Channel assignment over k channels.

    A greedy pass processes nodes by weighted degree descending (ties by
    id) and gives each the channel with the least conflict against
    already-assigned neighbors.  The result is then refined by local
    single-node moves, plus _RESTARTS seeded random restarts:
    the plain greedy pass alone lands in poor local optima often enough
    to matter (it can leave conflict on instances a perfect assignment
    would resolve completely).  Deterministic for a given graph.
    """
    if k < 1:
        raise ValueError("need at least one channel")
    order = sorted(g.vertices(), key=lambda n: (-g.weighted_degree(n), n))
    assignment: dict[int, int] = {}
    for node in order:
        cost = [0.0] * k
        for nbr, w in g.adj[node].items():
            ch = assignment.get(nbr)
            if ch is not None:
                cost[ch] += w
        assignment[node] = min(range(k), key=lambda c: (cost[c], c))
    best = _sweep(g, assignment, k)
    edges = g.edges()
    best_weight = _conflict(edges, best)
    rng = Random(0x5EED)
    nodes = g.vertices()
    for _ in range(_RESTARTS):
        if best_weight == 0.0:
            break
        candidate = _sweep(g, {n: rng.randrange(k) for n in nodes}, k)
        weight = _conflict(edges, candidate)
        if weight < best_weight:
            best, best_weight = candidate, weight
    return dict(sorted(best.items()))


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
