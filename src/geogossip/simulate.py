"""Deterministic round-based discovery simulator.

One round = one 15-second gossip period.  Every live node, in a seeded
shuffled order, runs one random-sampling exchange and one ranked-overlay
exchange (both push-pull, both atomic).  Churn events apply at the start
of their round; leaves are silent crashes.  All randomness flows through
a single seeded generator, so a scenario replays bit-identically.
"""

import csv
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from random import Random

import numpy as np

from .geometry import METERS_PER_DEG_LAT, distances_np
from .overlay import OverlayBuffer, RankedView, buffer_for, candidate_list, select_target
from .sampling import (
    EmptyViewError,
    RandomView,
    make_push_buffer,
    merge_random,
    sample_partner,
)
from .scenario import ChurnEvent, NodeSpec, Scenario, address_for
from .wire import FRAME_LEN, DiscoveryItem

C_RAND = 30  # random-view capacity, in descriptors
SAMPLE_HALF = C_RAND // 2  # random entries a sampling push adds to the own item
C_RANK = 20  # ranked-view capacity; pinned candidates stay past it
P_FAR = 0.1  # chance that an overlay exchange goes to a far link
RECENT_ROUNDS = 5  # how many of its last overlay targets a node skips
STALE_ROUNDS = 10  # age, in rounds, past which a ranked-view descriptor is stale


class UnknownNodeError(KeyError):
    """Churn event refers to a node that is not alive."""


@dataclass
class MetricsRow:
    round: int
    mean_recall: float
    min_recall: float
    bytes_sent_mean: float
    live_nodes: int
    mean_recall_settled: float | None = None


@dataclass
class MetricsSeries:
    rows: list[MetricsRow] = field(default_factory=list)
    total_descriptors: int = 0

    @property
    def total_bytes(self) -> int:
        return FRAME_LEN * self.total_descriptors

    @property
    def node_rounds(self) -> int:
        return sum(row.live_nodes for row in self.rows)

    def mean_bytes_per_second(self, period_seconds: float) -> float:
        if self.node_rounds == 0:
            return 0.0
        return self.total_bytes / self.node_rounds / period_seconds

    def final_recall(self) -> float:
        return self.rows[-1].mean_recall if self.rows else 0.0

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "mean_recall", "min_recall", "bytes_sent_mean", "live_nodes"])
            for row in self.rows:
                writer.writerow(
                    [row.round, repr(row.mean_recall), repr(row.min_recall),
                     repr(row.bytes_sent_mean), row.live_nodes]
                )


def convergence_round(series: MetricsSeries, threshold: float) -> int | None:
    """First round whose mean recall reaches the threshold, or None."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1]: {threshold}")
    for row in series.rows:
        if row.mean_recall >= threshold:
            return row.round
    return None


# at most this many (owner, other) pairs go to one kernel call in the oracle
# build and in the bootstrap, batched for round 0 and for each round's
# joiners: an array of every pair would cost megabytes that the allocator
# keeps after set-up, while at this size each call's temporaries stay near
# 1-2 MB
PAIRS_PER_CALL = 1 << 14


class LatitudeIndex:
    """The exhaustive candidate oracle over a changing membership.

    Nodes are kept sorted by latitude.  Great-circle distance is never
    less than the meridian arc between two latitudes, so every candidate
    of node i lies in the band |lat - lat_i| <= r_i + r_max, where r_max
    bounds every member's radius: scanning that band with the one distance
    kernel gives i's exact candidate set anywhere on the sphere, across
    the antimeridian and at the poles alike.  ``candidates`` maps each
    member to its candidates' ids as a sorted tuple.

    The build is a one-dimensional sweep: each pair is tested once, by its
    member earlier in latitude order, over the part of that member's band
    ahead of it, and the pairs go to the kernel in chunks of at most
    ``PAIRS_PER_CALL``.  The kernel gives either end of a pair the same
    distance and the radius sum commutes, so a hit counts for both
    members.  A join scans the joiner's whole band with the same band and
    pair test; a join or a leave rebuilds the tuples of the members it
    touches, nothing else, and memory stays linear in the membership.
    ``LatitudeIndex(specs).candidates`` is the oracle for a fixed set of
    nodes; ``Simulation.oracle`` follows the live membership.
    """

    # margins (relative, and degrees) that widen the band far beyond the
    # rounding in the kernel and in the latitudes, so that rounding can
    # never place a candidate just outside it
    _BAND_REL = 1.0 + 1e-6
    _BAND_DEG = 1e-9

    def __init__(self, specs: list[NodeSpec]):
        specs = sorted(specs, key=lambda s: s.latitude)
        self.ids = [s.node_id for s in specs]
        self.lats = np.array([s.latitude for s in specs], dtype=np.float64)
        self.lons = np.array([s.longitude for s in specs], dtype=np.float64)
        self.rads = np.array([s.radius for s in specs], dtype=np.float64)
        self.r_max = float(self.rads.max()) if specs else 0.0  # never lowered
        self.candidates: dict[int, tuple[int, ...]] = self._build()

    def _half(self, radius):
        """Half-width, in degrees, of the latitude band that holds every
        candidate of a member of this radius (a scalar or an array)."""
        return (radius + self.r_max) / METERS_PER_DEG_LAT * self._BAND_REL + self._BAND_DEG

    def _hits(self, own, other):
        """Whether the disks at positions own and other strictly overlap;
        own is one position or an array of them, other an array."""
        lats, lons, rads = self.lats, self.lons, self.rads
        dists = distances_np(lats[own], lons[own], lats[other], lons[other])
        return dists < rads[own] + rads[other]

    def _build(self) -> dict[int, tuple[int, ...]]:
        ids, n = self.ids, len(self.ids)
        # member p tests positions p + 1 ... ends[p] - 1; its pairs are
        # numbers offsets[p] - (ends[p] - p - 1) ... offsets[p] - 1 of all
        ends = np.searchsorted(self.lats, self.lats + self._half(self.rads), side="right")
        offsets = np.cumsum(ends - np.arange(1, n + 1))
        shift = ends - offsets  # a pair's number plus its owner's shift is its other end
        total = int(offsets[-1]) if n else 0
        by_id = sorted(range(n), key=ids.__getitem__)
        rank = np.empty(n, dtype=np.intp)  # position -> place in id order
        rank[by_id] = np.arange(n)
        # each hit in both directions, as member position * n + the other's
        # rank, so that one sort lists every member's candidates in id order
        keys = [np.zeros(0, dtype=np.intp)]
        for first in range(0, total, PAIRS_PER_CALL):
            stop = min(first + PAIRS_PER_CALL, total)
            # the owner of pair first, plus one at each later member's first pair
            m0 = int(np.searchsorted(offsets, first, side="right"))
            m1 = int(np.searchsorted(offsets, stop, side="left"))
            own = m0 + np.cumsum(np.bincount(offsets[m0:m1] - first, minlength=stop - first))
            other = np.arange(first, stop) + shift[own]
            hit = self._hits(own, other)
            own, other = own[hit], other[hit]
            keys += own * n + rank[other], other * n + rank[own]
        keys = np.concatenate(keys)
        keys.sort()
        bounds = np.searchsorted(keys, np.arange(1, n + 1) * n).tolist()
        keys %= n
        id_of = [ids[p] for p in by_id].__getitem__
        return {nid: tuple(map(id_of, keys[lo:hi].tolist()))
                for nid, lo, hi in zip(ids, [0, *bounds], bounds)}

    def _position(self, spec: NodeSpec) -> int:
        lo = int(np.searchsorted(self.lats, spec.latitude, side="left"))
        hi = int(np.searchsorted(self.lats, spec.latitude, side="right"))
        return lo + self.ids[lo:hi].index(spec.node_id)

    def _scan(self, spec: NodeSpec, pos: int) -> tuple[int, ...]:
        """Ids of the other members whose disks strictly overlap the
        member spec's, at position pos, in increasing order, from its
        whole band."""
        half = self._half(spec.radius)
        lo = int(np.searchsorted(self.lats, spec.latitude - half, side="left"))
        hi = int(np.searchsorted(self.lats, spec.latitude + half, side="right"))
        band = np.arange(lo, hi)
        band = band[band != pos]
        ids = self.ids
        return tuple(sorted(ids[k] for k in band[self._hits(pos, band)].tolist()))

    def add(self, spec: NodeSpec):
        pos = int(np.searchsorted(self.lats, spec.latitude))
        self.ids.insert(pos, spec.node_id)
        self.lats = np.insert(self.lats, pos, spec.latitude)
        self.lons = np.insert(self.lons, pos, spec.longitude)
        self.rads = np.insert(self.rads, pos, spec.radius)
        self.r_max = max(self.r_max, spec.radius)
        found = self._scan(spec, pos)
        candidates, nid = self.candidates, spec.node_id
        for other in found:
            candidates[other] = tuple(sorted((*candidates[other], nid)))
        candidates[nid] = found

    def remove(self, spec: NodeSpec):
        pos = self._position(spec)
        del self.ids[pos]
        self.lats = np.delete(self.lats, pos)
        self.lons = np.delete(self.lons, pos)
        self.rads = np.delete(self.rads, pos)
        candidates, nid = self.candidates, spec.node_id
        for other in candidates.pop(nid):
            candidates[other] = tuple(x for x in candidates[other] if x != nid)


class _Node:
    __slots__ = ("spec", "address", "random_view", "ranked", "recent",
                 "join_round", "_own")

    def __init__(self, spec: NodeSpec, address, join_round: int):
        self.spec = spec
        self.address = address
        self.join_round = join_round
        self.random_view = RandomView(spec.node_id, C_RAND)
        self.ranked = RankedView(spec.node_id, spec.latitude, spec.longitude, spec.radius, C_RANK)
        self.recent: tuple[int, ...] = ()  # the last RECENT_ROUNDS overlay targets
        self._own: DiscoveryItem | None = None

    def own_item(self, now_ms: int) -> DiscoveryItem:
        # reused within a round: several exchanges stamp the same timestamp
        own = self._own
        if own is None or own.timestamp_ms != now_ms:
            own = self._own = DiscoveryItem(
                self.spec.node_id, self.spec.latitude, self.spec.longitude,
                self.spec.radius, self.address, now_ms,
            )
        return own


class Simulation:
    """Engine for one scenario.  Construct, then run(rounds).

    delegates is the one delegation record: it maps a privacy node id to
    the node that fronts its agent, and every item the privacy node emits
    then carries the delegate's endpoint instead of its own.  Both ends
    must be members (round-0 nodes or scheduled joiners); a delegate that
    leaves through churn still fronts its clients.  Protocol decisions
    never read addresses, so a delegated run is otherwise identical.  A
    node's candidate list is its ranked view's pinned candidates
    (``overlay.candidate_list``).
    """

    def __init__(self, scenario: Scenario, delegates: dict[int, int] | None = None):
        self.scenario = scenario
        self.params = scenario.params
        self.stale_ms = STALE_ROUNDS * self.params.period_ms
        self.delegates = dict(delegates or {})
        if self.delegates:
            members = {s.node_id for s in scenario.nodes}
            members.update(ev.node.node_id for ev in scenario.churn if ev.op == "join")
            for nid, delegate in self.delegates.items():
                if nid == delegate:
                    raise ValueError(f"node {nid} cannot delegate to itself")
                if nid not in members or delegate not in members:
                    raise ValueError(f"delegation {nid} -> {delegate} names a non-member")
        self.rng = Random(scenario.rng_seed)
        self.round = 0
        self.nodes: dict[int, _Node] = {}
        self.series = MetricsSeries()
        self.oracle = LatitudeIndex(scenario.nodes)
        self._churn_by_round: dict[int, list[ChurnEvent]] = {}
        for ev in scenario.churn:
            self._churn_by_round.setdefault(ev.round, []).append(ev)
        # create every round-0 node before bootstrapping any of them, so
        # each one can reach the designated seed regardless of id order
        for spec in scenario.nodes:
            self._create_node(spec, join_round=0)
        self._bootstrap(list(self.nodes.values()), now_ms=0, joining=False)

    # -- membership ---------------------------------------------------------

    def _endpoint(self, node_id: int):
        return address_for(self.delegates.get(node_id, node_id))

    def _create_node(self, spec: NodeSpec, join_round: int) -> _Node:
        if spec.node_id in self.nodes:
            raise ValueError(f"node {spec.node_id} already alive")
        node = _Node(spec, self._endpoint(spec.node_id), join_round)
        self.nodes[spec.node_id] = node
        return node

    def _bootstrap(self, nodes: list[_Node], now_ms: int, joining: bool):
        """Introduce each of nodes, in order, to the live designated seeds.

        Each node gets their items less its own, as an ``OverlayBuffer``
        that carries their distances from it.  The distances come from
        kernel calls with array owners, at most ``PAIRS_PER_CALL`` pairs a
        call, and the kernel's bits do not depend on the call's shape, so
        each buffer merges as the plain list does.  A node left without a
        seed falls back to one random live introducer, drawn in node
        order, when it is a churn joiner (a rejoining seed too) or a
        round-0 node that is no seed; a round-0 seed without another seed
        starts alone, and the others find it.  Introductions touch only
        the introduced node's views, so a batch ends as one node at a
        time would."""
        live, designated = self.nodes, self.scenario.seeds
        seeds = [live[sid].own_item(now_ms) for sid in designated if sid in live]
        seed_pos = {it.node_id: k for k, it in enumerate(seeds)}
        seed_lats = np.array([it.latitude for it in seeds])
        seed_lons = np.array([it.longitude for it in seeds])
        step = max(1, PAIRS_PER_CALL // max(1, len(seeds)))
        for first in range(0, len(nodes), step):
            chunk = nodes[first:first + step]
            rows = distances_np(np.array([nd.spec.latitude for nd in chunk])[:, None],
                                np.array([nd.spec.longitude for nd in chunk])[:, None],
                                seed_lats, seed_lons).tolist()
            for node, row in zip(chunk, rows):
                spec = node.spec
                buf = OverlayBuffer(seeds, row, (spec.latitude, spec.longitude))
                k = seed_pos.get(spec.node_id)
                if k is not None:
                    del buf[k], buf.dists[k]
                if not buf and len(live) > 1 and (joining or spec.node_id not in designated):
                    others = sorted(set(live) - {spec.node_id})
                    buf = [live[self.rng.choice(others)].own_item(now_ms)]
                if buf:
                    merge_random(node.random_view, buf)
                    node.ranked.merge(buf, now_ms, self.stale_ms)

    def apply_churn(self, events: list[ChurnEvent], now_ms: int):
        joined: list[_Node] = []
        for ev in events:
            if ev.op == "join":
                joined.append(self._create_node(ev.node, join_round=self.round))
                self.oracle.add(ev.node)
            else:
                if ev.node_id not in self.nodes:
                    raise UnknownNodeError(ev.node_id)
                self.oracle.remove(self.nodes.pop(ev.node_id).spec)
        # not one that a later event of the round took out again; by
        # identity, as the same id may have joined once more since
        self._bootstrap([node for node in joined if self.nodes.get(node.spec.node_id) is node],
                        now_ms, joining=True)

    def _forget(self, node: _Node, dead_id: int):
        node.random_view.drop(dead_id)
        node.ranked.drop(dead_id)

    # -- exchanges ----------------------------------------------------------

    def _record(self, buf: list[DiscoveryItem]):
        self.series.total_descriptors += len(buf)

    def _sampling_exchange(self, node: _Node, now_ms: int):
        if not node.random_view.entries:
            return
        partner_id = sample_partner(node.random_view, self.rng)
        partner = self.nodes.get(partner_id)
        if partner is None:
            self._forget(node, partner_id)
            return
        buf_a = make_push_buffer(
            node.random_view, node.own_item(now_ms), SAMPLE_HALF, self.rng
        )
        buf_b = make_push_buffer(
            partner.random_view, partner.own_item(now_ms), SAMPLE_HALF, self.rng
        )
        self._record(buf_a)
        self._record(buf_b)
        merge_random(partner.random_view, buf_a)
        partner.ranked.merge(buf_a, now_ms, self.stale_ms)
        merge_random(node.random_view, buf_b)
        node.ranked.merge(buf_b, now_ms, self.stale_ms)

    def _overlay_buffer(self, node: _Node, peer: _Node, now_ms: int) -> OverlayBuffer:
        return buffer_for(
            node.ranked, node.random_view, node.own_item(now_ms),
            peer.spec.latitude, peer.spec.longitude, peer.spec.radius,
        )

    def _overlay_exchange(self, node: _Node, now_ms: int):
        try:
            target_id = select_target(
                node.ranked, node.random_view, set(node.recent), self.rng, P_FAR,
                now_ms=now_ms, stale_ms=self.stale_ms,
            )
        except EmptyViewError:
            return
        target = self.nodes.get(target_id)
        if target is None:
            self._forget(node, target_id)
            return
        node.recent = (*node.recent, target_id)[-RECENT_ROUNDS:]
        buf_a = self._overlay_buffer(node, target, now_ms)
        buf_b = self._overlay_buffer(target, node, now_ms)
        self._record(buf_a)
        self._record(buf_b)
        target.ranked.merge(buf_a, now_ms, self.stale_ms)
        node.ranked.merge(buf_b, now_ms, self.stale_ms)

    # -- rounds -------------------------------------------------------------

    def step(self) -> MetricsRow:
        now_ms = self.round * self.params.period_ms
        self.apply_churn(self._churn_by_round.get(self.round, []), now_ms)
        descriptors_before = self.series.total_descriptors
        order = sorted(self.nodes)
        self.rng.shuffle(order)
        # nodes leave only in apply_churn, so every id in order is alive
        for nid in order:
            node = self.nodes[nid]
            self._sampling_exchange(node, now_ms)
            self._overlay_exchange(node, now_ms)
        for node in self.nodes.values():
            node.random_view.tick()
        row = self._measure(FRAME_LEN * (self.series.total_descriptors - descriptors_before))
        self.series.rows.append(row)
        self.round += 1
        return row

    def _measure(self, round_bytes: int) -> MetricsRow:
        live = list(self.nodes.values())
        recalls = []
        settled = []
        for node in live:
            gt = self.oracle.candidates[node.spec.node_id]
            if gt:
                found = node.ranked.candidate_ids()
                recall = len(found.intersection(gt)) / len(gt)
            else:
                recall = 1.0
            recalls.append(recall)
            if self.round - node.join_round >= 10:
                settled.append(recall)
        n = len(live)
        # left folds: the builtin sum of floats is compensated from Python 3.12
        return MetricsRow(
            round=self.round,
            mean_recall=reduce(add, recalls, 0) / n if n else 1.0,
            min_recall=min(recalls) if recalls else 1.0,
            bytes_sent_mean=round_bytes / n if n else 0.0,
            live_nodes=n,
            mean_recall_settled=reduce(add, settled, 0) / len(settled) if settled else None,
        )

    def run(self, rounds: int) -> MetricsSeries:
        for _ in range(rounds):
            self.step()
        return self.series

    def candidate_lists(self) -> dict[int, list[tuple[DiscoveryItem, float]]]:
        return {
            nid: candidate_list(node.ranked)
            for nid, node in sorted(self.nodes.items())
        }

