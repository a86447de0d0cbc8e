"""Utility-ranked proximity overlay.

Each node keeps a ranked view of the most relevant peers it has heard
of, gossips with high-utility targets to learn about even better ones,
and emits its candidate list: every known node whose coordination area
overlaps its own.  True candidates are pinned: they are never pushed out
by the capacity cut, only by staleness.

Overlap area alone has no gradient outside the overlap horizon, so the
ranking falls back to center distance for zero-utility entries; that
gradient is what lets a node walk toward its own neighborhood from a
distant starting point.  Far links keep the overlay connected and speed
up discovery for joiners: a far link is a random entry of the node's
random view, so the peer-sampling layer is their one source.

An exchange buffer is sized to its receiver: every candidate of the peer
that the sender knows, then the nearest non-candidates, between a ranked
view's capacity and both views' capacities in all.  It carries the
distance from the receiver to each item it holds, which the receiver's
merge scores with instead of calling the kernel again.
"""

from dataclasses import dataclass, field
from operator import attrgetter
from random import Random

import numpy as np

from .geometry import distances_np, overlap_area_f
from .sampling import EmptyViewError, RandomView
from .wire import DiscoveryItem


@dataclass
class RankedEntry:
    item: DiscoveryItem
    utility: float
    dist: float
    candidate: bool
    # utility descending, then distance ascending as the below-horizon
    # gradient, node id as the final deterministic tie-break
    key: tuple = field(init=False)

    def __post_init__(self):
        self.key = (-self.utility, self.dist, self.item.node_id)


_entry_key = attrgetter("key")


class RankedView:
    def __init__(self, owner_id: int, lat: float, lon: float, radius: float, capacity: int):
        self.owner_id = owner_id
        self.lat = lat
        self.lon = lon
        self.radius = radius
        self.capacity = capacity
        self.entries: dict[int, RankedEntry] = {}
        # conservative lower bound on the oldest non-candidate timestamp;
        # lets merge skip the staleness scan while everything is fresh
        self._min_ts = float("inf")
        # the capacity-th smallest key, set at each capacity cut and cleared
        # when an entry leaves: adding entries only lowers the true
        # frontier, so a cached one stays an upper bound on it
        self._frontier: tuple | None = None

    def drop(self, node_id: int):
        self.entries.pop(node_id, None)
        self._frontier = None

    def candidate_ids(self) -> set[int]:
        return {nid for nid, e in self.entries.items() if e.candidate}

    def merge(self, items, now_ms: int, stale_ms: int):
        """Fold received items in: keep the freshest copy per id, re-score
        moved nodes, evict stale entries, truncate non-candidates past
        capacity.  Candidates survive the cut as long as they are fresh.

        An item that the capacity cut would drop in this same call is never
        entered: a non-candidate keyed past the capacity frontier is
        rejected on its key.  The entries kept are those of scoring every
        item and then cutting.

        items is a sequence.  An ``OverlayBuffer`` built for this view's
        owner brings the distances to score with; any other sequence is
        scored with the kernel.
        """
        # node id -> position in items of the copy to enter
        pending: dict[int, int] = {}
        own = self.owner_id
        entries = self.entries
        entries_get = entries.get
        pending_get = pending.get
        for pos, item in enumerate(items):
            nid = item.node_id
            if nid == own:
                continue
            # a pending copy is already fresher than the held one, so it is
            # the copy to beat
            prev = pending_get(nid)
            if prev is not None:
                if item.timestamp_ms > items[prev].timestamp_ms:
                    pending[nid] = pos
                continue
            cur = entries_get(nid)
            if cur is not None:
                if item.timestamp_ms <= cur.item.timestamp_ms:
                    continue
                if (item.latitude == cur.item.latitude
                        and item.longitude == cur.item.longitude
                        and item.radius == cur.item.radius):
                    cur.item = item
                    continue
            pending[nid] = pos
        # staleness applies to non-candidates only: a pinned candidate must
        # never drop out while its node is alive (refresh gossip can lag past
        # any fixed window); dead candidates are removed by failed-contact
        # detection instead
        cutoff = now_ms - stale_ms
        if self._min_ts < cutoff:
            stale = [
                nid for nid, e in entries.items()
                if not e.candidate and e.item.timestamp_ms < cutoff
            ]
            if stale:
                for nid in stale:
                    del entries[nid]
                self._frontier = None
            self._min_ts = min(
                (e.item.timestamp_ms for e in entries.values() if not e.candidate),
                default=float("inf"),
            )
        if pending:
            positions = list(pending.values())
            batch = [items[p] for p in positions]
            if isinstance(items, OverlayBuffer) and items.receiver == (self.lat, self.lon):
                carried = items.dists
                dists = [carried[p] for p in positions]
            else:
                dists = distances_np(self.lat, self.lon,
                                     np.array([it.latitude for it in batch]),
                                     np.array([it.longitude for it in batch])).tolist()
            self._admit(batch, dists, cutoff)
        if len(entries) > self.capacity:
            ranked = sorted(entries.values(), key=_entry_key)
            # the cut keeps every entry ranked inside capacity, so this is
            # the frontier of the entries that remain
            self._frontier = ranked[self.capacity - 1].key
            for e in ranked[self.capacity:]:
                if not e.candidate:
                    del entries[e.item.node_id]

    def _admit(self, items: list[DiscoveryItem], dists: list[float], cutoff: int):
        """Score and enter the pending items, at the given distances from
        the owner, that the stale and capacity cuts would keep, once the
        entries they replace (moved or rejoined nodes) have left."""
        entries = self.entries
        for item in items:
            if item.node_id in entries:
                del entries[item.node_id]
                self._frontier = None
        frontier = self._frontier
        radius = self.radius
        for item, dist in zip(items, dists):
            if dist < radius + item.radius:
                entries[item.node_id] = RankedEntry(
                    item, overlap_area_f(dist, radius, item.radius), dist, True)
                continue
            ts = item.timestamp_ms
            # (-0.0, dist, id) is the key of a non-candidate's entry
            if ts < cutoff or (frontier is not None and (-0.0, dist, item.node_id) > frontier):
                continue
            entries[item.node_id] = RankedEntry(item, 0.0, dist, False)
            if ts < self._min_ts:
                self._min_ts = ts


def select_target(view: RankedView, random_view: RandomView,
                  recent: set[int], rng: Random, p_far: float,
                  now_ms: int, stale_ms: int) -> int:
    """Pick the next exchange target: with probability p_far a far link,
    a random entry of the random view; otherwise a stale candidate in need
    of a liveness probe, otherwise the most relevant entry not contacted
    recently, otherwise a far link.

    The probe keeps pinned candidates honest: contacting a live one
    refreshes its descriptor, contacting a dead one removes it via
    failed-contact detection.  Without it, descriptors of dead candidates
    would linger forever and crowd exchange buffers.
    """
    far = random_view.entries
    if far and rng.random() < p_far:
        return rng.choice(sorted(far))
    cutoff = now_ms - stale_ms
    stale = [
        e for nid, e in view.entries.items()
        if e.candidate and nid not in recent and e.item.timestamp_ms < cutoff
    ]
    if stale:
        stale.sort(key=lambda e: (e.item.timestamp_ms, e.item.node_id))
        return stale[0].item.node_id
    best = None
    for entry in view.entries.values():
        if entry.item.node_id in recent:
            continue
        if best is None or entry.key < best.key:
            best = entry
    if best is not None:
        return best.item.node_id
    if far:
        return rng.choice(sorted(far))
    if view.entries:
        return rng.choice(sorted(view.entries))
    raise EmptyViewError(f"node {view.owner_id} has no overlay target")


class OverlayBuffer(list):
    """An overlay exchange buffer: the items to send, and in ``dists`` the
    kernel distance from the receiving peer, at ``receiver`` = (latitude,
    longitude), to each item, in the same order.

    The receiver's ``RankedView.merge`` scores the items from these
    distances instead of calling the kernel again; the kernel gives the
    same bits whatever the shape of the call, so the entries are those of
    merging the plain list.
    """

    __slots__ = ("dists", "receiver")

    def __init__(self, items, dists: list[float], receiver: tuple[float, float]):
        super().__init__(items)
        self.dists = dists
        self.receiver = receiver


def buffer_for(view: RankedView, random_view: RandomView,
               own_item: DiscoveryItem,
               peer_lat: float, peer_lon: float, peer_radius: float) -> OverlayBuffer:
    """Exchange buffer sized to the receiving peer.

    The pool is every item the sender knows, in its ranked view and its
    random view, less its own id.  Each pool item's gap is its center
    distance to the peer minus their combined radii, negative for a
    candidate of the peer.  The buffer holds the own fresh descriptor,
    then the first n pool items in (gap, node id) order, where
    n = min(max(k + 1, c_rank), c_rank + c_rand), k is the number of
    pool items with a negative gap, and c_rank and c_rand are the
    capacities of the sender's ranked and random views.  That is every
    candidate of the peer that the sender knows and the nearest
    non-candidate, at least a ranked view's worth and never more than
    both views hold.
    """
    pool: dict[int, DiscoveryItem] = {e.item.node_id: e.item for e in view.entries.values()}
    for desc in random_view.entries.values():
        pool.setdefault(desc.item.node_id, desc.item)
    pool.pop(own_item.node_id, None)
    items = [own_item, *pool.values()]
    dists = distances_np(peer_lat, peer_lon,
                         np.array([it.latitude for it in items]),
                         np.array([it.longitude for it in items]))
    gaps = dists - (peer_radius + np.array([it.radius for it in items]))
    gaps[0] = -np.inf  # the own item leads
    order = np.lexsort((np.array([it.node_id for it in items], dtype=np.uint64), gaps))
    # the own item and the k pool items with a negative gap
    k_plus_one = int(np.count_nonzero(gaps < 0.0))
    size = view.capacity
    chosen = order[:min(max(k_plus_one, size), size + random_view.capacity) + 1]
    return OverlayBuffer([items[p] for p in chosen.tolist()], dists[chosen].tolist(),
                         (peer_lat, peer_lon))


def candidate_list(view: RankedView) -> list[tuple[DiscoveryItem, float]]:
    """The node's candidate list: the ranked view's pinned candidates,
    utility-descending (ties by id).

    Every item a node merges reaches its ranked view, and a candidate
    leaves it only when its node is found dead, so no other view knows a
    candidate this one lacks.
    """
    return sorted(
        ((e.item, e.utility) for e in view.entries.values() if e.candidate),
        key=lambda pair: (-pair[1], pair[0].node_id),
    )
