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

from operator import itemgetter
from random import Random

import numpy as np

from .geometry import distances_np, overlap_area_f
from .sampling import EmptyViewError, RandomView
from .wire import DiscoveryItem


class RankedView:
    """``entries`` maps a node id to its one record,
    ``(-utility, distance, id, (item, utility))``.  The first three fields
    are the rank key: utility descending, then distance as the
    below-horizon gradient, then id.  Ids are unique, so ordering records
    never reaches the last field, the very pair ``candidate_list`` returns.
    An entry is a candidate when its distance is under the two radii's sum;
    a nonzero utility is a candidate's, so hot paths test the distance only
    at zero.  Listing candidates returns the stored pairs themselves, so it
    allocates nothing per candidate and sets off no full collector pass.
    """

    def __init__(self, owner_id: int, lat: float, lon: float, radius: float, capacity: int):
        self.owner_id = owner_id
        self.lat = lat
        self.lon = lon
        self.radius = radius
        self.capacity = capacity
        self.entries: dict[int, tuple[float, float, int, tuple[DiscoveryItem, float]]] = {}
        # conservative lower bound on the oldest non-candidate timestamp;
        # lets merge skip the staleness scan while everything is fresh
        self._min_ts = float("inf")
        # the capacity-th smallest record, set at each capacity cut and
        # cleared when an entry leaves: adding entries only lowers the true
        # frontier, so a cached one stays an upper bound on it
        self._frontier: tuple | None = None

    def drop(self, node_id: int):
        self.entries.pop(node_id, None)
        self._frontier = None

    def candidate_ids(self) -> set[int]:
        radius = self.radius
        return {nid for u, dist, nid, pair in self.entries.values()
                if u or dist < radius + pair[0].radius}

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
        entries, radius = self.entries, self.radius
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
                neg, dist, _, (held, utility) = cur
                if item.timestamp_ms <= held.timestamp_ms:
                    continue
                if (item.latitude == held.latitude
                        and item.longitude == held.longitude
                        and item.radius == held.radius):
                    # same place, same key: the fresher copy takes the pair
                    entries[nid] = (neg, dist, nid, (item, utility))
                    continue
            pending[nid] = pos
        # staleness applies to non-candidates only: a pinned candidate must
        # never drop out while its node is alive (refresh gossip can lag past
        # any fixed window); dead candidates are removed by failed-contact
        # detection instead
        cutoff = now_ms - stale_ms
        if self._min_ts < cutoff:
            others = [pair[0] for _, dist, _, pair in entries.values()
                      if not dist < radius + pair[0].radius]
            stale = [item.node_id for item in others if item.timestamp_ms < cutoff]
            if stale:
                for nid in stale:
                    del entries[nid]
                self._frontier = None
            self._min_ts = min(
                (item.timestamp_ms for item in others if item.timestamp_ms >= cutoff),
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
            ranked = sorted(entries.values())
            # the cut keeps every entry ranked inside capacity, so this is
            # the frontier of the entries that remain
            self._frontier = ranked[self.capacity - 1]
            for u, dist, nid, pair in ranked[self.capacity:]:
                if not u and not dist < radius + pair[0].radius:
                    del entries[nid]

    def _admit(self, items: list[DiscoveryItem], dists: list[float], cutoff: int):
        """Score and enter the pending items, at the given distances from
        the owner, that the stale and capacity cuts would keep, once the
        entries they replace (moved or rejoined nodes) have left."""
        entries = self.entries
        for item in items:
            if item.node_id in entries:
                del entries[item.node_id]
                self._frontier = None
        # a record of the view, or None; a key ties it only on its own id,
        # which no pending item has, so comparing stops before the pair
        frontier = self._frontier
        radius = self.radius
        for item, dist in zip(items, dists):
            nid = item.node_id
            if dist < radius + item.radius:
                utility = overlap_area_f(dist, radius, item.radius)
                entries[nid] = (-utility, dist, nid, (item, utility))
                continue
            ts = item.timestamp_ms
            if ts < cutoff or (frontier is not None and (-0.0, dist, nid) > frontier):
                continue
            entries[nid] = (-0.0, dist, nid, (item, 0.0))
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
    radius, entries = view.radius, view.entries
    stale = [
        item for _, dist, nid, (item, _) in entries.values()
        if item.timestamp_ms < cutoff and nid not in recent and dist < radius + item.radius
    ]
    if stale:
        return min(stale, key=lambda it: (it.timestamp_ms, it.node_id)).node_id
    best = min((rec for rec in entries.values() if rec[2] not in recent), default=None)
    if best is not None:
        return best[2]
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

    The pool is every item the sender knows: its ranked view's items,
    then those of its random view that the ranked view lacks.  Neither
    view stores the sender's own id.  Each pool item's gap is its center
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
    ranked = view.entries
    items = [own_item, *[pair[0] for _, _, _, pair in ranked.values()],
             *[desc.item for nid, desc in random_view.entries.items() if nid not in ranked]]
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

    The list holds the view's own pairs, sorted by id and then stably by
    utility, with no key tuple: it allocates nothing per candidate.
    """
    radius = view.radius
    pairs = [pair for u, dist, _, pair in view.entries.values()
             if u or dist < radius + pair[0].radius]
    pairs.sort(key=lambda pair: pair[0].node_id)
    pairs.sort(key=itemgetter(1), reverse=True)
    return pairs
