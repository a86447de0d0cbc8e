"""Random peer sampling: bounded partial view refreshed by push-pull gossip.

Each node keeps a small random sample of the overlay (the random view):
one received item per node id.  Every round it exchanges a buffer of
items with one partner.  A merge keeps each node's newest item, and the
oldest timestamps are evicted when the view overflows.  Aging doubles as
churn cleanup: items of dead nodes stop being refreshed and fall out.
"""

from bisect import bisect_left, bisect_right
from random import Random

from .wire import DiscoveryItem


class EmptyViewError(Exception):
    """No peer available to exchange with."""


_MASK64 = (1 << 64) - 1


def _salt64(owner_id: int, node_id: int) -> int:
    """Owner-specific 64-bit tie-break for node_id: splitmix64's finalizer
    over the pair.  Plain integer arithmetic, so replay does not depend on
    the interpreter's hash."""
    z = (owner_id * 0x9E3779B97F4A7C15 + node_id) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _newest_first(item: DiscoveryItem) -> int:
    return -item.timestamp_ms


class RandomView:
    def __init__(self, owner_id: int, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.owner_id = owner_id
        self.capacity = capacity
        self.entries: dict[int, DiscoveryItem] = {}

    def drop(self, node_id: int):
        self.entries.pop(node_id, None)

    def tick(self):
        """End-of-round hook; it does nothing.  ``bench/tracer.py`` binds
        it by name as the ``sampling.tick`` span, and
        ``tests/test_bench.py`` requires that span to be entered, so
        ``Simulation.step`` still calls it once per live view."""

    def merge(self, items):
        """Merge received items: dedup keeping the newer timestamp (a copy
        of the held timestamp does not replace the held one), never store
        self, evict the oldest timestamps past capacity.  Among entries of
        the timestamp at the capacity cut, the owner-salted mix
        ``_salt64(owner, id)`` decides; it is computed for that timestamp
        alone.

        In the engine every timestamp is a multiple of the period and
        never later than now, so this is the order of ages in periods."""
        owner = self.owner_id
        entries = self.entries
        entries_get = entries.get
        for item in items:
            nid = item.node_id
            if nid == owner:
                continue
            cur = entries_get(nid)
            if cur is None or item.timestamp_ms > cur.timestamp_ms:
                entries[nid] = item
        self._evict()

    def _evict(self):
        capacity = self.capacity
        if len(self.entries) > capacity:
            ranked = sorted(self.entries.values(), key=_newest_first)
            cut = _newest_first(ranked[capacity - 1])
            if _newest_first(ranked[capacity]) == cut:
                # timestamp ties are common (items minted the same round), so
                # the last tie-break is the owner-salted mix: a plain id
                # ordering would evict the same nodes from every view
                lo = bisect_left(ranked, cut, hi=capacity, key=_newest_first)
                hi = bisect_right(ranked, cut, lo=capacity, key=_newest_first)
                owner = self.owner_id
                ranked[lo:hi] = sorted(ranked[lo:hi],
                                       key=lambda it: _salt64(owner, it.node_id))
            self.entries = {it.node_id: it for it in ranked[:capacity]}


def sample_partner(view: RandomView, rng: Random) -> int:
    """Pick the exchange partner: the entry of the oldest timestamp
    (healer-biased).  Ties are broken uniformly at random."""
    if not view.entries:
        raise EmptyViewError(f"node {view.owner_id} has an empty random view")
    oldest_ts = min(it.timestamp_ms for it in view.entries.values())
    oldest = sorted(nid for nid, it in view.entries.items() if it.timestamp_ms == oldest_ts)
    return rng.choice(oldest)


def make_push_buffer(
    view: RandomView, own_item: DiscoveryItem, half: int, rng: Random
) -> list[DiscoveryItem]:
    """Push buffer: own fresh descriptor first, then up to `half` random entries."""
    others = sorted(view.entries)
    picked = rng.sample(others, min(half, len(others)))
    return [own_item] + [view.entries[n] for n in picked]


def merge_random(view: RandomView, received):
    """Merge received items into the view."""
    view.merge(received)
