"""Random peer sampling: bounded partial view refreshed by push-pull gossip.

Each node keeps a small random sample of the overlay (the random view).
Every round it exchanges a buffer of descriptors with one partner; merged
descriptors are deduplicated by node id, aged each round, and the oldest
are evicted when the view overflows.  Aging doubles as churn cleanup:
descriptors of dead nodes stop being refreshed and fall out.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
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


@dataclass(slots=True)
class PeerDescriptor:
    item: DiscoveryItem
    age: int  # gossip rounds since the item was created


_age = attrgetter("age")


class RandomView:
    def __init__(self, owner_id: int, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.owner_id = owner_id
        self.capacity = capacity
        self.entries: dict[int, PeerDescriptor] = {}

    def drop(self, node_id: int):
        self.entries.pop(node_id, None)

    def tick(self):
        for desc in self.entries.values():
            desc.age += 1

    def merge(self, items, now_ms: int, period_ms: int):
        """Merge received items, ages reconstructed from their timestamps:
        dedup keeping the youngest copy (within one age the held copy
        stays), never store self, evict the oldest entries past capacity.
        Among entries of the age at the capacity cut, the owner-salted mix
        ``_salt64(owner, id)`` decides; it is computed for that age alone.

        Age is the view's only clock.  In the engine every timestamp is a
        multiple of the period and every live view ticks once a round, so
        one age means one timestamp."""
        owner = self.owner_id
        entries_get = self.entries.get
        for item in items:
            nid = item.node_id
            if nid == owner:
                continue
            age = (now_ms - item.timestamp_ms) // period_ms
            if age < 0:
                age = 0
            cur = entries_get(nid)
            if cur is None or age < cur.age:
                self.entries[nid] = PeerDescriptor(item, age)
        self._evict()

    def _evict(self):
        capacity = self.capacity
        if len(self.entries) > capacity:
            ranked = sorted(self.entries.values(), key=_age)
            cut = ranked[capacity - 1].age
            if ranked[capacity].age == cut:
                # age ties are common (items minted the same round), so the
                # last tie-break is the owner-salted mix: a plain id ordering
                # would evict the same nodes from every view in the overlay
                lo = bisect_left(ranked, cut, hi=capacity, key=_age)
                hi = bisect_right(ranked, cut, lo=capacity, key=_age)
                owner = self.owner_id
                ranked[lo:hi] = sorted(ranked[lo:hi],
                                       key=lambda d: _salt64(owner, d.item.node_id))
            self.entries = {d.item.node_id: d for d in ranked[:capacity]}


def sample_partner(view: RandomView, rng: Random) -> int:
    """Pick the exchange partner: the oldest entry (healer-biased).  Age
    ties are broken uniformly at random."""
    if not view.entries:
        raise EmptyViewError(f"node {view.owner_id} has an empty random view")
    max_age = max(d.age for d in view.entries.values())
    oldest = sorted(nid for nid, d in view.entries.items() if d.age == max_age)
    return rng.choice(oldest)


def make_push_buffer(
    view: RandomView, own_item: DiscoveryItem, half: int, rng: Random
) -> list[DiscoveryItem]:
    """Push buffer: own fresh descriptor first, then up to `half` random entries."""
    others = sorted(view.entries)
    picked = rng.sample(others, min(half, len(others)))
    return [own_item] + [view.entries[n].item for n in picked]


def merge_random(view: RandomView, received, now_ms: int, period_ms: int):
    """Merge received items into the view (ages derived from timestamps)."""
    view.merge(received, now_ms, period_ms)
