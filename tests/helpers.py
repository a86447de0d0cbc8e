"""Shared test utilities: random item generation and independent oracles."""

import itertools
import math
from dataclasses import dataclass
from ipaddress import IPv4Address, IPv6Address
from random import Random

import numpy as np

from geogossip.geometry import distances_np, overlap_area_f
from geogossip.wire import DiscoveryItem


def random_item(rng: Random, node_id: int | None = None) -> DiscoveryItem:
    lon = rng.uniform(-180.0, 180.0)
    if lon >= 180.0:
        lon = -180.0
    if rng.random() < 0.5:
        address = IPv4Address(rng.getrandbits(32))
    else:
        address = IPv6Address(rng.getrandbits(128))
    return DiscoveryItem(
        node_id=rng.getrandbits(64) if node_id is None else node_id,
        latitude=rng.uniform(-90.0, 90.0),
        longitude=lon,
        radius=rng.uniform(0.0, 50_000.0),
        address=address,
        timestamp_ms=rng.getrandbits(64),
    )


def mc_overlap_area(r1: float, r2: float, d: float, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the intersection area of two planar disks
    (radius r1 at origin, radius r2 at (d, 0)) by rejection sampling inside
    the first disk.  Returns (estimate, standard error)."""
    rng = np.random.default_rng(seed)
    u = rng.random(samples)
    theta = rng.random(samples) * 2.0 * np.pi
    rad = r1 * np.sqrt(u)
    x = rad * np.cos(theta)
    y = rad * np.sin(theta)
    inside = (x - d) ** 2 + y ** 2 < r2 * r2
    p = inside.mean()
    disk1 = math.pi * r1 * r1
    stderr = disk1 * math.sqrt(max(p * (1.0 - p), 1e-30) / samples)
    return disk1 * p, stderr


@dataclass
class Scored:
    """The reference view's record of one entry: its own scoring's result."""
    item: DiscoveryItem
    utility: float
    dist: float
    candidate: bool

    @property
    def key(self) -> tuple[float, float, int]:
        return (-self.utility, self.dist, self.item.node_id)


class ReferenceRankedView:
    """The ranked-view merge that scores every pending item and then cuts.

    This is how RankedView.merge worked before it learned to reject items
    ahead of scoring; tests drive both with the same streams and require
    the same entries after every call.  It stores each entry's candidacy
    as scored, where RankedView reads it off the key's distance, and shows
    its records as RankedView's ``entries``.
    """

    def __init__(self, owner_id: int, lat: float, lon: float, radius: float, capacity: int):
        self.owner_id = owner_id
        self.lat = lat
        self.lon = lon
        self.radius = radius
        self.capacity = capacity
        self.records: dict[int, Scored] = {}
        self._min_ts = float("inf")

    @property
    def entries(self) -> dict[int, tuple]:
        return {nid: (*e.key, (e.item, e.utility)) for nid, e in self.records.items()}

    def candidate_ids(self) -> set[int]:
        return {nid for nid, e in self.records.items() if e.candidate}

    def drop(self, node_id: int):
        self.records.pop(node_id, None)

    def score(self, items: list[DiscoveryItem]) -> list[Scored]:
        dists = distances_np(self.lat, self.lon,
                             np.array([it.latitude for it in items]),
                             np.array([it.longitude for it in items]))
        scored = []
        for item, dist in zip(items, dists):
            dist = float(dist)
            if dist < self.radius + item.radius:
                util = overlap_area_f(dist, self.radius, item.radius)
                scored.append(Scored(item, util, dist, True))
            else:
                scored.append(Scored(item, 0.0, dist, False))
        return scored

    def merge(self, items, now_ms: int, stale_ms: int):
        pending: dict[int, DiscoveryItem] = {}
        for item in items:
            nid = item.node_id
            if nid == self.owner_id:
                continue
            prev = pending.get(nid)
            if prev is not None:
                if item.timestamp_ms > prev.timestamp_ms:
                    pending[nid] = item
                continue
            cur = self.records.get(nid)
            if cur is not None:
                if item.timestamp_ms <= cur.item.timestamp_ms:
                    continue
                if (item.latitude == cur.item.latitude
                        and item.longitude == cur.item.longitude
                        and item.radius == cur.item.radius):
                    cur.item = item
                    continue
            pending[nid] = item
        if pending:
            for e in self.score(list(pending.values())):
                if not e.candidate and e.item.timestamp_ms < self._min_ts:
                    self._min_ts = e.item.timestamp_ms
                self.records[e.item.node_id] = e
        cutoff = now_ms - stale_ms
        if self._min_ts < cutoff:
            stale = [
                nid for nid, e in self.records.items()
                if not e.candidate and e.item.timestamp_ms < cutoff
            ]
            for nid in stale:
                del self.records[nid]
            self._min_ts = min(
                (e.item.timestamp_ms for e in self.records.values() if not e.candidate),
                default=float("inf"),
            )
        if len(self.records) > self.capacity:
            ranked = sorted(self.records.values(), key=lambda e: e.key)
            for e in ranked[self.capacity:]:
                if not e.candidate:
                    del self.records[e.item.node_id]


def entry_bits(view) -> dict:
    """A view's entries as {id: (key, candidate, item, utility)}, the floats
    by their repr so that they compare bit for bit.  Each record must be
    filed under its own id, and its key must negate its pair's utility."""
    bits = {}
    candidates = view.candidate_ids()
    for nid, (neg, dist, key_id, (item, utility)) in view.entries.items():
        assert key_id == item.node_id == nid
        assert repr(neg) == repr(-utility)
        bits[nid] = (repr((neg, dist, key_id)), nid in candidates, item, repr(utility))
    return bits


def oracle_sets(candidates: dict) -> dict[int, set[int]]:
    """An oracle's candidates as {id: set of ids}, once each value has been
    checked to be a strictly increasing tuple, so that it holds no
    duplicate and the sets compare as many ids as the tuples hold."""
    for ids in candidates.values():
        assert type(ids) is tuple
        assert all(a < b for a, b in zip(ids, ids[1:]))
    return {nid: set(ids) for nid, ids in candidates.items()}


_MASK64 = (1 << 64) - 1


def splitmix64_pair(owner_id: int, node_id: int) -> int:
    """The random view's owner-salted tie-break, written out again here:
    splitmix64's finalizer over owner_id * golden gamma + node_id."""
    z = (owner_id * 0x9E3779B97F4A7C15 + node_id) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class ReferenceRandomView:
    """The random-view merge that salts every entry as it enters and
    evicts on (newest timestamp, salt), the order RandomView keeps while
    salting only the timestamp tied at the capacity cut.  ``entries``
    maps an id to its item."""

    def __init__(self, owner_id: int, capacity: int):
        self.owner_id = owner_id
        self.capacity = capacity
        self.entries: dict[int, DiscoveryItem] = {}

    def drop(self, node_id: int):
        self.entries.pop(node_id, None)

    def merge(self, items):
        for item in items:
            nid = item.node_id
            if nid == self.owner_id:
                continue
            held = self.entries.get(nid)
            if held is None or item.timestamp_ms > held.timestamp_ms:
                self.entries[nid] = item
        if len(self.entries) > self.capacity:
            ranked = sorted(self.entries.items(),
                            key=lambda kv: (-kv[1].timestamp_ms,
                                            splitmix64_pair(self.owner_id, kv[0])))
            self.entries = dict(ranked[:self.capacity])


class AgedRandomView:
    """The random view as it was when each entry carried an age in gossip
    periods: ``tick`` ages every entry by one, a merged item enters at the
    age its timestamp gives against now, clamped at 0, and a copy
    replaces the held one only when it is strictly younger.  Eviction is
    on (age, salt).  ``entries`` maps an id to [item, age].

    It is the oracle for engine traffic: timestamps on the period grid,
    none later than now, and one tick each time now advances a period."""

    def __init__(self, owner_id: int, capacity: int):
        self.owner_id = owner_id
        self.capacity = capacity
        self.entries: dict[int, list] = {}

    def tick(self):
        for entry in self.entries.values():
            entry[1] += 1

    def drop(self, node_id: int):
        self.entries.pop(node_id, None)

    def merge(self, items, now_ms: int, period_ms: int):
        for item in items:
            nid = item.node_id
            if nid == self.owner_id:
                continue
            age = max(0, (now_ms - item.timestamp_ms) // period_ms)
            held = self.entries.get(nid)
            if held is None or age < held[1]:
                self.entries[nid] = [item, age]
        if len(self.entries) > self.capacity:
            ranked = sorted(self.entries.items(),
                            key=lambda kv: (kv[1][1], splitmix64_pair(self.owner_id, kv[0])))
            self.entries = dict(ranked[:self.capacity])


def reference_build_graph(lists) -> dict[int, dict[int, float]]:
    """build_graph's adjacency, built with one setdefault per end: a row
    appears when its id is first seen, as an owner or as a neighbour, and
    each pair of distinct ids keeps the larger of its positive reports."""
    adj: dict[int, dict[int, float]] = {}
    for nid, entries in lists.items():
        adj.setdefault(nid, {})
        for item, utility in entries:
            other = item.node_id
            if other == nid or utility <= 0.0:
                continue
            adj.setdefault(nid, {})
            adj.setdefault(other, {})
            if utility > adj[nid].get(other, 0.0):
                adj[nid][other] = utility
                adj[other][nid] = utility
    return adj


def sorted_edges(g) -> list[tuple[int, int, float]]:
    """A graph's edges as (a, b, weight) with a < b, in sorted order."""
    return sorted((a, b, w) for a, nbrs in g.adj.items() for b, w in nbrs.items() if a < b)


def brute_force_optimum(g, k) -> tuple[float, dict[int, int]]:
    """The least conflict weight over all k^n channel assignments, and the
    first assignment that reaches it.

    Each total is a left fold with += over the sorted edge list, built
    once per graph, so the search calls nothing of the code under test.
    """
    nodes = g.vertices()
    pos = {v: i for i, v in enumerate(nodes)}
    edges = [(pos[a], pos[b], w) for a, b, w in sorted_edges(g)]
    best, best_channels = math.inf, None
    for channels in itertools.product(range(k), repeat=len(nodes)):
        total = 0
        for a, b, w in edges:
            if channels[a] == channels[b]:
                total += w
        if total < best:
            best, best_channels = total, channels
    return best, dict(zip(nodes, best_channels))
