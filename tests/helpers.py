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
    its records as RankedView's ``entries`` and ``keys``.
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
    def entries(self) -> dict[int, tuple[DiscoveryItem, float]]:
        return {nid: (e.item, e.utility) for nid, e in self.records.items()}

    @property
    def keys(self) -> dict[int, tuple[float, float, int]]:
        return {nid: e.key for nid, e in self.records.items()}

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
    by their repr so that they compare bit for bit.  ``entries`` and
    ``keys`` must hold the same ids."""
    entries, keys = view.entries, view.keys
    assert entries.keys() == keys.keys()
    candidates = view.candidate_ids()
    return {nid: (repr(key), nid in candidates, entries[nid][0], repr(entries[nid][1]))
            for nid, key in keys.items()}


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
