import copy
import math
from dataclasses import replace
from ipaddress import IPv4Address
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geogossip import overlay
from geogossip.geometry import EARTH_RADIUS_M, distances_np, overlap_area_f
from geogossip.overlay import (
    RankedView,
    buffer_for,
    candidate_list,
    select_target,
)
from geogossip.sampling import EmptyViewError, RandomView
from geogossip.simulate import C_RAND, C_RANK
from geogossip.wire import DiscoveryItem
from helpers import ReferenceRankedView, entry_bits

DEG_M = EARTH_RADIUS_M * math.pi / 180.0


def item_at(node_id, lat_m, lon_m, radius, ts=1000):
    """Item placed lat_m/lon_m meters from the origin (small offsets)."""
    return DiscoveryItem(
        node_id=node_id,
        latitude=lat_m / DEG_M,
        longitude=lon_m / DEG_M,
        radius=radius,
        address=IPv4Address("10.0.0.1") + node_id,
        timestamp_ms=ts,
    )


def view_at(owner_id=1, radius=500.0, capacity=20):
    return RankedView(owner_id, 0.0, 0.0, radius, capacity)


def ranked_ids(view):
    return [rec[2] for rec in sorted(view.entries.values())]


def pair_of(view, node_id):
    """The (item, utility) pair of a view's record for node_id."""
    return view.entries[node_id][3]


def random_view_with(owner_id, items):
    """A random view holding items, each at age 0."""
    rv = RandomView(owner_id=owner_id, capacity=10)
    rv.merge(items, now_ms=max(i.timestamp_ms for i in items), period_ms=15_000)
    return rv


def merged_entry(item, radius=500.0):
    """(utility, distance, candidate) of the entry that merging item alone
    into an empty view makes."""
    view = view_at(radius=radius)
    view.merge([item], now_ms=item.timestamp_ms, stale_ms=10**9)
    neg, dist, nid, (held, utility) = view.entries[item.node_id]
    assert held is item
    assert (neg, nid) == (-utility, item.node_id)
    return utility, dist, item.node_id in view.candidate_ids()


def tangent_radius(d, own=500.0):
    """The radius whose sum with the owner's is exactly the distance d."""
    r = d - own
    while own + r < d:
        r = math.nextafter(r, math.inf)
    while own + r > d:
        r = math.nextafter(r, -math.inf)
    return r


class TestScoring:
    def test_overlapping_item_is_candidate(self):
        utility, dist, candidate = merged_entry(item_at(2, 600.0, 0.0, 200.0))
        assert candidate
        assert utility > 0.0
        assert dist == distances_np(0.0, 0.0, 600.0 / DEG_M, 0.0)
        assert utility == overlap_area_f(dist, 500.0, 200.0)

    def test_disjoint_item_scores_zero(self):
        utility, dist, candidate = merged_entry(item_at(2, 5000.0, 0.0, 200.0))
        assert (utility, candidate) == (0.0, False)
        assert dist == pytest.approx(5000.0, rel=1e-3)

    def test_tangent_item_not_candidate(self):
        far = item_at(2, 3000.0, 0.0, 100.0)
        d = float(distances_np(0.0, 0.0, far.latitude, far.longitude))
        r = tangent_radius(d)
        assert 500.0 + r == d
        utility, _, candidate = merged_entry(replace(far, radius=r))
        assert (utility, candidate) == (0.0, False)


class TestRanking:
    def test_order_utility_desc_then_distance(self):
        view = view_at(radius=500.0)
        near = item_at(2, 100.0, 0.0, 400.0)    # big overlap
        edge = item_at(3, 800.0, 0.0, 400.0)    # small overlap
        close_miss = item_at(4, 2000.0, 0.0, 100.0)
        far_miss = item_at(5, 8000.0, 0.0, 100.0)
        view.merge([far_miss, close_miss, edge, near], now_ms=2000, stale_ms=10**9)
        assert ranked_ids(view) == [2, 3, 4, 5]

    def test_id_breaks_exact_ties(self):
        view = view_at(radius=500.0)
        a = item_at(9, 1000.0, 0.0, 100.0)
        b = item_at(3, 1000.0, 0.0, 100.0)
        view.merge([a, b], now_ms=2000, stale_ms=10**9)
        assert ranked_ids(view) == [3, 9]

    def test_rank_batch(self):
        items = [item_at(i, 300.0 * i, 0.0, 200.0) for i in range(2, 8)]
        view = view_at(radius=500.0, capacity=10)
        view.merge(items, now_ms=1000, stale_ms=10**9)
        assert len(view.entries) == 6
        assert view.candidate_ids() == {2}


class TestMerge:
    def test_never_stores_owner(self):
        view = view_at(owner_id=1)
        view.merge([item_at(1, 100.0, 0.0, 50.0)], now_ms=2000, stale_ms=10**9)
        assert len(view.entries) == 0

    def test_stale_copy_ignored(self):
        view = view_at()
        view.merge([item_at(2, 100.0, 0.0, 50.0, ts=500)], now_ms=2000, stale_ms=10**9)
        view.merge([item_at(2, 900.0, 0.0, 50.0, ts=400)], now_ms=2000, stale_ms=10**9)
        assert pair_of(view, 2)[0].timestamp_ms == 500

    def test_fresher_copy_rescored_on_move(self):
        view = view_at(radius=500.0)
        view.merge([item_at(2, 100.0, 0.0, 50.0, ts=500)], now_ms=2000, stale_ms=10**9)
        assert view.candidate_ids() == {2}
        view.merge([item_at(2, 9000.0, 0.0, 50.0, ts=600)], now_ms=2000, stale_ms=10**9)
        assert 2 in view.entries and view.candidate_ids() == set()

    def test_stale_noncandidates_evicted(self):
        view = view_at(radius=500.0)
        view.merge([item_at(2, 9000.0, 0.0, 50.0, ts=100)], now_ms=100, stale_ms=1000)
        assert 2 in view.entries
        view.merge([], now_ms=5000, stale_ms=1000)
        assert 2 not in view.entries

    def test_stale_candidates_pinned(self):
        # a candidate must survive staleness: live neighbors whose refresh
        # lags would otherwise flap out of the candidate list
        view = view_at(radius=500.0)
        view.merge([item_at(2, 100.0, 0.0, 50.0, ts=100)], now_ms=100, stale_ms=1000)
        view.merge([], now_ms=50_000, stale_ms=1000)
        assert 2 in view.entries

    def test_capacity_cut_spares_candidates(self):
        view = view_at(radius=500.0, capacity=5)
        cands = [item_at(i, 50.0 * i, 0.0, 400.0) for i in range(2, 10)]
        misses = [item_at(i, 5000.0 + i, 0.0, 10.0) for i in range(100, 110)]
        view.merge(cands + misses, now_ms=2000, stale_ms=10**9)
        assert view.candidate_ids() == set(range(2, 10))
        assert len(view.entries) == 8  # 8 pinned candidates, all misses cut

    def test_merge_ranked_wrapper(self):
        view = view_at()
        view.merge([item_at(2, 100.0, 0.0, 50.0)], now_ms=2000, stale_ms=10**9)
        assert 2 in view.entries


class TestCandidacyAtTangency:
    """A view reads candidacy off the key's distance with the test that
    scored the entry, so the edge is exact on every path: an item exactly
    at tangency is no candidate, and one a radius ulp inside it is."""

    @staticmethod
    def tangent_and_inside(ts=1000):
        """Node 2 at tangency with the owner (radius 500 at the origin),
        node 3 at the same place an ulp inside it."""
        tangent = item_at(2, 3000.0, 0.0, 100.0, ts=ts)
        d = float(distances_np(0.0, 0.0, tangent.latitude, tangent.longitude))
        r = tangent_radius(d)
        inside = math.nextafter(r, math.inf)
        assert 500.0 + r == d < 500.0 + inside
        return replace(tangent, radius=r), replace(item_at(3, 3000.0, 0.0, 100.0, ts=ts),
                                                   radius=inside)

    def test_merge_and_candidate_list(self):
        tangent, inside = self.tangent_and_inside()
        view = view_at(radius=500.0)
        view.merge([tangent, inside], now_ms=2000, stale_ms=10**9)
        assert view.candidate_ids() == {3}
        assert pair_of(view, 2)[1] == 0.0 < pair_of(view, 3)[1]
        assert [(item.node_id, u) for item, u in candidate_list(view)] == [(3, pair_of(view, 3)[1])]

    def test_staleness_evicts_the_tangent_item_only(self):
        tangent, inside = self.tangent_and_inside(ts=100)
        view = view_at(radius=500.0)
        view.merge([tangent, inside], now_ms=100, stale_ms=1000)
        view.merge([], now_ms=50_000, stale_ms=1000)
        assert sorted(view.entries) == [3]
        assert [item for item, _ in candidate_list(view)] == [inside]

    def test_capacity_cut_keeps_the_inside_item(self):
        # capacity 1: node 4 fills it, and the cut keeps node 3 pinned
        tangent, inside = self.tangent_and_inside()
        view = view_at(radius=500.0, capacity=1)
        view.merge([tangent, inside, item_at(4, 100.0, 0.0, 100.0)], now_ms=2000, stale_ms=10**9)
        assert sorted(view.entries) == [3, 4]
        assert [item.node_id for item, _ in candidate_list(view)] == [4, 3]


class TestSelectTarget:
    # every descriptor merged at 2000 ms is fresh: no liveness probe is due
    FRESH = {"now_ms": 2000, "stale_ms": 10**9}

    def test_prefers_best_unvisited(self):
        view = view_at(radius=500.0)
        view.merge([item_at(2, 100.0, 0.0, 400.0), item_at(3, 800.0, 0.0, 400.0)],
                   now_ms=2000, stale_ms=10**9)
        no_far = RandomView(1, 10)
        assert select_target(view, no_far, set(), Random(0), p_far=0.0, **self.FRESH) == 2
        assert select_target(view, no_far, {2}, Random(0), p_far=0.0, **self.FRESH) == 3

    def test_far_link_probability(self):
        view = view_at(radius=500.0)
        view.merge([item_at(2, 100.0, 0.0, 400.0)], now_ms=2000, stale_ms=10**9)
        far = random_view_with(1, [item_at(77, 9000.0, 0.0, 10.0)])
        rng = Random(1)
        picks = {select_target(view, far, set(), rng, p_far=0.5, **self.FRESH) for _ in range(200)}
        assert picks == {2, 77}

    def test_every_far_link_is_a_random_view_entry(self):
        view = view_at(radius=500.0)
        view.merge([item_at(2, 100.0, 0.0, 400.0)], now_ms=2000, stale_ms=10**9)
        far = random_view_with(1, [item_at(nid, 9000.0, 10.0 * nid, 10.0)
                                   for nid in range(70, 78)])
        rng = Random(3)
        picks = {select_target(view, far, set(), rng, p_far=1.0, **self.FRESH)
                 for _ in range(2000)}
        assert picks == set(far.entries)

    def test_stale_candidate_probed(self):
        view = view_at(radius=500.0)
        view.merge([item_at(2, 100.0, 0.0, 400.0, ts=50_000),
                    item_at(3, 300.0, 0.0, 400.0, ts=100)],
                   now_ms=50_000, stale_ms=10**9)
        # node 3's descriptor is far past the staleness window: probe it
        # even though node 2 ranks higher
        got = select_target(view, RandomView(1, 10), set(), Random(0), p_far=0.0,
                            now_ms=50_000, stale_ms=1000)
        assert got == 3

    def test_empty_everything_raises(self):
        with pytest.raises(EmptyViewError):
            select_target(view_at(), RandomView(1, 10), set(), Random(0), p_far=0.0,
                          **self.FRESH)

    def test_falls_back_to_far_when_all_recent(self):
        view = view_at(radius=500.0)
        view.merge([item_at(2, 100.0, 0.0, 400.0)], now_ms=2000, stale_ms=10**9)
        far = random_view_with(1, [item_at(77, 9000.0, 0.0, 10.0)])
        assert select_target(view, far, {2}, Random(0), p_far=0.0, **self.FRESH) == 77

    def test_falls_back_to_ranked_entries_when_nothing_else_is_left(self):
        # the random view is empty and every ranked entry is recent
        view = view_at(radius=500.0)
        view.merge([item_at(2, 100.0, 0.0, 400.0), item_at(3, 800.0, 0.0, 400.0)],
                   now_ms=2000, stale_ms=10**9)
        picks = {select_target(view, RandomView(1, 10), {2, 3}, Random(seed), p_far=0.0,
                               **self.FRESH) for seed in range(50)}
        assert picks == {2, 3}


class TestBufferFor:
    PEER = (10_000.0 / DEG_M, 0.0, 500.0)  # 10 km north of the sender

    @staticmethod
    def sender(ranked=(), rand=(), capacity=C_RANK):
        """Views of node 1 at the origin, with the engine's capacities
        unless told otherwise: the buffer's bounds come from them."""
        view = view_at(owner_id=1, radius=500.0, capacity=capacity)
        if ranked:
            view.merge(list(ranked), now_ms=2000, stale_ms=10**9)
        rv = RandomView(1, C_RAND)
        if rand:
            rv.merge(list(rand), now_ms=2000, period_ms=15_000)
        return view, rv

    def test_own_item_first_and_peer_tailored(self):
        # a ranked view of capacity 1 and no candidate of the peer known:
        # the buffer is the own item and the pool item nearest the peer
        near_me = item_at(2, 100.0, 0.0, 50.0)
        near_peer = item_at(3, 9000.0, 0.0, 50.0)
        view, rv = self.sender(ranked=[near_me], rand=[near_peer], capacity=1)
        own = item_at(1, 0.0, 0.0, 500.0)
        buf = buffer_for(view, rv, own, *self.PEER)
        assert buf[0] is own
        assert [i.node_id for i in buf[1:]] == [3]

    def test_pool_includes_random_view(self):
        view = view_at(owner_id=1, radius=500.0)
        rv = random_view_with(1, [item_at(9, 9800.0, 0.0, 50.0)])
        own = item_at(1, 0.0, 0.0, 500.0)
        buf = buffer_for(view, rv, own, *self.PEER)
        assert 9 in {i.node_id for i in buf}

    def test_own_id_not_duplicated(self):
        view = view_at(owner_id=1, radius=500.0)
        view.merge([item_at(2, 100.0, 0.0, 50.0)], now_ms=2000, stale_ms=10**9)
        rv = random_view_with(1, [item_at(1, 0.0, 0.0, 500.0, ts=1)])
        own = item_at(1, 0.0, 0.0, 500.0, ts=999)
        buf = buffer_for(view, rv, own, 0.0, 0.0, 500.0)
        assert [i.node_id for i in buf].count(1) == 1
        assert buf[0].timestamp_ms == 999

    def test_every_known_candidate_of_the_peer_and_one_more(self):
        # 25 candidates of a peer beside the sender, more than C_RANK; the
        # sender pins them all, as they overlap its own area too
        cands = [item_at(i, 20.0 * i, 0.0, 100.0) for i in range(2, 27)]
        misses = [item_at(i, 3000.0 + 100.0 * i, 0.0, 10.0) for i in range(100, 110)]
        view, rv = self.sender(ranked=cands, rand=misses)
        assert len(view.entries) == 25 > C_RANK
        buf = buffer_for(view, rv, item_at(1, 0.0, 0.0, 500.0), 0.0, 0.0, 500.0)
        assert [i.node_id for i in buf] == [1] + list(range(2, 27)) + [100]

    def test_size_clamps_at_c_rank_and_at_c_rank_plus_c_rand(self):
        own = item_at(1, 0.0, 0.0, 500.0)
        # no candidate of the peer: C_RANK items besides the own one
        misses = [item_at(i, 200_000.0 + 100.0 * i, 0.0, 10.0) for i in range(100, 130)]
        view, rv = self.sender(rand=misses)
        buf = buffer_for(view, rv, own, 0.0, 0.0, 500.0)
        assert [i.node_id for i in buf] == [1] + list(range(100, 100 + C_RANK))
        # 60 candidates of the peer: C_RANK + C_RAND of them, the nearest
        cands = [item_at(i, 5.0 * i, 0.0, 100.0) for i in range(2, 62)]
        view, rv = self.sender(ranked=cands)
        assert len(view.entries) == 60
        buf = buffer_for(view, rv, own, 0.0, 0.0, 500.0)
        assert [i.node_id for i in buf] == [1] + list(range(2, 2 + C_RANK + C_RAND))

    def test_small_pool_sent_whole(self):
        pool = [item_at(i, 1000.0 * i, 0.0, 10.0) for i in range(2, 7)]
        view, rv = self.sender(ranked=pool[:2], rand=pool[2:])
        buf = buffer_for(view, rv, item_at(1, 0.0, 0.0, 500.0), *self.PEER)
        assert len(buf) == 1 + len(pool) < 1 + C_RANK
        assert {i.node_id for i in buf} == set(range(1, 7))

    def test_order_is_gap_then_node_id(self):
        # node 9 and node 4 tie on the gap; node 7 is a candidate of the
        # peer, though farther from it than node 5, which is not
        peer = (0.0, 0.0, 100.0)
        items = [item_at(9, 1000.0, 0.0, 10.0), item_at(4, 1000.0, 0.0, 10.0),
                 item_at(7, 600.0, 0.0, 550.0), item_at(5, 500.0, 0.0, 10.0),
                 item_at(3, 5000.0, 0.0, 10.0)]
        view, rv = self.sender(rand=items)
        buf = buffer_for(view, rv, item_at(1, 0.0, 0.0, 500.0), *peer)
        assert [i.node_id for i in buf] == [1, 7, 5, 4, 9, 3]
        gaps = [d - (peer[2] + it.radius) for it, d in zip(buf[1:], buf.dists[1:])]
        assert gaps == sorted(gaps)

    def test_carries_the_kernel_distance_from_the_peer(self):
        items = [item_at(i, 700.0 * i, 300.0 * i, 10.0) for i in range(2, 30)]
        view, rv = self.sender(ranked=items[:15], rand=items[15:])
        buf = buffer_for(view, rv, item_at(1, 0.0, 0.0, 500.0), *self.PEER)
        assert buf.receiver == self.PEER[:2]
        assert buf.dists == [float(distances_np(*self.PEER[:2], it.latitude, it.longitude))
                             for it in buf]


class TestCandidateList:
    def test_sorted_by_utility_then_id(self):
        view = view_at(radius=500.0)
        strong = item_at(7, 100.0, 0.0, 400.0)
        weak = item_at(2, 850.0, 0.0, 400.0)
        miss = item_at(3, 5000.0, 0.0, 100.0)
        view.merge([strong, weak, miss], now_ms=2000, stale_ms=10**9)
        got = candidate_list(view)
        assert [item.node_id for item, _ in got] == [7, 2]
        assert got[0][1] > got[1][1] > 0.0

    def test_one_record_per_entry(self):
        # the rank key and the listed pair share one record per id
        view = view_at(radius=500.0)
        near, miss = item_at(2, 100.0, 0.0, 400.0), item_at(3, 5000.0, 0.0, 100.0)
        view.merge([near, miss], now_ms=2000, stale_ms=10**9)
        assert not hasattr(view, "keys")
        [pair] = candidate_list(view)
        assert view.entries[2][3] is pair
        for it, utility in ((near, pair[1]), (miss, 0.0)):
            dist = float(distances_np(0.0, 0.0, it.latitude, it.longitude))
            assert view.entries[it.node_id] == (-utility, dist, it.node_id, (it, utility))

    def test_export_lines(self):
        view = view_at(radius=500.0)
        view.merge([item_at(2, 100.0, 0.0, 400.0)], now_ms=2000, stale_ms=10**9)
        [(item, util)] = candidate_list(view)
        assert item.node_id == 2
        assert item.address == IPv4Address("10.0.0.1") + 2
        assert util > 0.0


PERIOD_MS = 15_000


def _wrap_lon(lon):
    lon = math.fmod(lon + 180.0, 360.0)
    if lon < 0.0:
        lon += 360.0
    lon -= 180.0
    return lon if lon < 180.0 else -180.0


class _Stream:
    """One seeded stream of merges and drops for a ranked view.

    Nodes sit near the owner, far along its meridian, or at latitudes a
    few ulps from the owner's; the owner may sit near a pole or on the
    antimeridian.  A node moves from time to time, and an item carries the
    node's position at its timestamp, as with a rejoin, so two copies
    with one timestamp always agree.
    """

    def __init__(self, seed):
        self.seed = seed
        rng = self.rng = Random(seed)
        self.lat = rng.choice([0.0, 59.91, 89.995, -89.995, rng.uniform(-80.0, 80.0)])
        self.lon = rng.choice([0.0, 179.999, -180.0, rng.uniform(-180.0, 180.0)])
        self.radius = rng.choice([0.0, 50.0, rng.uniform(100.0, 600.0)])
        self.capacity = rng.randint(1, 8)
        self.stale_ms = rng.randint(1, 5) * PERIOD_MS
        self.ids = list(range(2, 2 + rng.randint(3, 24)))
        # the owner's own id (1) turns up in batches too
        self.move_every = {nid: rng.choice([1, 2, 3, 10**6]) for nid in [1] + self.ids}
        self.radii = {nid: rng.choice([0.0, rng.uniform(10.0, 600.0)]) for nid in [1] + self.ids}
        self.now_ms = 10 * PERIOD_MS

    def position(self, nid, ts):
        # one position per (node, epoch): the same timestamp, the same place
        epoch = ts // (PERIOD_MS * self.move_every[nid])
        rng = Random((self.seed * 1_000_003 + nid) * 1_000_003 + epoch)
        kind = rng.random()
        if kind < 0.15:
            lat = self.lat
            for _ in range(rng.randint(0, 3)):
                lat = math.nextafter(lat, rng.choice([-90.0, 90.0]))
            return min(90.0, max(-90.0, lat)), self.lon
        spread = 5_000.0 if kind < 0.8 else 200_000.0
        north = rng.uniform(-spread, spread)
        east = rng.uniform(-spread, spread) * (kind < 0.8)
        lat = min(90.0, max(-90.0, self.lat + north / DEG_M))
        coslat = max(math.cos(math.radians(self.lat)), 1e-3)
        return lat, _wrap_lon(self.lon + east / (DEG_M * coslat))

    def item(self, nid, ts):
        lat, lon = self.position(nid, ts)
        return DiscoveryItem(nid, lat, lon, self.radii[nid], IPv4Address("10.0.0.1"), ts)

    def steps(self, count):
        rng = self.rng
        for _ in range(count):
            if rng.random() < 0.4:
                self.now_ms += PERIOD_MS
            if rng.random() < 0.1:
                yield ("drop", rng.choice(self.ids))
                continue
            batch = []
            for _ in range(rng.randint(0, 12)):
                nid = rng.choice(self.ids + [1])
                ts = max(0, self.now_ms - rng.randint(0, 7) * PERIOD_MS)
                batch.append(self.item(nid, ts))
            yield ("merge", batch)


class TestMergeMatchesScoringEverything:
    """RankedView.merge rejects items before scoring them; the entries it
    keeps must be those of scoring every item and then cutting."""

    @staticmethod
    def replay(stream, steps):
        view = RankedView(1, stream.lat, stream.lon, stream.radius, stream.capacity)
        ref = ReferenceRankedView(1, stream.lat, stream.lon, stream.radius, stream.capacity)
        for op, arg in stream.steps(steps):
            for v in (view, ref):
                if op == "drop":
                    v.drop(arg)
                else:
                    v.merge(arg, stream.now_ms, stream.stale_ms)
            assert entry_bits(view) == entry_bits(ref)
        return view

    def test_fuzzed_streams(self):
        rejected = 0
        for seed in range(400):
            view = self.replay(_Stream(seed), 60)
            rejected += view._frontier is not None
        assert rejected > 100  # the frontier was in play in many streams

    def test_moved_node_inside_the_frontier(self):
        # node 2 ranks inside the frontier, then moves away; once its old
        # entry leaves, the frontier is node 3's distance no longer, and
        # node 5, past that old frontier, must enter
        view = RankedView(1, 0.0, 0.0, 100.0, capacity=2)
        ref = ReferenceRankedView(1, 0.0, 0.0, 100.0, capacity=2)
        first = [item_at(2, 1000.0, 0.0, 10.0), item_at(3, 2000.0, 0.0, 10.0),
                 item_at(4, 3000.0, 0.0, 10.0)]
        second = [item_at(2, 5000.0, 0.0, 10.0, ts=2000), item_at(5, 2500.0, 0.0, 10.0, ts=2000)]
        for v in (view, ref):
            v.merge(first, now_ms=2000, stale_ms=10**9)
        assert view._frontier is view.entries[3]
        for v in (view, ref):
            v.merge(second, now_ms=2000, stale_ms=10**9)
        assert sorted(view.entries) == [3, 5]
        assert entry_bits(view) == entry_bits(ref)

    def test_freshest_copy_in_a_batch_wins(self):
        # the batch's newest copy of node 2 sits where the held copy does;
        # an older copy that moved must not replace it
        view = RankedView(1, 0.0, 0.0, 500.0, capacity=20)
        ref = ReferenceRankedView(1, 0.0, 0.0, 500.0, capacity=20)

        def node_2(lat, ts):
            return replace(item_at(2, 0.0, 0.0, 50.0, ts=ts), latitude=lat)

        for v in (view, ref):
            v.merge([node_2(0.001, 1)], now_ms=10, stale_ms=10**9)
            v.merge([node_2(0.002, 5), node_2(0.001, 6)], now_ms=10, stale_ms=10**9)
            assert pair_of(v, 2)[0] == node_2(0.001, 6)
        assert entry_bits(view) == entry_bits(ref)

    def test_latitude_one_ulp_from_the_frontier(self):
        # at latitude 59.91 one ulp of latitude is 0.0 m to the kernel, so
        # node 3 ties the frontier's distance and enters on the id
        # tie-break; a reject on any other measure of the gap (7.9e-10 m
        # along the meridian) would drop it
        lat, lon = 59.91, 10.75
        view = RankedView(1, lat, lon, 0.0, capacity=1)
        ref = ReferenceRankedView(1, lat, lon, 0.0, capacity=1)
        here = [replace(item_at(n, 0.0, 0.0, 0.0), latitude=lat, longitude=lon) for n in (9, 10)]
        ulp = replace(item_at(3, 0.0, 0.0, 0.0), latitude=math.nextafter(lat, 90.0), longitude=lon)
        assert float(distances_np(lat, lon, ulp.latitude, lon)) == 0.0
        for v in (view, ref):
            v.merge(here, now_ms=2000, stale_ms=10**9)
        assert view._frontier[:3] == (-0.0, 0.0, 9)
        for v in (view, ref):
            v.merge([ulp], now_ms=2000, stale_ms=10**9)
        assert sorted(view.entries) == [3]
        assert entry_bits(view) == entry_bits(ref)


class TestCarriedDistances:
    """A buffer from buffer_for carries the receiver's distances to its
    items; merging it must leave what merging the plain list, which calls
    the kernel, leaves."""

    @staticmethod
    def views(seed):
        """A receiver's ranked view after a stream of merges and drops, and
        a buffer for it from a sender that heard part of the same stream."""
        stream = _Stream(seed)
        rng = Random(seed)
        receiver = RankedView(1, stream.lat, stream.lon, stream.radius, stream.capacity)
        sender_id = rng.choice(stream.ids)
        lat, lon = stream.position(sender_id, stream.now_ms)
        sender = RankedView(sender_id, lat, lon, stream.radii[sender_id], rng.randint(1, 8))
        rv = RandomView(sender_id, rng.randint(1, 10))
        for op, arg in stream.steps(rng.randint(0, 40)):
            if op == "drop":
                receiver.drop(arg)
                continue
            receiver.merge(arg, stream.now_ms, stream.stale_ms)
            if arg and rng.random() < 0.5:
                sender.merge(arg, stream.now_ms, stream.stale_ms)
                rv.merge(arg, stream.now_ms, PERIOD_MS)
        own = stream.item(sender_id, stream.now_ms)
        buf = buffer_for(sender, rv, own, stream.lat, stream.lon, stream.radius)
        return stream, receiver, buf

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_same_entries_as_recomputing(self, seed):
        stream, receiver, buf = self.views(seed)
        carried, recomputed = copy.deepcopy(receiver), copy.deepcopy(receiver)
        carried.merge(buf, stream.now_ms, stream.stale_ms)
        recomputed.merge(list(buf), stream.now_ms, stream.stale_ms)
        assert entry_bits(carried) == entry_bits(recomputed)
        assert ({nid: repr(pair[1]) for nid, (*_, pair) in carried.entries.items()}
                == {nid: repr(pair[1]) for nid, (*_, pair) in recomputed.entries.items()})
        assert repr(carried._frontier) == repr(recomputed._frontier)
        assert carried._min_ts == recomputed._min_ts

    def test_carried_merge_calls_no_kernel(self, monkeypatch):
        calls = []
        kernel = overlay.distances_np
        monkeypatch.setattr(overlay, "distances_np", lambda *a: calls.append(a) or kernel(*a))
        merged = 0
        for seed in range(50):
            stream, receiver, buf = self.views(seed)
            before = len(calls)
            receiver.merge(buf, stream.now_ms, stream.stale_ms)
            assert len(calls) == before
            receiver.merge(list(buf), stream.now_ms, stream.stale_ms)
            merged += len(buf) > 1
        assert merged > 25

    def test_other_receiver_recomputes(self):
        # a buffer merged into a view it was not built for is scored anew
        stream, receiver, buf = self.views(7)
        assert len(buf) > 1
        elsewhere = RankedView(1, stream.lat / 2.0, stream.lon, stream.radius, stream.capacity)
        assert (elsewhere.lat, elsewhere.lon) != buf.receiver
        plain = copy.deepcopy(elsewhere)
        elsewhere.merge(buf, stream.now_ms, stream.stale_ms)
        plain.merge(list(buf), stream.now_ms, stream.stale_ms)
        assert entry_bits(elsewhere) == entry_bits(plain)
