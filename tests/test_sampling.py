from collections import Counter
from dataclasses import replace
from random import Random

import pytest
from scipy.stats import chisquare

from geogossip import sampling
from geogossip.sampling import (
    EmptyViewError,
    RandomView,
    make_push_buffer,
    merge_random,
    sample_partner,
)
from geogossip.scenario import four_node_demo
from geogossip.simulate import Simulation
from helpers import AgedRandomView, ReferenceRandomView, random_item

PERIOD = 15_000
NOW = 1_000 * PERIOD


def merge_aged(view, items, age):
    """Merge items stamped `age` gossip periods before NOW."""
    view.merge([replace(it, timestamp_ms=NOW - age * PERIOD) for it in items])


def fill(view, rng, n, age=0):
    items = [random_item(rng, node_id=1000 + i) for i in range(n)]
    merge_aged(view, items, age)
    return items


class TestRandomView:
    def test_never_stores_self(self):
        rng = Random(20)
        view = RandomView(owner_id=1000, capacity=10)
        fill(view, rng, 5)
        assert 1000 not in view.entries

    def test_dedup_keeps_freshest(self):
        rng = Random(21)
        view = RandomView(owner_id=1, capacity=10)
        item = random_item(rng, node_id=5)
        merge_aged(view, [item], 4)
        merge_aged(view, [item], 1)
        assert view.entries[5].timestamp_ms == NOW - PERIOD
        merge_aged(view, [item], 3)
        assert view.entries[5].timestamp_ms == NOW - PERIOD  # older copy ignored

    def test_equal_age_keeps_held_copy(self):
        # the timestamp is the view's only clock: a copy of the held
        # timestamp does not replace the held one, whatever else it carries,
        # and a copy newer by a millisecond does
        rng = Random(25)
        view = RandomView(owner_id=1, capacity=10)
        held = replace(random_item(rng, node_id=5), timestamp_ms=NOW - PERIOD)
        moved = replace(held, latitude=-held.latitude, radius=held.radius + 1.0)
        view.merge([held])
        view.merge([moved])
        assert view.entries[5] is held
        later = replace(moved, timestamp_ms=held.timestamp_ms + 1)
        view.merge([later])
        assert view.entries[5] is later

    def test_capacity_bound_evicts_oldest(self):
        rng = Random(22)
        view = RandomView(owner_id=1, capacity=10)
        fill(view, rng, 10, age=5)
        young = [random_item(rng, node_id=2000 + i) for i in range(4)]
        merge_aged(view, young, 0)
        assert len(view.entries) == 10
        for it in young:
            assert it.node_id in view.entries

    def test_tick_leaves_entries_unchanged(self):
        # an item's age is read off its timestamp, so the end of a round
        # has nothing to update
        rng = Random(23)
        view = RandomView(owner_id=1, capacity=10)
        fill(view, rng, 4, age=2)
        before = list(view.entries.items())
        view.tick()
        assert len(view.entries) == len(before)
        assert all(a == nid and b is item
                   for (a, b), (nid, item) in zip(view.entries.items(), before))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RandomView(owner_id=1, capacity=0)

    def test_eviction_not_id_biased(self):
        # equal-age ties must not systematically evict the same ids from
        # every view, or high ids would vanish overlay-wide
        rng = Random(24)
        items = [random_item(rng, node_id=i) for i in range(40)]
        survivors = Counter()
        for owner in range(200):
            view = RandomView(owner_id=10_000 + owner, capacity=20)
            merge_aged(view, items, 1)
            for nid in view.entries:
                survivors[nid] += 1
        assert len(survivors) == 40  # every id survives in some view


def same_entries(view, held: dict) -> bool:
    """Whether view holds the ids of held, each with the very item held."""
    return (view.entries.keys() == held.keys()
            and all(view.entries[nid] is item for nid, item in held.items()))


class TestEvictionMatchesSaltingEverything:
    """RandomView salts only the timestamp tied at the capacity cut; it
    must keep the ids and items of a view that salts every entry and sorts
    on (newest timestamp, salt)."""

    @staticmethod
    def replay(seed, steps=80):
        rng = Random(seed)
        owner = rng.choice([0, 1, 7, rng.getrandbits(64)])
        capacity = rng.randint(1, 12)
        ids = [owner] + rng.sample(range(1, 10_000), rng.randint(capacity, 3 * capacity + 4))
        view, ref = RandomView(owner, capacity), ReferenceRandomView(owner, capacity)
        now = NOW
        for _ in range(steps):
            op = rng.random()
            if op < 0.1:
                now += PERIOD
                view.tick()
            elif op < 0.2:
                nid = rng.choice(ids)
                view.drop(nid)
                ref.drop(nid)
            else:
                # few distinct timestamps, some off the period grid, so the
                # cut often falls inside a tie
                batch = [replace(random_item(rng, node_id=rng.choice(ids)),
                                 timestamp_ms=now - rng.randint(0, 3) * PERIOD
                                 + rng.choice([0, 0, 1, PERIOD - 1]))
                         for _ in range(rng.randint(0, 2 * capacity))]
                view.merge(batch)
                ref.merge(batch)
            assert same_entries(view, ref.entries)
        return view

    def test_fuzzed_streams(self):
        views = [self.replay(seed) for seed in range(300)]
        assert sum(len(v.entries) == v.capacity for v in views) > 200  # most ended full

    def test_salts_only_the_age_at_the_cut(self, monkeypatch):
        salted = []
        salt = sampling._salt64
        monkeypatch.setattr(sampling, "_salt64", lambda o, n: salted.append(n) or salt(o, n))
        rng = Random(35)
        items = [random_item(rng, node_id=i) for i in range(2, 8)]
        view = RandomView(owner_id=1, capacity=3)
        # ages 0, 1, 2, 3, 4, 5: no tie at the cut, nothing salted
        for age, item in enumerate(items):
            merge_aged(view, [item], age)
        assert salted == [] and sorted(view.entries) == [2, 3, 4]
        # ages 0, 1, 1, 1, 1 against 3 places: the four of age 1 are salted
        view = RandomView(owner_id=1, capacity=3)
        merge_aged(view, items[:1], 0)
        merge_aged(view, items[1:5], 1)
        assert sorted(salted) == [3, 4, 5, 6]
        assert len(view.entries) == 3 and 2 in view.entries

    def test_entries_are_the_merged_items(self):
        # a view stores nothing per entry but the item it received: no
        # salt, no age, no wrapper
        rng = Random(36)
        items = [random_item(rng, node_id=i) for i in range(2, 8)]
        view = RandomView(owner_id=1, capacity=10)
        view.merge(items)
        assert same_entries(view, {it.node_id: it for it in items})


class TestTimestampOrderMatchesAges:
    """On engine traffic, ordering on the timestamp keeps what ordering on
    ages kept.  The oracle is the view that aged every entry at each tick
    and derived a merged item's age from its timestamp; both are fed
    streams whose timestamps lie on the period grid, none later than now,
    with now advancing by whole periods.  After every merge, drop or tick
    both must hold the same ids and the same items."""

    @staticmethod
    def replay(seed, steps=120):
        rng = Random(seed)
        owner = rng.choice([0, 1, 7, rng.getrandbits(64)])
        capacity = rng.randint(1, 12)
        ids = [owner] + rng.sample(range(1, 10_000), rng.randint(capacity, 3 * capacity + 4))
        view, aged = RandomView(owner, capacity), AgedRandomView(owner, capacity)
        now = NOW
        for _ in range(steps):
            op = rng.random()
            if op < 0.15:
                now += PERIOD
                view.tick()
                aged.tick()
            elif op < 0.25:
                nid = rng.choice(ids)
                view.drop(nid)
                aged.drop(nid)
            else:
                batch = [replace(random_item(rng, node_id=rng.choice(ids)),
                                 timestamp_ms=now - rng.randint(0, 4) * PERIOD)
                         for _ in range(rng.randint(0, 2 * capacity))]
                view.merge(batch)
                aged.merge(batch, now, PERIOD)
            assert same_entries(view, {nid: item for nid, (item, _) in aged.entries.items()})
        return view

    def test_engine_streams(self):
        views = [self.replay(seed) for seed in range(300)]
        assert sum(len(v.entries) == v.capacity for v in views) > 200  # most ended full


class TestBootstrap:
    def test_empty_seed_list_rejected(self):
        # a view bootstrapped from no seeds has nobody to exchange with
        view = RandomView(owner_id=1, capacity=10)
        view.merge([])
        with pytest.raises(EmptyViewError):
            sample_partner(view, Random(0))

    def test_seeds_enter_at_age_zero(self):
        sim = Simulation(four_node_demo())  # node 1 is the only seed
        for nid in (2, 3, 4):
            view = sim.nodes[nid].random_view
            assert list(view.entries) == [1]
            assert view.entries[1].timestamp_ms == 0  # stamped in round 0


class TestPartnerSelection:
    def test_empty_view_raises(self):
        view = RandomView(owner_id=1, capacity=10)
        with pytest.raises(EmptyViewError):
            sample_partner(view, Random(0))

    def test_oldest_strategy_picks_max_age(self):
        rng = Random(26)
        view = RandomView(owner_id=1, capacity=10)
        fill(view, rng, 5, age=1)
        old = random_item(rng, node_id=9999)
        merge_aged(view, [old], 7)
        for _ in range(20):
            assert sample_partner(view, rng) == 9999

    def test_tie_break_uniform_chi_square(self):
        # 50 equal-age entries, 10k draws: frequencies consistent with uniform
        rng = Random(27)
        view = RandomView(owner_id=1, capacity=60)
        fill(view, rng, 50, age=3)
        counts = Counter(sample_partner(view, rng) for _ in range(10_000))
        assert len(counts) == 50
        _, p = chisquare(list(counts.values()))
        assert p > 0.01


class TestBuffers:
    def test_own_item_first(self):
        rng = Random(29)
        view = RandomView(owner_id=1, capacity=40)
        fill(view, rng, 30)
        own = random_item(rng, node_id=1)
        buf = make_push_buffer(view, own, half=15, rng=rng)
        assert buf[0] is own
        assert len(buf) == 16
        assert len({i.node_id for i in buf}) == 16

    def test_buffer_capped_by_view_size(self):
        rng = Random(30)
        view = RandomView(owner_id=1, capacity=40)
        fill(view, rng, 4)
        own = random_item(rng, node_id=1)
        buf = make_push_buffer(view, own, half=15, rng=rng)
        assert len(buf) == 5

    def test_sample_exchange_returns_partner_and_buffer(self):
        rng = Random(31)
        view = RandomView(owner_id=1, capacity=40)
        fill(view, rng, 20, age=2)
        own = random_item(rng, node_id=1)
        partner = sample_partner(view, rng)
        buf = make_push_buffer(view, own, half=15, rng=rng)
        assert partner in view.entries
        assert buf[0] is own


class TestAgeFromTimestamp:
    """An item's age in periods is (now - timestamp) // period, read off
    the item the view holds."""

    def test_age_reconstruction(self):
        rng = Random(32)
        item = random_item(rng, node_id=3)
        item = replace(item, timestamp_ms=100_000)
        view = RandomView(owner_id=1, capacity=10)
        merge_random(view, [item])
        assert view.entries[3] is item
        assert (160_000 - view.entries[3].timestamp_ms) // 15_000 == 4

    def test_future_timestamp_counts_as_newest(self):
        # nothing clamps a timestamp later than now: it is the newest,
        # kept first at the capacity cut and chosen as partner last
        rng = Random(33)
        view = RandomView(owner_id=1, capacity=2)
        stamps = {3: 100_000, 4: 200_000, 5: 150_000}
        merge_random(view, [replace(random_item(rng, node_id=n), timestamp_ms=ts)
                            for n, ts in stamps.items()])
        assert sorted(view.entries) == [4, 5]
        assert sample_partner(view, rng) == 5

    def test_merge_random_uses_derived_ages(self):
        # at now 120 s, the held copy is 2 periods old: a copy 4 periods
        # old is ignored and one 1 period old replaces it
        rng = Random(34)
        view = RandomView(owner_id=1, capacity=10)
        fresh = replace(random_item(rng, node_id=2), timestamp_ms=90_000)
        merge_random(view, [fresh])
        merge_random(view, [replace(fresh, timestamp_ms=60_000)])
        assert view.entries[2] is fresh
        newer = replace(fresh, timestamp_ms=105_000)
        merge_random(view, [newer])
        assert view.entries[2] is newer
