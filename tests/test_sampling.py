from collections import Counter
from dataclasses import replace
from random import Random

import pytest
from scipy.stats import chisquare

from geogossip import sampling
from geogossip.sampling import (
    EmptyViewError,
    PeerDescriptor,
    RandomView,
    make_push_buffer,
    merge_random,
    sample_partner,
)
from geogossip.scenario import four_node_demo
from geogossip.simulate import Simulation
from helpers import ReferenceRandomView, random_item

PERIOD = 15_000
NOW = 1_000 * PERIOD


def merge_aged(view, items, age):
    """Merge items stamped `age` gossip periods before NOW."""
    view.merge([replace(it, timestamp_ms=NOW - age * PERIOD) for it in items], NOW, PERIOD)


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
        assert view.entries[5].age == 1
        merge_aged(view, [item], 3)
        assert view.entries[5].age == 1  # older copy ignored

    def test_equal_age_keeps_held_copy(self):
        # age is the view's only clock: a copy of the same age does not
        # replace the held one, whatever its timestamp
        rng = Random(25)
        view = RandomView(owner_id=1, capacity=10)
        held = replace(random_item(rng, node_id=5), timestamp_ms=NOW - 2 * PERIOD + 1)
        later = replace(held, timestamp_ms=NOW - PERIOD)
        view.merge([held], NOW, PERIOD)
        view.merge([later], NOW, PERIOD)
        assert view.entries[5].item is held

    def test_capacity_bound_evicts_oldest(self):
        rng = Random(22)
        view = RandomView(owner_id=1, capacity=10)
        fill(view, rng, 10, age=5)
        young = [random_item(rng, node_id=2000 + i) for i in range(4)]
        merge_aged(view, young, 0)
        assert len(view.entries) == 10
        for it in young:
            assert it.node_id in view.entries

    def test_tick_ages_everything(self):
        rng = Random(23)
        view = RandomView(owner_id=1, capacity=10)
        fill(view, rng, 4, age=2)
        view.tick()
        assert all(d.age == 3 for d in view.entries.values())

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


class TestEvictionMatchesSaltingEverything:
    """RandomView salts only the age tied at the capacity cut; it must keep
    the ids and ages of a view that salts every entry and sorts on
    (age, salt)."""

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
                ref.tick()
            elif op < 0.2:
                nid = rng.choice(ids)
                view.drop(nid)
                ref.drop(nid)
            else:
                # few distinct ages, so the cut often falls inside a tie
                batch = [replace(random_item(rng, node_id=rng.choice(ids)),
                                 timestamp_ms=now - rng.randint(0, 3) * PERIOD
                                 + rng.choice([0, 0, 1, PERIOD - 1]))
                         for _ in range(rng.randint(0, 2 * capacity))]
                view.merge(batch, now, PERIOD)
                ref.merge(batch, now, PERIOD)
            assert ({nid: (d.item, d.age) for nid, d in view.entries.items()}
                    == {nid: (item, age) for nid, (item, age) in ref.entries.items()})
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

    def test_a_descriptor_holds_no_salt(self):
        assert tuple(PeerDescriptor.__slots__) == ("item", "age")


class TestBootstrap:
    def test_empty_seed_list_rejected(self):
        # a view bootstrapped from no seeds has nobody to exchange with
        view = RandomView(owner_id=1, capacity=10)
        view.merge([], NOW, PERIOD)
        with pytest.raises(EmptyViewError):
            sample_partner(view, Random(0))

    def test_seeds_enter_at_age_zero(self):
        sim = Simulation(four_node_demo())  # node 1 is the only seed
        for nid in (2, 3, 4):
            view = sim.nodes[nid].random_view
            assert list(view.entries) == [1]
            assert view.entries[1].age == 0


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
    def test_age_reconstruction(self):
        rng = Random(32)
        item = random_item(rng, node_id=3)
        item = replace(item, timestamp_ms=100_000)
        view = RandomView(owner_id=1, capacity=10)
        merge_random(view, [item], now_ms=160_000, period_ms=15_000)
        assert view.entries[3].age == 4

    def test_future_timestamp_clamps_to_zero(self):
        rng = Random(33)
        item = random_item(rng, node_id=3)
        item = replace(item, timestamp_ms=200_000)
        view = RandomView(owner_id=1, capacity=10)
        merge_random(view, [item], now_ms=100_000, period_ms=15_000)
        assert view.entries[3].age == 0

    def test_merge_random_uses_derived_ages(self):
        rng = Random(34)
        view = RandomView(owner_id=1, capacity=10)
        fresh = replace(random_item(rng, node_id=2), timestamp_ms=90_000)
        merge_random(view, [fresh], now_ms=120_000, period_ms=15_000)
        assert view.entries[2].age == 2
