from collections import Counter
from dataclasses import replace
from ipaddress import IPv4Address, IPv6Address
from random import Random

import pytest
from scipy.stats import chisquare

from geogossip.gateway import (
    AgentRegistry,
    CapacityExceededError,
    CompositeId,
    DuplicateLocalIdError,
    NoEligibleDelegateError,
    local_discover,
    select_delegate,
)
from helpers import random_item

AGENT = IPv6Address("2001:db8::aa")


class TestAgentRegistry:
    def test_register_rewrites_address(self):
        reg = AgentRegistry()
        reg.add_agent(AGENT, capacity=4)
        rng = Random(50)
        ap = random_item(rng, node_id=7)
        cid = reg.register_ap(AGENT, ap)
        assert cid == CompositeId(AGENT, 1)
        stored = reg.resolve(cid)
        assert stored.address == AGENT
        assert replace(stored, address=ap.address) == ap

    def test_local_ids_unique_and_sequential(self):
        reg = AgentRegistry()
        reg.add_agent(AGENT, capacity=5)
        rng = Random(51)
        cids = [reg.register_ap(AGENT, random_item(rng)) for _ in range(3)]
        assert [c.local_id for c in cids] == [1, 2, 3]
        assert all(c.agent == AGENT for c in cids)

    def test_explicit_local_id(self):
        reg = AgentRegistry()
        reg.add_agent(AGENT, capacity=5)
        rng = Random(52)
        cid = reg.register_ap(AGENT, random_item(rng), local_id=9)
        assert cid.local_id == 9
        with pytest.raises(DuplicateLocalIdError):
            reg.register_ap(AGENT, random_item(rng), local_id=9)

    def test_capacity_enforced(self):
        reg = AgentRegistry()
        reg.add_agent(AGENT, capacity=2)
        rng = Random(53)
        reg.register_ap(AGENT, random_item(rng))
        assert reg.spare_slots(AGENT) == 1
        reg.register_ap(AGENT, random_item(rng))
        assert reg.spare_slots(AGENT) == 0
        with pytest.raises(CapacityExceededError):
            reg.register_ap(AGENT, random_item(rng))

    def test_resolve_unknown(self):
        reg = AgentRegistry()
        with pytest.raises(KeyError):
            reg.resolve(CompositeId(AGENT, 1))

    def test_agents_isolated(self):
        other = IPv6Address("2001:db8::bb")
        reg = AgentRegistry()
        reg.add_agent(AGENT, capacity=3)
        reg.add_agent(other, capacity=3)
        rng = Random(54)
        a = reg.register_ap(AGENT, random_item(rng))
        b = reg.register_ap(other, random_item(rng))
        assert a.local_id == b.local_id == 1
        assert reg.resolve(a).address == AGENT
        assert reg.resolve(b).address == other


class TestLocalDiscover:
    def test_dedup_keeps_freshest(self):
        rng = Random(55)
        ap = random_item(rng, node_id=3)
        older = replace(ap, timestamp_ms=ap.timestamp_ms - 1 if ap.timestamp_ms else 0)
        out = local_discover([older, ap, older])
        assert out == [ap]

    def test_sorted_by_node_id(self):
        rng = Random(56)
        items = [random_item(rng, node_id=i) for i in (5, 1, 3)]
        out = local_discover(items)
        assert [i.node_id for i in out] == [1, 3, 5]

    def test_empty(self):
        assert local_discover([]) == []


class TestSelectDelegate:
    def test_excludes_requester_and_full(self):
        pool = {1: 0, 2: 3, 3: 3}
        rng = Random(57)
        for _ in range(6):
            pool_copy = dict(pool)
            chosen = select_delegate(9, pool_copy, rng)
            assert chosen in (2, 3)
        chosen = select_delegate(2, {1: 0, 2: 3, 3: 1}, rng)
        assert chosen == 3

    def test_capacity_decremented(self):
        pool = {2: 1, 3: 5}
        rng = Random(58)
        chosen = select_delegate(1, pool, rng)
        assert pool[chosen] == (0 if chosen == 2 else 4)

    def test_exhaustion_raises(self):
        with pytest.raises(NoEligibleDelegateError):
            select_delegate(1, {1: 5, 2: 0}, Random(0))
        with pytest.raises(NoEligibleDelegateError):
            select_delegate(1, {}, Random(0))

    def test_uniform_choice_chi_square(self):
        rng = Random(59)
        counts = Counter()
        for _ in range(10_000):
            pool = {i: 1 for i in range(20)}
            counts[select_delegate(99, pool, rng)] += 1
        assert len(counts) == 20
        _, p = chisquare(list(counts.values()))
        assert p > 0.01
