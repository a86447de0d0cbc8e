from collections import Counter
from random import Random

import pytest
from scipy.stats import chisquare

from geogossip.gateway import NoEligibleDelegateError, select_delegate


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
