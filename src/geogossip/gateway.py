"""Delegation: privacy nodes publish a delegate's endpoint.

A privacy node can delegate its agent to a randomly chosen peer, so its
own endpoint never appears next to its location.  The delegation map
(node id to delegate id, ``Simulation(delegates=...)``) is known only to
the two parties and is never gossiped; ``select_delegate`` draws the
delegates from a capacity pool.
"""

from random import Random


class NoEligibleDelegateError(Exception):
    """No delegate in the pool other than the requester with spare capacity."""


def select_delegate(node_id: int, pool: dict[int, int], rng: Random) -> int:
    """Uniform choice among pool entries other than the requester that
    still have spare capacity; the winner's capacity is decremented."""
    eligible = sorted(nid for nid, cap in pool.items() if nid != node_id and cap > 0)
    if not eligible:
        raise NoEligibleDelegateError(f"no delegate available for node {node_id}")
    chosen = rng.choice(eligible)
    pool[chosen] -= 1
    return chosen
