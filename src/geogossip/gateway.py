"""Agent deployment mapping: many access points behind one endpoint.

Enterprises keep access points behind a firewall, so one agent fronts
them all: each AP gets a composite identifier (agent endpoint + locally
unique id) and its discovery items carry the agent's address.  Agents
find their local APs with a broadcast-response probe (modeled here as a
deduplicated responder set).  Privacy nodes can additionally delegate
their agent to a randomly chosen peer so their own endpoint never
appears next to their location.  The delegation map (node id to
delegate id, ``Simulation(delegates=...)``) is known only to the two
parties and is never gossiped.
"""

from dataclasses import dataclass, replace
from ipaddress import IPv4Address, IPv6Address
from random import Random

from .wire import DiscoveryItem


class CapacityExceededError(Exception):
    """Agent has no spare slots for another access point."""


class DuplicateLocalIdError(Exception):
    """Local identifier already registered under this agent."""


class NoEligibleDelegateError(Exception):
    """No delegate in the pool other than the requester with spare capacity."""


@dataclass(frozen=True)
class CompositeId:
    agent: IPv4Address | IPv6Address
    local_id: int


class AgentRegistry:
    """Per-agent mapping from composite ids to registered AP items."""

    def __init__(self):
        self._agents: dict[object, dict[int, DiscoveryItem]] = {}
        self._capacity: dict[object, int] = {}
        self._next_local: dict[object, int] = {}

    def add_agent(self, endpoint, capacity: int):
        self._agents.setdefault(endpoint, {})
        self._capacity[endpoint] = capacity
        self._next_local.setdefault(endpoint, 1)

    def spare_slots(self, endpoint) -> int:
        return self._capacity.get(endpoint, 0) - len(self._agents.get(endpoint, {}))

    def register_ap(self, endpoint, ap: DiscoveryItem, local_id: int | None = None) -> CompositeId:
        """Store the AP under the agent, rewriting its address to the
        agent endpoint, and return its composite id."""
        if endpoint not in self._agents:
            self.add_agent(endpoint, capacity=1)
        table = self._agents[endpoint]
        if len(table) >= self._capacity[endpoint]:
            raise CapacityExceededError(f"agent {endpoint} is full")
        if local_id is None:
            local_id = self._next_local[endpoint]
            while local_id in table:
                local_id += 1
            self._next_local[endpoint] = local_id + 1
        elif local_id in table:
            raise DuplicateLocalIdError(f"local id {local_id} already used by {endpoint}")
        table[local_id] = replace(ap, address=endpoint)
        return CompositeId(endpoint, local_id)

    def resolve(self, cid: CompositeId) -> DiscoveryItem:
        try:
            return self._agents[cid.agent][cid.local_id]
        except KeyError:
            raise KeyError(f"unknown composite id {cid}") from None


def local_discover(responders: list[DiscoveryItem]) -> list[DiscoveryItem]:
    """One broadcast probe on the agent's LAN segment.

    Every live responder answers at least once; retransmissions are
    deduplicated by node id (freshest timestamp wins).
    """
    best: dict[int, DiscoveryItem] = {}
    for item in responders:
        cur = best.get(item.node_id)
        if cur is None or item.timestamp_ms > cur.timestamp_ms:
            best[item.node_id] = item
    return [best[nid] for nid in sorted(best)]


def select_delegate(node_id: int, pool: dict[int, int], rng: Random) -> int:
    """Uniform choice among pool entries other than the requester that
    still have spare capacity; the winner's capacity is decremented."""
    eligible = sorted(nid for nid, cap in pool.items() if nid != node_id and cap > 0)
    if not eligible:
        raise NoEligibleDelegateError(f"no delegate available for node {node_id}")
    chosen = rng.choice(eligible)
    pool[chosen] -= 1
    return chosen
