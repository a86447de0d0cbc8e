"""Scenario definition, generation, churn schedules, and file round-trip.

A scenario is the full deterministic input to the simulator: node
placement, the gossip period, seed nodes, churn schedule, and the RNG
seed.  The records are frozen, and a Scenario holds its nodes, seeds and
churn as tuples, so the checks made when one is built hold for as long as
it lives.  The file format is line-oriented text (key = value header plus
sectioned tables) so generated files are byte-identical for equal inputs.
"""

import math
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from ipaddress import IPv6Address
from operator import add
from random import Random

from .geometry import METERS_PER_DEG_LAT
from .wire import check_ranges

_ADDR_BASE = 0x2001_0DB8 << 96


class InvalidRegionError(ValueError):
    """Region bounding box is empty or malformed."""


class ScenarioFormatError(ValueError):
    """Scenario file could not be parsed, or holds out-of-range values."""


def address_for(node_id: int) -> IPv6Address:
    """Deterministic synthetic endpoint for a simulated node."""
    return IPv6Address(_ADDR_BASE | (node_id & ((1 << 64) - 1)))


@dataclass(frozen=True)
class Params:
    period_seconds: float = 15.0

    def __post_init__(self):
        # the milliseconds too must be finite, or period_ms cannot round them
        if not (math.isfinite(self.period_seconds * 1000) and self.period_ms >= 1):
            raise ValueError(f"period must be positive: {self.period_seconds}")

    @property
    def period_ms(self) -> int:
        return int(round(self.period_seconds * 1000))


@dataclass(frozen=True, slots=True)
class NodeSpec:
    node_id: int
    latitude: float
    longitude: float
    radius: float

    def __post_init__(self):
        # the ranges of the discovery item the node will emit
        if not 0 <= self.node_id < 1 << 64:
            raise ValueError(f"node_id out of 64-bit range: {self.node_id}")
        check_ranges(self.latitude, self.longitude, self.radius)


@dataclass(frozen=True)
class ChurnEvent:
    round: int
    op: str  # "join" or "leave"
    node: NodeSpec | None = None  # join payload
    node_id: int | None = None  # leave target

    def __post_init__(self):
        if self.op == "join" and self.node is None:
            raise ValueError("join event needs a NodeSpec")
        if self.op == "leave" and self.node_id is None:
            raise ValueError("leave event needs a node id")
        if self.op not in ("join", "leave"):
            raise ValueError(f"unknown churn op: {self.op}")
        if self.round < 0:
            raise ValueError(f"churn round must be >= 0: {self.round}")


@dataclass(frozen=True)
class Scenario:
    nodes: tuple[NodeSpec, ...]
    seeds: tuple[int, ...]
    params: Params = field(default_factory=Params)
    churn: tuple[ChurnEvent, ...] = ()
    rng_seed: int = 0

    def __post_init__(self):
        # tuples, so that neither a later append nor the caller's own list
        # can change what the checks below have passed
        for name in ("nodes", "seeds", "churn"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        ids = [n.node_id for n in self.nodes]
        if len(ids) != len(set(ids)):
            raise ValueError("node ids must be unique")
        initial = set(ids)
        missing = [s for s in self.seeds if s not in initial]
        if missing:
            raise ValueError(f"seeds not present at round 0: {missing}")
        _replay(initial, self.churn)


def _event_id(ev: ChurnEvent) -> int:
    return ev.node.node_id if ev.op == "join" else ev.node_id


def _replay(live: set[int], events) -> None:
    """Apply churn events to a set of live ids in the engine's order: by
    round, then as listed.  Raises ValueError at a join of a live id or a
    leave of one that is not live."""
    for ev in sorted(events, key=lambda ev: ev.round):
        nid = _event_id(ev)
        if (nid in live) == (ev.op == "join"):
            state = "alive" if nid in live else "not alive"
            raise ValueError(f"round {ev.round}: node {nid} cannot {ev.op} while {state}")
        live ^= {nid}


def _radius_law(spec) -> tuple[float, float]:
    """Normalize a radius law, a fixed radius or a (lo, hi) uniform range,
    to a (lo, hi) range."""
    if isinstance(spec, (int, float)):
        lo = hi = float(spec)
    elif isinstance(spec, tuple):
        lo, hi = float(spec[0]), float(spec[1])
    else:
        raise ValueError(f"unknown radius law: {spec!r}")
    if lo < 0 or hi < lo:
        raise ValueError(f"bad radius range: {lo}..{hi}")
    return lo, hi


# the generators place every node north and east of this point
ORIGIN_LAT, ORIGIN_LON = 59.91, 10.75


def _check_region(region: tuple[float, float]) -> tuple[float, float]:
    width, height = region
    if not (width > 0 and height > 0 and math.isfinite(width) and math.isfinite(height)):
        raise InvalidRegionError(f"bad region: {region!r}")
    return width, height


def _to_geo(x: float, y: float) -> tuple[float, float]:
    # x, y >= 0 and the origin lies inside the ranges, so only the upper
    # bounds can be passed
    lat = ORIGIN_LAT + y / METERS_PER_DEG_LAT
    if lat > 90.0:
        raise InvalidRegionError(f"region passes a pole: latitude {lat}")
    lon = ORIGIN_LON + x / (METERS_PER_DEG_LAT * math.cos(math.radians(ORIGIN_LAT)))
    if lon >= 180.0:
        # wrap across the antimeridian; fmod and the one step after it are
        # exact, and the fmod lies in [0, 360)
        lon = math.fmod(lon, 360.0)
        if lon >= 180.0:
            lon -= 360.0
    return lat, lon


def _place(rng: Random, node_id: int, width: float, height: float,
           lo: float, hi: float) -> tuple[float, float, NodeSpec]:
    """One node placed uniformly in the box: x, y and the radius are drawn
    in that order.  Returns the box coordinates and the node."""
    x = rng.uniform(0.0, width)
    y = rng.uniform(0.0, height)
    r = lo if lo == hi else rng.uniform(lo, hi)
    lat, lon = _to_geo(x, y)
    return x, y, NodeSpec(node_id, lat, lon, r)


def generate_scenario(
    n: int,
    region: tuple[float, float],
    radius_law,
    rng_seed: int,
) -> Scenario:
    """Place n nodes uniformly in a width x height (meters) box.

    The seed node is the one farthest from the node centroid, so discovery
    always starts from an unfavorable corner of the deployment.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    width, height = _check_region(region)
    lo, hi = _radius_law(radius_law)
    rng = Random(rng_seed)
    xs, ys, nodes = [], [], []
    for i in range(n):
        x, y, spec = _place(rng, i + 1, width, height, lo, hi)
        nodes.append(spec)
        xs.append(x)
        ys.append(y)
    # left folds: the builtin sum of floats is compensated from Python 3.12
    cx = reduce(add, xs, 0) / n
    cy = reduce(add, ys, 0) / n
    seed_idx = max(range(n), key=lambda i: ((xs[i] - cx) ** 2 + (ys[i] - cy) ** 2, -i))
    return Scenario(nodes=nodes, seeds=[nodes[seed_idx].node_id], rng_seed=rng_seed)


def add_random_churn(
    scenario: Scenario,
    rounds: int,
    rate: float,
    region: tuple[float, float],
    radius_law,
) -> Scenario:
    """Append a join+leave schedule: each round, `rate` fraction of the
    current population joins (fresh ids) and the same count leaves.

    The scenario's own schedule is replayed alongside: a round's
    population includes that round's listed events, which run first, and
    fresh ids start above every id the scenario names.  Seed nodes are
    never removed, so joiners always have a bootstrap point, and neither
    is a node that a later listed event names."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"churn rate must be in [0, 1]: {rate}")
    rng = Random(scenario.rng_seed ^ 0xC4A12)
    lo, hi = _radius_law(radius_law)
    width, height = _check_region(region)
    live = {n.node_id for n in scenario.nodes}
    protected = set(scenario.seeds)
    last_named: dict[int, int] = {}  # id -> the last round a listed event names it
    for ev in scenario.churn:
        nid = _event_id(ev)
        last_named[nid] = max(ev.round, last_named.get(nid, ev.round))
    next_id = max(live | set(last_named), default=0) + 1
    events = list(scenario.churn)
    for r in range(rounds):
        _replay(live, [ev for ev in scenario.churn if ev.round == r])
        count = int(round(rate * len(live)))
        for _ in range(count):
            _, _, spec = _place(rng, next_id, width, height, lo, hi)
            events.append(ChurnEvent(r, "join", node=spec))
            live.add(next_id)
            next_id += 1
        # this round's joiners are removable, so there are at least count
        removable = sorted(nid for nid in live - protected if last_named.get(nid, r) <= r)
        for _ in range(count):
            victim = removable.pop(rng.randrange(len(removable)))
            events.append(ChurnEvent(r, "leave", node_id=victim))
            live.discard(victim)
    return replace(scenario, churn=events)


def four_node_demo() -> Scenario:
    """Four nodes A(1), B(2), C(3), D(4) arranged so that the big-disk
    node D overlaps everyone, C overlaps only D, and A and B overlap each
    other and D."""
    placements = [
        (1, 0.0, 0.0, 100.0),    # A
        (2, 150.0, 0.0, 100.0),  # B
        (3, 75.0, 480.0, 50.0),  # C
        (4, 75.0, 200.0, 300.0), # D
    ]
    nodes = []
    for nid, x, y, r in placements:
        lat, lon = _to_geo(x, y)
        nodes.append(NodeSpec(nid, lat, lon, r))
    return Scenario(nodes=nodes, seeds=[1], rng_seed=1)


# --- scenario file round trip ------------------------------------------------

# the header keys, in file order, and the type that parses each value
_PARAM_FIELDS = tuple((f.name, f.type) for f in fields(Params))


def dumps(s: Scenario) -> str:
    lines = ["# geogossip scenario v1", f"rng_seed = {s.rng_seed}"]
    for name, _ in _PARAM_FIELDS:
        lines.append(f"{name} = {getattr(s.params, name)!r}")
    lines.append("")
    lines.append("[nodes]")
    lines.append("# id latitude longitude radius_m")
    for n in s.nodes:
        lines.append(f"{n.node_id} {n.latitude!r} {n.longitude!r} {n.radius!r}")
    lines.append("")
    lines.append("[seeds]")
    for sid in s.seeds:
        lines.append(str(sid))
    if s.churn:
        lines.append("")
        lines.append("[churn]")
        lines.append("# round op id [latitude longitude radius_m]")
        for ev in s.churn:
            if ev.op == "join":
                n = ev.node
                lines.append(
                    f"{ev.round} join {n.node_id} {n.latitude!r} {n.longitude!r} {n.radius!r}"
                )
            else:
                lines.append(f"{ev.round} leave {ev.node_id}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> Scenario:
    header: dict[str, str] = {}
    section = None
    nodes: list[NodeSpec] = []
    seeds: list[int] = []
    churn: list[ChurnEvent] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
                if section not in ("nodes", "seeds", "churn"):
                    raise ValueError(f"unknown section {section!r}")
            elif section is None:
                key, sep, value = line.partition("=")
                if not sep:
                    raise ValueError(f"expected 'key = value', got {line!r}")
                key = key.strip()
                if key in header:
                    raise ValueError(f"header key {key!r} given twice")
                header[key] = value.strip()
            elif section == "nodes":
                nid, lat, lon, r = line.split()
                nodes.append(NodeSpec(int(nid), float(lat), float(lon), float(r)))
            elif section == "seeds":
                seeds.append(int(line))
            else:
                rnd, op, *rest = line.split()
                if op == "join":
                    nid, lat, lon, r = rest
                    churn.append(ChurnEvent(int(rnd), "join", node=NodeSpec(
                        int(nid), float(lat), float(lon), float(r))))
                elif op == "leave":
                    (nid,) = rest
                    churn.append(ChurnEvent(int(rnd), "leave", node_id=int(nid)))
                else:
                    raise ValueError(f"unknown churn op {op!r}")
        except ValueError as exc:
            raise ScenarioFormatError(f"line {lineno}: {exc}") from exc
    try:
        params = Params(**{name: conv(header.pop(name)) for name, conv in _PARAM_FIELDS
                           if name in header})
        rng_seed = int(header.pop("rng_seed", "0"))
        if header:
            raise ValueError(f"unknown header keys: {sorted(header)}")
        return Scenario(nodes=nodes, seeds=seeds, params=params, churn=churn, rng_seed=rng_seed)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(s))


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"not an ASCII scenario file: {exc}") from exc
    return loads(text)
