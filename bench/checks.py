"""Output checks of the benchmark, written apart from the program.

Nothing here imports ``geogossip.geometry`` or ``geogossip.spectrum``: the
candidate oracle, the lens areas, the interference edges and the channel
conflicts are all recomputed from the scenario and the program's outputs
with this module's own code.  Each check takes the program's outputs and
the scenario truth and returns ``(ok, detail)``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

EARTH_RADIUS_M = 6_371_000.0  # mean Earth radius, the sphere the method uses
FRAME_BYTES = 56  # one discovery item on the wire
TANGENT_TOL_M = 1e-6  # |d - (r_a + r_b)| within this is too close to call
UTIL_ABS_TOL_M2 = 1e-3  # utility tolerance: abs + rel * reference area
UTIL_REL_TOL = 1e-8
SUM_REL_TOL = 1e-9  # sums of the same terms taken in another order
MAX_BYTES_PER_NODE_S = 600.0
CHANNELS = 3
ORACLE_BLOCK = 256  # rows of the pairwise oracle computed at once


def haversine(lat1, lon1, lat2, lon2):
    """Great-circle distance in meters between arrays of points in degrees."""
    p1 = np.deg2rad(lat1)
    p2 = np.deg2rad(lat2)
    half_dp = np.deg2rad(np.subtract(lat2, lat1)) * 0.5
    half_dl = np.deg2rad(np.subtract(lon2, lon1)) * 0.5
    a = np.sin(half_dp) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(half_dl) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def lens_area(d, r1, r2):
    """Overlap of two disks as the sum of their two circular segments."""
    d, r1, r2 = np.broadcast_arrays(
        np.asarray(d, float), np.asarray(r1, float), np.asarray(r2, float))
    area = np.zeros(d.shape)
    inside = d <= np.abs(r1 - r2)
    area[inside] = math.pi * np.minimum(r1, r2)[inside] ** 2
    lens = ~inside & (d < r1 + r2)
    d, r1, r2 = d[lens], r1[lens], r2[lens]
    # half-angle each chord subtends at each centre, by the law of cosines
    h1 = np.arccos(np.clip((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1), -1.0, 1.0))
    h2 = np.arccos(np.clip((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2), -1.0, 1.0))
    area[lens] = r1 * r1 * (h1 - np.sin(h1) * np.cos(h1)) + r2 * r2 * (h2 - np.sin(h2) * np.cos(h2))
    return area


@dataclass
class Truth:
    """What the scenario alone says the outputs must be."""

    specs: dict  # node id -> (lat, lon, radius) of every node that ever lived
    live_final: list  # ids alive after the last round
    live_counts: list  # live nodes in each round
    churn: bool
    _oracle: tuple | None = field(default=None, repr=False)

    def oracle(self):
        """(live candidate sets, ambiguous ordered pairs) over the final
        membership, from this module's own pairwise haversine."""
        if self._oracle is None:
            self._oracle = candidate_oracle({i: self.specs[i] for i in self.live_final})
        return self._oracle

    def gaps(self, owners, others):
        """Centre distance minus the sum of radii for each (owner, other)."""
        a = np.array([self.specs[i] for i in owners], float).reshape(-1, 3)
        b = np.array([self.specs[i] for i in others], float).reshape(-1, 3)
        d = haversine(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
        return d, d - (a[:, 2] + b[:, 2]), a[:, 2], b[:, 2]


def candidate_oracle(specs):
    """Exhaustive candidate sets: b is a candidate of a when their disks
    overlap by more than TANGENT_TOL_M.  Pairs within the tolerance of
    tangency belong to neither side and are returned apart."""
    ids = np.array(sorted(specs))
    arr = np.array([specs[i] for i in ids], float).reshape(-1, 3)
    lat, lon, rad = arr[:, 0], arr[:, 1], arr[:, 2]
    cands = {int(i): set() for i in ids}
    ambiguous = set()
    for lo in range(0, len(ids), ORACLE_BLOCK):
        hi = min(lo + ORACLE_BLOCK, len(ids))
        d = haversine(lat[lo:hi, None], lon[lo:hi, None], lat[None, :], lon[None, :])
        gap = d - (rad[lo:hi, None] + rad[None, :])
        rows = np.arange(hi - lo)
        gap[rows, rows + lo] = np.inf  # a node is not its own candidate
        for r, c in zip(*np.nonzero(gap < -TANGENT_TOL_M)):
            cands[int(ids[lo + r])].add(int(ids[c]))
        for r, c in zip(*np.nonzero(np.abs(gap) <= TANGENT_TOL_M)):
            ambiguous.add((int(ids[lo + r]), int(ids[c])))
    return cands, ambiguous


@dataclass
class Outputs:
    """The program's outputs after the last round, as plain values."""

    lists: dict  # owner id -> [(candidate id, utility), ...] in list order
    edges: dict  # (a, b) with a < b -> weight, from the interference graph
    vertices: set
    assignment: dict  # node id -> channel
    conflict: float  # conflict_m2 as the program reports it
    recalls: list  # mean recall per round
    live: list  # live nodes per round
    total_bytes: int
    total_descriptors: int
    bytes_per_node_s: float


def listed_pairs(out):
    return [(a, b) for a, entries in out.lists.items() for b, _ in entries]


def candidates_found(out, truth):
    """Ordered listed pairs (a, b) where the oracle says b is a live candidate of a."""
    cands, _ = truth.oracle()
    return sum(1 for a, b in listed_pairs(out) if b in cands.get(a, ()))


def check_candidates_overlap(out, truth):
    """Every listed candidate of a live node overlaps its owner."""
    live = set(truth.live_final)
    if set(out.lists) != live:
        return False, f"{len(set(out.lists) ^ live)} list owners differ from the live set"
    for a, entries in out.lists.items():
        ids = [b for b, _ in entries]
        if a in ids or len(ids) != len(set(ids)):
            return False, f"node {a} lists itself or a duplicate"
    pairs = listed_pairs(out)
    unknown = [p for p in pairs if p[1] not in truth.specs]
    if unknown:
        return False, f"{len(unknown)} listed ids never existed, e.g. {unknown[0]}"
    if not pairs:
        return True, "no listed pairs"
    _, gap, _, _ = truth.gaps([a for a, _ in pairs], [b for _, b in pairs])
    bad = np.nonzero(gap > TANGENT_TOL_M)[0]
    if len(bad):
        a, b = pairs[bad[0]]
        return False, f"{len(bad)} listed pairs do not overlap, e.g. {a}->{b} gap {gap[bad[0]]:.3f} m"
    near = int(np.count_nonzero(np.abs(gap) <= TANGENT_TOL_M))
    return True, f"{len(pairs)} listed pairs overlap; {near} within {TANGENT_TOL_M} m of tangency"


def check_utilities(out, truth):
    """Each utility is the lens area of the pair; lists are highest first."""
    for a, entries in out.lists.items():
        utils = [u for _, u in entries]
        if any(x < y for x, y in zip(utils, utils[1:])):
            return False, f"list of node {a} is not sorted by utility"
    pairs = listed_pairs(out)
    if not pairs:
        return True, "no listed pairs"
    got = np.array([u for entries in out.lists.values() for _, u in entries])
    d, _, ra, rb = truth.gaps([a for a, _ in pairs], [b for _, b in pairs])
    ref = lens_area(d, ra, rb)
    err = np.abs(got - ref)
    bad = np.nonzero(err > UTIL_ABS_TOL_M2 + UTIL_REL_TOL * ref)[0]
    if len(bad):
        k = bad[0]
        return False, f"{len(bad)} utilities off, e.g. {pairs[k]}: {float(got[k])!r} vs {float(ref[k])!r}"
    return True, f"max utility error {err.max():.3g} m2 over {len(pairs)} pairs"


def check_bandwidth(out, truth):
    if out.total_bytes != FRAME_BYTES * out.total_descriptors:
        return False, f"{out.total_bytes} bytes for {out.total_descriptors} descriptors"
    if not 0.0 < out.bytes_per_node_s <= MAX_BYTES_PER_NODE_S:
        return False, f"bytes_per_node_s {out.bytes_per_node_s} outside (0, {MAX_BYTES_PER_NODE_S}]"
    return True, f"{out.total_descriptors} descriptors x {FRAME_BYTES} B"


def check_rounds(out, truth):
    """Live counts follow the churn schedule; without churn, recall never falls."""
    if out.live != truth.live_counts:
        return False, f"live counts {out.live} != scheduled {truth.live_counts}"
    if not truth.churn:
        for r, (x, y) in enumerate(zip(out.recalls, out.recalls[1:]), 1):
            if y < x:
                return False, f"mean recall fell in round {r}: {x!r} -> {y!r}"
    return True, f"{len(out.live)} rounds"


def expected_edges(lists):
    """Undirected edges of listed pairs with positive utility, weight the
    larger of the two directed utilities."""
    edges = {}
    for a, entries in lists.items():
        for b, u in entries:
            if u > 0.0:
                key = (a, b) if a < b else (b, a)
                edges[key] = max(edges.get(key, 0.0), u)
    return edges


def expected_vertices(lists, edges):
    """List owners, plus listed nodes on an edge (a departed node can still
    be listed until its owner finds it dead)."""
    return set(lists).union(*edges) if edges else set(lists)


def check_graph(out, truth):
    want = expected_edges(out.lists)
    if out.vertices != expected_vertices(out.lists, want):
        return False, "graph vertices differ from list owners and listed endpoints"
    if out.edges != want:
        missing = len(want.keys() - out.edges.keys())
        extra = len(out.edges.keys() - want.keys())
        return False, f"edges differ: {missing} missing, {extra} extra, or weights differ"
    return True, f"{len(want)} edges"


def check_channels(out, truth):
    if set(out.assignment) != out.vertices:
        return False, "assignment does not cover exactly the graph vertices"
    bad = [n for n, c in out.assignment.items() if c not in range(CHANNELS)]
    if bad:
        return False, f"{len(bad)} nodes outside channels 0..{CHANNELS - 1}, e.g. {bad[0]}"
    return True, f"{len(out.assignment)} nodes on {CHANNELS} channels"


def check_conflict(out, truth):
    own = math.fsum(w for (a, b), w in expected_edges(out.lists).items()
                    if out.assignment.get(a) == out.assignment.get(b))
    if abs(own - out.conflict) > SUM_REL_TOL * max(1.0, own):
        return False, f"recomputed conflict {own!r} != reported {out.conflict!r}"
    return True, f"conflict {own:.6g} m2"


def local_costs(adj, assignment, node):
    cost = [0.0] * CHANNELS
    for nbr, w in adj[node].items():
        cost[assignment[nbr]] += w
    return cost


def adjacency(lists):
    edges = expected_edges(lists)
    adj = {n: {} for n in expected_vertices(lists, edges)}
    for (a, b), w in edges.items():
        adj[a][b] = w
        adj[b][a] = w
    return adj


def check_best_response(out, truth):
    """No single node can move to a channel with strictly lower local conflict."""
    adj = adjacency(out.lists)
    for node in sorted(adj):
        cost = local_costs(adj, out.assignment, node)
        cur = cost[out.assignment[node]]
        if min(cost) < cur - SUM_REL_TOL * max(1.0, cur):
            return False, f"node {node} would gain moving off channel {out.assignment[node]}: {cost}"
    return True, f"{len(adj)} nodes at a local optimum"


def check_replay(out, first):
    """A replay of the same scenario gives the same outputs, bit for bit."""
    if out != first:
        return False, "outputs differ from the first episode's"
    return True, "outputs equal the first episode's"


CHECKS = {
    "candidates_overlap": check_candidates_overlap,
    "utilities": check_utilities,
    "bandwidth": check_bandwidth,
    "rounds": check_rounds,
    "graph": check_graph,
    "channels": check_channels,
    "conflict": check_conflict,
    "best_response": check_best_response,
}
