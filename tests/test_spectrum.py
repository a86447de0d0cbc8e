import hashlib
import itertools
import json
import math
import tracemalloc
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geogossip.spectrum import (
    HintState,
    InterferenceGraph,
    _csr,
    _sweep,
    build_graph,
    conflict_weight,
    export_assignment_csv,
    greedy_assign,
    local_conflict,
    qoe_step,
)
from helpers import brute_force_optimum, random_item, reference_build_graph, sorted_edges


def graph_from_edges(edges):
    g = InterferenceGraph()
    for a, b, w in edges:
        g.add_edge(a, b, w)
    return g


def random_graph(rng, n=8, density=0.5):
    g = InterferenceGraph()
    for v in range(n):
        g.add_vertex(v)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                g.add_edge(a, b, rng.uniform(0.1, 10.0))
    return g


def sorted_sum(g, assignment):
    """Conflict weight summed from scratch over the edges in sorted order,
    one float at a time: the builtin sum is compensated from Python 3.12."""
    total = 0
    for a, b, w in sorted_edges(g):
        if assignment[a] == assignment[b]:
            total += w
    return total


def degree_key(g, node):
    """Greedy order key: weighted degree descending, summed in adjacency
    order with += (not through the code under test), then id."""
    total = 0.0
    for w in g.adj[node].values():
        total += w
    return -total, node


def reference_sweep(g, assignment, k):
    """Full passes in sorted order, each node re-evaluated from scratch,
    until a pass makes no move."""
    assignment = dict(assignment)
    changed = True
    while changed:
        changed = False
        for node in sorted(assignment):
            cost = [0.0] * k
            for nbr, w in g.adj[node].items():
                cost[assignment[nbr]] += w
            best = min(range(k), key=lambda c: (cost[c], c))
            if cost[best] < cost[assignment[node]]:
                assignment[node] = best
                changed = True
    return assignment


def reference_greedy(g, k):
    """The greedy pass alone: nodes by degree_key, each given the first
    channel cheapest against the neighbours assigned before it."""
    order = sorted(g.vertices(), key=lambda n: degree_key(g, n))
    assignment = {}
    for node in order:
        cost = [0.0] * k
        for nbr, w in g.adj[node].items():
            if nbr in assignment:
                cost[assignment[nbr]] += w
        assignment[node] = min(range(k), key=lambda c: (cost[c], c))
    return assignment


def reference_restarts(g, k):
    """The 16 seeded random restarts in order, each swept alone."""
    rng = Random(0x5EED)
    for _ in range(16):
        yield reference_sweep(g, {n: rng.randrange(k) for n in g.vertices()}, k)


def reference_assign(g, k):
    """greedy_assign with full-pass sweeps, one start at a time, and every
    conflict weight summed from scratch: the restarts stop at the first
    start with zero conflict."""
    best = reference_sweep(g, reference_greedy(g, k), k)
    best_weight = sorted_sum(g, best)
    for candidate in reference_restarts(g, k):
        if best_weight == 0.0:
            break
        weight = sorted_sum(g, candidate)
        if weight < best_weight:
            best, best_weight = candidate, weight
    return dict(sorted(best.items()))


@st.composite
def tied_graphs(draw):
    """Sparse and negative ids, isolated vertices, and edges added in
    shuffled order and direction with weights 1..3, so that costs tie."""
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=24, unique=True))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.integers(1, 3)), max_size=80))
    g = InterferenceGraph()
    for v in draw(st.permutations(ids)):
        g.add_vertex(v)
    for a, b, w in draw(st.permutations(pairs)):
        g.add_edge(a, b, float(w))
    return g


def geometric_graph(n=300, radius=0.1, seed=9):
    """Unit-square disk graph: weight falls linearly from 1 at distance 0
    to 0 at the radius, and edges join in the order the pairs are drawn."""
    rng = Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    g = InterferenceGraph()
    for v in range(n):
        g.add_vertex(v)
    for a, b in pairs:
        d = math.dist(points[a], points[b])
        if d < radius:
            g.add_edge(b, a, 1.0 - d / radius)
    return g


def adjacency_bits(adj):
    """Vertex order, row order and weight bits of an adjacency dict."""
    return [(v, [(n, repr(w)) for n, w in row.items()]) for v, row in adj.items()]


class TestGraph:
    def test_edges_symmetrized_by_max(self):
        g = graph_from_edges([(1, 2, 3.0), (2, 1, 5.0), (1, 2, 4.0)])
        assert g.adj == {1: {2: 5.0}, 2: {1: 5.0}}
        assert conflict_weight(g, {1: 0, 2: 0}) == 5.0

    def test_self_loops_and_nonpositive_ignored(self):
        g = graph_from_edges([(1, 1, 3.0), (1, 2, 0.0), (1, 3, -1.0)])
        assert g.adj == {}
        g.add_vertex(1)
        assert conflict_weight(g, {1: 0}) == 0

    def test_weighted_degree(self):
        g = graph_from_edges([(1, 2, 3.0), (1, 3, 4.0)])
        assert g.weighted_degree(1) == 7.0
        assert g.weighted_degree(2) == 3.0
        assert g.weighted_degree(99) == 0.0

    def test_weighted_degree_is_a_left_fold(self):
        # a compensated sum (the builtin sum from Python 3.12) gives 1e16 + 2
        g = graph_from_edges([(1, 2, 1e16), (1, 3, 1.0), (1, 4, 1.0)])
        assert g.weighted_degree(1) == 1e16
        assert local_conflict(g, dict.fromkeys(g.vertices(), 0), 1) == 1e16

    def test_build_from_candidate_lists(self):
        rng = Random(40)
        a, b = random_item(rng, node_id=1), random_item(rng, node_id=2)
        lists = {1: [(b, 2.5)], 2: [(a, 2.5)], 3: []}
        g = build_graph(lists)
        assert g.vertices() == [1, 2, 3]
        assert g.adj == {1: {2: 2.5}, 2: {1: 2.5}, 3: {}}

    def test_build_keeps_the_reference_order(self):
        # asymmetric reports, zero and negative utilities, a self entry,
        # and ids 9 and 7 seen only as neighbours
        rng = Random(46)
        item = {n: random_item(rng, node_id=n) for n in (1, 2, 3, 4, 7, 9)}
        lists = {
            3: [(item[9], 1.5), (item[1], 2.0), (item[3], 4.0), (item[7], 0.0)],
            1: [(item[3], 3.0), (item[2], -1.0), (item[4], 0.5)],
            4: [(item[1], 0.25), (item[9], 2.0)],
            2: [],
        }
        g = build_graph(lists)
        want = {3: {9: 1.5, 1: 3.0}, 9: {3: 1.5, 4: 2.0}, 1: {3: 3.0, 4: 0.5},
                4: {1: 0.5, 9: 2.0}, 2: {}}
        assert adjacency_bits(g.adj) == adjacency_bits(want)
        assert adjacency_bits(g.adj) == adjacency_bits(reference_build_graph(lists))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_build_matches_reference(self, data):
        ids = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=12, unique=True))
        owners = data.draw(st.lists(st.sampled_from(ids), unique=True))
        utility = st.sampled_from([-2.0, -0.0, 0.0, 5e-324, 1.0, 2.5]) | st.floats(-10.0, 10.0)
        lists = {
            nid: [(random_item(Random(b), node_id=b), u) for b, u in data.draw(
                st.lists(st.tuples(st.sampled_from(ids), utility), max_size=8))]
            for nid in owners
        }
        g = build_graph(lists)
        assert adjacency_bits(g.adj) == adjacency_bits(reference_build_graph(lists))


class TestGreedyAssign:
    def test_triangle_three_channels(self):
        g = graph_from_edges([(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
        assignment = greedy_assign(g, 3)
        assert conflict_weight(g, assignment) == 0.0
        assert len(set(assignment.values())) == 3

    def test_star_two_channels(self):
        g = graph_from_edges([(0, i, 1.0) for i in range(1, 6)])
        assignment = greedy_assign(g, 2)
        assert conflict_weight(g, assignment) == 0.0

    def test_channels_within_range(self):
        g = random_graph(Random(41))
        assignment = greedy_assign(g, 3)
        assert set(assignment) == set(g.vertices())
        assert all(0 <= c < 3 for c in assignment.values())

    def test_deterministic(self):
        g = random_graph(Random(42))
        assert greedy_assign(g, 3) == greedy_assign(g, 3)

    def test_needs_a_channel(self):
        with pytest.raises(ValueError):
            greedy_assign(InterferenceGraph(), 0)

    def test_spare_channels_cost_no_memory(self):
        g = graph_from_edges([(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        tracemalloc.start()
        try:
            assignment = greedy_assign(g, 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert assignment == greedy_assign(g, 3)

    @settings(deadline=None)
    @given(tied_graphs(), st.integers(1, 40))
    def test_channels_past_max_degree_plus_one_change_nothing(self, g, extra):
        enough = 1 + max(len(nbrs) for nbrs in g.adj.values())
        got = greedy_assign(g, enough + extra)
        assert got == greedy_assign(g, enough) == reference_assign(g, enough + extra)
        assert conflict_weight(g, got) == 0.0

    def test_empty_graph(self):
        g = InterferenceGraph()
        assert greedy_assign(g, 3) == reference_assign(g, 3) == {}

    def test_isolated_vertices_only(self):
        g = InterferenceGraph()
        for v in (5, -3, 0, 12):
            g.add_vertex(v)
        assert greedy_assign(g, 3) == reference_assign(g, 3) == dict.fromkeys((-3, 0, 5, 12), 0)

    def test_conflict_free_greedy_pass_is_returned(self):
        # k is below max degree + 1, so the clamp alone does not make the
        # greedy pass conflict-free
        g = random_graph(Random(6), n=12, density=0.4)
        assert 3 < 1 + max(map(len, g.adj.values()))
        greedy = reference_greedy(g, 3)
        assert sorted_sum(g, greedy) == 0
        assert greedy_assign(g, 3) == reference_assign(g, 3) == dict(sorted(greedy.items()))

    def test_restarts_after_a_zero_change_nothing(self):
        # the sixth restart reaches zero conflict: the one-at-a-time
        # reference stops there, while greedy_assign sweeps all 16
        g = random_graph(Random(4), n=12, density=0.3)
        assert sorted_sum(g, reference_sweep(g, reference_greedy(g, 3), 3)) > 0.0
        weights = [sorted_sum(g, start) for start in reference_restarts(g, 3)]
        assert weights.index(0) == 5
        assignment = greedy_assign(g, 3)
        assert assignment == reference_assign(g, 3)
        assert conflict_weight(g, assignment) == 0

    def test_single_channel_total_weight(self):
        g = random_graph(Random(43))
        assignment = greedy_assign(g, 1)
        assert set(assignment.values()) == {0}
        assert conflict_weight(g, assignment) == sorted_sum(g, assignment) > 0.0

    def test_near_optimal_on_small_instances(self):
        # 20 random 8-node instances vs exhaustive 3^8 search
        rng = Random(44)
        for _ in range(20):
            g = random_graph(rng, n=8, density=0.6)
            greedy = conflict_weight(g, greedy_assign(g, 3))
            optimum, best = brute_force_optimum(g, 3)
            assert repr(optimum) == repr(conflict_weight(g, best))
            assert greedy <= 1.5 * optimum + 1e-9


class TestConflictAccounting:
    def test_sums_follow_the_sorted_edge_order(self):
        # edges join in shuffled order, so adjacency order is not sorted order
        rng = Random(7)
        pairs = [(a, b) for a in range(300) for b in range(a + 1, 300) if rng.random() < 0.03]
        rng.shuffle(pairs)
        g = InterferenceGraph()
        for v in range(300):
            g.add_vertex(v)
        for a, b in pairs:
            g.add_edge(b, a, rng.uniform(0.1, 1e4))
        assignment = greedy_assign(g, 3)
        assert assignment == reference_assign(g, 3)
        assert repr(conflict_weight(g, assignment)) == repr(sorted_sum(g, assignment))
        assert conflict_weight(g, assignment) > 0.0

    @settings(max_examples=400, deadline=None)
    @given(tied_graphs(), st.sampled_from([1, 2, 3, 5]))
    def test_matches_full_pass_reference(self, g, k):
        got = greedy_assign(g, k)
        want = reference_assign(g, k)
        assert list(got.items()) == list(want.items())
        assert repr(conflict_weight(g, got)) == repr(conflict_weight(g, want))

    @settings(max_examples=300, deadline=None)
    @given(tied_graphs(), st.integers(1, 4), st.integers(1, 5), st.data())
    def test_lockstep_sweep_matches_each_start_alone(self, g, k, cols, data):
        nodes = g.vertices()
        starts = [data.draw(st.lists(st.integers(0, k - 1), min_size=len(nodes),
                                     max_size=len(nodes))) for _ in range(cols)]
        channels = np.array(starts, np.intp).T
        bounds, idx, wts = _csr(g, nodes)
        _sweep(bounds.tolist(), idx, wts, channels, k)
        for r, start in enumerate(starts):
            want = reference_sweep(g, dict(zip(nodes, start)), k)
            assert dict(zip(nodes, channels[:, r].tolist())) == want

    def test_pinned_assignment(self):
        # all 16 restarts run, since no assignment here reaches zero conflict
        g = geometric_graph()
        assignment = greedy_assign(g, 3)
        total = conflict_weight(g, assignment)
        assert total > 0.0
        lines = [f"{node} {channel}" for node, channel in assignment.items()]
        lines.append(repr(total))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "5c073b0290ffa84433ebc4c7a4b026d2b0af2084c8c891bc65ce5a4ff07ac0b7"

    def test_high_degree_graph_matches_reference(self):
        g = geometric_graph(n=500, radius=0.16, seed=11)
        assert sum(map(len, g.adj.values())) >= 30 * len(g.adj)
        got = greedy_assign(g, 3)
        want = reference_assign(g, 3)
        assert list(got.items()) == list(want.items())
        total = conflict_weight(g, got)
        # the best assignment still conflicts, so all 16 restarts ran
        assert total > 0.0
        assert repr(total) == repr(sorted_sum(g, want))

    def test_outputs_are_plain_python(self):
        g = geometric_graph(n=60, radius=0.3)
        assignment = greedy_assign(g, 3)
        assert all(type(channel) is int for channel in assignment.values())
        assert json.loads(json.dumps(assignment)) == {str(n): c for n, c in assignment.items()}
        total = conflict_weight(g, assignment)
        assert type(total) is float and total > 0.0
        path = graph_from_edges([(1, 2, 1.0), (2, 3, 1.0)])
        none = conflict_weight(path, {1: 0, 2: 1, 3: 0})
        assert type(none) is int and none == 0

    def test_local_sums_to_twice_total(self):
        g = random_graph(Random(45))
        assignment = greedy_assign(g, 2)
        local_sum = sum(local_conflict(g, assignment, v) for v in g.vertices())
        assert local_sum == pytest.approx(2.0 * conflict_weight(g, assignment))

    def test_export_csv(self, tmp_path):
        g = graph_from_edges([(1, 2, 1.5)])
        assignment = greedy_assign(g, 2)
        path = tmp_path / "assign.csv"
        export_assignment_csv(g, assignment, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "node_id,channel,local_conflict_weight"
        assert len(lines) == 3


class TestQoeController:
    def test_improvement_keeps_following(self):
        state = HintState(channel=0, baseline_channel=0, baseline_qoe=0.5)
        out = qoe_step(state, hinted_channel=2, observed_qoe=0.9)
        assert out.channel == 2
        assert out.mode == "following"

    def test_non_improvement_reverts_in_one_step(self):
        state = HintState(channel=2, baseline_channel=0, baseline_qoe=0.5)
        out = qoe_step(state, hinted_channel=2, observed_qoe=0.4)
        assert out.channel == 0
        assert out.mode == "reverted"

    def test_equal_qoe_is_not_improvement(self):
        state = HintState(channel=2, baseline_channel=1, baseline_qoe=0.5)
        out = qoe_step(state, hinted_channel=2, observed_qoe=0.5)
        assert out.channel == 1
        assert out.mode == "reverted"

    def test_baseline_preserved_across_steps(self):
        state = HintState(channel=0, baseline_channel=0, baseline_qoe=0.5)
        state = qoe_step(state, 2, 0.9)
        state = qoe_step(state, 2, 0.3)
        assert state.channel == 0
        assert state.baseline_qoe == 0.5

    def test_nonfinite_qoe_rejected(self):
        state = HintState(channel=0, baseline_channel=0, baseline_qoe=0.5)
        with pytest.raises(ValueError):
            qoe_step(state, 1, float("nan"))
