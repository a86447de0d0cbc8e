import gc
import hashlib
import math
from dataclasses import replace
from ipaddress import IPv6Address
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geogossip import simulate
from geogossip.geometry import distances_np
from geogossip.overlay import RankedView, candidate_list
from geogossip.sampling import RandomView, merge_random
from geogossip.scenario import (
    METERS_PER_DEG_LAT,
    ORIGIN_LAT,
    ORIGIN_LON,
    ChurnEvent,
    NodeSpec,
    Scenario,
    add_random_churn,
    address_for,
    four_node_demo,
    generate_scenario,
)
from geogossip.simulate import (
    C_RAND,
    C_RANK,
    LatitudeIndex,
    MetricsRow,
    MetricsSeries,
    Simulation,
    UnknownNodeError,
    convergence_round,
)
from geogossip.wire import DiscoveryItem
from helpers import oracle_sets


def small_scenario(n=150, seed=1, radius=(100.0, 600.0)):
    return generate_scenario(n, region=(4000.0, 4000.0), radius_law=radius, rng_seed=seed)


class TestGroundTruth:
    def test_symmetric_and_irreflexive(self):
        gt = LatitudeIndex(small_scenario().nodes).candidates
        for nid, neighbors in gt.items():
            assert nid not in neighbors
            for other in neighbors:
                assert nid in gt[other]

    def test_quartet_sets(self):
        gt = oracle_sets(LatitudeIndex(four_node_demo().nodes).candidates)
        assert gt[1] == {2, 4}
        assert gt[2] == {1, 4}
        assert gt[3] == {4}
        assert gt[4] == {1, 2, 3}

    def test_vectorized_path_matches_scalar_predicate(self):
        # the band scan over arrays must agree with the kernel's predicate,
        # evaluated one pair at a time
        sc = generate_scenario(600, region=(6000.0, 6000.0), radius_law=(50.0, 400.0), rng_seed=2)
        gt = LatitudeIndex(sc.nodes).candidates
        by_id = {s.node_id: s for s in sc.nodes}
        rng = Random(3)
        ids = sorted(by_id)
        for _ in range(20_000):
            a, b = rng.choice(ids), rng.choice(ids)
            if a == b:
                continue
            sa, sb = by_id[a], by_id[b]
            d = distances_np(sa.latitude, sa.longitude, sb.latitude, sb.longitude)
            assert (b in gt[a]) == (d < sa.radius + sb.radius)

    def test_mean_degree_matches_geometry(self):
        # For uniform placement in an L x L box with equal disks of radius
        # r, two nodes are candidates iff their centers are within D = 2r.
        # P(candidate) = pi D^2 / L^2 - 8 D^3 / (3 L^3) + D^4 / (2 L^4)
        # (second and third terms correct for the box boundary).
        L, r, n = 10_000.0, 300.0, 1000
        D = 2.0 * r
        p = (math.pi * D**2 / L**2) - (8.0 * D**3) / (3.0 * L**3) + D**4 / (2.0 * L**4)
        expected = (n - 1) * p
        degrees = []
        for seed in range(5):
            sc = generate_scenario(n, region=(L, L), radius_law=r, rng_seed=seed)
            gt = LatitudeIndex(sc.nodes).candidates
            degrees.extend(len(v) for v in gt.values())
        mean = sum(degrees) / len(degrees)
        assert mean == pytest.approx(expected, rel=0.05)

    def test_live_specs_follow_churn(self):
        sc = replace(four_node_demo(), churn=(
            ChurnEvent(2, "leave", node_id=3),
            ChurnEvent(4, "join", node=NodeSpec(9, 59.91, 10.75, 50.0)),
        ))
        sim = Simulation(sc)
        live = {}
        for _ in range(5):
            row = sim.step()
            live[row.round] = set(sim.nodes)
        assert live[0] == {1, 2, 3, 4}
        assert live[2] == {1, 2, 4}
        assert live[4] == {1, 2, 4, 9}

    def test_leave_of_dead_node_rejected(self):
        demo = four_node_demo()
        with pytest.raises(ValueError):
            Scenario(nodes=demo.nodes, seeds=demo.seeds,
                     churn=[ChurnEvent(0, "leave", node_id=42)])
        # the engine still guards a direct call
        sim = Simulation(demo)
        with pytest.raises(UnknownNodeError):
            sim.apply_churn([ChurnEvent(0, "leave", node_id=42)], now_ms=0)


def exhaustive_candidates(specs):
    """Every ordered pair through the kernel, one owner at a time."""
    ids = [s.node_id for s in specs]
    lats = np.array([s.latitude for s in specs])
    lons = np.array([s.longitude for s in specs])
    rads = np.array([s.radius for s in specs])
    truth = {}
    for a in specs:
        near = distances_np(a.latitude, a.longitude, lats, lons) < a.radius + rads
        truth[a.node_id] = {ids[j] for j in np.flatnonzero(near)} - {a.node_id}
    return truth


def batched_build(specs):
    """The oracle's batched build over specs, as id sets, after checking
    every member's tuple against the join path's scan of that member and
    against the exhaustive set."""
    index = LatitudeIndex(specs)
    want = exhaustive_candidates(specs)
    assert index.candidates.keys() == want.keys()
    by_id = {spec.node_id: spec for spec in specs}
    for pos, nid in enumerate(index.ids):
        got = index.candidates[nid]
        assert got == index._scan(by_id[nid], pos)
        assert set(got) == want[nid]
    return oracle_sets(index.candidates)


def wrap_lon(lon):
    return (lon + 180.0) % 360.0 - 180.0


# anywhere on the sphere, with the poles and both sides of the antimeridian
_LATS = st.one_of(st.floats(-90.0, 90.0), st.sampled_from([-90.0, -89.9999, 0.0, 59.91, 89.9999, 90.0]))
_LONS = st.one_of(st.floats(-180.0, 180.0, exclude_max=True),
                  st.sampled_from([-180.0, -179.9999, 0.0, 179.9999, math.nextafter(180.0, 0.0)]))


@pytest.fixture(scope="module")
def churned_oracles():
    """(oracle candidates, live specs) after each of 8 rounds of a 500-node
    run with 2% churn a round."""
    sc = generate_scenario(500, region=(5000.0, 5000.0), radius_law=(100.0, 600.0), rng_seed=7)
    sc = add_random_churn(sc, rounds=8, rate=0.02, region=(5000.0, 5000.0),
                          radius_law=(100.0, 600.0))
    sim = Simulation(sc)
    rounds = []
    for _ in range(8):
        sim.step()
        rounds.append((dict(sim.oracle.candidates), [node.spec for node in sim.nodes.values()]))
    return rounds


class TestLatitudeIndex:
    def test_matches_exhaustive_after_every_churn_round(self, churned_oracles):
        for candidates, live in churned_oracles:
            assert oracle_sets(candidates) == exhaustive_candidates(live)
            assert LatitudeIndex(live).candidates == candidates

    def test_values_are_increasing_tuples_of_the_exhaustive_set(self, churned_oracles):
        # each join and leave rebuilds the tuples it touches: they stay
        # sorted, hold no duplicate and never name their owner
        for candidates, live in churned_oracles:
            want = exhaustive_candidates(live)
            assert candidates.keys() == want.keys()
            for nid, ids in candidates.items():
                assert type(ids) is tuple
                assert all(a < b for a, b in zip(ids, ids[1:]))
                assert nid not in ids
                assert set(ids) == want[nid]

    def test_straddling_the_antimeridian(self):
        rng = Random(11)
        specs = [
            NodeSpec(i, rng.uniform(-0.01, 0.01), wrap_lon(180.0 + rng.uniform(-0.02, 0.02)),
                     rng.uniform(100.0, 600.0))
            for i in range(1, 301)
        ]
        gt = batched_build(specs)
        east = {s.node_id for s in specs if s.longitude > 0.0}
        assert any(nid in east and nbrs - east for nid, nbrs in gt.items())

    def test_generated_scenario_straddles_the_antimeridian(self):
        # a generated deployment moved from the origin to (0, 179.95)
        sc = generate_scenario(300, region=(10_000.0, 10_000.0), radius_law=(100.0, 600.0),
                               rng_seed=4)
        specs = [NodeSpec(s.node_id, s.latitude - ORIGIN_LAT,
                          wrap_lon(s.longitude - ORIGIN_LON + 179.95), s.radius)
                 for s in sc.nodes]
        gt = batched_build(specs)
        east = {s.node_id for s in specs if s.longitude > 0.0}
        assert 0 < len(east) < len(specs)
        assert any(nid in east and nbrs - east for nid, nbrs in gt.items())

    @settings(max_examples=500, deadline=None)
    @given(lat0=_LATS, lon0=_LONS, lat=_LATS, lon=_LONS,
           ulps=st.one_of(st.none(), st.integers(-8, 8)), share=st.floats(0.0, 0.5))
    @example(59.91, 10.75, 59.91, 10.75, 1, 0.5)  # one ulp of latitude, 0.0 m to the kernel
    @example(90.0, 0.0, -90.0, -180.0, None, 0.25)  # pole to pole
    def test_pairs_at_the_edge_of_candidacy(self, lat0, lon0, lat, lon, ulps, share):
        """A pair whose combined radii sit one step either side of the
        kernel's distance: the band scan must decide it as the exhaustive
        scan does."""
        if ulps is not None:
            # a latitude a few ulps from the first, where rounding into
            # radians dominates the difference
            lat = lat0
            for _ in range(abs(ulps)):
                lat = math.nextafter(lat, math.copysign(90.0, ulps))
            lat = min(90.0, max(-90.0, lat))
        d = float(distances_np(lat0, lon0, lat, lon))
        # step the larger radius, so that each step moves the sum
        small = d * share
        big = d - small
        while not d < small + big:
            big = math.nextafter(big, math.inf)
        inside = big
        while d < small + big:
            big = math.nextafter(big, -math.inf)
        for r in (inside, big):
            specs = [NodeSpec(1, lat0, lon0, small), NodeSpec(2, lat, lon, r)]
            want = exhaustive_candidates(specs)
            assert want[1] == ({2} if r == inside else set())
            assert batched_build(specs) == want

    def test_near_the_pole(self):
        rng = Random(12)
        specs = [
            NodeSpec(i, rng.uniform(89.9, 89.9 + 2000.0 / METERS_PER_DEG_LAT),
                     rng.uniform(-180.0, 180.0) if i % 2 else rng.uniform(-1.0, 1.0),
                     rng.uniform(100.0, 600.0))
            for i in range(1, 301)
        ] + [
            NodeSpec(1000 + i, rng.uniform(89.99, 90.0), wrap_lon(rng.uniform(-180.0, 180.0)),
                     rng.uniform(100.0, 600.0))
            for i in range(200)
        ]
        gt = batched_build(specs)
        assert sum(map(len, gt.values())) > 0

    def test_batched_build_across_chunk_boundaries(self, monkeypatch):
        # a cap far below one member's forward window: windows cross chunk
        # boundaries, and one window alone spans several chunks
        monkeypatch.setattr(simulate, "PAIRS_PER_CALL", 7)
        specs = small_scenario(n=200, seed=5).nodes
        index = LatitudeIndex(specs)
        ends = np.searchsorted(index.lats, index.lats + index._half(index.rads), side="right")
        windows = ends - np.arange(1, len(specs) + 1)
        assert windows.max() > 3 * simulate.PAIRS_PER_CALL
        assert windows.sum() % simulate.PAIRS_PER_CALL
        assert sum(map(len, batched_build(specs).values())) > 0

    def test_batched_build_with_tied_latitudes_and_zero_radii(self, monkeypatch):
        # 60 members on one latitude, a third of them with radius 0 (a
        # radius-0 pair at one point is no candidate: 0 < 0 fails), and
        # members just off that latitude on both sides
        monkeypatch.setattr(simulate, "PAIRS_PER_CALL", 16)
        rng = Random(13)
        lat = 59.91
        specs = [NodeSpec(i, lat, 10.75 + rng.choice([0.0, 0.001, rng.uniform(-0.01, 0.01)]),
                          0.0 if i % 3 == 0 else rng.uniform(50.0, 600.0))
                 for i in range(1, 61)]
        specs += [NodeSpec(100 + i, math.nextafter(lat, 90.0 if i % 2 else -90.0),
                           10.75 + rng.uniform(-0.01, 0.01), rng.choice([0.0, 300.0]))
                  for i in range(10)]
        gt = batched_build(specs)
        zero = {s.node_id for s in specs if s.radius == 0.0}
        assert any(gt[k] for k in zero)
        assert not any(gt[k] & zero for k in zero)

    def test_empty_and_one_member(self):
        assert batched_build([]) == {}
        assert batched_build([NodeSpec(7, 59.91, 10.75, 300.0)]) == {7: set()}


def golden_scenario():
    """300 nodes, 1% churn a round for 20 rounds."""
    region, radii = (5000.0, 5000.0), (100.0, 600.0)
    sc = generate_scenario(300, region, radii, 0)
    return add_random_churn(sc, rounds=20, rate=0.01, region=region, radius_law=radii)


class TestGoldenTrajectory:
    # Pins a whole run: any change to a trajectory, a candidate list or a
    # utility's last bit changes the digest.  The utilities come from
    # numpy's transcendental functions, whose last bits can differ between
    # numpy builds, so a build that disagrees fails this test alone.
    DIGEST = "625583f3c1a972c8bd6d9e9e000143b51572e6af9e3f40800fd10e69648411b1"

    def test_digest(self, tmp_path):
        sim = Simulation(golden_scenario())
        sim.run(20)
        sim.series.to_csv(tmp_path / "metrics.csv")
        lines = [f"{nid} {item.node_id} {util!r}"
                 for nid, entries in sim.candidate_lists().items() for item, util in entries]
        data = (tmp_path / "metrics.csv").read_bytes() + "\n".join(lines).encode()
        assert hashlib.sha256(data).hexdigest() == self.DIGEST


class TestRandomViewClock:
    def test_timestamps_lie_on_the_period_grid(self):
        # why the random view orders on the timestamp alone: in the engine
        # every item it holds is stamped a whole number of periods, never
        # later than the round that merged it, so newer means younger in
        # periods and one age means one timestamp
        sim = Simulation(golden_scenario())
        period_ms = sim.params.period_ms
        checked = 0
        for _ in range(20):
            now_ms = sim.round * period_ms
            sim.step()
            for node in sim.nodes.values():
                for nid, item in node.random_view.entries.items():
                    assert type(item) is DiscoveryItem and item.node_id == nid
                    assert item.timestamp_ms % period_ms == 0
                    assert item.timestamp_ms <= now_ms
                    checked += 1
        assert checked > 100_000


class TestConvergenceRound:
    def test_first_round_reaching_threshold(self):
        series = MetricsSeries(rows=[
            MetricsRow(0, 0.2, 0.0, 0.0, 10),
            MetricsRow(1, 0.95, 0.5, 0.0, 10),
            MetricsRow(2, 1.0, 1.0, 0.0, 10),
        ])
        assert convergence_round(series, 0.9) == 1
        assert convergence_round(series, 1.0) == 2
        assert convergence_round(series, 0.1) == 0

    def test_none_when_never_reached(self):
        series = MetricsSeries(rows=[MetricsRow(0, 0.5, 0.0, 0.0, 10)])
        assert convergence_round(series, 0.99) is None

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            convergence_round(MetricsSeries(), 0.0)
        with pytest.raises(ValueError):
            convergence_round(MetricsSeries(), 1.5)


class TestSimulationBasics:
    def test_quartet_converges_fast(self):
        sim = Simulation(four_node_demo())
        series = sim.run(5)
        assert convergence_round(series, 1.0) is not None
        gt = oracle_sets(LatitudeIndex(four_node_demo().nodes).candidates)
        for nid, entries in sim.candidate_lists().items():
            assert {item.node_id for item, _ in entries} == gt[nid]

    def test_deterministic_replay(self):
        a = Simulation(small_scenario()).run(10)
        b = Simulation(small_scenario()).run(10)
        assert a == b
        sim_a, sim_b = Simulation(small_scenario()), Simulation(small_scenario())
        sim_a.run(10)
        sim_b.run(10)
        assert sim_a.candidate_lists() == sim_b.candidate_lists()

    def test_seed_changes_trajectory(self):
        a = Simulation(small_scenario(seed=1)).run(3)
        b = Simulation(small_scenario(seed=2)).run(3)
        assert a != b

    def test_recall_monotone_without_churn(self):
        series = Simulation(small_scenario()).run(20)
        recalls = [r.mean_recall for r in series.rows]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))
        assert series.final_recall() == 1.0

    def test_bytes_are_descriptor_count_times_frame(self):
        series = Simulation(small_scenario()).run(5)
        assert series.total_bytes == 56 * series.total_descriptors
        assert sum(r.bytes_sent_mean * r.live_nodes for r in series.rows) == pytest.approx(
            series.total_bytes)

    def test_bandwidth_accounting(self):
        sc = small_scenario()
        series = Simulation(sc).run(5)
        per_node_round = series.total_bytes / series.node_rounds
        assert series.mean_bytes_per_second(15.0) == pytest.approx(per_node_round / 15.0)

    def test_no_rounds_no_bandwidth(self):
        assert MetricsSeries().mean_bytes_per_second(15.0) == 0.0


class TestCandidateLists:
    def test_random_view_knows_no_candidate_the_ranked_view_lacks(self):
        # why candidate_list reads the ranked view alone: every item merged
        # into a random view is merged into the same node's ranked view, and
        # a pinned candidate leaves only when its node is forgotten in both
        region, radii = (5000.0, 5000.0), (100.0, 600.0)
        sc = generate_scenario(300, region, radii, 1)
        sc = add_random_churn(sc, rounds=20, rate=0.01, region=region, radius_law=radii)
        sim = Simulation(sc)
        for _ in range(20):
            sim.step()
            for node in sim.nodes.values():
                pinned = node.ranked.candidate_ids()
                items = list(node.random_view.entries.values())
                if items:
                    spec = node.spec
                    dists = distances_np(spec.latitude, spec.longitude,
                                         np.array([it.latitude for it in items]),
                                         np.array([it.longitude for it in items]))
                    known = {it.node_id for it, d in zip(items, dists)
                             if d < spec.radius + it.radius}
                    assert known <= pinned
                assert {item.node_id for item, _ in candidate_list(node.ranked)} == pinned

    def test_no_view_holds_its_owner(self):
        # why buffer_for's pool needs no step that takes the sender's own
        # id out: neither view of a node ever stores it
        sim = Simulation(golden_scenario())
        for _ in range(20):
            sim.step()
            for nid, node in sim.nodes.items():
                assert nid not in node.ranked.entries
                assert nid not in node.random_view.entries

    def test_lists_are_the_views_own_pairs(self):
        # candidate_lists allocates a list per node and nothing per
        # candidate: each pair listed is the one its owner's view holds
        sc = generate_scenario(300, (3000.0, 3000.0), (100.0, 600.0), 1)
        sim = Simulation(sc)
        sim.run(8)
        gc.collect()
        before = len(gc.get_objects())
        lists = sim.candidate_lists()
        grown = len(gc.get_objects()) - before
        # dense enough that a tracked object per candidate would show
        assert sum(map(len, lists.values())) > 10 * len(lists)
        assert grown <= 2 * len(lists) + 16
        for nid, entries in lists.items():
            held = sim.nodes[nid].ranked.entries
            assert all(held[pair[0].node_id][3] is pair for pair in entries)
        # a same-place refresh: the list shows the fresher copy, in place
        nid, entries = next((nid, entries) for nid, entries in lists.items() if len(entries) > 1)
        item, utility = entries[1]
        fresher = replace(item, timestamp_ms=item.timestamp_ms + 1)
        view = sim.nodes[nid].ranked
        view.merge([fresher], fresher.timestamp_ms, sim.stale_ms)
        again = candidate_list(view)
        assert again[1][0] is fresher and repr(again[1][1]) == repr(utility)
        assert ([(it.node_id, repr(u)) for it, u in again]
                == [(it.node_id, repr(u)) for it, u in entries])


class TestBootstrap:
    """Round-0 nodes and each round's churn joiners are introduced by one
    path that scores whole batches against the seeds in kernel calls with
    array owners; each node must end as if it had merged the plain list."""

    @staticmethod
    def assert_views_merged(sim, introduced, now_ms=0):
        # repr shows every float's bits, and -0.0 apart from 0.0
        for nid, items in introduced.items():
            node = sim.nodes[nid]
            spec = node.spec
            random_view = RandomView(nid, C_RAND)
            ranked = RankedView(nid, spec.latitude, spec.longitude, spec.radius, C_RANK)
            if items:
                merge_random(random_view, items)
                ranked.merge(items, now_ms, sim.stale_ms)
            assert repr(node.ranked.entries) == repr(ranked.entries)
            assert (node.ranked._min_ts, node.ranked._frontier) == (ranked._min_ts, ranked._frontier)
            assert list(node.random_view.entries.items()) == list(random_view.entries.items())

    @staticmethod
    def churn_events(sc, seed, fresh):
        """Several joiners at fresh ids, one of them in at a second place
        after a leave; the seed out and back in at a new place; and a
        joiner that leaves in its own round.  (events, surviving joiners'
        ids in join order)."""
        spot = sc.nodes[0]
        specs = [NodeSpec(fresh + k, spot.latitude + 0.001 * k, spot.longitude, 300.0 + k)
                 for k in range(6)]
        events = [ChurnEvent(0, "join", node=sp) for sp in specs[:4]]
        events += [
            ChurnEvent(0, "leave", node_id=fresh + 1),
            ChurnEvent(0, "join", node=replace(specs[4], node_id=fresh + 1)),
            ChurnEvent(0, "join", node=specs[5]),
            ChurnEvent(0, "leave", node_id=fresh + 5),
        ]
        if seed is not None:
            back = replace(sc.nodes[1], node_id=seed)
            events[2:2] = [ChurnEvent(0, "leave", node_id=seed), ChurnEvent(0, "join", node=back)]
        joined = [fresh, *([seed] if seed is not None else []), fresh + 2, fresh + 3, fresh + 1]
        return events, joined

    def test_two_seeds_each_bootstrapping_from_the_other(self):
        sc = small_scenario(n=300, seed=4)
        first, second = sc.nodes[200].node_id, sc.nodes[10].node_id
        sc = replace(sc, seeds=(first, second))
        sim = Simulation(sc)
        seeds = [sim.nodes[sid].own_item(0) for sid in sc.seeds]
        self.assert_views_merged(
            sim, {nid: [it for it in seeds if it.node_id != nid] for nid in sim.nodes})
        assert list(sim.nodes[first].random_view.entries) == [second]
        assert list(sim.nodes[second].random_view.entries) == [first]

    def test_random_introducers_without_a_seed(self):
        sc = replace(small_scenario(n=100, seed=6), seeds=())
        sim = Simulation(sc)
        rng = Random(sc.rng_seed)
        ids = sorted(sim.nodes)
        introduced = {
            spec.node_id: [sim.nodes[rng.choice([k for k in ids if k != spec.node_id])].own_item(0)]
            for spec in sc.nodes
        }
        self.assert_views_merged(sim, introduced)
        assert sim.rng.getstate() == rng.getstate()

    def test_churn_joiners_with_a_rejoining_seed(self):
        sc = small_scenario(n=200, seed=8)
        first, second = sc.nodes[50].node_id, sc.nodes[120].node_id
        sc = replace(sc, seeds=(first, second))
        sim = Simulation(sc)
        sim.run(3)
        now_ms = sim.round * sim.params.period_ms
        events, joined = self.churn_events(sc, first, fresh=10_000)
        state = sim.rng.getstate()
        sim.apply_churn(events, now_ms)
        assert set(joined) < set(sim.nodes) and 10_005 not in sim.nodes
        seeds = [sim.nodes[sid].own_item(now_ms) for sid in sc.seeds]
        self.assert_views_merged(
            sim, {nid: [it for it in seeds if it.node_id != nid] for nid in joined}, now_ms)
        assert [it.node_id for it in sim.nodes[first].random_view.entries.values()] == [second]
        assert sim.rng.getstate() == state

    def test_churn_joiners_without_a_live_seed(self):
        sc = small_scenario(n=200, seed=9)
        sim = Simulation(sc)
        sim.run(3)
        now_ms = sim.round * sim.params.period_ms
        events, joined = self.churn_events(sc, None, fresh=10_000)
        events.insert(0, ChurnEvent(0, "leave", node_id=sc.seeds[0]))
        rng = Random()
        rng.setstate(sim.rng.getstate())
        sim.apply_churn(events, now_ms)
        ids = sorted(sim.nodes)
        introduced = {
            nid: [sim.nodes[rng.choice([k for k in ids if k != nid])].own_item(now_ms)]
            for nid in joined
        }
        self.assert_views_merged(sim, introduced, now_ms)
        assert sim.rng.getstate() == rng.getstate()

    @pytest.mark.parametrize("cap, step", [(7, 2), (2, 1)])
    def test_batches_over_several_kernel_calls(self, monkeypatch, cap, step):
        # three seeds: a cap of 7 pairs scores 2 nodes a call, and a cap
        # below the seed count still scores one node a call
        monkeypatch.setattr(simulate, "PAIRS_PER_CALL", cap)
        owners = []

        def counted(lat1, lon1, lat2, lon2):
            if np.ndim(lat1) == 2:  # the bootstrap's calls; the oracle's owners are 1-D
                owners.append(len(lat1))
            return distances_np(lat1, lon1, lat2, lon2)

        def calls(n):
            return [step] * (n // step) + [n % step] * (n % step > 0)

        monkeypatch.setattr(simulate, "distances_np", counted)
        sc = small_scenario(n=41, seed=3)
        sc = replace(sc, seeds=tuple(sc.nodes[k].node_id for k in (3, 17, 30)))
        sim = Simulation(sc)
        assert owners == calls(41)
        seeds = [sim.nodes[sid].own_item(0) for sid in sc.seeds]
        self.assert_views_merged(
            sim, {nid: [it for it in seeds if it.node_id != nid] for nid in sim.nodes})
        sim.run(2)
        now_ms = sim.round * sim.params.period_ms
        events, joined = self.churn_events(sc, sc.seeds[1], fresh=10_000)
        del owners[:]
        sim.apply_churn(events, now_ms)
        assert owners == calls(len(joined))
        seeds = [sim.nodes[sid].own_item(now_ms) for sid in sc.seeds]
        self.assert_views_merged(
            sim, {nid: [it for it in seeds if it.node_id != nid] for nid in joined}, now_ms)


class TestDelegation:
    def test_delegated_node_emits_the_delegate_endpoint(self):
        sc = replace(four_node_demo(),
                     churn=(ChurnEvent(2, "join", node=NodeSpec(9, 59.91, 10.75, 50.0)),))
        sim = Simulation(sc, delegates={1: 2, 3: 9})
        assert sim.nodes[1].own_item(0).address == address_for(2)
        assert sim.nodes[3].own_item(0).address == address_for(9)
        assert sim.nodes[2].own_item(0).address == address_for(2)
        # the top of the id range maps to the top of the endpoint range
        assert address_for((1 << 64) - 1) == IPv6Address("2001:db8::ffff:ffff:ffff:ffff")

    def test_a_delegate_that_leaves_still_fronts_its_clients(self):
        # the documented limit: the map is fixed for the whole run
        sc = replace(four_node_demo(), churn=(ChurnEvent(2, "leave", node_id=2),))
        sim = Simulation(sc, delegates={1: 2})
        sim.run(5)
        assert 2 not in sim.nodes
        now_ms = sim.round * sim.params.period_ms
        assert sim.nodes[1].own_item(now_ms).address == address_for(2)
        assert sim.delegates == {1: 2}

    @pytest.mark.parametrize("delegates", [
        {5: 5}, {1: 1}, {1: -1}, {-1: 2}, {1: 1 << 64}, {1 << 64: 2}, {1: 99},
    ], ids=["self-unknown-node", "self-live-node", "negative-delegate", "negative-node",
            "delegate-over-64-bits", "node-over-64-bits", "non-member-delegate"])
    def test_invalid_delegation_rejected(self, delegates):
        with pytest.raises(ValueError):
            Simulation(four_node_demo(), delegates=delegates)


class TestChurnHandling:
    def test_join_gets_discovered(self):
        sc = small_scenario()
        joiner = NodeSpec(9001, sc.nodes[0].latitude, sc.nodes[0].longitude, 400.0)
        sc = replace(sc, churn=sc.churn + (ChurnEvent(10, "join", node=joiner),))
        sim = Simulation(sc)
        sim.run(20)
        gt = sim.candidate_lists()[9001]
        want = set(sim.oracle.candidates[9001])
        assert {item.node_id for item, _ in gt} == want

    def test_leaver_eventually_forgotten(self):
        sc = small_scenario()
        victim = next(nid for nid in (n.node_id for n in sc.nodes) if nid not in sc.seeds)
        sc = replace(sc, churn=sc.churn + (ChurnEvent(10, "leave", node_id=victim),))
        sim = Simulation(sc)
        sim.run(40)
        for nid, entries in sim.candidate_lists().items():
            assert victim not in {item.node_id for item, _ in entries}

    def test_seed_death_does_not_strand_joiners(self):
        sc = small_scenario()
        joiner = NodeSpec(9001, sc.nodes[0].latitude, sc.nodes[0].longitude, 300.0)
        sc = replace(sc, churn=sc.churn + (ChurnEvent(5, "leave", node_id=sc.seeds[0]),
                                           ChurnEvent(6, "join", node=joiner)))
        sim = Simulation(sc)
        sim.run(20)
        found = {item.node_id for item, _ in sim.candidate_lists()[9001]}
        want = set(sim.oracle.candidates[9001]) - {sc.seeds[0]}
        assert found >= want

    def test_rejoining_seed_gets_an_introducer(self):
        # the only seed leaves and comes back while no other seed is alive:
        # like any joiner it takes a random live introducer, or its random
        # view would stay empty and it would never start a sampling exchange
        sc = generate_scenario(300, region=(5000.0, 5000.0), radius_law=(100.0, 600.0),
                               rng_seed=3)
        [seed] = [s for s in sc.nodes if s.node_id in sc.seeds]
        sc = replace(sc, churn=(ChurnEvent(2, "leave", node_id=seed.node_id),
                                ChurnEvent(12, "join", node=seed)))
        sim = Simulation(sc)
        sim.run(13)
        assert sim.nodes[seed.node_id].random_view.entries

    def test_round_0_joiner_after_the_only_seed_leaves(self):
        demo = four_node_demo()
        joiner = NodeSpec(5, demo.nodes[0].latitude, demo.nodes[0].longitude, 300.0)
        sc = replace(demo, churn=(ChurnEvent(0, "leave", node_id=demo.seeds[0]),
                                  ChurnEvent(0, "join", node=joiner)))
        sim = Simulation(sc)
        sim.step()
        assert sim.nodes[5].random_view.entries

    def test_a_joiner_that_leaves_in_its_own_round_changes_nothing(self):
        # with the seed gone, bootstrapping the departed joiner would draw a
        # random introducer from the shared generator and shift the run
        sc = generate_scenario(60, region=(2000.0, 2000.0), radius_law=(100.0, 300.0),
                               rng_seed=5)
        seed_leaves = (ChurnEvent(1, "leave", node_id=sc.seeds[0]),)
        visitor = NodeSpec(999, sc.nodes[0].latitude, sc.nodes[0].longitude, 200.0)
        runs = []
        for churn in (seed_leaves, seed_leaves + (ChurnEvent(3, "join", node=visitor),
                                                  ChurnEvent(3, "leave", node_id=999))):
            sim = Simulation(replace(sc, churn=churn))
            runs.append((sim.run(8).rows, sim.rng.getstate()))
        assert runs[0] == runs[1]

    def test_settled_metric_excludes_new_joiners(self):
        sc = small_scenario(n=60)
        sc = add_random_churn(sc, rounds=15, rate=0.05, region=(4000.0, 4000.0),
                              radius_law=(100.0, 600.0))
        series = Simulation(sc).run(15)
        assert series.rows[0].mean_recall_settled is None  # nobody settled yet
        tail = series.rows[-1]
        assert tail.mean_recall_settled is not None
        assert 0.0 <= tail.mean_recall_settled <= 1.0

    def test_live_node_count_tracks_schedule(self):
        sc = small_scenario(n=60)
        sc = add_random_churn(sc, rounds=10, rate=0.1, region=(4000.0, 4000.0),
                              radius_law=(100.0, 600.0))
        series = Simulation(sc).run(10)
        for row in series.rows:
            joins = sum(ev.op == "join" for ev in sc.churn if ev.round <= row.round)
            leaves = sum(ev.op == "leave" for ev in sc.churn if ev.round <= row.round)
            assert row.live_nodes == len(sc.nodes) + joins - leaves


# few ids and a small box, so schedules often revisit an id and disks overlap
_SMALL_ID = st.integers(1, 12)
_SMALL_SPEC = st.builds(NodeSpec, _SMALL_ID, st.floats(59.90, 59.92), st.floats(10.74, 10.76),
                        st.floats(0.0, 600.0))
_SMALL_EVENT = st.one_of(
    st.builds(ChurnEvent, st.integers(0, 5), st.just("join"), node=_SMALL_SPEC),
    st.builds(ChurnEvent, st.integers(0, 5), st.just("leave"), node_id=_SMALL_ID),
)


class TestScheduleProperties:
    @settings(deadline=None)
    @given(st.lists(_SMALL_SPEC, max_size=8, unique_by=lambda n: n.node_id),
           st.lists(_SMALL_EVENT, max_size=8), st.integers(0, 1 << 32))
    def test_a_checked_schedule_runs_and_a_rejected_one_would_not(self, nodes, churn, seed):
        seeds = [nodes[0].node_id] if nodes else []
        try:
            sc = Scenario(nodes=nodes, seeds=seeds, churn=churn, rng_seed=seed)
        except ValueError:
            # fed round by round in the engine's order, the engine's own
            # guards stop the same schedule
            sim = Simulation(Scenario(nodes=nodes, seeds=seeds, rng_seed=seed))
            with pytest.raises((ValueError, UnknownNodeError)):
                for r in range(6):
                    sim.apply_churn([ev for ev in churn if ev.round == r], now_ms=0)
            return
        sim = Simulation(sc)
        for _ in range(max((ev.round for ev in churn), default=0) + 1):
            row = sim.step()
            joins = sum(ev.op == "join" for ev in churn if ev.round <= row.round)
            leaves = sum(ev.op == "leave" for ev in churn if ev.round <= row.round)
            assert row.live_nodes == len(nodes) + joins - leaves == len(sim.nodes)
            live = [node.spec for node in sim.nodes.values()]
            assert oracle_sets(sim.oracle.candidates) == exhaustive_candidates(live)


class TestMetricsCsv:
    def test_columns_and_row_count(self, tmp_path):
        series = Simulation(four_node_demo()).run(3)
        path = tmp_path / "metrics.csv"
        series.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,mean_recall,min_recall,bytes_sent_mean,live_nodes"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[4] == "4"
