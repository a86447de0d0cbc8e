"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (visible even under pytest
output capture) and then asserts.  The heavy 1,000-node convergence
batch is computed once and shared by the criteria that need it.
"""

import math
import time
from dataclasses import replace
from random import Random

import pytest

from geogossip import simulate
from geogossip.gateway import select_delegate
from geogossip.geometry import EARTH_RADIUS_M, distances_np, overlap_area_f
from geogossip.scenario import (
    add_random_churn,
    address_for,
    four_node_demo,
    generate_scenario,
)
from geogossip.simulate import Simulation, convergence_round
from geogossip.spectrum import (
    HintState,
    InterferenceGraph,
    conflict_weight,
    greedy_assign,
    qoe_step,
)
from geogossip.wire import FRAME_LEN, decode, encode
from helpers import brute_force_optimum, mc_overlap_area, oracle_sets, random_item

pytestmark = pytest.mark.acceptance

REGION = (10_000.0, 10_000.0)
RADII = (100.0, 600.0)


@pytest.fixture
def report(capsys):
    def _report(number, label, ok, detail=""):
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"acceptance {number:>2} {label}: {verdict}{suffix}")
        assert ok, f"acceptance {number} {label}{suffix}"

    return _report


_batch_cache = {}


def convergence_batch():
    """Ten seeded 1,000-node runs of 30 rounds; shared by several criteria."""
    if "runs" not in _batch_cache:
        t0 = time.monotonic()
        runs = []
        for seed in range(10):
            sc = generate_scenario(1000, region=REGION, radius_law=RADII, rng_seed=seed)
            runs.append((sc, Simulation(sc).run(30)))
        _batch_cache["runs"] = runs
        _batch_cache["elapsed"] = time.monotonic() - t0
    return _batch_cache["runs"], _batch_cache["elapsed"]


def test_01_wire_codec(report):
    t0 = time.monotonic()
    rng = Random(0xC0DEC)
    ok = True
    for _ in range(1_000_000):
        item = random_item(rng)
        frame = encode(item)
        if len(frame) != 56 or decode(frame) != item:
            ok = False
            break
    fuzz_ok = True
    for _ in range(100_000):
        frame = rng.randbytes(FRAME_LEN)
        try:
            decode(frame)
        except ValueError:
            continue
        except Exception:
            fuzz_ok = False
            break
    elapsed = time.monotonic() - t0
    report(1, "wire codec", ok and fuzz_ok and elapsed < 30.0,
           f"10^6 round trips + 10^5 fuzz frames in {elapsed:.1f}s")


def test_02_convergence(report):
    runs, elapsed = convergence_batch()
    conv_rounds = []
    ok = True
    for sc, series in runs:
        conv = convergence_round(series, 0.99)
        recalls = [r.mean_recall for r in series.rows]
        if conv is None or not all(b >= a for a, b in zip(recalls, recalls[1:])):
            ok = False
        conv_rounds.append(conv)
    ok = ok and elapsed < 300.0
    report(2, "1000-node convergence", ok,
           f"conv rounds {conv_rounds}, monotone, {elapsed:.0f}s for 10 seeds")


def test_03_scaling(report):
    runs, _ = convergence_batch()
    conv = {1000: convergence_round(runs[0][1], 0.99)}
    for n in (250, 4000):
        sc = generate_scenario(n, region=REGION, radius_law=RADII, rng_seed=0)
        sim = Simulation(sc)
        conv[n] = None
        for _ in range(30):
            row = sim.step()
            if row.mean_recall >= 0.99:
                conv[n] = row.round
                break
    ok = (None not in conv.values()
          and conv[1000] < 2 * conv[250]
          and conv[4000] < 2 * conv[1000])
    report(3, "scaling", ok,
           f"conv rounds 250:{conv[250]} 1000:{conv[1000]} 4000:{conv[4000]}")


def test_04_bandwidth(report):
    runs, _ = convergence_batch()
    rates = []
    identity = True
    for sc, series in runs:
        rates.append(series.mean_bytes_per_second(sc.params.period_seconds))
        identity = identity and series.total_bytes == 56 * series.total_descriptors
    worst = max(rates)
    report(4, "bandwidth", identity and worst <= 600.0,
           f"worst mean rate {worst:.1f} B/s per node, bytes == 56 x descriptors")


def test_05_oracle_equivalence(report):
    sc = generate_scenario(200, region=(5000.0, 5000.0), radius_law=RADII, rng_seed=11)
    sim = Simulation(sc)
    sim.run(30)
    gt = oracle_sets(sim.oracle.candidates)
    exact = all(
        {item.node_id for item, _ in entries} == gt[nid]
        for nid, entries in sim.candidate_lists().items()
    )
    report(5, "200-node oracle equivalence", exact,
           "every candidate list equals the exhaustive pairwise set")


def test_06_geometry(report):
    unit_d = float(distances_np(0.0, 0.0, 1.0 / (EARTH_RADIUS_M * math.pi / 180.0), 0.0))
    lens = overlap_area_f(unit_d, 1.0, 1.0)
    lens_ok = abs(lens - 1.22837) <= 1e-4
    rng = Random(0x6E0)
    mc_ok = True
    worst_sigma = 0.0
    for i in range(50):
        r1 = rng.uniform(10.0, 1000.0)
        r2 = rng.uniform(10.0, 1000.0)
        d = rng.uniform(0.0, (r1 + r2) * 1.1)
        lat2 = d / (EARTH_RADIUS_M * math.pi / 180.0)
        exact_d = float(distances_np(0.0, 0.0, lat2, 0.0))
        got = overlap_area_f(exact_d, r1, r2)
        estimate, stderr = mc_overlap_area(r1, r2, exact_d, samples=10_000_000, seed=i)
        sigma = abs(got - estimate) / stderr if stderr > 0 else 0.0
        worst_sigma = max(worst_sigma, sigma)
        if abs(got - estimate) > 3.0 * stderr + 1e-9:
            mc_ok = False
    report(6, "overlap geometry", lens_ok and mc_ok,
           f"lens(1,1)={lens:.6f}, 50 pairs vs 10^7-sample oracle, worst {worst_sigma:.2f} sigma")


def test_07_quartet(report):
    sim = Simulation(four_node_demo())
    gt = oracle_sets(sim.oracle.candidates)
    sets_ok = gt == {1: {2, 4}, 2: {1, 4}, 3: {4}, 4: {1, 2, 3}}
    series = sim.run(5)
    conv = convergence_round(series, 1.0)
    lists_ok = all(
        {item.node_id for item, _ in entries} == gt[nid]
        for nid, entries in sim.candidate_lists().items()
    )
    ok = sets_ok and conv is not None and conv <= 5 and lists_ok
    report(7, "four-node fixture", ok, f"exact sets, converged at round {conv}")


def test_08_churn(report):
    sc = generate_scenario(1000, region=REGION, radius_law=RADII, rng_seed=42)
    sc = add_random_churn(sc, rounds=100, rate=0.01, region=REGION, radius_law=RADII)
    series = Simulation(sc).run(100)
    tail = [row.mean_recall_settled for row in series.rows[-20:]
            if row.mean_recall_settled is not None]
    steady = sum(tail) / len(tail)
    report(8, "churn resilience", steady >= 0.95,
           f"steady-state settled recall {steady:.4f} over final 20 rounds")


def test_09_channel_hints(report):
    rng = Random(0)
    worst = 0.0
    assign_ok = True
    for _ in range(100):
        g = InterferenceGraph()
        for v in range(8):
            g.add_vertex(v)
        for a in range(8):
            for b in range(a + 1, 8):
                if rng.random() < 0.8:
                    g.add_edge(a, b, rng.uniform(0.1, 10.0))
        optimum, best = brute_force_optimum(g, 3)
        assign_ok = assign_ok and repr(optimum) == repr(conflict_weight(g, best))
        got = conflict_weight(g, greedy_assign(g, 3))
        if optimum == 0.0:
            assign_ok = assign_ok and got == 0.0
        else:
            worst = max(worst, got / optimum)
            assign_ok = assign_ok and got <= 1.5 * optimum + 1e-9

    # sabotage model: every hint is bad; the node may occupy the hinted
    # channel for at most one round before going back to its baseline
    state = HintState(channel=0, baseline_channel=0, baseline_qoe=0.8)
    qoe_ok = True
    for hint in range(1, 100):
        bad = hint % 3
        if bad == state.baseline_channel:
            continue
        on_hint = 1  # round spent measuring the hinted channel
        state = qoe_step(state, bad, observed_qoe=0.1)
        while state.channel == bad:
            on_hint += 1
            state = qoe_step(state, bad, observed_qoe=0.1)
        if on_hint > 1:
            qoe_ok = False
    report(9, "channel hints", assign_ok and qoe_ok,
           f"100 instances worst ratio {worst:.3f} <= 1.5, bad hints held <= 1 round")


def test_10_privacy_delegation(report, monkeypatch):
    sc = generate_scenario(300, region=(6000.0, 6000.0), radius_law=RADII, rng_seed=5)
    node_ids = sorted(n.node_id for n in sc.nodes)
    privacy = node_ids[::10]
    pool = {nid: 1 for nid in node_ids}
    rng = Random(99)
    delegates = {nid: select_delegate(nid, pool, rng) for nid in privacy}

    plain = Simulation(sc)
    plain.run(25)

    # every buffer the engine sends comes from one of these two builders
    emitted = set()
    seen = 0

    def collecting(build):
        def wrapped(*args, **kwargs):
            nonlocal seen
            buf = build(*args, **kwargs)
            emitted.update((item.node_id, item.address) for item in buf)
            seen += len(buf)
            return buf
        return wrapped

    monkeypatch.setattr(simulate, "make_push_buffer", collecting(simulate.make_push_buffer))
    monkeypatch.setattr(simulate, "buffer_for", collecting(simulate.buffer_for))
    fronted = Simulation(sc, delegates=delegates)
    fronted.run(25)

    same_lists = all(
        [(item.node_id, util) for item, util in plain.candidate_lists()[nid]]
        == [(item.node_id, util) for item, util in fronted.candidate_lists()[nid]]
        for nid in node_ids
    )
    leaked = {
        nid for nid, addr in emitted
        if nid in delegates and addr == address_for(nid)
    }
    # each delegated node was heard, under its delegate's endpoint
    fronted_ok = {nid for nid, addr in emitted
                  if nid in delegates and addr == address_for(delegates[nid])} == set(delegates)
    # the wrappers saw every item the engine counted as sent
    all_seen = seen == fronted.series.total_descriptors
    report(10, "privacy delegation", same_lists and not leaked and fronted_ok and all_seen,
           f"{len(privacy)} delegated nodes, identical lists, no own endpoint emitted")
