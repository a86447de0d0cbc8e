"""Benchmark of the geogossip simulator: one workload per run.

    python3 bench/run.py --workload converge-1k --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test
    python3 bench/run.py --steadiness

A run generates its seeded scenario, then repeats whole episodes until it
has measured for --seconds and run the workload's least number of
episodes.  An episode builds a fresh Simulation, steps it a fixed number
of rounds and builds the candidate lists and the channel assignment.  The
first episode's outputs are checked against this directory's own
computations; every later episode replays the same scenario and must give
the same outputs.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.

With --trace 1 the run measures the rounds once untraced, then runs one
traced episode and reports the per-layer metrics instead.
"""

import os

# one thread, so that timings do not depend on the machine's core count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from checks import (CHANNELS, CHECKS, Outputs, Truth, adjacency, candidate_oracle,
                    candidates_found, check_replay, local_costs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

REGION = (10_000.0, 10_000.0)  # meters
RADII = (100.0, 600.0)  # uniform radius law, meters
REF_ITERS = 15_000  # reference_loop's work per repetition
REF_REPS = 5
REF_S = 0.003  # scale: timings read as seconds on a host where reference_loop takes REF_S


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    rounds: int
    churn_rate: float  # joins and leaves per round, as a share of the live nodes
    episodes: int  # least number of episodes (replays of the same work) per run
    setups: int  # extra timed Simulation builds before the first episode
    assigns: int  # timed assignments per episode


# Round counts keep every run within the time budget: converge-1k passes
# recall 0.99 near round 7; dense-4k stops at recall ~0.85, after its costliest
# rounds, as each of its rounds and its assignment cost seconds; churn-1k
# churns every round.  Timings are repeated as the budget allows, for steadier
# medians.
WORKLOADS = {w.name: w for w in (
    Workload("converge-1k", 1000, 10, 0.0, episodes=2, setups=12, assigns=2),
    Workload("dense-4k", 4000, 6, 0.0, episodes=1, setups=4, assigns=2),
    Workload("churn-1k", 1000, 10, 0.01, episodes=2, setups=12, assigns=2),
)}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "node_rounds_per_s": "1/s",
    "assign_s": "s",
    "peak_rss_mb": "MB",
    "bytes_per_node_s": "B/s",
    "candidates_found": "pairs",
    "conflict_m2": "m2",
}


def import_program():
    """Import geogossip from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import geogossip
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import geogossip from {SRC}: {exc}")
    if Path(geogossip.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: geogossip imported from {geogossip.__file__}, not {SRC}")


def make_scenario(w: Workload, seed: int):
    """The seeded scenario of a workload: the program's own uniform
    placement, plus add_random_churn's schedule on a churn workload."""
    from geogossip.scenario import add_random_churn, generate_scenario

    sc = generate_scenario(w.nodes, REGION, RADII, seed)
    if w.churn_rate:
        sc = add_random_churn(sc, w.rounds, w.churn_rate, REGION, RADII)
    return sc


def truth_of(sc, w: Workload):
    """Membership per round and node geometry, read off the scenario alone."""
    specs = {n.node_id: (n.latitude, n.longitude, n.radius) for n in sc.nodes}
    live = set(specs)
    counts = []
    for r in range(w.rounds):
        for ev in sc.churn:
            if ev.round != r:
                continue
            if ev.op == "join":
                specs[ev.node.node_id] = (ev.node.latitude, ev.node.longitude, ev.node.radius)
                live.add(ev.node.node_id)
            else:
                live.discard(ev.node_id)
        counts.append(len(live))
    return Truth(specs=specs, live_final=sorted(live), live_counts=counts, churn=bool(sc.churn))


def reference_loop():
    """How fast the host runs this process right now: the median wall
    seconds of REF_REPS runs of a fixed piece of pure-Python work.  The
    median drops a run that a brief interruption slowed."""
    times = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        d = {}
        for i in range(REF_ITERS):
            d[i % 977] = d.get(i % 977, 0.0) + i * 0.5
        sorted(d.items(), key=lambda kv: kv[1])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed(fn, *args):
    """(fn's result, its wall seconds scaled to the reference host speed).

    The host's speed drifts by up to 1.7x over tens of seconds, alike for
    the program and for reference_loop.  The loop runs just before and just
    after the call, and the call's wall time is scaled by REF_S over the
    mean of the two, which takes most of that drift out."""
    before = reference_loop()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    return result, wall * 2.0 * REF_S / (before + reference_loop())


def timed_setup(sc):
    """A fresh Simulation and the scaled seconds its construction took."""
    from geogossip.simulate import Simulation

    gc.collect()
    return timed(Simulation, sc)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Ops:
    """Counts operations; an exception or a failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failed = False

    def call(self, label, fn, *args):
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:
            self.failed += 1
            print(f"FAILED {label}:", file=sys.stderr)
            traceback.print_exc()
            return False, None

    def fail(self, label, reason):
        self.attempted += 1
        self.failed += 1
        self.check_failed = True
        print(f"FAILED {label}: {reason}", file=sys.stderr)

    def check(self, label, fn, *args):
        ok, result = self.call(label, fn, *args)
        if ok:
            passed, detail = result
            print(f"  check {label:20s} {'ok' if passed else 'FAILED'}  {detail}")
            if not passed:
                self.failed += 1
                self.check_failed = True
        else:
            self.check_failed = True


def run_rounds(ops, sim, w):
    """Step the simulation; returns (scaled seconds of all steps, rows)."""
    spent = 0.0
    rows = []
    for r in range(w.rounds):
        ok, result = ops.call(f"step {r}", timed, sim.step)
        if ok:
            rows.append(result[0])
            spent += result[1]
    return spent, rows


def assign(sim):
    from geogossip import spectrum

    lists = sim.candidate_lists()
    g = spectrum.build_graph(lists)
    return lists, g, spectrum.greedy_assign(g, CHANNELS)


def outputs_of(sim, rows, lists, g, assignment, conflict):
    return Outputs(
        lists={a: [(item.node_id, u) for item, u in entries] for a, entries in lists.items()},
        edges={(a, b): w for a, nbrs in g.adj.items() for b, w in nbrs.items() if a < b},
        vertices=set(g.adj),
        assignment=dict(assignment),
        conflict=conflict,
        recalls=[row.mean_recall for row in rows],
        live=[row.live_nodes for row in rows],
        total_bytes=sim.series.total_bytes,
        total_descriptors=sim.series.total_descriptors,
        bytes_per_node_s=sim.series.mean_bytes_per_second(sim.params.period_seconds),
    )


def finish_episode(ops, sim, rows, truth, assigns, tracer=None, first=None):
    """Assignments, then the checks, or on a replay only the check that it
    gave the first episode's outputs.  Returns (scaled seconds of each
    assignment, peak RSS MB, outputs)."""
    from geogossip import spectrum

    timings = []
    for k in range(assigns):
        result = None  # drop the previous assignment's graph before the next
        gc.collect()
        ok, result = ops.call(f"assignment {k}", timed, assign, sim)
        if ok:
            timings.append(result[1])
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    out = None
    if ok:
        lists, g, assignment = result[0]
        out = outputs_of(sim, rows, lists, g, assignment, spectrum.conflict_weight(g, assignment))
    checks = CHECKS if first is None else {"replay": lambda out, truth: check_replay(out, first)}
    for label, check in checks.items():
        if out is None:
            ops.fail(label, "the assignment produced no outputs")
        else:
            ops.check(label, check, out, truth)
    return timings, rss, out


def measure(w, seed, seconds):
    """Untraced run: end-to-end metrics."""
    sc = make_scenario(w, seed)
    truth = truth_of(sc, w)
    ops = Ops()
    setups = []
    for _ in range(w.setups):
        sim, dt = timed_setup(sc)
        setups.append(dt)
        sim = None
    episodes = 0
    step_s = 0.0
    assigns = []
    rss = out = None
    t_start = time.perf_counter()
    while episodes < w.episodes or time.perf_counter() - t_start < seconds:
        episodes += 1
        sim, dt = timed_setup(sc)
        setups.append(dt)
        spent, rows = run_rounds(ops, sim, w)
        step_s += spent
        times, rss_now, out_now = finish_episode(ops, sim, rows, truth, w.assigns, first=out)
        sim = None
        assigns += times
        if episodes == 1:
            rss, out = rss_now, out_now
    metrics = {
        "setup_s": statistics.median(setups),
        "node_rounds_per_s": episodes * sum(truth.live_counts) / step_s,
        "assign_s": statistics.median(assigns),
        "peak_rss_mb": rss,
    }
    if out is not None:
        metrics["bytes_per_node_s"] = out.bytes_per_node_s
        metrics["candidates_found"] = candidates_found(out, truth)
        metrics["conflict_m2"] = out.conflict
    print(f"{w.name} seed {seed}: {episodes} episodes of {w.rounds} rounds, {len(setups)} setups, "
          f"{len(assigns)} assignments; {len(truth.oracle()[1])} ordered pairs within tangency "
          f"tolerance left out of the oracle")
    return ops, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def measure_traced(w, seed):
    """Traced run: per-layer metrics, plus the tracing overhead."""
    from geogossip.simulate import Simulation
    from tracer import UNITS, Tracer

    sc = make_scenario(w, seed)
    truth = truth_of(sc, w)
    ops = Ops()
    sim, _ = timed_setup(sc)
    plain_s, _ = run_rounds(ops, sim, w)
    sim = None
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        sim = Simulation(sc)
        tracer.live = sim.nodes
        traced_s, rows = run_rounds(ops, sim, w)
        finish_episode(ops, sim, rows, truth, 1, tracer)
    finally:
        tracer.uninstall()
    values, round_s = tracer.metrics()
    values["trace.overhead"] = plain_s / traced_s  # traced / untraced node_rounds_per_s
    print(f"{w.name} seed {seed}: wrapped layers cover "
          f"{1.0 - values['simulate.round_self_s'] / round_s:.1%} of {round_s:.3f} s traced round time; "
          f"simulate.round_self_s is the rest")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{w.name}-seed{seed}.csv")
    return ops, {k: (v, UNITS[k]) for k, v in values.items()}


def self_test():
    """Show that the oracle is right on a hand-made case and that each
    check fails on real outputs with one corruption."""
    import copy

    from geogossip.scenario import four_node_demo

    def drop_candidate(out, truth):
        a, b = next((a, b) for a, entries in sorted(out.lists.items()) for b, u in entries if u > 0)
        out.lists[a] = [e for e in out.lists[a] if e[0] != b]
        out.lists[b] = [e for e in out.lists.get(b, []) if e[0] != a]

    def add_false_candidate(out, truth):
        a = min(out.lists)
        _, gap, _, _ = truth.gaps([a] * len(truth.live_final), truth.live_final)
        out.lists[a].append((truth.live_final[int(gap.argmax())], 0.0))

    def perturb_utility(out, truth):
        a, k = next((a, k) for a, entries in sorted(out.lists.items())
                    for k, (_, u) in enumerate(entries) if u > 1.0)
        b, u = out.lists[a][k]
        out.lists[a][k] = (b, u * 1.01)

    def move_channel(out, truth):
        adj = adjacency(out.lists)
        gain, node, channel = max(
            (cost[c] - cost[out.assignment[n]], n, c)
            for n in sorted(adj) for cost in [local_costs(adj, out.assignment, n)]
            for c in range(CHANNELS))
        if gain <= 0.0:
            raise RuntimeError("no node has a channel with higher local conflict")
        out.assignment[node] = channel

    demo = four_node_demo()
    cands, _ = candidate_oracle({n.node_id: (n.latitude, n.longitude, n.radius) for n in demo.nodes})
    results = [("oracle on four_node_demo", cands == {1: {2, 4}, 2: {1, 4}, 3: {4}, 4: {1, 2, 3}})]
    w = Workload("self-test", 300, 8, 0.0, episodes=1, setups=0, assigns=1)
    sc = make_scenario(w, seed=1)
    truth = truth_of(sc, w)
    ops = Ops()
    sim, _ = timed_setup(sc)
    _, rows = run_rounds(ops, sim, w)
    _, _, out = finish_episode(ops, sim, rows, truth, 1)
    results.append(("real outputs pass every check", ops.failed == 0))
    for corrupt, target in ((drop_candidate, "graph"), (add_false_candidate, "candidates_overlap"),
                            (perturb_utility, "utilities"), (move_channel, "best_response")):
        bad = copy.deepcopy(out)
        corrupt(bad, truth)
        ok, detail = CHECKS[target](bad, truth)
        results.append((f"{corrupt.__name__}: check {target} fails ({detail})", not ok))
    for label, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
    return 0 if all(passed for _, passed in results) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", help="prove that every output check can fail")
    p.add_argument("--steadiness", action="store_true", help="compare two sets of runs of this code")
    args = p.parse_args(argv)
    if args.steadiness:
        import steadiness
        return steadiness.main()
    import_program()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    w = WORKLOADS[args.workload]
    if args.trace:
        ops, metrics = measure_traced(w, args.seed)
    else:
        ops, metrics = measure(w, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value!r:>24} {unit}")
    print(f"  operations: {ops.attempted} attempted, {ops.failed} failed")
    print(json.dumps({
        "correct": not ops.check_failed,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
