"""Steadiness mode: two sets of runs of the same code, compared.

Each set runs every workload of BENCHMARK.json once per seed 1-10, one
fresh interpreter per run, with the run length of BENCHMARK.json.  For each
workload and end-to-end metric it prints each set's median and quartiles,
the spread (interquartile distance over the median), and whether the two
sets agree within the metric's bound in BENCHMARK.json: both spreads
within the bound, and the two medians apart by no more than the bound, as
a share of the first.  Metrics that must repeat exactly for a seed, and
the share of failed operations, must be equal between the sets.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("bytes_per_node_s", "candidates_found", "conflict_m2")
RUN_TIMEOUT_S = 900
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = list(SEEDS)
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.jsonl"
    results = {}
    with open(log, "w") as fh:
        for label in ("A", "B"):
            for w in workloads:
                for seed in seeds:
                    r = run_once(w, seed, seconds)
                    results[label, w, seed] = r
                    fh.write(json.dumps({"set": label, "workload": w, "seed": seed, **r}) + "\n")
                    fh.flush()
                    print(f"set {label} {w} seed {seed}: {r['wall_s']:.1f} s wall, "
                          f"{r['attempted']} ops, {r['failed']} failed, correct={r['correct']}",
                          flush=True)
    agree = True
    for w in workloads:
        print(f"\n{w}  (spread = (q3 - q1) / median; shift = |B median - A median| / A median)")
        print(f"  {'metric':18s} {'bound':>6} {'A q1':>12} {'A median':>12} {'A q3':>12} {'A spread':>9}"
              f" {'B q1':>12} {'B median':>12} {'B q3':>12} {'B spread':>9} {'shift':>8}  verdict")
        for name, m in metrics.items():
            a = [results["A", w, s]["metrics"][name]["value"] for s in seeds]
            b = [results["B", w, s]["metrics"][name]["value"] for s in seeds]
            qa1, ma, qa3, sa = spread(a)
            qb1, mb, qb3, sb = spread(b)
            shift = abs(mb - ma) / ma
            ok = shift <= m["bound"] and max(sa, sb) <= m["bound"]
            steady = max(sa, sb) < m["bound"] / 3
            if name in EXACT:
                ok = ok and a == b
            agree = agree and ok
            verdict = ("agree" if ok else "DISAGREE") + ("" if steady else ", spread above bound/3")
            print(f"  {name:18s} {m['bound']:6.3f} {qa1:12.6g} {ma:12.6g} {qa3:12.6g} {sa:9.4f}"
                  f" {qb1:12.6g} {mb:12.6g} {qb3:12.6g} {sb:9.4f} {shift:8.4f}  {verdict}")
        shares = {label: sum(results[label, w, s]["failed"] for s in seeds)
                  / sum(results[label, w, s]["attempted"] for s in seeds) for label in "AB"}
        correct = all(results[label, w, s]["correct"] for label in "AB" for s in seeds)
        walls = [results[label, w, s]["wall_s"] for label in "AB" for s in seeds]
        print(f"  failed share A {shares['A']!r}, B {shares['B']!r}; all correct: {correct}; "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        agree = agree and shares["A"] == shares["B"] and correct
    print(f"\nruns logged to {log.relative_to(ROOT)}")
    print("the two sets agree" if agree else "the two sets DISAGREE")
    return 0 if agree else 1
