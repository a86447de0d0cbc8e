"""The benchmark under bench/ drives the program by name: run.py calls the
public API and tracer.py wraps layer entry points by attribute.  These
tests fail when a change to the program breaks either."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from geogossip import spectrum
from geogossip.scenario import four_node_demo
from geogossip.simulate import Simulation

ROOT = Path(__file__).resolve().parent.parent


def test_self_test_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_reports_every_layer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        sim = Simulation(four_node_demo())
        # bootstrap merges into the random view through merge_random, as
        # every exchange does, so the sampling.merge span covers it too
        assert any(t.names[span[0]] == "sampling.merge" for span in t.spans)
        t.live = sim.nodes
        for _ in range(3):
            sim.step()
        g = spectrum.build_graph(sim.candidate_lists())
        assignment = spectrum.greedy_assign(g, 3)
        spectrum.conflict_weight(g, assignment)
    finally:
        t.uninstall()
    metrics, round_s = t.metrics()
    assert round_s > 0.0
    # every wrapped layer was entered: a name is registered when its
    # wrapper is installed, a span only when the wrapped call runs
    assert {t.names[span[0]] for span in t.spans} == set(tracer.SELF_TIMES)
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # run.py adds trace.overhead itself, from an untraced run beside the traced one
    assert per_layer - {"trace.overhead"} <= set(metrics)
