"""Per-layer tracing from outside the program.

The tracer replaces each public call of a layer, where the calling module
binds it, with a wrapper that records a span (name, start, end, parent)
in memory and counts the work the call did.  A layer's self time is its
span time minus the time of its child spans.  The self times of the
spans inside ``Simulation.step`` therefore add up to the traced round time
by construction; what the wrappers reveal is how little of it is left to
``simulate.round_self_s``, the step's own code.
"""

import time
from collections import Counter

import numpy as np

from geogossip import overlay, sampling, simulate, spectrum

# span name -> self-time metric
SELF_TIMES = {
    "sampling.partner": "sampling.partner_s",
    "sampling.buffer": "sampling.buffer_s",
    "sampling.merge": "sampling.merge_s",
    "sampling.tick": "sampling.tick_s",
    "overlay.select": "overlay.select_s",
    "overlay.buffer": "overlay.buffer_s",
    "overlay.merge": "overlay.merge_s",
    "overlay.candidate_lists": "overlay.candidate_lists_s",
    "geometry.distances": "geometry.distances_s",
    "geometry.overlap": "geometry.overlap_s",
    "simulate.churn": "simulate.churn_s",
    "simulate.round": "simulate.round_self_s",
    "spectrum.graph": "spectrum.graph_s",
    "spectrum.greedy": "spectrum.greedy_s",
    "spectrum.conflict": "spectrum.conflict_s",
}
# span name -> call-count metric
CALL_COUNTS = {
    "geometry.distances": "geometry.distance_calls",
    "geometry.overlap": "geometry.overlap_calls",
    "spectrum.conflict": "spectrum.conflict_calls",
}
COUNTS = ("sampling.dead_partners", "sampling.items_sent", "sampling.items_merged",
          "overlay.dead_targets", "overlay.items_sent", "overlay.items_merged",
          "overlay.entries_added", "overlay.entries_evicted",
          "geometry.distances", "spectrum.edges")
ROUND = "simulate.round"
UNITS = {**{m: "s" for m in SELF_TIMES.values()},
         **{m: "count" for m in CALL_COUNTS.values()},
         **{m: "count" for m in COUNTS},
         "overlay.keep_ratio": "ratio", "trace.overhead": "ratio"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []  # (name index, start, end, parent index)
        self.stack: list[int] = []
        self.counts = Counter({name: 0 for name in COUNTS})
        self.live: dict = {}  # the traced simulation's live nodes
        self._patched: list[tuple] = []

    # -- installing -----------------------------------------------------------

    def install(self):
        c = self.counts

        def dead_partner(args, kwargs, partner):
            c["sampling.dead_partners"] += partner not in self.live

        def dead_target(args, kwargs, target):
            c["overlay.dead_targets"] += target not in self.live

        def sent(key):
            def post(args, kwargs, buf):
                c[key] += len(buf)
            return post

        def merged_random(args, kwargs, _):
            c["sampling.items_merged"] += len(args[1])

        def distances(args, kwargs, _):
            c["geometry.distances"] += int(np.size(args[2]))

        def edges(args, kwargs, g):
            c["spectrum.edges"] += sum(len(nbrs) for nbrs in g.adj.values()) // 2

        self._patch(simulate, "sample_partner", "sampling.partner", post=dead_partner)
        self._patch(simulate, "make_push_buffer", "sampling.buffer", post=sent("sampling.items_sent"))
        self._patch(simulate, "merge_random", "sampling.merge", post=merged_random)
        self._patch(sampling.RandomView, "tick", "sampling.tick")
        self._patch(simulate, "select_target", "overlay.select", post=dead_target)
        self._patch(simulate, "buffer_for", "overlay.buffer", post=sent("overlay.items_sent"))
        self._patch_ranked_merge()
        self._patch(simulate.Simulation, "candidate_lists", "overlay.candidate_lists")
        self._patch(simulate, "distances_np", "geometry.distances", post=distances)
        self._patch(overlay, "distances_np", "geometry.distances", post=distances)
        self._patch(overlay, "overlap_area_f", "geometry.overlap")
        self._patch(simulate.Simulation, "apply_churn", "simulate.churn")
        self._patch(simulate.Simulation, "step", ROUND)
        self._patch(spectrum, "build_graph", "spectrum.graph", post=edges)
        self._patch(spectrum, "greedy_assign", "spectrum.greedy")
        self._patch(spectrum, "conflict_weight", "spectrum.conflict")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _name_index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _patch(self, owner, attr, name, post=None):
        fn = getattr(owner, attr)
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, post))

    def _wrap(self, fn, name, post):
        key = self._name_index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(args, kwargs, result)
                return result
            finally:
                stack.pop()
                spans[idx] = (key, start, clock(), parent)

        return traced

    def _patch_ranked_merge(self):
        """RankedView.merge, counting the ids it adds and the entries it evicts."""
        c = self.counts
        merge = overlay.RankedView.merge

        def counted_merge(view, items, now_ms, stale_ms):
            items = list(items)
            entries = view.entries
            before = len(entries)
            added = len({it.node_id for it in items
                         if it.node_id not in entries and it.node_id != view.owner_id})
            merge(view, items, now_ms, stale_ms)
            c["overlay.items_merged"] += len(items)
            c["overlay.entries_added"] += added
            c["overlay.entries_evicted"] += before + added - len(view.entries)

        self._patched.append((overlay.RankedView, "merge", merge))
        overlay.RankedView.merge = self._wrap(counted_merge, "overlay.merge", None)

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, and the traced round seconds."""
        spans = np.array(self.spans, dtype=float).reshape(-1, 4)
        name = spans[:, 0].astype(int)
        dur = spans[:, 2] - spans[:, 1]
        parent = spans[:, 3].astype(int)
        child = np.zeros(len(spans))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        key = {n: k for k, n in enumerate(self.names)}
        out = {metric: float(own[name == key[span]].sum()) if span in key else 0.0
               for span, metric in SELF_TIMES.items()}
        out.update({metric: int(np.count_nonzero(name == key[span])) if span in key else 0
                    for span, metric in CALL_COUNTS.items()})
        out.update(self.counts)
        added = self.counts["overlay.entries_added"]
        out["overlay.keep_ratio"] = (added - self.counts["overlay.entries_evicted"]) / added if added else 1.0
        return out, float(dur[name == key.get(ROUND, -1)].sum())

    def write(self, path):
        """Write every span as CSV: name, start and end in seconds, parent row."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for key, start, end, parent in self.spans:
                fh.write(f"{self.names[key]},{start - t0:.9f},{end - t0:.9f},{parent}\n")
