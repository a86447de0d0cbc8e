"""Batch command-line front end.

Subcommands: gen (scenario generation), run (simulation + metrics CSV),
churn-run (simulation with a generated churn schedule), assign (channel
assignment from a converged run), inspect (pretty-print a hex frame).
All outputs are deterministic under fixed seeds.  If GEOGOSSIP_OUT is
set, relative output paths are placed under that directory.
"""

import argparse
import os
import sys
from dataclasses import replace

from . import scenario as scn
from . import simulate, spectrum
from .wire import FrameLengthError, FieldRangeError, decode


def _outpath(path: str) -> str:
    base = os.environ.get("GEOGOSSIP_OUT")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _parse_region(text: str) -> tuple[float, float]:
    try:
        w, _, h = text.partition("x")
        return float(w), float(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"region must look like 10000x10000, got {text!r}")


def _parse_radius(text: str):
    if "," in text:
        lo, hi = text.split(",", 1)
        return (float(lo), float(hi))
    return float(text)


def cmd_gen(args) -> int:
    try:
        s = scn.generate_scenario(args.n, args.region, args.radius, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _outpath(args.out)
    try:
        scn.save_scenario(s, out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out}: {args.n} nodes, seed node {s.seeds[0]}")
    return 0


def _flag_error(args) -> str | None:
    if args.rounds < 1:
        return f"--rounds must be >= 1: {args.rounds}"
    if not 0.0 < getattr(args, "threshold", 1.0) <= 1.0:
        return f"--threshold must be in (0, 1]: {args.threshold}"
    if getattr(args, "channels", 1) < 1:
        return f"--channels must be >= 1: {args.channels}"
    return None


def _load(args):
    """(scenario, 0), or (None, exit code) once the reason is reported:
    2 when a flag is out of range (checked first, so no simulation runs)
    or the file's content is invalid, 1 when the file cannot be read."""
    path = args.scenario
    if error := _flag_error(args):
        print(f"error: {error}", file=sys.stderr)
        return None, 2
    try:
        return scn.load_scenario(path), 0
    except OSError as exc:
        print(f"error: cannot read scenario {path}: {exc}", file=sys.stderr)
        return None, 1
    except scn.ScenarioFormatError as exc:
        print(f"error: invalid scenario {path}: {exc}", file=sys.stderr)
        return None, 2


def _run_and_report(s, args, out_csv: str) -> int:
    if args.seed is not None:
        s = replace(s, rng_seed=args.seed)
    sim = simulate.Simulation(s)
    series = sim.run(args.rounds)
    if args.verbose:
        for row in series.rows:
            print(f"round {row.round}: mean_recall={row.mean_recall:.4f} "
              f"min_recall={row.min_recall:.4f} live={row.live_nodes}")
    out_csv = _outpath(out_csv)
    try:
        series.to_csv(out_csv)
    except OSError as exc:
        print(f"error: cannot write {out_csv}: {exc}", file=sys.stderr)
        return 1
    conv = simulate.convergence_round(series, args.threshold)
    conv_text = str(conv) if conv is not None else "not reached"
    print(f"convergence round (recall >= {args.threshold}): {conv_text}")
    print(f"final mean recall: {series.final_recall():.6f}")
    print(f"mean bandwidth: {series.mean_bytes_per_second(s.params.period_seconds):.1f} B/s per node")
    return 0


def cmd_run(args) -> int:
    s, rc = _load(args)
    if s is None:
        return rc
    return _run_and_report(s, args, args.out)


def cmd_churn_run(args) -> int:
    s, rc = _load(args)
    if s is None:
        return rc
    try:
        s = scn.add_random_churn(s, rounds=args.rounds, rate=args.rate,
                                 region=args.region, radius_law=args.radius)
    except ValueError as exc:
        print(f"error: cannot add churn to {args.scenario}: {exc}", file=sys.stderr)
        return 2
    return _run_and_report(s, args, args.out)


def cmd_assign(args) -> int:
    s, rc = _load(args)
    if s is None:
        return rc
    if args.seed is not None:
        s = replace(s, rng_seed=args.seed)
    sim = simulate.Simulation(s)
    sim.run(args.rounds)
    graph = spectrum.build_graph(sim.candidate_lists())
    assignment = spectrum.greedy_assign(graph, args.channels)
    out = _outpath(args.out)
    try:
        spectrum.export_assignment_csv(graph, assignment, out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    total = spectrum.conflict_weight(graph, assignment)
    print(f"assigned {len(assignment)} nodes to {args.channels} channels, "
          f"total conflict weight {total:.1f}")
    return 0


def cmd_inspect(args) -> int:
    try:
        frame = bytes.fromhex(args.frame)
    except ValueError as exc:
        print(f"error: malformed hex: {exc}", file=sys.stderr)
        return 2
    try:
        item = decode(frame)
    except (FrameLengthError, FieldRangeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"Identifier:          {item.node_id}")
    print(f"Location:            ({item.latitude!r}, {item.longitude!r})")
    print(f"Coordination radius: {item.radius!r} m")
    print(f"Address:             {item.address}")
    print(f"Timestamp:           {item.timestamp_ms} ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geogossip",
                                     description="geographic gossip discovery simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a scenario file")
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument("--region", type=_parse_region, default=(10000.0, 10000.0),
                   help="region WIDTHxHEIGHT in meters (default 10000x10000)")
    p.add_argument("--radius", type=_parse_radius, default=300.0,
                   help="coordination radius in meters, or LO,HI for uniform")
    p.add_argument("--seed", type=int, default=0, help="rng seed")
    p.add_argument("--out", default="scenario.txt", help="output scenario path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run a scenario and emit metrics CSV")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--out", default="metrics.csv", help="metrics CSV path")
    p.add_argument("--seed", type=int, default=None, help="override scenario rng seed")
    p.add_argument("--threshold", type=float, default=0.99, help="convergence recall threshold")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("churn-run", help="run with a generated join/leave schedule")
    p.add_argument("scenario")
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--rate", type=float, default=0.01, help="join+leave fraction per round")
    p.add_argument("--region", type=_parse_region, default=(10000.0, 10000.0))
    p.add_argument("--radius", type=_parse_radius, default=300.0)
    p.add_argument("--out", default="metrics.csv")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threshold", type=float, default=0.99)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_churn_run)

    p = sub.add_parser("assign", help="greedy channel assignment from a converged run")
    p.add_argument("scenario")
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--out", default="assignment.csv")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("inspect", help="pretty-print a hex-encoded 56-byte frame")
    p.add_argument("frame", help="112 hex characters")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
