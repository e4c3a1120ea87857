"""Command line interface: run, sweep, summarize, figdata."""

import argparse
import os
import sys
from dataclasses import fields, replace

from .core import CONFIG_PARSERS, ConfigError, SimConfig, config_from, read_config_file
from .harness import (FIGURES, SweepSpec, build_run, emit_csv, emit_trace, figdata,
                      read_sweep_file, run_sweep, summarize_runs_csv)
from .walk import run_walk

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI contract reserves 2
    # for I/O errors, so funnel usage problems through ConfigError instead.
    def error(self, message):
        raise ConfigError(message)


def _add_config_flags(parser) -> None:
    group = parser.add_argument_group("config keys (override the config file)")
    for key in fields(SimConfig):
        group.add_argument(f"--{key.name}", type=key.metadata["parse"], default=None,
                           help=key.metadata["help"], metavar="V")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="manetwalk",
                     description="Self-repelling random walk coverage simulator "
                                 "for mobile ad-hoc networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single configuration")
    p_run.add_argument("--config", help="flat key = value config file")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument("--trace", action="store_true",
                       help="also write a per-hop decision trace")
    _add_config_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep grid with replicates")
    p_sweep.add_argument("--spec", help="sweep spec file (config keys + sweep_* axes)")
    preset = p_sweep.add_mutually_exclusive_group()
    preset.add_argument("--desk", action="store_true",
                        help="cap the grid at N=500 and 5 replicates")
    preset.add_argument("--full", action="store_true",
                        help="the full default grid including N=1000")
    p_sweep.add_argument("--replicates", type=int, help="override replicate count")
    p_sweep.add_argument("--seed_base", type=int, help="override the sweep seed base")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes (default: 1)")
    p_sweep.add_argument("--out", default="out", help="output directory (default: out)")

    p_sum = sub.add_parser("summarize", help="rebuild summary.csv from runs.csv")
    p_sum.add_argument("--out", default="out", help="directory holding runs.csv")

    p_fig = sub.add_parser("figdata", help="extract plot columns for a named figure layout")
    p_fig.add_argument("fig", choices=FIGURES, help="figure id")
    p_fig.add_argument("--out", default="out", help="directory holding the CSV outputs")

    return parser


def _cmd_run(args) -> int:
    file_values = read_config_file(args.config) if args.config else None
    flag_values = {key: getattr(args, key) for key in CONFIG_PARSERS}
    config, provider, world, walk_rng = build_run(config_from(file_values, flag_values))
    trace = [] if args.trace else None
    record = run_walk(config, provider, world, walk_rng, trace=trace)
    paths = emit_csv([record], args.out)
    if trace is not None:
        # The first attempt is made where the token was placed; with none, it is still there.
        start = trace[0].node if trace else world.token.current_node
        trace_path = os.path.join(args.out, "trace.txt")
        emit_trace(trace, trace_path, config.n_nodes, config.seed, start)
        paths["trace"] = trace_path
    final = record.milestones[-1] if record.milestones else None
    status = "timed out" if record.timed_out else "completed"
    if final is not None:
        print(f"run {status}: coverage={final.achieved_coverage:.3f} "
              f"hops={final.hops} overhead={final.overhead:.4f} "
              f"sim_time={final.sim_time:.1f}s")
    else:
        print(f"run {status}: no milestone reached")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def _cmd_sweep(args) -> int:
    spec = read_sweep_file(args.spec) if args.spec else SweepSpec(base=SimConfig())
    if args.desk:
        kept = tuple(n for n in spec.n_nodes if n <= 500) or (500,)
        spec = replace(spec, n_nodes=kept, replicates=min(spec.replicates, 5))
    if args.replicates is not None:
        spec = replace(spec, replicates=args.replicates)
    if args.seed_base is not None:
        spec = replace(spec, seed_base=args.seed_base)
    records = run_sweep(spec, workers=args.workers)
    paths = emit_csv(records, args.out)
    done = sum(1 for r in records if not r.timed_out and r.error is None)
    print(f"sweep finished: {done}/{len(records)} runs completed "
          f"({sum(1 for r in records if r.timed_out)} timed out, "
          f"{sum(1 for r in records if r.error is not None)} failed)")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "summarize":
            print(summarize_runs_csv(args.out))
            return 0
        if args.command == "figdata":
            print(figdata(args.fig, args.out))
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
