"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload mobile_cover --seed 1 --seconds 30 --trace 0

With `--trace 0` the workload repeats its round, the same operations on the
same inputs, for about `--seconds` host seconds and reports the end-to-end
metrics. With `--trace 1` it runs the round once untraced and once with spans
around every layer boundary, and reports the per-layer metrics and the
tracing overhead; there mobile_cover's round has one run per model, not two.
See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bootstrap import ROOT, add_program

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# name -> unit; the order is the order of the printed result.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "run_s_p50": "s",
    "hops_per_s": "hops/s",
    "sim_s_per_host_s": "ratio",
    "node_ticks_per_s": "node_ticks/s",
    "runs_per_s": "runs/s",
    "peak_rss_mb": "MB",
}


def setup_seconds(workload: str, seed: int) -> float:
    """Median host time of a fresh interpreter setting the workload up."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
           "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def sweep_workers() -> int:
    """Two sweep workers, or fewer where fewer processors are available."""
    return min(2, len(os.sched_getaffinity(0)))


def timed_rounds(workload, seed: int, seconds: float, env):
    """Whole rounds until another one would overrun `seconds` of timed work."""
    rounds, spent = [], 0.0
    while True:
        rounds.append(workload.run_round(seed, env))
        spent += rounds[-1].wall
        if spent + spent / len(rounds) > seconds:
            return rounds


def end_to_end(rounds, setup_s: float) -> dict:
    host = sum(rnd.wall for rnd in rounds)
    done = sum(rnd.attempted - len(rnd.failed) for rnd in rounds)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(rnd.wall for rnd in rounds),
        # Median over rounds of the round's mean: a pooled median would fall
        # between the short and long clusters of sweep_mix's runs and jump.
        "run_s_p50": statistics.median(rnd.op_seconds / rnd.attempted for rnd in rounds),
        "hops_per_s": sum(rnd.hops for rnd in rounds) / host,
        "sim_s_per_host_s": sum(rnd.sim_s for rnd in rounds) / host,
        "node_ticks_per_s": sum(rnd.node_ticks for rnd in rounds) / host,
        "runs_per_s": done / host,
        "peak_rss_mb": peak_rss_mb(),
    }


def report_failures(rounds) -> int:
    failed = [op for rnd in rounds for op in rnd.failed]
    for op in failed[:10]:
        print(f"FAILED {op.label}: {'; '.join(op.failures)}", file=sys.stderr)
    return len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    add_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    if args.trace:
        workload = workloads.TRACED[args.workload]
        import layers
        from tracer import Tracer
        # Spans are kept in-process, so the sweep runs with one worker both times.
        base = workload.run_round(args.seed, workloads.Env(workers=1))
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = workload.run_round(args.seed, workloads.Env(workers=1, tracer=tracer))
        finally:
            tracer.restore()
        rounds = [base, traced]
        values = layers.per_layer(tracer, base.wall, traced.wall)
        print("trace: one untraced and one traced round; mobile_cover does one run "
              "per model and sweep_mix runs its sweep with 1 worker in both")
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        rounds = timed_rounds(workload, args.seed, args.seconds,
                              workloads.Env(workers=sweep_workers()))
        values = {k: (v, END_TO_END[k]) for k, v in end_to_end(rounds, setup_s).items()}

    # Every round ran the same inputs, so each must give the same simulated statistics.
    consistent = all(rnd.digest == rounds[0].digest for rnd in rounds)
    if not consistent:
        print("a repeated round changed the simulated statistics", file=sys.stderr)

    for line in workloads.digest_lines(args.workload, args.seed, rounds[0]):
        print(line)
    attempted = sum(rnd.attempted for rnd in rounds)
    failed = report_failures(rounds)
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
