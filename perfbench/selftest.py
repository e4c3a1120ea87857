"""Self-test of the benchmark's checks: planted faults must surface as failed operations.

    python3 perfbench/selftest.py

Runs small versions of the three workloads once as they are, where every
operation must pass, and once per planted fault, where at least one
operation must fail. Exits 1 if any case comes out otherwise.
"""

import contextlib
import sys
from unittest import mock

from bootstrap import add_program

add_program()

from manetwalk import cli, graphs, harness, walk  # noqa: E402

import workloads  # noqa: E402


class SmallMobile(workloads.MobileCover):
    n_nodes = 150
    replicates = 1


class SmallOracle(workloads.OracleWalk):
    torus = (16, 16)
    cover_sizes = (30,)


class SmallSweep(workloads.SweepMix):
    n_nodes = (40,)
    speeds = (3.0,)
    models = ("random_direction", "random_waypoint")
    strategies = ("self_repelling",)
    replicates = 2


def _drop_a_neighbor(original):
    def neighbor_ids(self, node_id):
        ids = original(self, node_id)
        return ids[:-1] if node_id == 0 and ids.size else ids
    return neighbor_ids


def _off_by_one_attribute(original):
    def attr(attributes, node_id):
        return original(attributes, node_id) + (1.0 if node_id == 3 else 0.0)
    return attr


def _histogram_minus_one(original):
    def visit_histogram(visits):
        hist = original(visits)
        top = max(hist)
        hist[top] -= 1
        return hist
    return visit_histogram


def _raise(*args, **kwargs):
    raise RuntimeError("planted fault")


def _edit_summary_mean(original):
    def summarize_runs_csv(out_dir):
        path = original(out_dir)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        col = header.index("mean_overhead")
        cells = lines[1].split(",")
        cells[col] = f"{float(cells[col]) + 0.01:.9g}"
        lines[1] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path
    return summarize_runs_csv


def _no_churn(original):
    def run_walk(config, provider, world, rng, trace=None):
        rec = original(config, provider, world, rng, trace=trace)
        if config.mobility_model == "random_waypoint":
            rec.churn_rate = 0.0
        return rec
    return run_walk


def cases():
    mobile, oracle, sweep = SmallMobile(), SmallOracle(), SmallSweep()
    yield "mobile_cover as is", mobile, None
    yield "perturbed neighbor list", mobile, mock.patch.object(
        graphs.DiskGraph, "neighbor_ids", _drop_a_neighbor(graphs.DiskGraph.neighbor_ids))
    yield "wrong aggregate", mobile, mock.patch.object(
        walk, "_attr", _off_by_one_attribute(walk._attr))
    yield "histogram off by one", mobile, mock.patch.object(
        walk, "visit_histogram", _histogram_minus_one(walk.visit_histogram))
    yield "oracle_walk as is", oracle, None
    yield "self-repelling decision made at random", oracle, mock.patch.object(
        walk, "choose_next_self_repelling", walk.choose_next_pure_random)
    yield "a walk that raises", oracle, mock.patch.object(graphs.CycleGraph, "neighbor_ids", _raise)
    yield "a run that raises", mobile, mock.patch.object(walk, "step_all", _raise)
    yield "sweep_mix as is", sweep, None
    yield "edited summary mean", sweep, mock.patch.object(
        cli, "summarize_runs_csv", _edit_summary_mean(cli.summarize_runs_csv))
    yield "no churn on a mobile run", sweep, mock.patch.object(
        harness, "run_walk", _no_churn(harness.run_walk))
    yield "a run whose host time is not captured", sweep, mock.patch.object(
        workloads, "timed_runs", contextlib.nullcontext)


def main() -> int:
    bad = 0
    for name, workload, fault in cases():
        env = workloads.Env(workers=1)
        if fault is None:
            rnd = workload.run_round(7, env)
        else:
            with fault:
                rnd = workload.run_round(7, env)
        failed = rnd.failed
        ok = not failed if fault is None else bool(failed)
        bad += not ok
        detail = failed[0].failures[0] if failed else ""
        print(f"{'ok ' if ok else 'BAD'} {name}: {len(failed)}/{rnd.attempted} failed  {detail}")
    print("self-test passed" if not bad else f"self-test: {bad} case(s) wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
