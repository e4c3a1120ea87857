"""Interleaved parent/change benchmark pairs, with a verdict per workload and metric.

    python3 tools/abpairs.py --rev HEAD~1 --pairs 10
    python3 tools/abpairs.py --aa --pairs 4 --workload sweep_mix

The parent is the git revision `--rev`, checked out with `git worktree` into a
temporary directory that is removed afterwards; the change is this checkout as
it stands, uncommitted edits included. `--aa` runs this checkout against
itself, which measures how far two runs of the same code drift apart and which
side the position in a pair favours.

For each workload of BENCHMARK.json, pair i = 1..K runs the benchmark command
with `--seed i --seconds S --trace 0` once from each tree, S being
BENCHMARK.json's `run_seconds`, the parent first on odd seeds and the change
first on even ones (ABBA). Per workload it prints each side's failed operations
out of those attempted and its runs not `correct`. Per end-to-end metric it
prints the parent's median and quartiles, the change's median, the change's
wins out of the pairs (ties count for neither) and a verdict:

- gain: at least ten pairs ran, the change wins nine tenths of them, its median is
  better than the parent's by more than the parent's interquartile range, and
  it fails no larger share of its operations, nor more runs, than the parent;
- loss: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the parent's own interquartile range is wider than the bound,
  and not every change run reads better than every parent run;
- within: none of the above.

Before the pairs it diffs `perfbench/digest.py --src` of the two trees, run by
this checkout's digest script, for seeds 1, 2 and 3. Each run's readings go to
stderr as it completes. Uses the standard library only.
"""

import argparse
import difflib
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HIGHER = "higher"
DIGEST_SEEDS = (1, 2, 3)


def relative(value: float, base: float) -> float:
    """(value − base) / |base|: 0 when both are 0, ±inf when only the base is."""
    if base == 0:
        return 0.0 if value == 0 else math.copysign(math.inf, value)
    return (value - base) / abs(base)


def verdict(parent, change, better: str, bound: float, change_fails_more: bool = False) -> dict:
    """The §8 comparison of paired readings of one metric: parent[i] ran beside change[i].

    `change_fails_more` withholds a gain: the change failed a larger share of its
    operations, or more of its runs, than the parent.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of readings, as many of each side")
    sign = 1.0 if better == HIGHER else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    median_p, median_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    if better == HIGHER:
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and sign * (median_c - median_p) > q3 - q1 and not change_fails_more):
        word = "gain"
    elif -sign * relative(median_c, median_p) > bound:
        word = "loss"
    elif q3 - q1 > bound * abs(median_p) and not every_run_better:
        word = "unresolved"
    else:
        word = "within"
    return {"parent_median": median_p, "parent_q1": q1, "parent_q3": q3,
            "change_median": median_c, "change": relative(median_c, median_p),
            "wins": wins, "pairs": len(parent), "verdict": word}


def run_benchmark(command, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `--trace 0` run of a workload from a tree; its last stdout line parsed."""
    args = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"abpairs: {' '.join(args)} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def digest(tree: Path, seed: int):
    """This checkout's digest lines for one seed, of the manetwalk sources in `tree`."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "digest.py"),
                           "--seed", str(seed), "--src", str(tree / "src")],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.splitlines(keepends=True)


def compare(trees, spec, args) -> int:
    """Digest diffs, then the pairs and the table; returns failed operations plus incorrect runs."""
    for seed in DIGEST_SEEDS:
        lines = [digest(tree, seed) for tree in trees]
        diff = list(difflib.unified_diff(*lines, "parent", "change"))
        print(f"digest --seed {seed}: " + ("identical" if not diff else "DIFFERS"))
        sys.stdout.writelines(diff)

    total_failed = 0
    metrics = spec["end_to_end"]
    print(f"\n{'workload':13} {'metric':18} {'parent median [q1, q3]':>36} "
          f"{'change':>12} {'Δ':>8} {'wins':>6}  verdict")
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        readings = ([], [])
        failed, attempted, incorrect = [0, 0], [0, 0], [0, 0]
        for i in range(args.pairs):
            seed = i + 1
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                result = run_benchmark(spec["command"], trees[side], workload, seed,
                                       spec["run_seconds"])
                values = {k: v["value"] for k, v in result["metrics"].items()}
                failed[side] += result["failed"]
                attempted[side] += result["attempted"]
                incorrect[side] += not result["correct"]
                readings[side].append(values)
                print(f"{workload} seed {seed} {('parent', 'change')[side]}: "
                      f"correct={result['correct']} failed={result['failed']}/"
                      f"{result['attempted']} {json.dumps(values)}", file=sys.stderr)
        total_failed += sum(failed) + sum(incorrect)
        print(f"{workload:13} failed operations: parent {failed[0]}/{attempted[0]}, change "
              f"{failed[1]}/{attempted[1]}; runs not correct: parent {incorrect[0]}, "
              f"change {incorrect[1]}")
        fails_more = (failed[1] * max(attempted[0], 1) > failed[0] * max(attempted[1], 1)
                      or incorrect[1] > incorrect[0])
        for metric in metrics:
            name = metric["name"]
            v = verdict([r[name] for r in readings[0]], [r[name] for r in readings[1]],
                        metric["better"], metric["bound"], fails_more)
            spread = f"{v['parent_median']:.4g} [{v['parent_q1']:.4g}, {v['parent_q3']:.4g}]"
            print(f"{workload:13} {name:18} {spread:>36} {v['change_median']:>12.4g} "
                  f"{100 * v['change']:>+7.1f}% {v['wins']:>3}/{v['pairs']:<2}  {v['verdict']}")
    return total_failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="the parent revision (default HEAD)")
    parser.add_argument("--aa", action="store_true",
                        help="run this checkout against itself; --rev is ignored")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="a workload to run, repeatable (default: every workload)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    if args.aa:
        return 1 if compare((ROOT, ROOT), spec, args) else 0
    subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                    args.rev + "^{commit}"], check=True, stdout=subprocess.DEVNULL)
    with tempfile.TemporaryDirectory(prefix="abpairs-") as scratch:
        parent = Path(scratch) / "parent"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(parent), args.rev], check=True)
        try:
            failed = compare((parent, ROOT), spec, args)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(parent)], check=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
