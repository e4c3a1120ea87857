"""The benchmark's workloads: inputs derived from the seed, timed rounds, checks, digests.

A round is a fixed set of operations whose inputs depend only on the seed, so
every round of a run repeats the same work and a faster program times more
rounds of the same operations. An operation is one simulation run or one
oracle walk; it fails when it times out, raises or fails a check. The timed
region of a round covers the calls into the program and nothing the benchmark
does around them.
"""

import contextlib
import functools
import hashlib
import io
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from manetwalk import cli, harness, walk
from manetwalk.core import SimConfig
from manetwalk.graphs import CompleteGraph, CycleGraph, TorusLattice

import checks
from bootstrap import ROOT
from tracer import capture

DENSITY = 0.02
DEFAULTS = SimConfig()
# Oracle walks have no clock; one hop attempt stands for one default hop
# interval, which at the default tick is one tick of every node. On
# oracle_walk, sim_s_per_host_s and node_ticks_per_s are therefore hops_per_s
# times a fixed factor; they are printed like every end-to-end metric, and a
# metric that read 0 there could not be compared between commits.
TICKS_PER_HOP = round(DEFAULTS.hop_interval / DEFAULTS.tick)
WORK_DIR = ROOT / ".bench_out"


def derive_seed(seed: int, *parts) -> int:
    """A 63-bit input seed from the benchmark seed and a label path."""
    key = "|".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big") >> 1


@dataclass
class Op:
    label: str
    seconds: float
    hops: int
    sim_s: float       # simulated seconds advanced
    node_ticks: int    # n_nodes x ticks advanced
    failures: List[str] = field(default_factory=list)


@dataclass
class Round:
    """Totals of one round; only the operations that failed are kept whole."""

    wall: float                 # host seconds of the timed region
    digest: List[str]           # simulated statistics, independent of host speed
    attempted: int
    op_seconds: float           # host seconds summed over the operations
    hops: int                   # work of the operations that passed
    sim_s: float
    node_ticks: int
    failed: List[Op]

    @classmethod
    def of(cls, wall: float, ops: List[Op], digest: List[str]) -> "Round":
        done = [op for op in ops if not op.failures]
        return cls(wall, digest, len(ops), sum(op.seconds for op in ops),
                   sum(op.hops for op in done), sum(op.sim_s for op in done),
                   sum(op.node_ticks for op in done), [op for op in ops if op.failures])


@dataclass
class Env:
    """How a round runs: sweep worker count, and the tracer when traced."""

    workers: int
    tracer: Optional[object] = None

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def record_digest(label: str, rec) -> str:
    stones = " ".join(f"{s.target_coverage!r}:hops={s.hops},sim_time={s.sim_time!r},"
                      f"overhead={s.overhead!r}" for s in rec.milestones)
    return (f"{label} seed={rec.seed} timed_out={int(rec.timed_out)} "
            f"waiting_ticks={rec.waiting_ticks} churn_rate={rec.churn_rate!r} {stones}")


def record_op(label: str, rec, seconds: float, failures: List[str]) -> Op:
    cfg = rec.config
    final = rec.milestones[-1] if rec.milestones else None
    sim_s = final.sim_time if final else 0.0
    return Op(label, seconds, final.hops if final else 0, sim_s,
              cfg.n_nodes * round(sim_s / cfg.tick), failures)


class MobileCover:
    """run_single to full coverage at N=1000 under both mobility models."""

    name = "mobile_cover"
    n_nodes = 1000
    speed = 7.0
    models = ("random_direction", "random_waypoint")
    # Two runs per model: an N=1000 cover time varies by about a tenth between
    # seeds, and with one run per model wall_s spread by 0.15 over eight
    # seeds, against 0.12 over ten with two.
    replicates = 2

    def configs(self, seed: int) -> List[SimConfig]:
        return [SimConfig(n_nodes=self.n_nodes, density=DENSITY, mobility_model=m,
                          speed_avg=self.speed, walk_strategy="self_repelling",
                          seed=derive_seed(seed, self.name, m, r))
                for r in range(self.replicates) for m in self.models]

    def prepare(self, seed: int):
        return [harness.build_run(cfg) for cfg in self.configs(seed)]

    def run_round(self, seed: int, env: Env) -> Round:
        ops, digest, wall = [], [], 0.0
        for i, cfg in enumerate(self.configs(seed)):
            label = (f"{self.name} {cfg.mobility_model} n={cfg.n_nodes} "
                     f"replicate={i // len(self.models)}")
            built = []
            t0 = time.perf_counter()
            try:
                with capture(harness, "build_run", built):
                    rec = harness.run_single(cfg)
            except Exception as exc:  # a run that raises is a failed operation
                dt = time.perf_counter() - t0
                ops.append(Op(label, dt, 0, 0.0, 0, [f"raised {exc!r}"]))
                digest.append(f"{label} raised {type(exc).__name__}")
            else:
                dt = time.perf_counter() - t0
                _, provider, world, _ = built[0]
                ops.append(record_op(label, rec, dt,
                                     checks.check_mobile_run(rec, provider, world)))
                digest.append(record_digest(label, rec))
            wall += dt
        return Round.of(wall, ops, digest)


class OracleWalk:
    """walk_graph on static oracle families: no mobility, disk graph or churn."""

    name = "oracle_walk"
    torus = (64, 64)
    torus_hops_per_node = 10
    cover_sizes = (100, 400, 1000)
    pure_n = 20
    # The 5% band on the mean is 6 standard errors wide at 2000 walks, so the
    # check cannot fail by chance on any seed.
    pure_walks = 2000

    def prepare(self, seed: int):
        return self.build_graphs()

    def build_graphs(self) -> Dict[str, object]:
        return {
            "torus": TorusLattice(*self.torus),
            "complete": [CompleteGraph(n) for n in self.cover_sizes],
            "cycle": [CycleGraph(n) for n in self.cover_sizes],
            "pure": CompleteGraph(self.pure_n),
        }

    def run_round(self, seed: int, env: Env) -> Round:
        # Fresh graphs each round, so every round starts with cold neighbor caches.
        g = self.build_graphs()
        ops, digest, wall = [], [], 0.0

        def timed(label, provider, rng, check, **kwargs):
            """One walk; returns its token, or None when the walk raised."""
            nonlocal wall
            t0 = time.perf_counter()
            try:
                token, visits = walk.walk_graph(provider, rng, **kwargs)
            except Exception as exc:  # a walk that raises is a failed operation
                dt = time.perf_counter() - t0
                wall += dt
                ops.append(Op(label, dt, 0, 0.0, 0, [f"raised {exc!r}"]))
                digest.append(f"{label} raised {type(exc).__name__}")
                return None
            dt = time.perf_counter() - t0
            wall += dt
            ticks = token.hops * TICKS_PER_HOP
            ops.append(Op(label, dt, token.hops, ticks * DEFAULTS.tick,
                          provider.n_nodes * ticks, check(token, visits)))
            return token, visits

        torus = g["torus"]
        hops = self.torus_hops_per_node * torus.n_nodes
        label = f"torus {self.torus[0]}x{self.torus[1]}"
        done = timed(label, torus, np.random.default_rng(derive_seed(seed, self.name, "torus")),
                     lambda t, v: checks.check_torus_walk(t, v, hops),
                     stop_at_coverage=False, max_hops=hops)
        if done:
            token, visits = done
            digest.append(f"{label} hops={token.hops} unique={token.unique_visited} "
                          f"variance={float(np.var(visits.counts))!r}")

        for family in ("complete", "cycle"):
            for provider in g[family]:
                n = provider.n_nodes
                label = f"{family} n={n}"
                rng = np.random.default_rng(derive_seed(seed, self.name, family, n))
                done = timed(label, provider, rng, lambda t, v: checks.check_cover_walk(t, v, n))
                if done:
                    digest.append(f"{label} hops={done[0].hops} end={done[0].current_node}")

        rng = np.random.default_rng(derive_seed(seed, self.name, "pure"))
        first = len(ops)
        for _ in range(self.pure_walks):
            timed(f"pure complete n={self.pure_n}", g["pure"], rng,
                  lambda t, v: checks.check_pure_walk(t, v, self.pure_n),
                  strategy="pure_random")
        pure_ops = ops[first:]
        mean_fail = checks.check_pure_mean([op.hops for op in pure_ops], self.pure_n)
        for op in pure_ops:
            op.failures.extend(mean_fail)
        lines = " ".join(f"{i}:{op.hops}" for i, op in enumerate(pure_ops))
        digest.append(f"pure complete n={self.pure_n} walks={self.pure_walks} "
                      f"hops={sum(op.hops for op in pure_ops)} "
                      f"sha256={hashlib.sha256(lines.encode()).hexdigest()}")
        return Round.of(wall, ops, digest)


def digest_lines(name: str, seed: int, rnd: Round) -> List[str]:
    """The round's digest lines and a hash over them, as printed by run.py and digest.py."""
    text = "\n".join(rnd.digest)
    return [f"digest {line}" for line in rnd.digest] + [
        f"digest {name} seed={seed} sha256={hashlib.sha256(text.encode()).hexdigest()}"]


def _csv_num(value) -> str:
    """A number as the program's CSV files print it: 9 significant digits."""
    return str(value) if isinstance(value, int) else f"{value:.9g}"


class SweepMix:
    """`manetwalk sweep`, `summarize` and `figdata` called in-process through cli.main."""

    name = "sweep_mix"
    # N=100 only: at N=300 the four pure-random runs of a round have
    # heavy-tailed cover times (2300 to 6300 hops) and set the round's length,
    # which made wall_s differ by a quarter between seeds.
    n_nodes = (100,)
    # Six replicates, 48 runs: the pure-random runs' cover times vary, and
    # with two replicates wall_s and run_s_p50 spread by 0.21 over ten seeds,
    # against 0.06 with six.
    replicates = 6
    speeds = (3.0, 15.0)
    # No `static` runs: a static deployment that happens to be disconnected
    # (about 1 seed in 30 at N=100) never reaches full coverage and runs on to
    # max_sim_time, so static runs would fail on some seeds and not others.
    models = ("random_direction", "random_waypoint")
    strategies = ("self_repelling", "pure_random")
    figures = harness.FIGURES

    def spec_text(self, seed: int) -> str:
        return (f"density = {DENSITY}\n"
                f"sweep_n_nodes = {', '.join(map(str, self.n_nodes))}\n"
                f"sweep_speed_avg = {', '.join(map(str, self.speeds))}\n"
                f"sweep_mobility_model = {', '.join(self.models)}\n"
                f"sweep_walk_strategy = {', '.join(self.strategies)}\n"
                f"replicates = {self.replicates}\n"
                f"seed_base = {derive_seed(seed, self.name)}\n")

    def expected_runs(self) -> Dict[tuple, int]:
        return {(str(n), _csv_num(DENSITY), m, _csv_num(v), s, str(r)): n
                for n in self.n_nodes for v in self.speeds
                for m in self.models for s in self.strategies
                for r in range(self.replicates)}

    def prepare(self, seed: int):
        with tempfile.TemporaryDirectory(dir=_work_dir()) as out:
            spec_path = os.path.join(out, "spec.cfg")
            with open(spec_path, "w", encoding="utf-8") as fh:
                fh.write(self.spec_text(seed))
            spec = harness.validate_spec(harness.read_sweep_file(spec_path))
        return [harness.build_run(harness.point_config(spec, p, r))
                for p in harness.sweep_points(spec) for r in range(spec.replicates)]

    def run_round(self, seed: int, env: Env) -> Round:
        out = tempfile.mkdtemp(prefix=f"{self.name}-", dir=_work_dir())
        try:
            spec_path = os.path.join(out, "spec.cfg")
            with open(spec_path, "w", encoding="utf-8") as fh:
                fh.write(self.spec_text(seed))
            captured, codes = [], []
            with capture(cli, "run_sweep", captured), timed_runs(), \
                    contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                with env.span("cli.sweep"):
                    codes.append(cli.main(["sweep", "--spec", spec_path, "--out", out,
                                           "--workers", str(env.workers)]))
                # Kept before `summarize` rewrites it: a few kB, read in microseconds.
                sweep_summary = _read_text(os.path.join(out, "summary.csv"))
                with env.span("cli.summarize"):
                    codes.append(cli.main(["summarize", "--out", out]))
                with env.span("cli.figdata"):
                    for fig in self.figures:
                        codes.append(cli.main(["figdata", fig, "--out", out]))
                wall = time.perf_counter() - t0
            return self._checked_round(out, wall, captured, codes, sweep_summary)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _checked_round(self, out, wall, captured, codes, sweep_summary) -> Round:
        expected = self.expected_runs()
        records = captured[0] if captured else []
        round_fails = [f"cli.main exited {c}" for c in codes if c != 0]
        try:
            per_run = checks.check_sweep(
                out, expected, [sweep_summary, _read_text(os.path.join(out, "summary.csv"))])
        except (OSError, KeyError, ValueError) as exc:
            per_run = {key: [f"sweep outputs unreadable: {exc!r}"] for key in expected}
        for fig in self.figures:
            text = _read_text(os.path.join(out, f"{fig}.dat"))
            if len(text.splitlines()) < 2 or not text.startswith("#"):
                round_fails.append(f"{fig}.dat holds no plot rows")

        ops, digest = [], []
        seen = set()
        for rec in records:
            c = rec.config
            key = (str(c.n_nodes), _csv_num(c.density), c.mobility_model,
                   _csv_num(c.speed_avg), c.walk_strategy, str(rec.replicate))
            seen.add(key)
            label = f"{self.name} " + " ".join(key)
            fails = per_run.get(key, ["run outside the requested grid"]) + round_fails
            seconds = getattr(rec, "bench_seconds", None)
            if rec.error is not None:
                fails = fails + [f"run raised: {rec.error}"]
            elif seconds is None:
                fails = fails + ["run time not captured: sweep workers were not forked"]
            ops.append(record_op(label, rec, seconds or 0.0, fails))
            digest.append(record_digest(label, rec))
        for key in sorted(set(expected) - seen):
            ops.append(Op(f"{self.name} " + " ".join(key), 0.0, 0, 0.0, 0,
                          ["no record returned by the sweep"]))
        return Round.of(wall, ops, digest)


@contextlib.contextmanager
def timed_runs():
    """Time every `harness.run_single` call, `build_run` included, onto its record.

    The sweep's worker processes are forked while the wrapper is in place, so
    they run it too, and the time comes back with the pickled record as
    `bench_seconds`. An operation of sweep_mix then covers the same work as
    one of mobile_cover: set-up and walk.
    """
    original = harness.run_single

    @functools.wraps(original)
    def run_single(*args, **kwargs):
        t0 = time.perf_counter()
        rec = original(*args, **kwargs)
        rec.bench_seconds = time.perf_counter() - t0
        return rec

    harness.run_single = run_single
    try:
        yield
    finally:
        harness.run_single = original


def _work_dir() -> str:
    WORK_DIR.mkdir(exist_ok=True)
    return str(WORK_DIR)


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


class TracedMobileCover(MobileCover):
    """mobile_cover as the traced run does it: one run per model.

    The traced run does its round twice, untraced and traced; two rounds of
    four N=1000 runs took up to 150 s on a slow 2-core host, too close to a
    run's time limit of 180 s.
    """

    replicates = 1


WORKLOADS = {w.name: w for w in (MobileCover(), OracleWalk(), SweepMix())}
# The forms the traced run (`run.py --trace 1`) does.
TRACED = {**WORKLOADS, "mobile_cover": TracedMobileCover()}
