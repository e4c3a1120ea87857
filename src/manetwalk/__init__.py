"""Deterministic simulator of self-repelling random walks on mobile ad-hoc networks."""

from .core import (ConfigError, SimConfig, WorldGeometry, config_from, geometry_for,
                   read_config_file, rng_stream)
from .graphs import (CompleteGraph, CycleGraph, DiskGraph, LinkEventCounter,
                     NeighborProvider, PathGraph, StaticGraph, TorusLattice,
                     UnknownNodeError, disk_edges)
from .harness import (SummaryRow, SweepSpec, build_run, derive_seed, emit_csv,
                      emit_trace, figdata, read_sweep_file, run_rows, run_single,
                      run_sweep, summarize, validate_spec)
from .metrics import (MilestoneSnapshot, RunRecord, churn_rate, exploration_overhead,
                      visit_histogram, visit_variance)
from .mobility import MobilityState, init_deployment, step_all
from .walk import (Aggregate, Token, TraceEntry, VisitTable, World,
                   choose_next_pure_random, choose_next_self_repelling,
                   hop_pure_random, hop_self_repelling, introduce_token, run_walk,
                   walk_graph)

__version__ = "0.1.0"
