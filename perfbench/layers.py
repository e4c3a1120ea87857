"""Where the traced run puts its spans, and the per-layer metrics read from them.

Spans wrap the names the program looks up at call time: module globals such as
`walk.step_all`, class methods such as `DiskGraph.refresh`, and the entries of
`walk.HOP_FUNCS`. The program's own files are left as they are.
"""

import os

from manetwalk import cli, graphs, harness, walk

PROVIDERS = (graphs.DiskGraph, graphs.CompleteGraph, graphs.CycleGraph,
             graphs.PathGraph, graphs.TorusLattice)


def _count(args, result):
    return len(result)


def _moved(args, result):
    return 1 if result else 0


def _csv_bytes(args, result):
    paths = result.values() if isinstance(result, dict) else [result]
    return sum(os.path.getsize(p) for p in paths)


def install(tracer) -> None:
    """Patch every layer boundary the per-layer metrics read."""
    t = tracer
    t.patch(walk, "step_all", "mobility.step", items=lambda args, result: args[0].n_nodes)
    t.patch(harness, "init_deployment", "mobility.deploy")
    t.patch(graphs.DiskGraph, "refresh", "graphs.index_rebuild")
    t.patch(graphs.DiskGraph, "edge_set", "graphs.edge_snapshot", items=_count)
    t.patch(graphs.LinkEventCounter, "observe", "graphs.churn_observe")
    t.patch(graphs.LinkEventCounter, "__init__", "graphs.churn_counter", keep=True)
    for cls in PROVIDERS:
        t.patch(cls, "neighbor_ids", "graphs.neighbor_query", items=_count)
    for strategy in list(walk.HOP_FUNCS):
        t.patch(walk.HOP_FUNCS, strategy, "walk.hop", items=_moved)
    t.patch(walk, "choose_next_self_repelling", "walk.decide")
    t.patch(walk, "choose_next_pure_random", "walk.decide")
    t.patch(harness, "run_walk", "walk.run_walk")
    t.patch(walk, "walk_graph", "walk.walk_graph")
    t.patch(walk, "visit_histogram", "metrics.histogram")
    t.patch(walk, "visit_variance", "metrics.variance")
    t.patch(walk, "exploration_overhead", "metrics.overhead")
    t.patch(harness, "build_run", "harness.build_run")
    t.patch(cli, "run_sweep", "harness.run_sweep")
    t.patch(cli, "emit_csv", "harness.emit_csv", items=_csv_bytes)
    t.patch(harness, "summarize", "harness.summarize")
    t.patch(cli, "summarize_runs_csv", "harness.summarize_runs_csv", items=_csv_bytes)


# name -> (unit, better); the order is the order of the printed result.
PER_LAYER = {
    "mobility.step_calls": ("count", "lower"),
    "mobility.step_s": ("s", "lower"),
    "mobility.step_us_per_node": ("us", "lower"),
    "mobility.deploy_s": ("s", "lower"),
    "graphs.index_rebuilds": ("count", "lower"),
    "graphs.index_rebuild_s": ("s", "lower"),
    "graphs.index_rebuilds_per_hop": ("ratio", "lower"),
    "graphs.edge_snapshots": ("count", "lower"),
    "graphs.edge_snapshot_s": ("s", "lower"),
    "graphs.edges_per_snapshot": ("count", "lower"),
    "graphs.churn_observe_s": ("s", "lower"),
    "graphs.link_events": ("count", "lower"),
    "graphs.neighbor_queries": ("count", "lower"),
    "graphs.neighbor_query_s": ("s", "lower"),
    "graphs.mean_degree": ("count", "lower"),
    "walk.hop_attempts": ("count", "lower"),
    "walk.hops": ("count", "lower"),
    "walk.waiting_ticks": ("count", "lower"),
    "walk.hop_s": ("s", "lower"),
    "walk.decide_s": ("s", "lower"),
    "walk.loop_s": ("s", "lower"),
    "metrics.snapshots": ("count", "lower"),
    "metrics.snapshot_s": ("s", "lower"),
    "harness.build_run_s": ("s", "lower"),
    "harness.run_walk_s": ("s", "lower"),
    "harness.dispatch_overhead_s": ("s", "lower"),
    "harness.emit_csv_s": ("s", "lower"),
    "harness.summarize_s": ("s", "lower"),
    "harness.csv_bytes": ("bytes", "lower"),
    "cli.sweep_s": ("s", "lower"),
    "cli.summarize_s": ("s", "lower"),
    "cli.figdata_s": ("s", "lower"),
    "trace.wall_s_untraced": ("s", "lower"),
    "trace.wall_s_traced": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(t, untraced_wall: float, traced_wall: float) -> dict:
    """Every per-layer metric of one traced round; layers the workload skips read 0."""
    hops = t.items("walk.hop")
    attempts = t.calls("walk.hop")
    step_s = t.total("mobility.step")
    build_s = t.total("harness.build_run")
    run_walk_s = t.total("walk.run_walk")
    sweep_s = t.total("harness.run_sweep")
    values = {
        "mobility.step_calls": t.calls("mobility.step"),
        "mobility.step_s": step_s,
        "mobility.step_us_per_node": 1e6 * _ratio(step_s, t.items("mobility.step")),
        "mobility.deploy_s": t.total("mobility.deploy"),
        "graphs.index_rebuilds": t.calls("graphs.index_rebuild"),
        "graphs.index_rebuild_s": t.total("graphs.index_rebuild"),
        "graphs.index_rebuilds_per_hop": _ratio(t.calls("graphs.index_rebuild"), hops),
        "graphs.edge_snapshots": t.calls("graphs.edge_snapshot"),
        "graphs.edge_snapshot_s": t.total("graphs.edge_snapshot"),
        "graphs.edges_per_snapshot": _ratio(t.items("graphs.edge_snapshot"),
                                            t.calls("graphs.edge_snapshot")),
        "graphs.churn_observe_s": t.total("graphs.churn_observe"),
        "graphs.link_events": sum(c.events for c in t.objects["graphs.churn_counter"]),
        "graphs.neighbor_queries": t.calls("graphs.neighbor_query"),
        "graphs.neighbor_query_s": t.total("graphs.neighbor_query"),
        "graphs.mean_degree": _ratio(t.items("graphs.neighbor_query"),
                                     t.calls("graphs.neighbor_query")),
        "walk.hop_attempts": attempts,
        "walk.hops": hops,
        "walk.waiting_ticks": attempts - hops,
        "walk.hop_s": t.self_time("walk.hop"),
        "walk.decide_s": t.total("walk.decide"),
        "walk.loop_s": t.self_time("walk.run_walk", "walk.walk_graph"),
        "metrics.snapshots": t.calls("metrics.histogram"),
        "metrics.snapshot_s": t.total("metrics.histogram", "metrics.variance",
                                      "metrics.overhead"),
        "harness.build_run_s": build_s,
        "harness.run_walk_s": run_walk_s,
        # Only a sweep dispatches; elsewhere runs are called directly.
        "harness.dispatch_overhead_s": sweep_s - build_s - run_walk_s if sweep_s else 0.0,
        "harness.emit_csv_s": t.total("harness.emit_csv"),
        "harness.summarize_s": t.total("harness.summarize", "harness.summarize_runs_csv"),
        "harness.csv_bytes": t.items("harness.emit_csv", "harness.summarize_runs_csv"),
        "cli.sweep_s": t.total("cli.sweep"),
        "cli.summarize_s": t.total("cli.summarize"),
        "cli.figdata_s": t.total("cli.figdata"),
        "trace.wall_s_untraced": untraced_wall,
        "trace.wall_s_traced": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
