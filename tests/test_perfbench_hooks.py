"""The benchmark's traced mode and self-test wrap program names; they must all resolve.

perfbench/layers.py and perfbench/selftest.py patch module globals, class
methods and dict entries of manetwalk by name. Deleting or renaming one of
them breaks `perfbench/run.py --trace 1` and the self-test, so installing
every span and starting every planted fault here fails first.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from manetwalk import walk
from manetwalk.core import rng_stream
from manetwalk.graphs import CompleteGraph, CycleGraph, PathGraph, TorusLattice

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_patch_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import selftest
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    tracer.restore()
    faults = [fault for _, _, fault in selftest.cases() if fault is not None]
    assert faults
    for fault in faults:
        fault.start()
        fault.stop()


@pytest.mark.parametrize("provider", [CompleteGraph(30), CycleGraph(30), PathGraph(30),
                                      TorusLattice(5, 6)], ids=lambda p: type(p).__name__)
def test_traced_neighbor_queries_are_the_hop_attempts(monkeypatch, provider):
    # A span that resolves but no longer sees the engine's calls would read 0 here.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        token, _ = walk.walk_graph(provider, rng_stream(1, "walk"))
    finally:
        tracer.restore()
    assert token.hops > 0
    assert tracer.calls("graphs.neighbor_query") == tracer.calls("walk.hop") == token.hops


def test_selftest_fails_an_operation_for_every_planted_fault(monkeypatch):
    # Resolving a patch point is not enough: each fault must still reach a check.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "self-test passed"
    cases = list(selftest.cases())
    assert len(lines) == len(cases) + 1
    for line, (name, _, fault) in zip(lines, cases):
        assert line.startswith(f"ok  {name}: "), line
        failed = int(line.split(": ", 1)[1].split("/")[0])
        assert (failed > 0) == (fault is not None), line
