"""The benchmark's traced mode and self-test wrap program names; they must all resolve.

perfbench/layers.py and perfbench/selftest.py patch module globals, class
methods and dict entries of manetwalk by name. Deleting or renaming one of
them breaks `perfbench/run.py --trace 1` and the self-test, so installing
every span and starting every planted fault here fails first.
"""

from pathlib import Path

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
