"""Full-scale grid including N=1000; opt in with MANETWALK_FULL=1.

160 runs on min(4, cpu_count) workers: 14.2 s on a 2-core host (2 workers).
"""

import os

import numpy as np
import pytest

from manetwalk.core import SimConfig
from manetwalk.harness import SweepSpec, run_sweep

FULL = os.environ.get("MANETWALK_FULL") == "1"

MILESTONES = (0.5, 0.75, 0.8, 0.85, 1.0)
SIZES = (100, 300, 500, 1000)
# 10 replicates resolve the desk-scale bands, but the log-growth slope
# (~0.13 per ln N) needs tighter standard errors than the per-run spread
# (~0.3) allows; 40 replicates bring the per-size SE down to ~0.05.
REPLICATES = 40


@pytest.mark.skipif(not FULL, reason="set MANETWALK_FULL=1 to run the N=1000 grid")
def test_full_scale_overhead_and_log_growth():
    spec = SweepSpec(base=SimConfig(milestones=MILESTONES), n_nodes=SIZES,
                     speed_avg=(7.0,), mobility_model=("random_direction",),
                     walk_strategy=("self_repelling",), replicates=REPLICATES,
                     seed_base=1000)
    records = run_sweep(spec, workers=min(4, os.cpu_count() or 1))
    assert not any(r.timed_out or r.error for r in records)

    means = []
    for n in SIZES:
        vals = [s.overhead for r in records if r.config.n_nodes == n
                for s in r.milestones if s.target_coverage == 1.0]
        assert len(vals) == REPLICATES
        means.append(float(np.mean(vals)))

    final = dict(zip(SIZES, means))
    assert final[1000] < 2.0, final

    # overhead at 100% grows like log(N): a linear fit in ln N explains the trend
    x = np.log(np.array(SIZES, dtype=float))
    y = np.array(means)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    assert r2 > 0.8, (final, r2)
    print(f"FULL-SCALE PASS: overhead(1000)={final[1000]:.3f} < 2, "
          f"log-fit R^2={r2:.3f} > 0.8 "
          f"({ {n: round(m, 3) for n, m in final.items()} })")
