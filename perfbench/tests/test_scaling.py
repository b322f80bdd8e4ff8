"""Paper criterion 6 on a benchmark graph: as delta falls by a decade, BiPPR
work (push degree-work plus walk steps) grows by about sqrt(10) while the
Monte Carlo walk count grows by 10. Counters only, so the check is exact
for a given seed and takes seconds.

    python3 -m pytest perfbench/tests
"""
import math

import numpy as np

from bippr import (BipprParams, Graph, RandomStream, estimate_ppr,
                   mc_num_walks)
from gen import chung_lu

ALPHA, EPS, P_FAIL = 0.2, 0.2, 0.1
DELTAS = [1e-3, 1e-4, 1e-5, 1e-6]


def test_work_grows_like_sqrt_inverse_delta():
    edges = chung_lu(2000, 10_000, 2.5, seed=3)
    g = Graph.from_edges([tuple(e) for e in edges.tolist()])
    live = np.flatnonzero(g.degrees > 0)
    top = live[np.argsort(-g.degrees[live], kind="stable")]
    s = int(live[0])
    targets = [int(top[0]), int(top[10]), int(live[-1]), int(live[len(live) // 2])]

    bippr, mc = [], []
    for delta in DELTAS:
        work = 0.0
        for i, t in enumerate(targets):
            params = BipprParams.derive(ALPHA, delta, EPS, P_FAIL, d_t=g.degree(t))
            est = estimate_ppr(g, s, t, params, RandomStream(5, i))
            work += est.push_work + est.walk_steps
        bippr.append(work)
        mc.append(mc_num_walks(delta, EPS, P_FAIL))

    for k in range(1, len(DELTAS)):
        assert 9.99 <= mc[k] / mc[k - 1] <= 10.01, mc
        assert math.sqrt(10) / 1.25 <= bippr[k] / bippr[k - 1] <= math.sqrt(10) * 1.25, bippr
    assert mc[-1] * (1 - ALPHA) / ALPHA > 10 * bippr[-1] / len(targets)
