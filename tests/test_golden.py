"""Seeded outputs pinned as literals.

The constants below were recorded before walk stepping took its unit-weight
fast path. Same seed, same graph, same numbers: any change to how a walk
consumes its random stream or picks a neighbour shows up here.
"""
import pytest

from bippr import (BipprParams, Graph, RandomStream, estimate_diffusion,
                   estimate_ppr, fixed_walk_positions, geometric_terminals,
                   mc_estimate, pagerank_weights, sample_fixed_walk,
                   sample_geometric_walk, significance_delta)

N = 40


def _pairs():
    ends = [(i, (i + 1) % N) for i in range(N)] + [(i, (7 * i + 3) % N) for i in range(N)]
    return sorted({(min(e), max(e)) for e in ends} | {(0, 0)})


def unit_graph() -> Graph:
    return Graph.from_edges(_pairs(), n=N)


def weighted_graph() -> Graph:
    # non-dyadic weights, so cumulative sums round
    return Graph.from_edges([(u, v, 0.1 * (1 + (u * v + 3 * u) % 9))
                             for u, v in _pairs()], n=N, weighted=True)


GRAPHS = {"unit": unit_graph, "weighted": weighted_graph}


def outputs(g: Graph) -> dict:
    out = {}
    for s, t in [(0, 17), (5, 30)]:
        params = BipprParams.derive(alpha=0.2, delta=significance_delta(g, t),
                                    eps=0.1, p_fail=0.01, d_t=g.degree(t))
        est = estimate_ppr(g, s, t, params, RandomStream(7, s))
        out[f"ppr {s}-{t}"] = [float(est.value), est.walk_steps]
    est = mc_estimate(g, 0, 17, 0.2, 2000, RandomStream(3))
    out["mc"] = [est.value, est.walk_steps]
    weights = pagerank_weights(0.2, 12)
    for shared in (True, False):
        d = estimate_diffusion(g, 2, 21, weights, 1e-2, 50, RandomStream(4),
                               shared_walks=shared)
        out[f"diffusion shared={shared}"] = [d.value] + list(d.per_level)
    terminals, steps = geometric_terminals(g, 3, 0.2, 60, RandomStream(9))
    out["geometric"] = terminals.tolist() + [steps]
    out["fixed"] = fixed_walk_positions(g, 3, 6, 8, RandomStream(10)).tolist()
    out["scalar geometric"] = [
        sample_geometric_walk(g, 3, 0.2, RandomStream(11, k)) for k in range(30)]
    out["scalar fixed"] = sample_fixed_walk(g, 3, 20, RandomStream(12)).positions
    return out


GOLDEN = {
    'unit': {
        'diffusion shared=False':
            [0.003824750256632082, 0.0, 0.0, 0.0, 0.0, 0.0,
             0.016319444444444445, 0.0, 0.03011347415123457,
             0.0005333333333333334, 0.026613768593535658,
             0.0032677777777777783, 0.039293066266337065,
             0.0010666666666666667],
        'diffusion shared=True':
            [0.0035607357132101027, 0.0, 0.0, 0.0, 0.0, 0.0,
             0.014444444444444442, 0.0, 0.02313599537037037,
             0.0005333333333333334, 0.035707585305212626,
             0.0003337037037037038, 0.037819315612913906,
             0.0007566707818930042],
        'fixed':
            [[3, 24, 11, 10, 33, 32, 33], [3, 0, 1, 0, 1, 34, 33],
             [3, 2, 3, 24, 11, 10, 9], [3, 24, 25, 24, 11, 0, 11],
             [3, 2, 1, 10, 9, 10, 1], [3, 24, 11, 12, 11, 10, 11],
             [3, 0, 1, 34, 35, 36, 35], [3, 4, 31, 32, 33, 32, 27]],
        'geometric':
            [24, 0, 25, 22, 28, 13, 23, 23, 0, 3, 11, 5, 3, 3, 23, 0, 3, 0, 0,
             3, 3, 39, 6, 11, 3, 2, 17, 17, 3, 3, 11, 3, 4, 3, 12, 3, 3, 21,
             18, 36, 1, 24, 26, 18, 3, 31, 6, 0, 38, 16, 1, 4, 0, 36, 24, 11,
             34, 2, 3, 2, 210],
        'mc':
            [0.0115, 7838],
        'ppr 0-17':
            [0.011894725746665474, 2337],
        'ppr 5-30':
            [0.020085213439769163, 2538],
        'scalar fixed':
            [3, 4, 5, 4, 3, 4, 5, 4, 31, 30, 29, 6, 5, 4, 5, 6, 5, 6, 29, 38,
             39],
        'scalar geometric':
            [3, 8, 31, 2, 17, 23, 7, 32, 12, 39, 25, 3, 3, 11, 9, 24, 23, 17,
             27, 1, 23, 1, 5, 24, 3, 2, 3, 3, 7, 24],
    },
    'weighted': {
        'diffusion shared=False':
            [0.002358822068810898, 0.0, 0.0, 0.0, 0.0, 0.0,
             0.008828765432098764, 0.0, 0.017042058879758414,
             0.00013625396825396827, 0.020617930151696832,
             0.00031444693172083657, 0.02888191616504806,
             0.00032405874811881197],
        'diffusion shared=True':
            [0.002189596576634821, 0.0, 0.0, 0.0, 0.0, 0.0,
             0.007905509058842387, 0.0, 0.015189871833912929,
             9.574603174603176e-05, 0.020910475642887547,
             0.0002569712337280592, 0.026582030135536224,
             0.0005583211374161009],
        'fixed':
            [[3, 4, 5, 38, 37, 38, 39], [3, 2, 1, 2, 1, 10, 11],
             [3, 2, 3, 4, 5, 6, 7], [3, 24, 25, 24, 25, 18, 17],
             [3, 2, 1, 10, 9, 8, 7], [3, 24, 25, 26, 27, 26, 27],
             [3, 2, 1, 10, 11, 24, 25], [3, 4, 23, 22, 37, 22, 21]],
        'geometric':
            [24, 2, 25, 12, 16, 13, 25, 23, 1, 3, 17, 7, 11, 3, 17, 0, 3, 10,
             28, 3, 3, 35, 4, 5, 3, 2, 17, 17, 3, 3, 5, 3, 4, 3, 26, 3, 3, 17,
             4, 36, 1, 4, 22, 18, 3, 37, 22, 1, 18, 20, 1, 4, 2, 22, 24, 11,
             32, 2, 3, 2, 210],
        'mc':
            [0.0225, 7838],
        'ppr 0-17':
            [0.020350326235443913, 1480],
        'ppr 5-30':
            [0.012299976083632857, 1675],
        'scalar fixed':
            [3, 4, 5, 4, 3, 4, 5, 4, 23, 22, 37, 22, 21, 14, 13, 14, 13, 14,
             21, 22, 37],
        'scalar geometric':
            [3, 4, 17, 2, 17, 5, 37, 34, 4, 39, 25, 3, 3, 23, 3, 24, 23, 17,
             17, 1, 23, 13, 5, 4, 3, 2, 3, 3, 11, 24],
    },
}


@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_seeded_outputs_unchanged(kind):
    g = GRAPHS[kind]()
    assert g.unit_weights == (kind == "unit")
    got = outputs(g)
    assert got.keys() == GOLDEN[kind].keys()
    for key, want in GOLDEN[kind].items():
        assert got[key] == want, key
