"""Seeded outputs and push states pinned as literals.

``GOLDEN`` was recorded before walk stepping took its unit-weight fast path.
Same seed, same graph, same numbers: any change to how a walk consumes its
random stream or picks a neighbour shows up here. The ``weighted`` entries
were re-recorded when weighted steps moved from a search in cumulative
weights to alias tables: every step still takes one uniform, so the walk
lengths and step counts kept their values and only the neighbours moved.

``PUSH_GOLDEN`` was recorded before PPR and MSTP shared one push kernel. It
pins every estimate and residual dict in insertion order, the push count and
the floating-point ``degree_work`` sum, so a change to push order or to how
the work is summed (e.g. per MSTP level, then added) shows up here.

The PPR entries of both (``'ppr'`` here, ``'ppr 0-17'`` in ``GOLDEN``) were
re-recorded when the PPR push moved from one node at a time in FIFO order
to synchronous rounds: a round pushes every node above the threshold with
the residual it held when the round began, so the pushes, their count, the
estimates and residuals, and every answer built on them moved (the PPR
dicts now list nodes in slot order, grouped by the round that reached them).
The walks did not change, so the step counts kept their values. An MSTP
level already pushed the nodes above the threshold at its start, and the
round kernel adds what each node receives in the same order, so the MSTP
and diffusion entries pass unedited; so does ``'ppr 5-30'``: on both graphs
its push makes the same pushes as FIFO, in other rounds, and leaves other
residuals only at nodes where none of its walks ends (one node on the unit
graph, five on the weighted one).

The geometric-walk entries (``'ppr *'``, ``'mc'``, ``'geometric'`` and
``'scalar geometric'``) were re-recorded when walk lengths came to be drawn
up front by inversion, one uniform per walk, in place of a stop coin before
each step: the lengths keep their Geometric(alpha) law and each step still
takes one uniform, but the stream is consumed in another order, so the
walks are a new sample. The diffusion and fixed-length entries pass
unedited.

Every ``GOLDEN`` entry, all of them fed by walks, was re-recorded when
``RandomStream`` changed its bit generator from Philox, keyed by the seed
and a stream id that ``child`` mixed with an ad hoc LCG, to PCG64DXSM
seeded by ``np.random.SeedSequence`` from the seed and the stream's spawn
key, each key entry as two 32-bit words. Every draw is still one uniform on
[0, 1), taken in the same order, so the law of every walk and answer is
unchanged; only the uniforms are new. ``PUSH_GOLDEN`` draws nothing and
passes unedited. The unit-weight step that stopped clamping its slot at the
same time moved no entry here.

The two ``'diffusion shared=False'`` entries were re-recorded when the
independent diffusion levels stopped drawing each from its own child
stream, ``rng.child(ell)``, and came to draw every walk from the query's
one stream, round by round through each lockstep run of levels. Each level
still takes its own walks and every uniform is used once, so the levels
stay independent and each keeps its law; only which uniforms feed which
walk changed. Shared walks, fixed-length walks and every other entry draw
the same numbers as before and pass unedited.

The geometric-walk entries (``'ppr *'``, ``'mc'``, ``'geometric'`` and
``'scalar geometric'``) were re-recorded again when each chunk of walks
came to draw its lengths as one multinomial histogram, in place of one
uniform per walk, and to be stepped longest first with no scatter back to
draw order; a chunk of several batches, as in ``'geometric'``, now deals
its walks to the batches by one uniform permutation. The lengths keep
their Geometric(alpha) law, each step still takes one uniform, and the
batches stay iid, but the stream is consumed in another order, so the
walks are a new sample. The diffusion and fixed-length entries and
``PUSH_GOLDEN`` pass unedited.
"""
import pytest

from bippr import (BipprParams, Graph, RandomStream, approximate_mstp,
                   approximate_pagerank, estimate_diffusion, estimate_ppr,
                   fixed_walk_positions, geometric_terminals, mc_estimate,
                   pagerank_weights, significance_delta)

from conftest import mstp_dicts

N = 40


def _pairs():
    ends = [(i, (i + 1) % N) for i in range(N)] + [(i, (7 * i + 3) % N) for i in range(N)]
    return sorted({(min(e), max(e)) for e in ends} | {(0, 0)})


def unit_graph() -> Graph:
    return Graph.from_edges(_pairs(), n=N)


def weighted_graph() -> Graph:
    # non-dyadic weights, so the alias tables' prefix sums round
    return Graph.from_edges([(u, v, 0.1 * (1 + (u * v + 3 * u) % 9))
                             for u, v in _pairs()], n=N)


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
    # 60 batches of one walk, each batch's mean its terminal
    terminals, steps = geometric_terminals(g, 3, 0.2, 1, RandomStream(9), lambda v: v, 60)
    out["geometric"] = terminals.astype(int).tolist() + [steps]
    out["fixed"] = fixed_walk_positions(g, 3, 6, 8, RandomStream(10)).tolist()
    # batches of one walk, each from its own stream
    out["scalar geometric"] = [
        int(geometric_terminals(g, 3, 0.2, 1, RandomStream(11, k), lambda v: v)[0][0])
        for k in range(30)]
    out["scalar fixed"] = fixed_walk_positions(g, 3, 20, 1, RandomStream(12))[0].tolist()
    return out


GOLDEN = {
    'unit': {
        'diffusion shared=False':
            [0.003669970498616307, 0.0, 0.0, 0.0, 0.0, 0.0,
             0.015416666666666665, 0.0, 0.023699652777777774,
             0.0005333333333333334, 0.03502888776363169,
             0.0010666666666666667, 0.03941569795566368,
             0.0005333333333333334],
        'diffusion shared=True':
            [0.004018844337688383, 0.0, 0.0, 0.0, 0.0, 0.0, 0.01548611111111111,
             0.0, 0.028082609953703704, 0.0005333333333333334,
             0.034986286597650885, 0.0008670370370370371, 0.04905447461056575,
             0.0005570411522633746],
        'fixed':
            [[3, 24, 23, 24, 23, 22, 21], [3, 24, 11, 24, 11, 10, 9],
             [3, 4, 3, 0, 1, 2, 1], [3, 24, 3, 24, 11, 10, 11],
             [3, 2, 17, 16, 19, 18, 9], [3, 24, 23, 22, 21, 14, 21],
             [3, 24, 3, 4, 5, 6, 29], [3, 0, 11, 10, 33, 10, 11]],
        'geometric':
            [28, 3, 0, 23, 3, 4, 3, 3, 35, 24, 1, 3, 21, 22, 3, 3, 17, 25, 3, 1,
             5, 5, 15, 2, 1, 3, 26, 4, 17, 4, 16, 6, 3, 7, 27, 17, 27, 32, 3, 0,
             8, 0, 3, 7, 3, 1, 1, 0, 11, 1, 31, 11, 34, 3, 3, 24, 21, 7, 3, 3,
             234],
        'mc':
            [0.012, 8097],
        'ppr 0-17':
            [0.01161558307197616, 2574],
        'ppr 5-30':
            [0.019875259806488292, 2445],
        'scalar fixed':
            [3, 24, 3, 2, 17, 18, 19, 20, 19, 18, 9, 26, 9, 10, 33, 34, 1, 10,
             1, 10, 9],
        'scalar geometric':
            [3, 23, 31, 3, 3, 22, 3, 3, 3, 31, 36, 0, 3, 3, 3, 2, 28, 33, 3, 2,
             11, 39, 11, 16, 3, 25, 17, 3, 3, 35],
    },
    'weighted': {
        'diffusion shared=False':
            [0.0022749355156057235, 0.0, 0.0, 0.0, 0.0, 0.0,
             0.008600294479183366, 0.0, 0.014098247976074492,
             0.00026072380952380956, 0.02354469373610001,
             0.0004034014173950683, 0.027020591302313005,
             0.0004611891363050776],
        'diffusion shared=True':
            [0.0022751111938307234, 0.0, 0.0, 0.0, 0.0, 0.0,
             0.008058763294318847, 0.0, 0.01663250588040366,
             0.00010163809523809526, 0.021711879981502077,
             0.00027431613713975624, 0.02611485649397212,
             0.0006242234461756786],
        'fixed':
            [[3, 2, 3, 2, 3, 4, 3], [3, 2, 1, 34, 33, 32, 31],
             [3, 4, 5, 38, 29, 28, 29], [3, 24, 25, 26, 25, 24, 25],
             [3, 4, 5, 4, 23, 22, 21], [3, 24, 23, 22, 23, 20, 31],
             [3, 24, 3, 4, 5, 4, 31], [3, 0, 11, 12, 13, 12, 13]],
        'geometric':
            [28, 3, 0, 23, 17, 20, 3, 3, 27, 24, 7, 3, 5, 22, 3, 3, 31, 17, 3,
             9, 23, 23, 29, 2, 1, 3, 34, 4, 17, 4, 20, 4, 3, 11, 33, 29, 17, 34,
             3, 2, 8, 0, 3, 5, 3, 11, 1, 2, 23, 1, 17, 17, 34, 3, 3, 24, 15, 7,
             3, 3, 234],
        'mc':
            [0.0135, 8097],
        'ppr 0-17':
            [0.020241569323503603, 1606],
        'ppr 5-30':
            [0.012335112142295119, 1676],
        'scalar fixed':
            [3, 2, 1, 2, 17, 18, 17, 18, 17, 18, 9, 8, 9, 8, 35, 34, 33, 34, 33,
             34, 33],
        'scalar geometric':
            [3, 23, 37, 3, 3, 12, 3, 3, 23, 5, 16, 2, 3, 25, 3, 10, 16, 5, 3, 2,
             17, 11, 17, 22, 3, 35, 29, 3, 3, 17],
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


def self_loop_graph() -> Graph:
    # node 0 keeps most of its mass through its self-loop, so PPR pushes it
    # again right after its own push
    return Graph.from_edges([(0, 0, 0.7), (0, 1, 0.3), (1, 2, 1.1), (2, 2, 0.4),
                             (2, 3, 0.9), (0, 3, 0.2), (1, 3, 0.6)])


PUSH_GRAPHS = {**GRAPHS, "self-loop": self_loop_graph}


def push_state(g: Graph) -> dict:
    ppr = approximate_pagerank(g, 0.2, 0, 1e-2)
    mstp = approximate_mstp(g, 0, 6, 2e-2)
    return {"ppr": [ppr.p, ppr.r, ppr.push_count, ppr.degree_work],
            "mstp": [*mstp_dicts(mstp), mstp.push_count, mstp.degree_work]}


def _ordered(x):
    """Dicts as item lists, so equality also checks insertion order."""
    if isinstance(x, dict):
        return [(k, _ordered(v)) for k, v in x.items()]
    if isinstance(x, list):
        return [_ordered(v) for v in x]
    return x


PUSH_GOLDEN = {
    'unit': {
        'ppr': [
            {0: 0.27975936, 1: 0.0497152, 3: 0.04800853333333334,
             11: 0.04886186666666667, 39: 0.0420352, 34: 0.0064,
             2: 0.019544746666666668, 4: 0.009601706666666668, 10: 0.0128,
             12: 0.0064, 24: 0.0128, 28: 0.008407040000000001,
             36: 0.008407040000000001, 38: 0.008407040000000001},
            {0: 0.013631488000000002, 1: 0.02262448355555556,
             3: 0.03222619022222223, 11: 0.013631488000000002,
             39: 0.038852608000000004, 34: 0.0177152, 10: 0.03457706666666667,
             12: 0.01686186666666667, 24: 0.03287040000000001,
             35: 0.016940373333333335, 17: 0.026059662222222224, 9: 0.0128,
             33: 0.021333333333333336, 7: 0.008533333333333334,
             13: 0.008533333333333334, 23: 0.022401706666666667, 25: 0.0128,
             31: 0.009601706666666668, 27: 0.008407040000000001,
             15: 0.016814080000000002, 5: 0.01800874666666667,
             29: 0.016814080000000002, 37: 0.016814080000000002},
            22, 88.0],
        'mstp': [
            [{0: 1.0},
             {0: 0.2, 1: 0.2, 3: 0.2, 11: 0.2, 39: 0.2},
             {0: 0.24, 2: 0.1, 10: 0.1, 24: 0.1},
             {1: 0.10633333333333334, 3: 0.10633333333333334, 11: 0.098},
             {},
             {},
             {}],
            [{},
             {},
             {1: 0.04, 3: 0.04, 11: 0.04, 39: 0.04, 34: 0.05, 4: 0.05,
              12: 0.05, 28: 0.05, 36: 0.05, 38: 0.05},
             {0: 0.048, 39: 0.048, 17: 0.03333333333333333, 9: 0.025,
              33: 0.025, 23: 0.025, 25: 0.025},
             {0: 0.07766666666666666, 2: 0.05316666666666667,
              10: 0.051083333333333335, 34: 0.026583333333333334,
              4: 0.026583333333333334, 24: 0.051083333333333335, 12: 0.0245},
             {},
             {}],
            13, 54.0],
    },
    'weighted': {
        'ppr': [
            {0: 0.25589626684275424, 1: 0.06690499074600523,
             3: 0.05353679308044661, 11: 0.060357399770689456,
             39: 0.048489080763640835, 34: 0.010803066179991761,
             2: 0.04266561108145206, 4: 0.020293974579886763,
             10: 0.04137293982899728, 12: 0.01653666613162222,
             24: 0.009637553490296779, 28: 0.021475481499013814,
             36: 0.004711670382694176, 38: 0.013507005301023766,
             35: 0.00574203213519695, 17: 0.011677424965425898,
             9: 0.002171533969184256, 33: 0.005073398876740898,
             7: 0.004937524561443498, 13: 0.0035278221080794064,
             23: 0.0049340773420594244, 25: 0.003913213841139602,
             15: 0.007083018106680125, 5: 0.008697288489652802,
             29: 0.0037809230769230784, 37: 0.00342442588763032,
             18: 0.0021570978999913954, 16: 0.004400544093344342,
             6: 0.0026025468787036115},
            {0: 0.000804958549266821, 1: 0.007869349430491933,
             3: 0.004437143137092817, 11: 0.000804958549266821,
             39: 0.003595857381914304, 34: 0.005104028564619512,
             4: 0.0037436031465074536, 10: 0.012552116137863329,
             12: 0.008026039916041078, 24: 0.002112334975500802,
             28: 0.015127278913309106, 38: 0.018067600530317196,
             35: 0.006796615533082153, 17: 0.009569423984318887,
             31: 0.009019544257727448, 9: 0.002735304646074441,
             33: 0.007528864484279292, 7: 0.012253430022119084,
             23: 0.006243267459003938, 25: 0.008281919727129527,
             15: 0.0009709450761545932, 27: 0.00409056790457406,
             5: 0.006050914432790909, 29: 0.014511656668176625,
             37: 0.0009709450761545932, 18: 0.009366068464736579,
             32: 0.0022548439452181775, 14: 0.006751209267488017,
             16: 0.011066489738489215, 30: 0.009591453607877396,
             8: 0.018810696006940797, 20: 0.007518594045042931,
             26: 0.007576980172484449, 22: 0.01294438742739355,
             19: 0.002539236909842022},
            72, 96.89999999999999],
        'mstp': [
            [{0: 1.0},
             {0: 0.2, 1: 0.2, 3: 0.2, 11: 0.2, 39: 0.2},
             {0: 0.10633699633699634, 1: 0.04000000000000001,
              3: 0.04000000000000001, 11: 0.04000000000000001,
              39: 0.04000000000000001, 2: 0.16571428571428576,
              10: 0.17142857142857143, 4: 0.08000000000000002,
              24: 0.03666666666666667, 12: 0.06666666666666667,
              28: 0.10769230769230768, 38: 0.061538461538461535},
             {0: 0.03453479853479853, 1: 0.1534871794871795,
              3: 0.08690231990231992, 11: 0.12183272283272285,
              39: 0.06947252747252747, 2: 0.033142857142857154,
              10: 0.034285714285714294, 17: 0.05523809523809525,
              5: 0.05128205128205129, 15: 0.035897435897435895,
              29: 0.03692307692307692},
             {0: 0.04205732913809837, 1: 0.03335091575091576,
              2: 0.11588506308506309, 10: 0.11573321123321123,
              4: 0.05527374847374848, 12: 0.04061090761090761,
              28: 0.06695956607495067, 38: 0.05334197426505119,
              18: 0.021481481481481487},
             {0: 0.010793674095542228, 1: 0.09927826461288,
              3: 0.05159720453335838, 11: 0.07265636945201048,
              39: 0.0413997160389468, 17: 0.05366539139872474,
              5: 0.0397613725306033},
             {}],
            [{},
             {},
             {34: 0.02857142857142857, 36: 0.015384615384615384},
             {34: 0.005714285714285715, 4: 0.016000000000000004,
              24: 0.007333333333333334, 12: 0.013333333333333334,
              28: 0.021538461538461538, 36: 0.003076923076923077,
              38: 0.012307692307692308, 9: 0.013186813186813189,
              33: 0.013186813186813189, 23: 0.030333333333333337,
              31: 0.008888888888888889, 25: 0.025666666666666664,
              7: 0.031111111111111114, 13: 0.017777777777777778,
              27: 0.005128205128205127, 37: 0.018461538461538463},
             {3: 0.015745054945054945, 11: 0.022731135531135538,
              39: 0.006906959706959707, 34: 0.021926739926739925,
              24: 0.018842958892958894, 36: 0.007587630318399548,
              17: 0.011047619047619051, 9: 0.0026373626373626382,
              33: 0.0026373626373626382, 16: 0.03411782661782662,
              6: 0.012649572649572649, 14: 0.002243589743589743,
              30: 0.00923076923076923},
             {2: 0.014293249607535327, 10: 0.011911041339612771,
              34: 0.004764416535845108, 9: 0.011050702858395167,
              33: 0.008902554710247017, 23: 0.018424582824582827,
              31: 0.006141527608194275, 7: 0.01895175688509022,
              13: 0.010829575362908697, 15: 0.02231985535831689,
              27: 0.003188550765473841, 29: 0.024465502019348166,
              37: 0.01600259227951536, 19: 0.0021481481481481486,
              25: 0.0021481481481481486},
             {0: 0.02364905088344165, 1: 0.002158734819108446,
              3: 0.002158734819108446, 11: 0.002158734819108446,
              39: 0.002158734819108446, 2: 0.07809376267089006,
              10: 0.0717847078020338, 34: 0.014182609230411428,
              4: 0.03654343082558467, 24: 0.011214417907670044,
              12: 0.024218789817336828, 28: 0.02229215479020212,
              36: 0.003184593541457446, 38: 0.03394443951548488,
              16: 0.017888463799574914, 18: 0.020869874432837398,
              6: 0.0026507581687068866}],
            45, 58.99999999999999],
    },
    'self-loop': {
        'ppr': [
            {0: 0.4383438507084879, 1: 0.18453063029309247,
             3: 0.14773509082875952, 2: 0.16067095143366034},
            {0: 0.01132383863734326, 1: 0.018821297257102586,
             3: 0.015996963164062565, 2: 0.02257737767749163},
            44, 79.10000000000004],
        'mstp': [
            [{0: 1.0},
             {0: 0.5833333333333334, 1: 0.25, 3: 0.16666666666666669},
             {0: 0.39738562091503266, 1: 0.20465686274509806,
              3: 0.17222222222222222, 2: 0.2257352941176471},
             {0: 0.2827682461873638, 1: 0.2635927287581699,
              3: 0.2122787309368192, 2: 0.2413602941176471},
             {0: 0.2294610212685292, 1: 0.2562374347206203,
              3: 0.21671596995279593, 2: 0.29758557405805464},
             {0: 0.19778387407976988, 1: 0.2702466328221784,
              3: 0.22670932423271145, 2: 0.3052601688653403},
             {}],
            [{},
             {},
             {},
             {},
             {},
             {},
             {0: 0.1825826066737076, 1: 0.2693719348614353,
              3: 0.2285105321844511, 2: 0.31953492628040603}],
            20, 35.3],
    },
}


@pytest.mark.parametrize("kind", sorted(PUSH_GRAPHS))
def test_push_state_unchanged(kind):
    got = push_state(PUSH_GRAPHS[kind]())
    for key, want in PUSH_GOLDEN[kind].items():
        assert _ordered(got[key]) == _ordered(want), key
