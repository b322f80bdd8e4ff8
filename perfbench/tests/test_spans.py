"""The traced run's accounting: spans nest, self time is what children leave,
and a wrapped name that no longer exists is reported absent, not fatal."""
import pytest

import spans
from bippr import Graph, RandomStream, estimate_ppr
from workloads import ppr_params


@pytest.fixture
def graph():
    edges = [(i, (i * 7 + 3) % 60) for i in range(60)] + [(i, i + 1) for i in range(59)]
    return Graph.from_edges([e for e in edges if e[0] != e[1]])


def traced_query(g, tracer):
    tracer.install()
    try:
        with tracer.span("query.ppr"):
            return estimate_ppr(g, 0, 5, ppr_params(g, 5, None), RandomStream(0))
    finally:
        tracer.uninstall()


def test_layers_add_up_to_the_query(graph):
    tracer = spans.Tracer()
    est = traced_query(graph, tracer)
    assert tracer.absent == []
    m = spans.layer_metrics(tracer.spans, loads=1, m=graph.m, passes=1)
    assert m["push.count"] == est.push_count
    assert m["walk.steps"] == est.walk_steps
    assert m["walk.rounds"] >= 1
    parts = m["push.s"] + m["estimator.densify_s"] + m["walk.s"] + m["estimator.combine_s"]
    query = next(end - start for name, start, end, *_ in tracer.spans if name == "query.ppr")
    assert parts == pytest.approx(query, rel=1e-9)


def test_missing_name_is_absent_and_its_time_stays_in_the_caller(graph, monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", [
        t for t in spans.TARGETS if t[2] != "estimator.densify"
    ] + [("bippr.push", "PushResult.no_such_method", "estimator.densify", None)])
    tracer = spans.Tracer()
    assert tracer.absent == ["bippr.push.PushResult.no_such_method"]
    traced_query(graph, tracer)
    m = spans.layer_metrics(tracer.spans, loads=1, m=graph.m, passes=1)
    assert m["estimator.densify_s"] == 0.0
    assert m["estimator.combine_s"] > 0.0
