"""Tests of the benchmark itself, on small graphs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import sys

import pytest

import run
import spans

SMALL = 2000


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    first, second = (run.run(workload, 7, 0.0, True, SMALL) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 2 * len(run.commands(workload, 7, SMALL))
    counts = [{k: m["value"] for k, m in r["metrics"].items() if not k.endswith("_s")}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["ingest.bytes_read"] > 0 and counts[0]["ingest.bytes_written"] > 0
    if workload == "select":
        assert counts[0]["graph.bfs_calls"] == 200 + 100 + 3
        assert counts[0]["graph.pagerank_iterations"] > 0
    if workload == "evaluate_write":
        assert counts[0]["metrics.partition_calls.distortion"] == 3


def test_untraced_run_reports_every_end_to_end_metric():
    result = run.run("evaluate_write", 3, 0.0, False, SMALL)
    assert set(result["metrics"]) == {"run_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _span(label, parent, start, end, note=None):
    return [label, parent, start, end, note]


def test_self_times_add_up_to_command_wall_time():
    worker = {"absent": [], "spans": [
        _span("cli.sample", -1, 0.0, 10.0),
        _span("graph.build_graph", 0, 1.0, 3.0),
        _span("sampling.kcenter", 0, 3.0, 9.0, {"k": 2}),
        _span("graph.bfs", 2, 3.5, 5.0),
        _span("graph.bfs", 2, 5.0, 6.0),
        _span("sampling.objective", 2, 6.0, 8.0),
        _span("graph.bfs", 5, 6.5, 7.5),
    ]}
    m = run.layer_metrics(worker)
    assert m["cli.sample.self_s"] == pytest.approx(2.0)
    assert m["graph.build_graph_s"] == pytest.approx(2.0)
    assert m["sampling.kcenter_s"] == pytest.approx(1.5)
    assert m["sampling.objective_s"] == pytest.approx(1.0)
    assert m["graph.bfs_s"] == pytest.approx(3.5)
    assert m["graph.bfs_calls"] == 3
    assert m["sampling.bfs_per_seed"] == pytest.approx(1.5)
    total = sum(v for k, v in m.items() if k.endswith("_s"))
    assert total == pytest.approx(10.0)
    assert run.self_time_gap(worker) == pytest.approx(0.0, abs=1e-12)


def test_missing_function_is_absent_not_zero(monkeypatch):
    sys.path.insert(0, str(run.SRC))
    import topoaware.graph
    import topoaware.sampling
    modules = [m for name, m in sys.modules.items() if name.startswith("topoaware")]
    saved = {m: dict(vars(m)) for m in modules}
    targets = dict(spans.TARGETS)
    targets["graph.bfs"] = ("topoaware.graph", ("renamed_away",))
    monkeypatch.setattr(spans, "TARGETS", targets)
    try:
        tracer = spans.Tracer()
        absent = tracer.install()
        assert absent == ["graph.bfs"]
        # a name bound by `from .graph import ...` is wrapped where it is used
        assert topoaware.sampling.pagerank is topoaware.graph.pagerank
        assert topoaware.sampling.pagerank.__wrapped__ is saved[topoaware.graph]["pagerank"]
    finally:
        for m, attrs in saved.items():
            vars(m).update(attrs)
    m = run.layer_metrics({"absent": absent, "spans": [_span("cli.partition", -1, 0.0, 1.0)]})
    assert "graph.bfs_s" not in m and "graph.bfs_calls" not in m
    assert "sampling.bfs_per_seed" not in m
    assert m["graph.build_graph_s"] == 0.0
