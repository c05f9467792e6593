"""Byte-for-byte CLI reports and case-study output against checked-in copies,
and the number of BFS sweeps each CLI run makes on the same inputs.

The inputs under tests/data/golden/ are a 300-vertex three-block SBM plus a
detached pair (so overflow and unreachable counts are non-zero), six seeds,
dim-8 embeddings from `topoaware embed`, block labels, and predictions that
are 80% correct. `embeddings_partial.csv` lacks five rows within max_hop,
one of them a seed. After a change that is meant to alter output, rewrite
the expected copies with

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import os
from pathlib import Path

import pytest
from scipy.sparse import csgraph

from topoaware.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_case_study.py"

_INPUTS = ["--graph", "graph.txt", "--seeds", "seeds.txt"]
_EVALUATE = ["evaluate", *_INPUTS, "--labels", "labels.csv",
             "--predictions", "predictions.csv", "--embeddings", "embeddings.csv"]

# name -> (argv, exit code); argv paths are relative to GOLDEN
CASES = {
    "partition": (["partition", *_INPUTS], 0),
    "partition_tabular": (["partition", *_INPUTS, "--format", "tabular"], 0),
    "distortion_min": (["distortion", *_INPUTS, "--embeddings", "embeddings.csv"], 0),
    "distortion_min_tabular": (["distortion", *_INPUTS, "--embeddings", "embeddings.csv",
                                "--format", "tabular"], 0),
    "distortion_mean": (["distortion", *_INPUTS, "--embeddings", "embeddings.csv",
                         "--point-to-set", "mean"], 0),
    "distortion_mean_tabular": (["distortion", *_INPUTS, "--embeddings", "embeddings.csv",
                                 "--point-to-set", "mean", "--format", "tabular"], 0),
    "evaluate": (_EVALUATE, 0),
    "evaluate_tabular": ([*_EVALUATE, "--format", "tabular"], 0),
    "distortion_missing_coverage": (["distortion", *_INPUTS,
                                     "--embeddings", "embeddings_partial.csv"], 4),
    "evaluate_max": ([*_EVALUATE, "--aggregator", "max"], 0),
}
_STRUCTURED_AND_TABULAR = {
    "sample_kcenter": ["sample", "--graph", "graph.txt", "--method", "kcenter", "--k", "7"],
    "sample_kcenter_random": ["sample", "--graph", "graph.txt", "--method", "kcenter",
                              "--k", "9", "--start", "random", "--seed", "4"],
    "sample_coverage": ["sample", "--graph", "graph.txt", "--method", "coverage",
                        "--k", "7", "--seed", "3"],
    "sample_centrality": ["sample", "--graph", "graph.txt", "--method", "centrality",
                          "--k", "7"],
    "sample_random": ["sample", "--graph", "graph.txt", "--method", "random",
                      "--fraction", "0.05", "--seed", "3"],
    "verify": ["verify", "--seed", "0", "--graphs", "10"],
}
for _name, _argv in _STRUCTURED_AND_TABULAR.items():
    CASES[_name] = (_argv, 0)
    CASES[f"{_name}_tabular"] = ([*_argv, "--format", "tabular"], 0)


def _run_case(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _expected_path(name: str, code: int) -> Path:
    return GOLDEN / "expected" / (f"{name}.out" if code == 0 else f"{name}.err")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_is_byte_identical(name, capsys, monkeypatch):
    argv, want_code = CASES[name]
    monkeypatch.chdir(GOLDEN)
    code, out, err = _run_case(argv, capsys)
    assert code == want_code, err
    got = out if want_code == 0 else err
    assert got == _expected_path(name, want_code).read_text(encoding="utf-8")


# run -> csgraph.dijkstra sweeps: one seed-distance array per run, one sweep
# per greedy seed (the objective reads the last array), and one objective
# sweep for a score baseline
BFS_COUNTS = {
    "partition": (CASES["partition"][0], 1),
    "distortion": (CASES["distortion_min"][0], 1),
    "evaluate": (CASES["evaluate"][0], 1),
    "sample_kcenter": (CASES["sample_kcenter"][0], 7),
    "sample_coverage": (CASES["sample_coverage"][0], 7),
    "sample_pagerank": (["sample", "--graph", "graph.txt", "--method", "pagerank",
                         "--k", "7"], 1),
}


@pytest.mark.parametrize("name", sorted(BFS_COUNTS))
def test_bfs_sweeps_per_run(name, capsys, monkeypatch):
    argv, want = BFS_COUNTS[name]
    sweeps = []
    dijkstra = csgraph.dijkstra

    def counted(*args, **kwargs):
        sweeps.append(1)
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", counted)
    monkeypatch.chdir(GOLDEN)
    code, _, err = _run_case(argv, capsys)
    assert code == 0, err
    assert len(sweeps) == want


def _case_study():
    spec = importlib.util.spec_from_file_location("run_case_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_case_study_output_is_byte_identical(capsys):
    assert _case_study().main([]) == 0
    want = (DATA / "case_study.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def _regenerate() -> None:
    os.chdir(GOLDEN)
    (GOLDEN / "expected").mkdir(exist_ok=True)
    for name, (argv, want_code) in CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != want_code:
            raise SystemExit(f"{name}: exit {code}, expected {want_code}: {err.getvalue()}")
        text = out.getvalue() if code == 0 else err.getvalue()
        _expected_path(name, code).write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _case_study().main([])
    (DATA / "case_study.txt").write_text(out.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
