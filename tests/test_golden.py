"""Byte-for-byte CLI reports and case-study output against checked-in copies,
and the number of BFS sweeps and relax calls each CLI run makes on the same
inputs.

The inputs under tests/data/golden/ are a 300-vertex three-block SBM plus a
detached pair (so overflow and unreachable counts are non-zero), six seeds,
dim-8 embeddings from `topoaware embed`, block labels, and predictions that
are 80% correct. `embeddings_partial.csv` lacks five rows within max_hop,
one of them a seed; `predictions_partial.csv` lacks five vertices within
max_hop, one of them a seed, and one beyond it. `connected.txt` is a
one-component 150-vertex SBM
(`topoaware synth --sizes 50,50,50 --p-in 0.1 --p-out 0.01 --seed 1`), so
its seed selections report finite k-center objectives; `small.txt` is a
7-vertex graph for one-hot embeddings and feature tables. `bad/` holds one
malformed input per message the four text parsers raise. After a change
that is meant to alter output, rewrite the expected copies with

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

from topoaware import build_graph, ingest, parse_edge_list, sampling
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
    "evaluate_missing_predictions": (["evaluate", *_INPUTS, "--labels", "labels.csv",
                                      "--predictions", "predictions_partial.csv"], 4),
    "evaluate_missing_embeddings": (["evaluate", *_INPUTS, "--labels", "labels.csv",
                                     "--predictions", "predictions.csv",
                                     "--embeddings", "embeddings_partial.csv"], 4),
    "embed_features": (["embed", "--graph", "graph.txt", "--features", "embeddings.csv",
                        "--layers", "1"], 0),
    "embed_one_hot": (["embed", "--graph", "small.txt"], 0),
    "embed_features_partial": (["embed", "--graph", "graph.txt",
                                "--features", "embeddings_partial.csv"], 4),
    "embed_missing_rows_layers_0": (["embed", "--graph", "small.txt", "--features",
                                     "bad/features_missing_rows.csv", "--layers", "0"], 4),
    "synth": (["synth", "--sizes", "5,5,1", "--p-in", "0.5", "--p-out", "0.05",
               "--seed", "1"], 0),
}
# name -> (argv, exit code) of runs that read one malformed file from bad/
_BAD_INPUTS = {
    "bad_edges_token_count": (["partition", "--graph", "bad/edges_token_count.txt",
                               "--seeds", "seeds.txt"], 3),
    "bad_seeds_token_count": (["partition", "--graph", "graph.txt",
                               "--seeds", "bad/seeds_token_count.txt"], 3),
}
for _stem, _code in [("missing_header", 3), ("bad_header", 3), ("field_count", 3),
                     ("duplicate", 3), ("non_numeric", 3), ("blank_value", 3),
                     ("non_finite", 3), ("unknown", 4), ("missing_rows", 4)]:
    _BAD_INPUTS[f"bad_features_{_stem}"] = (
        ["embed", "--graph", "small.txt", "--features", f"bad/features_{_stem}.csv"], _code)
for _stem in ["bad_header", "field_count", "duplicate", "non_numeric", "non_finite",
              "mixed_modes", "no_rows"]:
    _BAD_INPUTS[f"bad_labels_{_stem}"] = (
        ["evaluate", *_INPUTS, "--labels", f"bad/labels_{_stem}.csv",
         "--predictions", "predictions.csv"], 3)
CASES.update(_BAD_INPUTS)
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
    "sample_connected_kcenter": ["sample", "--graph", "connected.txt", "--method",
                                 "kcenter", "--k", "7"],
    "sample_connected_coverage": ["sample", "--graph", "connected.txt", "--method",
                                  "coverage", "--k", "7", "--seed", "3"],
    "sample_connected_degree": ["sample", "--graph", "connected.txt", "--method",
                                "degree", "--k", "7"],
    "sample_connected_random": ["sample", "--graph", "connected.txt", "--method",
                                "random", "--k", "7", "--seed", "3"],
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


def test_connected_graph_has_one_component():
    text = (GOLDEN / "connected.txt").read_text(encoding="utf-8")
    g = build_graph(parse_edge_list(text))
    assert (g.n, g.m) == (150, 430)
    assert csgraph.connected_components(g.csr, directed=False)[0] == 1


# run -> (csgraph.dijkstra sweeps, relax calls): one seed-distance array per
# run, one objective sweep for a score baseline, and for a greedy run one
# sweep for the first seed and one relax per later seed. Every relax on
# graph.txt falls back to one sweep: n + nnz = 302 + 962 is below the
# RELAX_LEVEL_CHARGE of its first level.
BFS_COUNTS = {
    "partition": (CASES["partition"][0], 1, 0),
    "distortion": (CASES["distortion_min"][0], 1, 0),
    "evaluate": (CASES["evaluate"][0], 1, 0),
    "sample_kcenter": (CASES["sample_kcenter"][0], 7, 6),
    "sample_coverage": (CASES["sample_coverage"][0], 7, 6),
    "sample_pagerank": (["sample", "--graph", "graph.txt", "--method", "pagerank",
                         "--k", "7"], 1, 0),
}


@pytest.mark.parametrize("name", sorted(BFS_COUNTS))
def test_bfs_sweeps_per_run(name, capsys, monkeypatch):
    argv, want_sweeps, want_relaxes = BFS_COUNTS[name]
    sweeps, relaxes = [], []
    dijkstra, relax = csgraph.dijkstra, sampling.relax

    def counted_sweep(*args, **kwargs):
        sweeps.append(1)
        return dijkstra(*args, **kwargs)

    def counted_relax(*args, **kwargs):
        relaxes.append(1)
        return relax(*args, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", counted_sweep)
    monkeypatch.setattr(sampling, "relax", counted_relax)
    monkeypatch.chdir(GOLDEN)
    code, _, err = _run_case(argv, capsys)
    assert code == 0, err
    assert (len(sweeps), len(relaxes)) == (want_sweeps, want_relaxes)


@pytest.mark.parametrize("name", ["partition", "distortion_min"])
def test_clean_inputs_skip_the_row_loop(name, capsys, monkeypatch):
    # the clean golden graph and table take the whole-buffer reads; the one
    # ingest._rows call left is the seed list's
    nouns = []
    rows = ingest._rows

    def counted_rows(lines, sep, width, noun, start=1):
        nouns.append(noun)
        return rows(lines, sep, width, noun, start)

    monkeypatch.setattr(ingest, "_rows", counted_rows)
    monkeypatch.chdir(GOLDEN)
    code, _, err = _run_case(CASES[name][0], capsys)
    assert code == 0, err
    assert nouns == ["token"]


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
