"""Byte-for-byte CLI reports and case-study output against checked-in copies,
the number of BFS loops, sweeps and relax calls each CLI run makes on the
same inputs, and which runs load scipy.

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
malformed input per message the four text parsers raise, and
`features_unknown_commented.csv`, a copy of `features_unknown.csv` with a
comment line, so the row loop's unknown-token error is checked against the
block reader's. After a change
that is meant to alter output, rewrite the expected copies with

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.sparse import csgraph

from conftest import count_calls
from topoaware import build_graph, graph, ingest, parse_edge_list, sampling
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
                     ("non_finite", 3), ("unknown", 4), ("unknown_commented", 4),
                     ("missing_rows", 4)]:
    _BAD_INPUTS[f"bad_features_{_stem}"] = (
        ["embed", "--graph", "small.txt", "--features", f"bad/features_{_stem}.csv"], _code)
for _stem in ["bad_header", "field_count", "duplicate", "non_numeric", "non_finite",
              "mixed_modes", "no_rows", "int_range"]:
    _BAD_INPUTS[f"bad_labels_{_stem}"] = (
        ["evaluate", *_INPUTS, "--labels", f"bad/labels_{_stem}.csv",
         "--predictions", "predictions.csv"], 3)
_BAD_INPUTS["bad_labels_unknown"] = (["evaluate", *_INPUTS, "--labels", "bad/labels_unknown.csv",
                                      "--predictions", "predictions.csv"], 4)
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


# run -> (frontier loops, relax calls): one seed-distance array per run, one
# objective array for a score baseline, and for a greedy run one array for
# the first seed and one relax per later seed. Each array and each relax is
# one frontier loop, and no run sweeps: every BFS is that loop.
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
    argv, want_loops, want_relaxes = BFS_COUNTS[name]
    loops = count_calls(monkeypatch, graph, "_lower")
    sweeps = count_calls(monkeypatch, csgraph, "dijkstra")
    relaxes = count_calls(monkeypatch, sampling, "relax")
    monkeypatch.chdir(GOLDEN)
    code, _, err = _run_case(argv, capsys)
    assert code == 0, err
    assert (len(loops), len(sweeps), len(relaxes)) == (want_loops, 0, want_relaxes)


def _loads_scipy(argvs, cwd) -> list[bool]:
    """Whether a scipy module is loaded in one fresh process after
    `import topoaware.cli` and after each CLI run of `argvs`, in order."""
    code = ("import contextlib, io, json, sys\n"
            "from topoaware.cli import main\n"
            "def loaded(): return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "print(json.dumps(loaded()))\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    print(json.dumps(loaded()))\n")
    src = str(Path(ingest.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], cwd=cwd,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_scipy_loads_only_where_a_c_kernel_pays(tmp_path):
    # every CLI process pays its imports: scipy.sparse and its csgraph took
    # 0.37 s of a 0.58 s `import topoaware.cli`, and scipy.stats about 0.9 s
    shallow = [CASES[name][0] for name in ("partition", "distortion_min", "evaluate",
                                           "sample_kcenter", "sample_coverage")]
    assert _loads_scipy(shallow, GOLDEN) == [False] * 6
    (tmp_path / "path.txt").write_text("".join(f"v{i} v{i + 1}\n" for i in range(2000)))
    (tmp_path / "seed.txt").write_text("v0\n")
    # a path's levels run in the scalar loop, however deep the path
    deep = ["partition", "--graph", str(tmp_path / "path.txt"),
            "--seeds", str(tmp_path / "seed.txt")]
    for argv in (deep, ["verify", "--seed", "0"]):
        assert _loads_scipy([argv], GOLDEN) == [False, False], argv
    for argv in (BFS_COUNTS["sample_pagerank"][0], CASES["embed_features"][0]):
        assert _loads_scipy([argv], GOLDEN) == [False, True], argv


@pytest.mark.parametrize("name", ["partition", "distortion_min", "embed_features"])
def test_clean_inputs_skip_the_row_loop(name, capsys, monkeypatch):
    # the clean golden graph and tables take the whole-buffer reads; the one
    # ingest._rows call left is the seed list's, and embed reads none
    nouns = []
    rows = ingest._rows

    def counted_rows(lines, sep, width, noun, start=1):
        nouns.append(noun)
        return rows(lines, sep, width, noun, start)

    monkeypatch.setattr(ingest, "_rows", counted_rows)
    monkeypatch.chdir(GOLDEN)
    code, _, err = _run_case(CASES[name][0], capsys)
    assert code == 0, err
    assert nouns == ([] if name == "embed_features" else ["token"])


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
