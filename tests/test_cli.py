from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import id_graph, label_table, path_graph
from topoaware import (build_graph, cli, errors, one_hot_features, parse_edge_list,
                       parse_label_table, parse_report, parse_token_list,
                       parse_vector_table, propagate, synthetic_sbm,
                       write_edge_list, write_label_table, write_token_list)
from topoaware.cli import main

BOM = b"\xef\xbb\xbf"


@pytest.fixture
def ws(tmp_path):
    """Workspace with a path graph v0-v1-v2-v3-v4 and its seed file {v0}."""
    g = id_graph(5, [(i, i + 1) for i in range(4)])
    graph = tmp_path / "graph.txt"
    graph.write_text(write_edge_list(g))
    seeds = tmp_path / "seeds.txt"
    seeds.write_text(write_token_list(["v0"]))
    return tmp_path, graph, seeds


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err or out
    return json.loads(out), err


# ---------------------------------------------------------------------------
# partition


def test_partition_path_counts(capsys, ws):
    _, graph, seeds = ws
    doc, _ = run_json(capsys, ["partition", "--graph", str(graph),
                               "--seeds", str(seeds), "--max-hop", "3"])
    assert doc["schema_version"] == "1"
    assert doc["payload_kind"] == "partition"
    assert doc["payload"]["seed_count"] == 1
    assert doc["payload"]["hop_counts"] == [
        {"hop": 1, "count": 1}, {"hop": 2, "count": 1}, {"hop": 3, "count": 1}]
    assert doc["payload"]["overflow_count"] == 1
    assert doc["payload"]["unreachable_count"] == 0
    assert doc["parameters"]["max_hop"] == 3


def test_partition_every_vertex_seeded(capsys, ws):
    tmp, graph, _ = ws
    seeds = tmp / "all.txt"
    seeds.write_text(write_token_list([f"v{i}" for i in range(5)]))
    doc, _ = run_json(capsys, ["partition", "--graph", str(graph),
                               "--seeds", str(seeds)])
    assert doc["payload"]["seed_count"] == 5
    assert all(row["count"] == 0 for row in doc["payload"]["hop_counts"])


@pytest.mark.parametrize("max_hop, message", [
    (0, "max_hop must be positive"),
    (cli.PARTITION_MAX_HOP + 1, f"{cli.PARTITION_MAX_HOP}-row limit"),
    (10**400, f"{cli.PARTITION_MAX_HOP}-row limit"),
])
def test_partition_max_hop_out_of_range_is_usage_error(capsys, ws, max_hop, message):
    _, graph, seeds = ws
    code, out, err = run(capsys, ["partition", "--graph", str(graph),
                                  "--seeds", str(seeds), "--max-hop", str(max_hop)])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and message in err


def test_partition_tabular_format(capsys, ws):
    _, graph, seeds = ws
    code, out, _ = run(capsys, ["partition", "--graph", str(graph),
                                "--seeds", str(seeds), "--format", "tabular"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema_version=1"
    assert "# hop\tcount" in lines
    assert "1\t1" in lines


# ---------------------------------------------------------------------------
# sample


def test_sample_kcenter_writes_seed_file(capsys, ws):
    tmp, graph, _ = ws
    out_file = tmp / "sel.txt"
    doc, _ = run_json(capsys, ["sample", "--graph", str(graph),
                               "--method", "kcenter", "--k", "2",
                               "--seeds-out", str(out_file)])
    assert doc["payload"]["seeds"] == ["v1", "v4"]
    assert doc["payload"]["objective"] == 1
    assert doc["payload"]["method"] == "kcenter_greedy"
    assert parse_token_list(out_file.read_text()) == ["v1", "v4"]


def test_sample_fraction_resolves_k(capsys, ws):
    _, graph, _ = ws
    doc, err = run_json(capsys, ["sample", "--graph", str(graph),
                                 "--method", "degree", "--fraction", "0.5"])
    assert doc["payload"]["k"] == 2
    assert "resolved k = 2 from fraction 0.5" in err


def test_sample_fraction_floor_is_one(capsys, ws):
    _, graph, _ = ws
    doc, err = run_json(capsys, ["sample", "--graph", str(graph),
                                 "--method", "degree", "--fraction", "0.01"])
    assert doc["payload"]["k"] == 1
    assert "resolved k = 1" in err


def test_sample_k_and_fraction_conflict(capsys, ws):
    _, graph, _ = ws
    code, _, err = run(capsys, ["sample", "--graph", str(graph),
                                "--method", "degree", "--k", "2",
                                "--fraction", "0.5"])
    assert code == 2 and "usage error" in err


def test_sample_randomized_methods_require_seed(capsys, ws):
    _, graph, _ = ws
    for method in ("random", "coverage"):
        code, _, err = run(capsys, ["sample", "--graph", str(graph),
                                    "--method", method, "--k", "2"])
        assert code == 2 and "--seed" in err


def test_sample_random_reproducible(capsys, ws):
    _, graph, _ = ws
    argv = ["sample", "--graph", str(graph), "--method", "random",
            "--k", "2", "--seed", "9"]
    a, _ = run_json(capsys, argv)
    b, _ = run_json(capsys, argv)
    assert a == b
    assert a["payload"]["rng_seed"] == 9


def test_sample_start_vertex(capsys, ws):
    _, graph, _ = ws
    doc, _ = run_json(capsys, ["sample", "--graph", str(graph),
                               "--method", "kcenter", "--k", "2",
                               "--start", "vertex", "v0"])
    assert doc["payload"]["seeds"][0] == "v0"
    assert doc["payload"]["start_policy"] == "vertex:v0"


def test_sample_start_random_needs_seed(capsys, ws):
    _, graph, _ = ws
    code, _, err = run(capsys, ["sample", "--graph", str(graph),
                                "--method", "kcenter", "--k", "2",
                                "--start", "random"])
    assert code == 2 and "--seed" in err


def test_sample_start_only_for_kcenter(capsys, ws):
    _, graph, _ = ws
    code, _, err = run(capsys, ["sample", "--graph", str(graph),
                                "--method", "degree", "--k", "1",
                                "--start", "random"])
    assert code == 2


def test_sample_centrality_records_variant(capsys, ws):
    _, graph, _ = ws
    doc, _ = run_json(capsys, ["sample", "--graph", str(graph),
                               "--method", "centrality", "--k", "1"])
    assert doc["parameters"]["centrality_variant"] == "closeness"
    assert doc["payload"]["seeds"] == ["v2"]


def test_sample_centrality_size_guard_is_usage_error(capsys, tmp_path):
    graph = tmp_path / "path.txt"
    graph.write_text(write_edge_list(id_graph(10_001, [(i, i + 1) for i in range(10_000)])))
    code, out, err = run(capsys, ["sample", "--graph", str(graph),
                                  "--method", "centrality", "--k", "1"])
    assert code == 2 and out == ""
    assert "10001 vertices" in err


# ---------------------------------------------------------------------------
# embed / synth


def test_embed_matches_library(capsys, ws):
    tmp, graph, _ = ws
    code, out, _ = run(capsys, ["embed", "--graph", str(graph), "--layers", "2"])
    assert code == 0
    g = build_graph(parse_edge_list((tmp / "graph.txt").read_text()))
    got = parse_vector_table(out, g)
    want = propagate(g, one_hot_features(g), 2)
    assert np.array_equal(got.vectors, want.vectors)


def test_embed_rejects_bad_layers(capsys, ws):
    _, graph, _ = ws
    code, _, err = run(capsys, ["embed", "--graph", str(graph), "--layers", "0"])
    assert code == 2


def test_embed_overflowing_features_is_usage_error(capsys, ws):
    tmp, graph, _ = ws
    features = tmp / "huge.csv"
    features.write_text("node,d0\nv0,1e308\nv1,-1e308\nv2,1e308\nv3,-1e308\nv4,1e308\n")
    code, out, err = run(capsys, ["embed", "--graph", str(graph), "--features", str(features),
                                  "--layers", "3"])
    assert (code, out) == (2, "")
    assert err == "usage error: propagated features overflow float64\n"


def test_embed_one_hot_size_guard_is_usage_error(capsys, tmp_path):
    graph = tmp_path / "path.txt"
    graph.write_text(write_edge_list(id_graph(5001, [(i, i + 1) for i in range(5000)])))
    code, out, err = run(capsys, ["embed", "--graph", str(graph)])
    assert code == 2 and out == ""
    assert "5001 vertices" in err and "--features" in err


def test_synth_deterministic_and_labelled(capsys, tmp_path):
    edge_a = tmp_path / "a.txt"
    labels_a = tmp_path / "a_labels.csv"
    argv = ["synth", "--sizes", "6,6", "--p-in", "0.9", "--p-out", "0.1",
            "--seed", "3", "--out", str(edge_a), "--labels-out", str(labels_a)]
    assert main(argv) == 0
    edge_b = tmp_path / "b.txt"
    assert main(["synth", "--sizes", "6,6", "--p-in", "0.9", "--p-out", "0.1",
                 "--seed", "3", "--out", str(edge_b)]) == 0
    assert edge_a.read_text() == edge_b.read_text()
    ds = synthetic_sbm([6, 6], 0.9, 0.1, rng_seed=3)
    assert build_graph(parse_edge_list(edge_a.read_text())) == ds.graph
    table = parse_label_table(labels_a.read_text())
    assert table.mode == "classification"
    labels = dict(zip(table.tokens, table.values.tolist()))
    assert labels["v0"] == 0 and labels["v11"] == 1


@pytest.mark.parametrize("sizes", ["a,b", "3.5"])
def test_synth_non_int_sizes_is_usage_error(capsys, sizes):
    code, out, err = run(capsys, ["synth", "--sizes", sizes, "--p-in", "0.5",
                                  "--p-out", "0.1", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == f"usage error: --sizes must be comma-separated ints, got {sizes!r}\n"


@pytest.mark.parametrize("sizes", ["1000000000", "100000,1"])
def test_synth_size_guard_fires_before_allocation(capsys, sizes):
    # 10**9 vertices ended in a numpy traceback (exit 1): the labels array
    # alone is 7.45 GiB, and the pairs are n**2 / 2 draws
    n = sum(int(s) for s in sizes.split(","))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["synth", "--sizes", sizes, "--p-in", "0.5",
                                      "--p-out", "0.1", "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (f"usage error: a block model of {n} vertices exceeds the 100000-vertex "
                   "limit of one draw per vertex pair\n")
    assert peak < 1 << 20


def test_synth_rejects_bad_probabilities(capsys):
    code, _, err = run(capsys, ["synth", "--sizes", "4,4", "--p-in", "0.2",
                                "--p-out", "0.5", "--seed", "1"])
    assert code == 2 and "p_out" in err


# ---------------------------------------------------------------------------
# distortion / evaluate


def write_line_embeddings(tmp, g):
    emb = tmp / "emb.csv"
    rows = ["node,d0"] + [f"v{i},{float(i)!r}" for i in range(g)]
    emb.write_text("\n".join(rows) + "\n")
    return emb


def test_distortion_isometric_line(capsys, ws):
    tmp, graph, seeds = ws
    emb = write_line_embeddings(tmp, 5)
    doc, _ = run_json(capsys, ["distortion", "--graph", str(graph),
                               "--seeds", str(seeds), "--embeddings", str(emb)])
    assert doc["payload"]["r"] == 1.0
    assert doc["payload"]["alpha"] == 1.0
    assert doc["payload"]["pair_count"] == 4
    hops = [row["hop"] for row in doc["payload"]["profile"]]
    assert hops == [1, 2, 3, 4]


def test_distortion_degenerate_embedding_exit_code(capsys, ws):
    tmp, graph, seeds = ws
    emb = tmp / "flat.csv"
    emb.write_text("node,d0\n" + "".join(f"v{i},1.0\n" for i in range(5)))
    code, _, err = run(capsys, ["distortion", "--graph", str(graph),
                                "--seeds", str(seeds), "--embeddings", str(emb)])
    assert code == 5 and "degenerate" in err.lower()


def test_distortion_alpha_overflow_is_degenerate(capsys, ws):
    tmp, graph, seeds = ws
    emb = tmp / "wide.csv"
    emb.write_text("node,d0\nv0,0.0\nv1,1e-160\nv2,1e150\nv3,2.0\nv4,3.0\n")
    code, out, err = run(capsys, ["distortion", "--graph", str(graph),
                                  "--seeds", str(seeds), "--embeddings", str(emb)])
    assert (code, out) == (5, "")
    assert err.count("\n") == 1 and err.startswith("degenerate data: distortion alpha")


def test_distortion_overflowing_distance_is_usage_error(capsys, ws):
    tmp, graph, seeds = ws
    emb = tmp / "far.csv"
    emb.write_text("node,d0\nv0,0.0\nv1,1.0\nv2,1e308\nv3,2.0\nv4,3.0\n")
    code, out, err = run(capsys, ["distortion", "--graph", str(graph),
                                  "--seeds", str(seeds), "--embeddings", str(emb)])
    assert (code, out) == (2, "")
    assert err == "usage error: embedding distances must be finite and non-negative\n"


def test_distortion_missing_coverage_reports_tokens(capsys, ws):
    tmp, graph, seeds = ws
    emb = tmp / "short.csv"
    emb.write_text("node,d0\nv0,0.0\nv1,1.0\n")
    code, _, err = run(capsys, ["distortion", "--graph", str(graph),
                                "--seeds", str(seeds), "--embeddings", str(emb)])
    assert code == 4 and "v2" in err


def test_distortion_parses_embeddings_before_partitioning(capsys, ws):
    tmp, graph, seeds = ws
    emb = tmp / "bad.csv"
    emb.write_text("node,d0\nv0,0.0,1.0\n")
    code, out, err = run(capsys, ["distortion", "--graph", str(graph), "--seeds", str(seeds),
                                  "--embeddings", str(emb), "--max-hop", "0"])
    assert (code, out) == (3, "")
    assert err == "parse error: line 2: expected 2 fields, found 3\n"


def evaluate_workspace(tmp_path):
    g = id_graph(5, [(i, i + 1) for i in range(4)])
    graph = tmp_path / "graph.txt"
    graph.write_text(write_edge_list(g))
    seeds = tmp_path / "seeds.txt"
    seeds.write_text(write_token_list(["v0"]))
    truth = tmp_path / "truth.csv"
    truth.write_text(write_label_table(label_table({f"v{i}": 1 for i in range(5)})))
    preds = tmp_path / "preds.csv"
    preds.write_text(write_label_table(
        label_table({"v0": 1, "v1": 1, "v2": 1, "v3": 0, "v4": 0})))
    return graph, seeds, truth, preds


def test_evaluate_path_report(capsys, tmp_path):
    graph, seeds, truth, preds = evaluate_workspace(tmp_path)
    doc, _ = run_json(capsys, ["evaluate", "--graph", str(graph),
                               "--seeds", str(seeds), "--labels", str(truth),
                               "--predictions", str(preds)])
    payload = doc["payload"]
    assert payload["train_accuracy"] == 1.0
    per_hop = {row["hop"]: row["accuracy"] for row in payload["per_hop"]}
    assert per_hop == {1: 1.0, 2: 1.0, 3: 0.0, 4: 0.0}
    assert payload["max_discrepancy"] == 1.0
    assert payload["overall_accuracy"] == 0.5
    assert payload["acc_md"] == "50.00|100.00"
    assert payload["evaluated_count"] == 4
    assert payload["aggregate_distance"]["value"] == 2.5
    assert payload["ordering"]["violations"] == []
    assert payload["ordering"]["spearman"] > 0.8
    assert payload["bounds"] is None


def test_evaluate_with_embeddings_adds_bounds(capsys, tmp_path):
    graph, seeds, truth, preds = evaluate_workspace(tmp_path)
    emb = write_line_embeddings(tmp_path, 5)
    doc, _ = run_json(capsys, ["evaluate", "--graph", str(graph),
                               "--seeds", str(seeds), "--labels", str(truth),
                               "--predictions", str(preds),
                               "--embeddings", str(emb),
                               "--bound-constant", "2.0"])
    bounds = doc["payload"]["bounds"]
    assert [b["hop"] for b in bounds] == [1, 2, 3, 4]
    assert all(b["alpha"] == 1.0 for b in bounds)
    assert bounds[2]["bound_driver"] == 3.0
    assert bounds[2]["bound_value"] == 6.0  # train risk 0 + 2.0 * 3


@pytest.mark.parametrize("constant", ["nan", "inf", "-inf", "1e308"])
def test_evaluate_non_finite_bound_constant_is_usage_error(capsys, tmp_path, constant):
    graph, seeds, truth, preds = evaluate_workspace(tmp_path)
    emb = write_line_embeddings(tmp_path, 5)
    got = run(capsys, ["evaluate", "--graph", str(graph), "--seeds", str(seeds),
                       "--labels", str(truth), "--predictions", str(preds),
                       "--embeddings", str(emb), f"--bound-constant={constant}"])
    if constant == "1e308":  # finite, but 1e308 * the hop-2 driver 2 overflows
        assert got == (2, "", "usage error: --bound-constant 1e+308 makes the bound "
                              "value at hop 2 overflow\n")
    else:
        assert got == (2, "", "usage error: --bound-constant must be finite, got "
                              f"{float(constant)}\n")


def test_evaluate_negative_class_label_names_its_token(capsys, tmp_path, monkeypatch):
    golden = Path(__file__).resolve().parent / "data" / "golden"
    for name in ("graph.txt", "seeds.txt", "labels.csv", "predictions.csv"):
        (tmp_path / name).write_text((golden / name).read_text())
    labels = tmp_path / "labels.csv"
    labels.write_text(labels.read_text().replace("\nv101,1\n", "\nv101,-1\n"))
    monkeypatch.chdir(tmp_path)
    got = run(capsys, ["evaluate", "--graph", "graph.txt", "--seeds", "seeds.txt",
                       "--labels", "labels.csv", "--predictions", "predictions.csv"])
    assert got == (2, "", "usage error: classification labels must be non-negative ints, "
                          "got -1 at v101\n")


def test_evaluate_mode_mismatch(capsys, tmp_path):
    graph, seeds, truth, _ = evaluate_workspace(tmp_path)
    reg = tmp_path / "reg.csv"
    reg.write_text("node,label\n" + "".join(f"v{i},0.5\n" for i in range(5)))
    code, _, err = run(capsys, ["evaluate", "--graph", str(graph),
                                "--seeds", str(seeds), "--labels", str(truth),
                                "--predictions", str(reg)])
    assert code == 2 and "classification" in err


def test_evaluate_ordering_report_stays_bounded_on_a_deep_path(capsys, tmp_path):
    # a 2000-vertex path from v0 has 1999 groups of one vertex each; only hop 1
    # is wrong, so every later group is inverted against it
    n = 2000
    graph, seeds = tmp_path / "graph.txt", tmp_path / "seeds.txt"
    graph.write_text(write_edge_list(path_graph(n)))
    seeds.write_text(write_token_list(["v0"]))
    truth, preds = tmp_path / "truth.csv", tmp_path / "preds.csv"
    truth.write_text(write_label_table(label_table({f"v{i}": 0 for i in range(n)})))
    preds.write_text(write_label_table(label_table({f"v{i}": int(i == 1) for i in range(n)})))
    tracemalloc.start()
    try:
        doc, _ = run_json(capsys, ["evaluate", "--graph", str(graph), "--seeds", str(seeds),
                                   "--labels", str(truth), "--predictions", str(preds),
                                   "--max-hop", str(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ordering = doc["payload"]["ordering"]
    assert peak < 64 * 10**6
    assert ordering["violation_count"] == n - 2 and ordering["violations_truncated"]
    assert ordering["violations"] == [[hi, 1] for hi in range(2, 102)]


# ---------------------------------------------------------------------------
# verify


def test_verify_ok(capsys):
    doc, _ = run_json(capsys, ["verify", "--seed", "0", "--graphs", "8",
                               "--n-max", "12"])
    assert doc["payload"]["all_passed"] is True
    assert [row["check"] for row in doc["payload"]["check_rows"]] == [
        "distance", "greedy", "distortion"]


@pytest.mark.parametrize("fault", ["distance", "greedy", "distortion"])
def test_verify_injected_fault_exits_70(capsys, fault):
    code, out, _ = run(capsys, ["verify", "--seed", "1", "--graphs", "6",
                                "--n-max", "10", "--inject-fault", fault])
    assert code == 70
    doc = json.loads(out)
    assert doc["payload"]["all_passed"] is False
    failing = [c for c in doc["payload"]["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == [fault]
    assert failing[0]["counterexample"]


def test_verify_size_guard_is_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "--seed", "0", "--graphs", "10000"])
    assert code == 2


# ---------------------------------------------------------------------------
# exit codes and report shape


def test_bad_edge_file_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b c\n")
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("a\n")
    code, _, err = run(capsys, ["partition", "--graph", str(bad),
                                "--seeds", str(seeds)])
    assert code == 3 and "line 1" in err


def test_non_utf8_input_is_parse_error(capsys, ws):
    _, _, seeds = ws
    bad = seeds.parent / "latin1.txt"
    for prefix in (b"", BOM):  # the byte and line do not count a leading BOM
        bad.write_bytes(prefix + b"v0 v1\n\xff v2\n")
        code, out, err = run(capsys, ["partition", "--graph", str(bad),
                                      "--seeds", str(seeds)])
        assert (code, out) == (3, "")
        assert err == "parse error: line 2: not valid UTF-8 (byte 0xff)\n"


def test_a_leading_bom_is_ignored(capsys, tmp_path, monkeypatch):
    # a BOM would otherwise join the first token, or the vector table's header
    texts = {"graph.txt": "a b\nb c\nc d\n", "seeds.txt": "a\n",
             "emb.csv": "node,d0\na,0.0\nb,1.0\nc,2.0\nd,3.0\n"}
    argv = ["distortion", "--graph", "graph.txt", "--seeds", "seeds.txt",
            "--embeddings", "emb.csv"]
    outs = []
    for prefix in (b"", BOM):
        (tmp_path / str(len(outs))).mkdir()
        monkeypatch.chdir(tmp_path / str(len(outs)))
        for name, text in texts.items():
            Path(name).write_bytes(prefix + text.encode())
        outs.append(run_json(capsys, argv))
    assert outs[1] == outs[0] and outs[1][0]["payload"]["pair_count"] == 3


_HASH_PATH = "x #a\nx y\ny z\nz w\n"
_KCENTER_FROM_HASH = ["sample", "--method", "kcenter", "--k", "2", "--start", "vertex", "#a"]


# edge list, argv after --graph (OUT: a path in tmp_path), the refused token and
# the writer's noun
@pytest.mark.parametrize("edges, argv, token, noun", [
    (_HASH_PATH, [*_KCENTER_FROM_HASH, "--seeds-out", "OUT"], "#a", "token list"),
    (_HASH_PATH, [*_KCENTER_FROM_HASH, "--seeds-out", "OUT", "--out", "OUT"], "#a", "token list"),
    ("x #a\nw #a\nw y\n", ["embed", "--out", "OUT"], "#a", "vector table"),
    ("a,z b\nb c\n", ["embed", "--out", "OUT"], "a,z", "vector table"),
], ids=["seeds_out", "seeds_out_and_report", "embed_hash", "embed_comma"])
def test_a_token_the_reader_would_not_read_back_is_refused(capsys, tmp_path, edges, argv,
                                                           token, noun):
    graph = tmp_path / "graph.txt"
    graph.write_text(edges)
    outs = [tmp_path / f"out{i}" for i in range(argv.count("OUT"))]
    paths = iter(outs)
    argv = [argv[0], "--graph", str(graph),
            *[str(next(paths)) if a == "OUT" else a for a in argv[1:]]]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (f"usage error: token {token!r} cannot be written to a {noun}: "
                   "its reader would skip or split it\n")
    assert not any(path.exists() for path in outs)


def test_unknown_seed_token_is_coverage_error(capsys, ws):
    tmp, graph, _ = ws
    seeds = tmp / "bad_seeds.txt"
    seeds.write_text("nope\n")
    code, _, err = run(capsys, ["partition", "--graph", str(graph),
                                "--seeds", str(seeds)])
    assert code == 4 and "nope" in err


@pytest.mark.parametrize("error, code, prefix", [
    (errors.ParseError("bad", line_number=4), 3, "parse error: line 4: bad"),
    (errors.CoverageError("gone", missing=("v1",), kind="token"), 4,
     "coverage error: gone: v1"),
    (errors.DegenerateEmbeddingError("flat"), 5, "degenerate data: flat"),
    (errors.InternalInvariantError("broken"), 70, "internal error: broken"),
    (errors.SizeGuardError("big"), 2, "usage error: big"),
    (errors.TopoawareError("other"), 70, "error: other"),
])
def test_each_error_class_has_its_exit_code(capsys, monkeypatch, error, code, prefix):
    def fail(args, g=None):
        raise error

    monkeypatch.setattr(cli, "cmd_synth", fail)
    got = run(capsys, ["synth", "--sizes", "2", "--p-in", "0.5", "--p-out", "0.1",
                       "--seed", "1"])
    assert got == (code, "", prefix + "\n")


@pytest.mark.parametrize("argv", [
    ["sample", "--graph", "GRAPH", "--method", "random", "--k", "3", "--seed", "-1"],
    ["synth", "--sizes", "4,4", "--p-in", "0.5", "--p-out", "0.1", "--seed", "-1"],
    ["verify", "--seed", "-1", "--graphs", "2"],
    # these methods draw nothing, so only the check before dispatch sees the seed
    ["sample", "--graph", "GRAPH", "--method", "degree", "--k", "3", "--seed", "-1"],
    ["sample", "--graph", "GRAPH", "--method", "kcenter", "--k", "3", "--seed", "-1"],
])
def test_negative_seed_is_usage_error(capsys, ws, argv):
    argv = [str(ws[1]) if a == "GRAPH" else a for a in argv]
    assert run(capsys, argv) == (2, "", "usage error: rng seed must be a non-negative "
                                        "integer, got -1\n")


@pytest.mark.parametrize("argv, message", [
    (["partition", "--graph", "MISSING", "--seeds", "SEEDS"],
     "cannot read MISSING: No such file or directory"),
    (["sample", "--graph", "GRAPH", "--method", "degree", "--fraction", "1.5"],
     "--fraction must be in (0,1), got 1.5"),
    (["sample", "--graph", "GRAPH", "--method", "degree"],
     "one of --k or --fraction is required"),
    (["sample", "--graph", "GRAPH", "--method", "kcenter", "--k", "2",
      "--start", "highest-degree", "v1"], "--start highest-degree takes no extra value"),
    (["sample", "--graph", "GRAPH", "--method", "kcenter", "--k", "2", "--start", "vertex"],
     "--start vertex requires a token"),
    (["sample", "--graph", "GRAPH", "--method", "kcenter", "--k", "2", "--start", "middle"],
     "unknown start policy 'middle'"),
    (["evaluate", "--graph", "GRAPH", "--seeds", "ALL", "--labels", "TRUTH",
      "--predictions", "PREDS"], "no test vertices within max_hop of the seed set"),
], ids=["unreadable input", "fraction out of range", "no k or fraction",
        "start policy with a value", "start vertex without a token", "unknown start policy",
        "evaluate every vertex seeded"])
def test_usage_error_names_its_cause(capsys, tmp_path, argv, message):
    graph, seeds, truth, preds = evaluate_workspace(tmp_path)
    every = tmp_path / "all.txt"
    every.write_text(write_token_list([f"v{i}" for i in range(5)]))
    names = {"GRAPH": graph, "SEEDS": seeds, "ALL": every, "TRUTH": truth, "PREDS": preds,
             "MISSING": tmp_path / "missing.txt"}
    argv = [str(names.get(a, a)) for a in argv]
    message = message.replace("MISSING", str(names["MISSING"]))
    assert run(capsys, argv) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["partition", "--graph", "GRAPH", "--seeds", "SEEDS", "--out", "MISSING/report.json"],
    ["sample", "--graph", "GRAPH", "--method", "kcenter", "--k", "2",
     "--seeds-out", "MISSING/seeds.txt"],
    ["synth", "--sizes", "4,4", "--p-in", "0.5", "--p-out", "0.1", "--seed", "1",
     "--out", "MISSING/graph.txt"],
    # a failed later write removes the earlier files and prints nothing
    ["synth", "--sizes", "4,4", "--p-in", "0.5", "--p-out", "0.1", "--seed", "1",
     "--out", "HERE/g.txt", "--labels-out", "MISSING/l.csv"],
    ["synth", "--sizes", "4,4", "--p-in", "0.5", "--p-out", "0.1", "--seed", "1",
     "--labels-out", "MISSING/l.csv"],
    ["sample", "--graph", "GRAPH", "--method", "degree", "--k", "2",
     "--out", "HERE/r.json", "--seeds-out", "MISSING/s.txt"],
    ["sample", "--graph", "GRAPH", "--method", "kcenter", "--fraction", "0.5",
     "--seeds-out", "MISSING/s.txt"],
    # ...but only the files this run created: not an older file, not a symlink
    ["sample", "--graph", "GRAPH", "--method", "degree", "--k", "2",
     "--out", "HERE/old.json", "--seeds-out", "MISSING/s.txt"],
    ["sample", "--graph", "GRAPH", "--method", "degree", "--k", "2",
     "--out", "HERE/link", "--seeds-out", "MISSING/s.txt"],
    # two outputs that name one file write nothing
    ["sample", "--graph", "GRAPH", "--method", "degree", "--k", "2",
     "--out", "HERE/x.json", "--seeds-out", "HERE/x.json"],
    ["sample", "--graph", "GRAPH", "--method", "degree", "--k", "2",
     "--out", "HERE/y.json", "--seeds-out", "HERE/./y.json"],
    ["synth", "--sizes", "4,4", "--p-in", "0.5", "--p-out", "0.1", "--seed", "1",
     "--out", "HERE/g.txt", "--labels-out", "HERE/g.txt"],
], ids=["partition --out", "sample --seeds-out", "synth --out",
        "synth --out --labels-out", "synth stdout --labels-out",
        "sample --out --seeds-out", "sample --fraction --seeds-out",
        "sample --out existing --seeds-out", "sample --out symlink --seeds-out",
        "sample --out --seeds-out same path", "sample --out --seeds-out ./ same path",
        "synth --out --labels-out same path"])
def test_unwritable_output_is_usage_error(capsys, ws, argv):
    tmp, graph, seeds = ws
    (tmp / "old.json").write_text("{}\n")
    (tmp / "link").symlink_to(tmp / "old.json")
    reason = ("No such file or directory" if "MISSING" in argv[-1]
              else "another output names the same file")
    names = {"GRAPH": str(graph), "SEEDS": str(seeds)}
    argv = [names.get(a, a.replace("MISSING", str(tmp / "missing")).replace("HERE", str(tmp)))
            for a in argv]
    code, out, err = run(capsys, argv)
    path = argv[-1]
    assert (code, out, err) == (2, "", f"usage error: cannot write {path}: {reason}\n")
    assert sorted(p.name for p in tmp.iterdir()) == ["graph.txt", "link", "old.json",
                                                     "seeds.txt"]
    assert (tmp / "link").is_symlink()


def test_partly_written_output_is_removed(capsys, ws, monkeypatch):
    """A write that fails after it created its file (a full disk, say) leaves no part of it."""
    tmp, graph, _ = ws

    def full_disk(path, text, encoding=None):
        with path.open("w", encoding=encoding) as f:
            f.write(text[:1])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full_disk)
    out = tmp / "r.json"
    code, stdout, err = run(capsys, ["sample", "--graph", str(graph), "--method", "degree",
                                     "--k", "2", "--out", str(out)])
    assert (code, stdout, err) == (2, "", f"usage error: cannot write {out}: "
                                          "No space left on device\n")
    assert sorted(p.name for p in tmp.iterdir()) == ["graph.txt", "seeds.txt"]


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, [])[0] == 2


def test_reports_are_byte_identical_across_runs(capsys, ws, tmp_path):
    _, graph, seeds = ws
    out = tmp_path / "report.json"
    argv = ["partition", "--graph", str(graph), "--seeds", str(seeds),
            "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_report_parameters_capture_run_config(capsys, ws):
    _, graph, seeds = ws
    doc, _ = run_json(capsys, ["sample", "--graph", str(graph),
                               "--method", "coverage", "--k", "2",
                               "--seed", "5"])
    params = doc["parameters"]
    assert params["subcommand"] == "sample"
    assert params["method"] == "coverage"
    assert params["k"] == 2 and params["rng_seed"] == 5
    rep = parse_report(json.dumps(doc))
    assert rep.payload_kind == "seed_selection"
