from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import er_graph, id_graph
from topoaware import (ArgumentError, CoverageError, EmbeddingTable,
                       FeatureMatrix, ParseError, Report, build_graph,
                       full_embedding_table, jsonable, parse_edge_list,
                       parse_label_table, parse_report, parse_token_list,
                       parse_vector_table, resolve_labels, resolve_tokens,
                       sig6, write_edge_list, write_label_table, write_report,
                       write_token_list, write_vector_table)


def path_graph(n):
    return id_graph(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# edge lists


def test_parse_edge_list_basics():
    text = "# comment\n a b \n\nb c\n"
    assert parse_edge_list(text) == [("a", "b"), ("b", "c")]


def test_parse_edge_list_row_arity_error():
    with pytest.raises(ParseError) as ei:
        parse_edge_list("a b\nx y z\n")
    assert ei.value.line_number == 2
    assert "line 2" in str(ei.value)


def test_edge_list_round_trip_with_isolated_vertex():
    g = build_graph([("a", "b"), ("c", "c")])
    text = write_edge_list(g)
    g2 = build_graph(parse_edge_list(text))
    assert g2 == g
    assert "c c" in text


@given(st.integers(0, 2**32 - 1))
def test_edge_list_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    g, _ = er_graph(rng, n, 0.15)
    assert build_graph(parse_edge_list(write_edge_list(g))) == g


# ---------------------------------------------------------------------------
# token lists


def test_token_list_round_trip():
    tokens = ["v3", "v1", "v7"]
    assert parse_token_list(write_token_list(tokens)) == tokens
    assert parse_token_list("# note\nv1\n\nv2\n") == ["v1", "v2"]


def test_token_list_arity_error():
    with pytest.raises(ParseError) as ei:
        parse_token_list("a\nb c\n")
    assert ei.value.line_number == 2


def test_resolve_tokens_strict():
    g = build_graph([("a", "b")])
    assert resolve_tokens(["b", "a"], g) == [1, 0]
    with pytest.raises(CoverageError) as ei:
        resolve_tokens(["a", "zz", "qq"], g)
    assert ei.value.kind == "token"
    assert set(ei.value.missing) == {"zz", "qq"}


# ---------------------------------------------------------------------------
# vector tables


def test_vector_table_round_trip_exact():
    g = path_graph(3)
    emb = full_embedding_table(np.array([[0.1, 2.0], [1.0 / 3.0, -5.5], [2.7, 0.0]]))
    text = write_vector_table(emb, g)
    back = parse_vector_table(text, "embeddings", g)
    assert np.array_equal(back.vectors, emb.vectors)
    assert back.coverage == emb.coverage and back.dim == 2


def test_vector_table_partial_coverage():
    g = path_graph(3)
    back = parse_vector_table("node,d0\nv0,1.5\n", "embeddings", g)
    assert back.coverage == frozenset({0})
    assert math.isnan(back.vectors[1, 0])


def test_vector_table_features_require_full_coverage():
    g = path_graph(2)
    with pytest.raises(CoverageError) as ei:
        parse_vector_table("node,d0\nv0,1.0\n", "features", g)
    assert "v1" in ei.value.missing
    X = parse_vector_table("node,d0\nv0,1.0\nv1,2.0\n", "features", g)
    assert isinstance(X, FeatureMatrix)


def test_vector_table_parse_errors_with_line_numbers():
    g = path_graph(2)
    for text, bad_line in [
        ("", 1),
        ("id,d0\nv0,1\n", 1),
        ("node,d0\nv0,1,2\n", 2),
        ("node,d0\nv0,1\nv0,2\n", 3),
        ("node,d0\nv0,abc\n", 2),
        ("node,d0\nv0,inf\n", 2),
    ]:
        with pytest.raises(ParseError) as ei:
            parse_vector_table(text, "embeddings", g)
        assert ei.value.line_number == bad_line


def test_vector_table_unknown_tokens_are_coverage_error():
    g = path_graph(2)
    with pytest.raises(CoverageError) as ei:
        parse_vector_table("node,d0\nv0,1\nwat,2\n", "embeddings", g)
    assert ei.value.kind == "token" and "wat" in ei.value.missing


@given(st.integers(0, 2**32 - 1))
def test_vector_table_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    g, _ = er_graph(rng, n, 0.3)
    k = int(rng.integers(1, n + 1))
    ids = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
    vec = np.full((n, 2), np.nan)
    vec[ids] = rng.normal(size=(k, 2)) * 10.0 ** rng.integers(-8, 9)
    emb = EmbeddingTable(dim=2, vectors=vec, coverage=frozenset(ids))
    back = parse_vector_table(write_vector_table(emb, g), "embeddings", g)
    assert back.coverage == emb.coverage
    assert np.array_equal(back.vectors[ids], emb.vectors[ids])


# ---------------------------------------------------------------------------
# label tables


def test_label_table_modes():
    t = parse_label_table("node,label\nb,2\na,0\n")
    assert t.mode == "classification" and t.values == {"b": 2, "a": 0}
    t2 = parse_label_table("node,label\na,0.5\n")
    assert t2.mode == "regression" and t2.values == {"a": 0.5}


def test_label_table_errors():
    for text, bad_line in [
        ("nodelabel\na,1\n", 1),
        ("node,label\na\n", 2),
        ("node,label\na,1\na,2\n", 3),
        ("node,label\na,x\n", 2),
        ("node,label\na,inf\n", 2),
        ("node,label\na,1\nb,0.5\n", 3),
        ("node,label\n", 1),
    ]:
        with pytest.raises(ParseError) as ei:
            parse_label_table(text)
        assert ei.value.line_number == bad_line, text


def test_field_count_errors_carry_the_first_field():
    g = build_graph([("a", "b")])
    for parse, text, line, token in [
        (parse_edge_list, "a b\n\nx y z\n", 3, "x"),
        (parse_token_list, "a\n# c\nb c\n", 3, "b"),
        (lambda t: parse_vector_table(t, "embeddings", g), "node,d0\na,1\nb,1,2\n", 3, "b"),
        (parse_label_table, "node,label\na,1\n c , 1 , 2\n", 3, "c"),
    ]:
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert (ei.value.line_number, ei.value.token) == (line, token), text


def test_label_table_round_trip():
    values = {"v1": 3, "v0": 0, "v2": 7}
    back = parse_label_table(write_label_table(values, "classification"))
    assert back.values == values and back.mode == "classification"
    reg = {"a": 0.1, "b": -2.5}
    back2 = parse_label_table(write_label_table(reg, "regression"))
    assert back2.values == reg and back2.mode == "regression"


def test_resolve_labels():
    g = build_graph([("a", "b")])
    table = parse_label_table("node,label\nb,1\na,0\n")
    assert resolve_labels(table, g) == {1: 1, 0: 0}
    bad = parse_label_table("node,label\nzz,1\n")
    with pytest.raises(CoverageError):
        resolve_labels(bad, g)


# ---------------------------------------------------------------------------
# reports


def sample_report():
    return Report(parameters={"k": 3, "method": "kcenter_greedy", "rng_seed": 7},
                  payload_kind="seed_selection",
                  payload={"k": 3, "objective": 2, "full_cover": False,
                           "seed_rows": [{"order": 1, "token": "v0"},
                                         {"order": 2, "token": "v5"}]})


def test_write_report_is_deterministic():
    a = write_report(sample_report())
    b = write_report(sample_report())
    assert a == b
    assert a.endswith("\n")


def test_report_structured_round_trip():
    rep = sample_report()
    back = parse_report(write_report(rep))
    assert back == rep


def test_report_parse_errors():
    with pytest.raises(ParseError):
        parse_report("{not json")
    with pytest.raises(ParseError) as ei:
        parse_report('{"schema_version": "1"}')
    assert "missing key" in str(ei.value)


def test_report_tabular_layout():
    text = write_report(sample_report(), format="tabular")
    lines = text.splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1].startswith("# tool_version=")
    assert lines[2] == "# payload_kind=seed_selection"
    assert "# parameter.k=3" in lines
    assert "# parameter.method=kcenter_greedy" in lines
    assert "# objective=2" in lines
    assert "# full_cover=false" in lines
    assert "# order\ttoken" in lines
    assert lines[-2:] == ["1\tv0", "2\tv5"]


def test_report_tabular_unknown_kind():
    rep = Report(parameters={}, payload_kind="mystery", payload={})
    with pytest.raises(ArgumentError):
        write_report(rep, format="tabular")
    with pytest.raises(ArgumentError):
        write_report(rep, format="xml")


@given(st.dictionaries(st.sampled_from("abcdefgh"),
                       st.one_of(st.integers(-1000, 1000),
                                 st.floats(-1e6, 1e6),
                                 st.booleans(),
                                 st.text("xyz", max_size=5)),
                       max_size=6))
def test_report_round_trip_payloads(payload):
    rep = Report(parameters={"rng_seed": 0}, payload_kind="partition",
                 payload=jsonable(payload))
    assert parse_report(write_report(rep)) == rep


# ---------------------------------------------------------------------------
# jsonable / sig6


def test_jsonable_significant_digits():
    assert jsonable(0.12345678) == 0.123457
    assert jsonable(123456789.0) == 123457000.0
    assert sig6(1.0000004) == 1.0


def test_jsonable_handles_special_values():
    out = jsonable({"d": float("inf"), "flag": np.bool_(True),
                    "n": np.int64(3), "x": np.float64(0.5),
                    "seq": (1, 2.0)})
    assert out == {"d": "unreachable", "flag": True, "n": 3, "x": 0.5,
                   "seq": [1, 2.0]}
    assert isinstance(out["flag"], bool) and isinstance(out["n"], int)


def test_jsonable_round_trips_through_write():
    rep = Report(parameters={}, payload_kind="partition",
                 payload=jsonable({"far": float("inf"), "pi": 3.14159265}))
    back = parse_report(write_report(rep))
    assert back.payload == {"far": "unreachable", "pi": 3.14159}
