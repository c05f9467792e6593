from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

import oracles
from conftest import er_graph, label_table, path_graph
from topoaware import (ArgumentError, CoverageError, EmbeddingTable, LabelTable,
                       ParseError, Report, TopoawareError, build_graph, ingest,
                       jsonable, load_graph, parse_edge_list, parse_label_table,
                       parse_report, parse_token_list, parse_vector_table, propagate,
                       resolve_labels, resolve_tokens,
                       sig6, write_edge_list, write_label_table, write_report,
                       write_token_list, write_vector_table)


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
# whole-buffer reads against the row loop

# clean lines and fields, then ones the whole-buffer reads must decline or
# take exactly as the row loop does: comments, blanks, whitespace that is not
# a line break, wrong field counts, repeats, unknown tokens and values that
# float() rejects or reads as non-finite
_EDGE_LINES = ["a b", "b c", "c d", "d a", "a a", " b\td ", "x\x0cy", "١ ٢"]
_ODD_EDGE_LINES = ["x y\x0c", "x\x85y", "\x85c a", "# note", "a#b c", "c #d", "",
                   "  ", "\x0c", "a", "a b c"]
_TOKENS = ["a", "b", " c ", "d\x0c", "e", "f", "g", "h"]
_ODD_TOKENS = ["zz", "#a", "a#", ""]
_VALUES = ["1.5", "-0.0", "1_0", " 2 ", "١", "４", "4.9e-324", "3\x0c", "\x854", "1e-400",
           "123456789012345678901234567890"]
_VALUES += [f"{c}5{c}" for c in "\x1c\x1d\x1e\x1f\xa0\u2000\u3000"]
_ODD_VALUES = ["nan", "1e400", "-inf", "x", "", "0x10", "1__0", "1\x00", "1d5", "0x1p3"]
_ODD_ROWS = ["", " ", "\x0c", "# c,1,2", "a,1", "a,1,2,3", "a,1,2\x85b,3,4"]
_BREAKS = ["\n", "\r\n", "\r"]


def _outcome(read):
    """A reader's result, or the class, message, line, token and missing
    list of its error."""
    try:
        return read()
    except TopoawareError as exc:
        return (type(exc), str(exc), getattr(exc, "line_number", None),
                getattr(exc, "token", None), getattr(exc, "missing", None))


def _graph_key(g):
    return (g.tokens, list(g.token_index.items()), g.csr.indptr.tolist(),
            g.csr.indices.tolist())


@st.composite
def _text(draw, clean, odd):
    """Lines from `clean`, half the time with one line from `odd` put in,
    ended by one line break or by a mix; the last break may be left off."""
    lines = draw(clean)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd))
    brk = draw(st.sampled_from([*_BREAKS, None]))
    breaks = [brk or draw(st.sampled_from(_BREAKS)) for _ in lines]
    text = "".join(a + b for a, b in zip(lines, breaks))
    return text[:-1] if text and draw(st.booleans()) else text


@given(_text(st.lists(st.sampled_from(_EDGE_LINES), max_size=8),
             st.sampled_from(_ODD_EDGE_LINES)))
def test_load_graph_equals_the_row_loop(text):
    fast = _outcome(lambda: _graph_key(load_graph(text)))
    assert fast == _outcome(lambda: _graph_key(build_graph(parse_edge_list(text))))


# the 19 non-ASCII characters str.split() splits at
_WIDE_SPACES = ("\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200b)))
                 + "\u2028\u2029\u202f\u205f\u3000")


def test_load_graph_takes_clean_text_whole():
    tokens, ids = ingest._packed_ids("a b\n\n c\td \nb a")
    assert tokens == ["a", "b", "c", "d"]
    assert ids.tolist() == [0, 1, 2, 3, 1, 0]
    declined = ["", " \n", "\n \n", "a\n", "a a\x00\n", "a b\r\n", "a b\n#\n", "a b\n# c\n",
                "a b c\n", "a b c d\n", "a\nb c d\n", "\ud800 b\n", "é\ud800 b\n"]
    declined += [f"a{c}b c\n" for c in _WIDE_SPACES]
    for text in declined:
        assert ingest._packed_ids(text) is None, text


@pytest.mark.parametrize("text, packed", [("b a\nc b\n\nd d\n", True),
                                          ("# note\nb a\nc b\n\nd d\n", False)])
def test_load_graph_builds_the_token_index_on_first_use(text, packed):
    # the packed path leaves the index to the first lookup; the row loop
    # hands over the dict it interned with
    g = load_graph(text)
    assert (ingest._packed_ids(text) is not None) == packed
    assert ("token_index" in g.__dict__) != packed
    assert resolve_tokens(["d", "b"], g) == [3, 0]
    assert list(g.token_index.items()) == list({t: i for i, t in enumerate(g.tokens)}.items())
    assert g.tokens == ("b", "a", "c", "d")


# tokens of 1-24 bytes with shared prefixes across the 8- and 16-byte word
# edges, "v0" against "v00", NUL inside a token ("a" against "a\x00"), UTF-8
# ones, a lone surrogate, each non-ASCII character str.split() splits at
# inside a token, and "#", which starts a comment at the start of a line
_PACKED_TOKENS = st.one_of(
    st.sampled_from(["v0", "v00", "v1", "a", "a\x00", "\x00", "abcdefg", "abcdefgh",
                     "abcdefgh1", "abcdefgh2", "abcdefgi", "abcdefghabcdefgh",
                     "abcdefghabcdefgh1", "abcdefghabcdefgi", "é", "vé", "東京", "東京1",
                     "\ud800", "#"]),
    st.sampled_from(_WIDE_SPACES).map("a{}b".format),
    st.text("ab\x00", min_size=1, max_size=9),
    st.text("ab", min_size=1, max_size=24))


@st.composite
def _packed_text(draw):
    """Lines of two tokens from a pool of up to four, with up to two lines of
    0, 1, 3 or 4 tokens put in. Tokens are separated, and lines started and
    ended, by space, tab and one other ASCII whitespace byte; the last line
    break may be left off."""
    pool = draw(st.lists(_PACKED_TOKENS, min_size=1, max_size=4))
    blank = " \t" + draw(st.sampled_from("\x0b\x0c\r\x1c\x1d\x1e\x1f"))
    counts = draw(st.lists(st.just(2), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        counts.insert(draw(st.integers(0, len(counts))), draw(st.sampled_from([0, 1, 3, 4])))
    lines = []
    for count in counts:
        line = draw(st.text(blank, max_size=2))
        for i in range(count):
            line += draw(st.sampled_from(pool)) + draw(
                st.text(blank, min_size=int(i < count - 1), max_size=2))
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@example("")
@example("a a\x00\n")  # zero padding alone makes these one key
@example("abcdefgh1 abcdefgh2\n")  # equal first 8 bytes
@example("abcdefghabcdefgh1 abcdefghabcdefgh\n")  # equal first 16 bytes
@example("\naaaaaaaaa a")  # the second word of "a" is read past the text
@example("a\x1cb a\n")  # str.split() splits at \x1c
@example("a\rb\n")  # _lines breaks lines at CR
@example("a\nb c\nd\n")
@example("a b c d\n")
@example("# a\nb c\n")
@example("a b\nc")  # the per-line token counts: after the last break
@example("a b\nc d e")
@example("a\nb\n")  # an even total, one token a line
@example("a b\n \t\n\nc d")  # empty and blank lines between pairs
@example("\n\na b")
@example(" \n\n")  # no token at all
@given(_packed_text())
def test_load_graph_packs_short_ascii_tokens_as_the_row_loop_reads_them(text):
    fast = _outcome(lambda: _graph_key(load_graph(text)))
    assert fast == _outcome(lambda: _graph_key(build_graph(parse_edge_list(text))))


def test_packed_ids_take_clean_short_tokens(monkeypatch):
    # the benchmark's edge-list shape (v{i} tokens, one pair a line), then
    # tokens of 20-23 bytes and UTF-8 ones
    texts = ["".join(f"{p}{i} {p}{i * 7 % 1000}\n" for i in range(1000))
             for p in ("v", "vertex_of_the_graph_", "städte_", "東京")]
    want = [_graph_key(build_graph(parse_edge_list(text))) for text in texts]

    def no_row_loop(*args):
        raise AssertionError("read by the row loop")

    monkeypatch.setattr(ingest, "_rows", no_row_loop)
    assert [_graph_key(load_graph(text)) for text in texts] == want


def test_load_graph_memory_stays_linear_with_one_long_token():
    # every token's key has as many words as the longest token's; here the
    # keys would take about 380 MB, so the text goes to the row loop
    text = "".join(f"v{i} v{i * 7 % 10**4}\n" for i in range(10**4)) + "a" * 10**4 + " v0\n"
    assert ingest._packed_ids(text) is None
    tracemalloc.start()
    try:
        g = load_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert _graph_key(g) == _graph_key(build_graph(parse_edge_list(text)))


def _vector_rows(tokens, values):
    return st.tuples(tokens, values, values).map(",".join)


_CLEAN_ROWS = st.lists(_vector_rows(st.sampled_from(_TOKENS), st.sampled_from(_VALUES)),
                       max_size=8, unique_by=lambda row: row.split(",")[0].strip())
_ODD_ROW = st.one_of(
    st.sampled_from(_ODD_ROWS),
    _vector_rows(st.sampled_from(_TOKENS), st.sampled_from(_VALUES)),  # may repeat a token
    _vector_rows(st.sampled_from(_ODD_TOKENS), st.sampled_from(_VALUES)),
    _vector_rows(st.sampled_from(_TOKENS), st.sampled_from(_VALUES + _ODD_VALUES)))


def _check_vector_table(text):
    # "#a" is a vertex, but a row for it is a comment
    g = build_graph([("a", "b"), ("c", "d"), ("e", "f"), ("g", "h"), ("x", "#a")])
    text = "node,d0,d1\n" + text

    def read():
        v = parse_vector_table(text, g).vectors
        return v.shape, v.view(np.uint64).tolist()

    fast = _outcome(read)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_vector_block", lambda rows, dim, g: None)
        assert fast == _outcome(read)


@given(_text(_CLEAN_ROWS, _ODD_ROW))
def test_parse_vector_table_equals_the_row_loop(text):
    _check_vector_table(text)


@pytest.mark.slow
@seed(20261019)
@settings(max_examples=20000)
@given(_text(_CLEAN_ROWS, _ODD_ROW))
def test_parse_vector_table_equals_the_row_loop_long(text):
    _check_vector_table(text)


def test_parse_vector_table_takes_clean_rows_whole():
    g = build_graph([("a", "b"), ("c", "d"), ("x", "#a")])
    want = np.array([[10.0, -0.0], [1.0, 2.0]])
    ids, values = ingest._vector_block([" a ,\x8510\x0c,-0.0", "d,\x0c1\x85, 2 "], 2, g)
    assert ids == [0, 3] and np.array_equal(values.view(np.uint64), want.view(np.uint64))
    # digit groups and non-ASCII digits are left to the row loop's float()
    for rows in [[], ["a,1"], ["a,1,2,3"], ["a,1,2", "a,3,4"], ["a,nan,1"],
                 ["a,1e400,1"], ["#a,1,2"], ["a,x,1"], [""], ["a,1_0,1"], ["a,١,1"]]:
        assert ingest._vector_block(rows, 2, g) is None, rows
    # a block with no parse error left raises the row loop's CoverageError
    with pytest.raises(CoverageError, match="^unknown vertex tokens: zz, yy$"):
        ingest._vector_block(["zz,1,2", "a,1,2", "yy,3,4"], 2, g)


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
    assert ei.value.missing == ("zz", "qq")


# ---------------------------------------------------------------------------
# vector tables


def test_vector_table_round_trip_exact():
    g = path_graph(3)
    emb = EmbeddingTable(np.array([[0.1, 2.0], [1.0 / 3.0, -5.5], [2.7, 0.0]]))
    text = write_vector_table(emb, g)
    back = parse_vector_table(text, g)
    assert np.array_equal(back.vectors, emb.vectors)
    assert np.array_equal(back.covered, emb.covered) and back.dim == 2


def test_vector_table_partial_coverage():
    g = path_graph(3)
    back = parse_vector_table("node,d0\nv0,1.5\n", g)
    assert np.array_equal(back.covered, [True, False, False])
    assert math.isnan(back.vectors[1, 0])


def test_vector_table_features_require_full_coverage():
    g = path_graph(2)
    with pytest.raises(CoverageError) as ei:
        propagate(g, parse_vector_table("node,d0\nv0,1.0\n", g), layers=1)
    assert ei.value.missing == (1,)
    X = parse_vector_table("node,d0\nv0,1.0\nv1,2.0\n", g)
    assert isinstance(propagate(g, X, layers=1), EmbeddingTable)


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
            parse_vector_table(text, g)
        assert ei.value.line_number == bad_line


def test_vector_table_unknown_tokens_are_coverage_error():
    g = path_graph(2)
    with pytest.raises(CoverageError) as ei:
        parse_vector_table("node,d0\nv0,1\nwat,2\n", g)
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
    emb = EmbeddingTable(vec)
    back = parse_vector_table(write_vector_table(emb, g), g)
    assert np.array_equal(back.covered, emb.covered)
    assert np.array_equal(back.vectors[ids], emb.vectors[ids])


# finite values per dtype with signed zeros, subnormals and the largest
# magnitudes, whose shortest round-trip reprs are the least regular
EDGE_FLOATS = {np.float64: [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                            1e308, -1.7976931348623157e308, 0.1],
               np.float32: [0.0, -0.0, 1e-45, -1e-40, 1.1754944e-38, 3.4e38, -1e38, 0.1]}


@given(st.data())
def test_vector_table_writer_matches_per_element_repr(data):
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    width = 64 if dtype is np.float64 else 32
    n, dim = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    values = (st.floats(allow_nan=False, allow_infinity=False, width=width)
              | st.sampled_from(EDGE_FLOATS[dtype]))
    vec = np.array(data.draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                                      min_size=n, max_size=n)), dtype=dtype)
    vec[data.draw(st.lists(st.booleans(), min_size=n, max_size=n))] = np.nan
    g = path_graph(n)
    assert write_vector_table(EmbeddingTable(vec), g) == oracles.vector_table_text(g.tokens, vec)


# ---------------------------------------------------------------------------
# label tables


def test_label_table_modes():
    t = parse_label_table(f"node,label\nb,2\na,0\nc,{2**63 - 1}\nd,{-2**63}\n")
    assert (t.mode, t.tokens, t.values.dtype) == ("classification", ("b", "a", "c", "d"),
                                                  np.int64)
    assert t.values.tolist() == [2, 0, 2**63 - 1, -2**63]
    t2 = parse_label_table("node,label\na,0.5\n")
    assert (t2.mode, t2.tokens, t2.values.dtype) == ("regression", ("a",), np.float64)
    assert t2.values.tolist() == [0.5]


def test_label_table_errors():
    for text, bad_line in [
        ("nodelabel\na,1\n", 1),
        ("node,label\na\n", 2),
        ("node,label\na,1\na,2\n", 3),
        ("node,label\na,x\n", 2),
        ("node,label\na,inf\n", 2),
        ("node,label\na,1\nb,0.5\n", 3),
        ("node,label\n", 1),
        ("node,label\na,9223372036854775808\n", 2),
        ("node,label\na,1\nb,-9223372036854775809\n", 3),
        (f"node,label\na,{'9' * 5000}\n", 2),  # beyond what int() converts
    ]:
        with pytest.raises(ParseError) as ei:
            parse_label_table(text)
        assert ei.value.line_number == bad_line, text


def test_field_count_errors_carry_the_first_field():
    g = build_graph([("a", "b")])
    for parse, text, line, token in [
        (parse_edge_list, "a b\n\nx y z\n", 3, "x"),
        (parse_token_list, "a\n# c\nb c\n", 3, "b"),
        (lambda t: parse_vector_table(t, g), "node,d0\na,1\nb,1,2\n", 3, "b"),
        (parse_label_table, "node,label\na,1\n c , 1 , 2\n", 3, "c"),
    ]:
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert (ei.value.line_number, ei.value.token) == (line, token), text


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_only_crlf_cr_and_lf_end_lines(brk):
    # str.splitlines breaks at these characters too; an editor does not
    with pytest.raises(ParseError) as ei:
        parse_edge_list(f"a b{brk}c d\n")
    assert ei.value.line_number == 1 and "found 4" in str(ei.value)
    with pytest.raises(ParseError) as ei:
        parse_edge_list(f"a b{brk}\nx y z\n")
    assert ei.value.line_number == 2
    assert parse_edge_list("a b\r\nc d\re f\n") == [("a", "b"), ("c", "d"), ("e", "f")]


def test_label_table_round_trip():
    for values, mode in (({"v1": 3, "v0": 0, "v2": 2**63 - 1}, "classification"),
                         ({"a": 0.1, "b": -2.5}, "regression")):
        back = parse_label_table(write_label_table(label_table(values, mode)))
        assert dict(zip(back.tokens, back.values.tolist())) == values and back.mode == mode
        assert back.tokens == tuple(sorted(values))


# letters, the readers' comment and field characters, a space, and non-ASCII
# characters: two that str.split splits at, a BOM and two that are plain
_TOKEN_CHARS = "ab#, \xe9\u65e5\xa0\u2028\ufeff"


def _written(write, args, tokens, comma):
    """write(*args), or None when it refuses a token: it must refuse exactly
    when one of `tokens` is one a reader skips or splits (empty, whitespace,
    a leading '#' or BOM, or in a comma table a ','), and name the first."""
    bad = [t for t in tokens if t.split() != [t] or t[0] in "#\ufeff" or (comma and "," in t)]
    try:
        text = write(*args)
    except ArgumentError as exc:
        assert bad and str(exc).startswith(f"token {bad[0]!r} cannot be written")
        return None
    assert not bad
    return text


@given(st.lists(st.text(_TOKEN_CHARS, max_size=3), min_size=1, max_size=6, unique=True),
       st.data())
def test_writers_refuse_or_read_back_every_token(tokens, data):
    text = _written(write_token_list, [tokens], tokens, False)
    assert text is None or parse_token_list(text) == tokens
    names = [t for t in tokens if t]  # a Graph token is not empty
    if names:
        pairs = data.draw(st.lists(st.tuples(*[st.sampled_from(names)] * 2), min_size=1))
        g = build_graph(pairs)
        text = _written(write_edge_list, [g], g.tokens, False)
        assert text is None or load_graph(text) == g
        covered = np.array(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
        dim = data.draw(st.integers(1, 3))
        size = int(covered.sum()) * dim
        finite = st.floats(allow_nan=False, allow_infinity=False)
        vectors = np.full((g.n, dim), np.nan)
        vectors[covered] = np.reshape(data.draw(st.lists(finite, min_size=size, max_size=size)),
                                      (-1, dim))
        text = _written(write_vector_table, [EmbeddingTable(vectors), g],
                        [g.tokens[v] for v in np.flatnonzero(covered)], True)
        assert text is None or parse_vector_table(text, g).vectors.tobytes() == vectors.tobytes()
    classification = data.draw(st.booleans())
    values = np.array(data.draw(st.lists(
        st.integers(-2**63, 2**63 - 1) if classification
        else st.floats(allow_nan=False, allow_infinity=False),
        min_size=len(tokens), max_size=len(tokens))), dtype=np.int64 if classification else float)
    table = LabelTable(tuple(tokens), values, "classification" if classification else "regression")
    text = _written(write_label_table, [table], tokens, True)
    if text is not None:
        back = parse_label_table(text)
        order = sorted(range(len(tokens)), key=tokens.__getitem__)
        assert (back.tokens, back.mode) == (tuple(sorted(tokens)), table.mode)
        assert back.values.tobytes() == values[order].tobytes()


def test_resolve_labels():
    g = build_graph([("a", "b"), ("c", "c")])
    covered, labels = resolve_labels(parse_label_table("node,label\nb,1\na,0\n"), g)
    assert covered.tolist() == [True, True, False] and labels.tolist() == [0, 1, 0]
    covered, labels = resolve_labels(parse_label_table("node,label\nc,0.5\n"), g)
    assert covered.tolist() == [False, False, True] and labels.tolist() == [0.0, 0.0, 0.5]
    bad = parse_label_table("node,label\nzz,1\nyy,2\n")
    with pytest.raises(CoverageError) as err:
        resolve_labels(bad, g)
    assert err.value.missing == ("zz", "yy")


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


@pytest.mark.parametrize("text", [
    "null", "1", '"schema_version tool_version parameters payload_kind payload"',
    '["schema_version", "tool_version", "parameters", "payload_kind", "payload"]',
])
def test_report_that_is_not_an_object_is_parse_error(text):
    with pytest.raises(ParseError) as ei:
        parse_report(text)
    assert str(ei.value) == "line 1: structured report must be a JSON object"


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
