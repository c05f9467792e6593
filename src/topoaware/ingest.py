"""Parsers and writers for all external data: edge lists, vector tables,
label tables, seed lists, and structured/tabular reports.

All output is byte-deterministic: stable ordering, '.' decimal separator,
no locale dependence. Structured reports round floats to 6 significant
digits at build time so write -> parse is an identity.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields

import numpy as np

from ._version import __version__
from .errors import ArgumentError, CoverageError, ParseError
from .graph import Graph, _csr_graph, build_graph, degrees
from .metrics import EmbeddingTable, ProfileRow

SCHEMA_VERSION = "1"

_INT_RE = re.compile(r"^[+-]?\d+$")


def _lines(text: str) -> list[str]:
    """Lines split at CRLF, CR and LF only (str.splitlines also splits at
    form feeds, U+0085 and more), without the empty piece after a final break."""
    if "\r" in text:  # 1.5 ms on a 31 MB table, against 41 ms for the two replace scans
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _rows(lines, sep, width, noun, start=1):
    """(line number, fields) for each line that is neither blank nor a '#'
    comment, split on `sep` (None: any whitespace; otherwise each field is
    stripped). A line without exactly `width` fields is a ParseError.

    `load_graph` and `parse_vector_table` read clean input as one buffer and
    come here when any check fails, so every line-numbered error they raise
    comes from this loop and the row checks of its callers."""
    for ln, raw in enumerate(lines, start=start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split() if sep is None else [f.strip() for f in line.split(sep)]
        if len(fields) != width:
            raise ParseError(f"expected {width} {noun}, found {len(fields)}",
                             line_number=ln, token=fields[0])
        yield ln, fields


def _check_tokens(tokens, noun: str, comma: bool = False) -> None:
    """Raise ArgumentError naming the first token that the reader of a
    `noun` would skip or split: one that is empty, holds whitespace (what
    str.split splits at, which is re's \\s) or starts with '#' or a BOM, and
    with `comma` one that holds ','. Clean tokens cost three C-level scans
    of their join; only a refusal looks at each token."""
    unreadable = r"\n[#\ufeff]|[^\S\n]" + ("|," if comma else "")
    text = "\n" + "\n".join(tokens)
    if tokens and ("" in tokens or text.count("\n") > len(tokens) or re.search(unreadable, text)):
        bad = next(t for t in tokens if not t or "\n" in t or re.search(unreadable, "\n" + t))
        raise ArgumentError(f"token {bad!r} cannot be written to a {noun}: "
                            "its reader would skip or split it")


# ---------------------------------------------------------------------------
# edge lists


def parse_edge_list(text) -> list:
    """Whitespace-separated token pairs, one per line; '#' comments and blank
    lines skipped. Returns raw pairs (duplicates and self-loops included)."""
    return [(a, b) for _, (a, b) in _rows(_lines(text), None, 2, "tokens")]


# per byte, 1 unless str.split() splits at it (\t \n \v \f \r, \x1c-\x1f, space);
# UTF-8 lead and continuation bytes are all 1
_TOKEN_BYTE = bytes(b not in (9, 10, 11, 12, 13, 28, 29, 30, 31, 32) for b in range(256))
# the non-ASCII characters str.split() splits at
_WIDE_SPACE = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")
# masks that keep the first k = 0..8 bytes of a little-endian uint64
_PREFIX_MASK = np.array([2**(8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _packed_ids(text) -> tuple[list, np.ndarray] | None:
    """(tokens in first-seen order, the id of every token in order) of a
    clean edge list; None for text with a '#', CR, NUL, non-ASCII whitespace
    or lone surrogate, or a line without 0 or 2 tokens.
    Each token of the UTF-8 text is an exact key of ceil(longest / 8)
    little-endian uint64 words (its bytes, zero-padded; a NUL would pad "a"
    to "a\\x00", so text with one is declined), and one sort groups equal
    keys. Text whose keys would outweigh it 8 to 1 (a long token among many
    short ones) is declined too, so memory stays linear in the text."""
    if "#" in text or "\r" in text or "\x00" in text:
        return None
    if not text.isascii() and _WIDE_SPACE.search(text):
        return None
    try:
        raw = text.encode()
    except UnicodeEncodeError:  # a lone surrogate
        return None
    inside = np.frombuffer((b" %b " % raw).translate(_TOKEN_BYTE), dtype=np.int8)
    # `!=` and a bool nonzero: np.diff's int8 result took 2.5x as long to scan
    starts, ends = np.flatnonzero(inside[1:] != inside[:-1]).reshape(-1, 2).T
    if not starts.size:
        return None
    # tokens per line: the token starts before each line break, differenced
    before = np.searchsorted(starts, np.flatnonzero(np.frombuffer(raw, np.uint8) == 10))
    per_line = np.diff(before, prepend=0, append=starts.size)
    if ((per_line != 0) & (per_line != 2)).any():
        return None
    size = ends - starts
    words = -(-int(size.max()) // 8)
    if words * starts.size > len(raw):
        return None
    buf = raw + bytes(8 * words)
    at = np.ndarray(len(buf) - 7, dtype="<u8", buffer=buf, strides=(1,))
    keys = [at[8 * w:][starts] & _PREFIX_MASK[(size - 8 * w).clip(0, 8)] for w in range(words)]
    # grouping needs equal keys together, not sorted bytes; lexsort took 4x
    # argsort's time on one word of 10**6 keys
    order = np.argsort(keys[0]) if words == 1 else np.lexsort(keys[::-1])
    differs = np.zeros(order.size - 1, dtype=bool)
    while keys:  # each word's sorted copy replaces it, so one copy is alive
        k = keys.pop()[order]
        differs |= k[1:] != k[:-1]
    group = np.flatnonzero(np.concatenate([[True], differs]))
    first = np.minimum.reduceat(order, group)  # each distinct token's first position
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    ids = np.empty_like(order)
    ids[order] = rank.repeat(np.diff(group, append=order.size))
    # each distinct token's bytes and the byte after it, that byte set to
    # "\n": token bytes are whole UTF-8 characters and never a line break
    first = first[by_first]
    span = size[first] + 1
    gather = np.arange(int(span.sum())) - (span.cumsum() - span - starts[first]).repeat(span)
    chars = np.frombuffer(buf, np.uint8)[gather]
    chars[span.cumsum() - 1] = 10
    return chars.tobytes().decode().split("\n")[:-1], ids


def load_graph(text) -> Graph:
    """The Graph of an edge-list text, equal to
    build_graph(parse_edge_list(text)). A clean text is interned as one
    buffer by packed byte keys; any other text goes through the
    line-by-line parser, which raises the ParseError with its line number.
    Its token index is built on first use."""
    packed = _packed_ids(text)
    if packed is not None:
        tokens, ids = packed
        return _csr_graph(tokens, ids[0::2], ids[1::2])
    return build_graph(parse_edge_list(text))


def write_edge_list(g: Graph) -> str:
    """Edges in dense-id order; isolated vertices appear as trailing
    self-loop lines so a round trip registers their tokens."""
    _check_tokens(g.tokens, "edge list")
    out = [f"{a} {b}" for a, b in g.edge_token_pairs()]
    out += [f"{g.tokens[u]} {g.tokens[u]}" for u in np.flatnonzero(degrees(g) == 0).tolist()]
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# seed / token lists


def parse_token_list(text) -> list:
    """One token per line; '#' comments and blanks skipped."""
    return [t for _, (t,) in _rows(_lines(text), None, 1, "token")]


def write_token_list(tokens) -> str:
    _check_tokens(tokens, "token list")
    return "\n".join(tokens) + ("\n" if tokens else "")


def resolve_tokens(tokens, g: Graph) -> list:
    """Strict token -> dense id resolution; unknown tokens are an error."""
    try:
        return [g.token_index[t] for t in tokens]
    except KeyError:
        unknown = tuple(t for t in tokens if t not in g.token_index)
        raise CoverageError("unknown vertex tokens", missing=unknown, kind="token") from None


# ---------------------------------------------------------------------------
# vector tables


def _vector_block(rows, dim: int, g: Graph) -> tuple[list, np.ndarray] | None:
    """(ids, values) of `rows`, read by one np.loadtxt call (whose C reader
    takes a subset of what float() reads). None when there are no rows or
    any row is not a plain row of unique token and finite values, or holds
    a '#' (a comment to the row loop, and the one character that changes
    loadtxt's row count). Such a block has no parse error, so an unknown
    token raises the CoverageError the row loop would."""
    if not rows or any("#" in row or row.count(",") != dim for row in rows):
        return None
    try:
        values = np.loadtxt(rows, delimiter=",", usecols=range(1, dim + 1), ndmin=2)
    except ValueError:
        return None
    tokens = [row[:row.index(",")].strip() for row in rows]
    if len(set(tokens)) < len(tokens) or not np.isfinite(values).all():
        return None
    return resolve_tokens(tokens, g), values


def parse_vector_table(text, g: Graph) -> EmbeddingTable:
    """Comma-separated vector rows under a "node,d0,d1,..." header; vertices
    without a row get a NaN row. Clean rows are read as one block; if any
    check fails, the row loop reads the table again and raises the
    error of its first bad line."""
    lines = _lines(text)
    if not lines or not lines[0].strip():
        raise ParseError("missing header", line_number=1)
    header = [h.strip() for h in lines[0].split(",")]
    if header[0] != "node" or len(header) < 2:
        raise ParseError('header must be "node,d0,d1,..."', line_number=1)
    dim = len(header) - 1
    block = _vector_block(lines[1:], dim, g)
    if block is None:
        seen: dict[str, int] = {}
        rows = []
        for ln, fields in _rows(lines[1:], ",", dim + 1, "fields", start=2):
            token = fields[0]
            if token in seen:
                raise ParseError(f"duplicate token {token!r} (first at line {seen[token]})",
                                 line_number=ln, token=token)
            seen[token] = ln
            try:
                rows.append([float(f) for f in fields[1:]])
            except ValueError as e:
                raise ParseError(f"non-numeric value: {e}", line_number=ln, token=token) from None
            if not all(map(math.isfinite, rows[-1])):
                raise ParseError("non-finite value", line_number=ln, token=token)
        block = resolve_tokens(list(seen), g), rows
    ids, values = block
    vectors = np.full((g.n, dim), np.nan)
    vectors[ids] = np.reshape(values, (-1, dim))  # rows == [] for a table without rows
    return EmbeddingTable(vectors)


def write_vector_table(emb: EmbeddingTable, g: Graph) -> str:
    """Covered rows in dense-id order under the standard header; float repr
    is shortest-round-trip so write -> parse is exact."""
    ids = np.flatnonzero(emb.covered).tolist()
    tokens = [g.tokens[v] for v in ids]
    _check_tokens(tokens, "vector table", comma=True)
    out = ["node," + ",".join(f"d{i}" for i in range(emb.dim))]
    for token, v in zip(tokens, ids):
        # a row at a time: one tolist() of a 100k x 16 table added 60 MB to peak RSS
        out.append(token + "," + ",".join(map(repr, emb.vectors[v].tolist())))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# label tables


@dataclass(frozen=True, eq=False)
class LabelTable:
    """Per-token targets, in file order: int64 values for classification
    (integer literals), float64 for regression (decimals)."""

    tokens: tuple
    values: np.ndarray
    mode: str


def parse_label_table(text) -> LabelTable:
    """"node,label" rows: integer literals -> classification, decimals ->
    regression; mixing the two, repeating a token or an integer outside
    int64 is an error."""
    lines = _lines(text)
    if not lines or lines[0].strip() != "node,label":
        raise ParseError('header must be "node,label"', line_number=1)
    seen, tokens, values = set(), [], []
    mode: str | None = None
    for ln, (token, label) in _rows(lines[1:], ",", 2, "fields", start=2):
        if token in seen:
            raise ParseError(f"duplicate token {token!r}", line_number=ln, token=token)
        if _INT_RE.match(label):  # int() refuses more than 4300 digits
            kind, value = "classification", int(label) if len(label) < 4300 else 2**63
            if not -2**63 <= value < 2**63:
                raise ParseError("integer label outside int64", line_number=ln, token=token)
        else:
            try:
                value = float(label)
            except ValueError:
                raise ParseError(f"non-numeric label {label!r}",
                                 line_number=ln, token=token) from None
            if not math.isfinite(value):
                raise ParseError("non-finite label", line_number=ln, token=token)
            kind = "regression"
        if mode is None:
            mode = kind
        elif mode != kind:
            raise ParseError(
                f"mixed integer and decimal labels ({mode} then {kind})",
                line_number=ln, token=token)
        seen.add(token)
        tokens.append(token)
        values.append(value)
    if mode is None:
        raise ParseError("no label rows", line_number=len(lines) or 1)
    dtype = np.int64 if mode == "classification" else np.float64
    return LabelTable(tokens=tuple(tokens), values=np.array(values, dtype=dtype), mode=mode)


def write_label_table(table: LabelTable) -> str:
    """Rows sorted by token, each label as its repr (an int, or the shortest
    float that reads back exactly)."""
    _check_tokens(table.tokens, "label table", comma=True)
    rows = sorted(zip(table.tokens, table.values.tolist()))
    return "node,label\n" + "".join(f"{token},{v!r}\n" for token, v in rows)


def resolve_labels(table: LabelTable, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(covered, labels): a mask of the vertices the table names and their
    labels (0 elsewhere), both indexed by vertex id; unknown tokens are an
    error."""
    ids = resolve_tokens(table.tokens, g)
    covered, labels = np.zeros(g.n, dtype=bool), np.zeros(g.n, dtype=table.values.dtype)
    covered[ids], labels[ids] = True, table.values
    return covered, labels


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Report:
    """A self-describing run record: every parameter that shaped the run plus
    one payload. parameters must include rng_seed whenever randomness ran."""

    parameters: dict
    payload_kind: str
    payload: dict
    schema_version: str = SCHEMA_VERSION
    tool_version: str = __version__


def sig6(x: float) -> float:
    """Round to 6 significant digits (report precision)."""
    return float(f"{float(x):.6g}")


def jsonable(value):
    """Recursively convert to JSON-stable values: floats to 6 significant
    digits, numpy scalars unwrapped, unreachable distances to a string."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v):
            return "unreachable"
        return sig6(v)
    return value


def write_report(report: Report, format: str = "structured") -> str:
    if format == "structured":
        return json.dumps(vars(report), sort_keys=True, indent=2) + "\n"
    if format == "tabular":
        return _write_tabular(report)
    raise ArgumentError(f"format must be structured or tabular, got {format!r}")


def parse_report(text: str) -> Report:
    """Inverse of the structured writer."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid structured report: {exc.msg}",
                         line_number=exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("structured report must be a JSON object", line_number=1)
    keys = [f.name for f in fields(Report)]
    for key in keys:
        if key not in doc:
            raise ParseError(f"structured report missing key {key!r}", line_number=1)
    return Report(**{key: doc[key] for key in keys})


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# payload kind -> (the payload's row list, its columns)
_TABULAR_ROWS = {
    "partition": ("hop_counts", ("hop", "count")),
    "distortion": ("profile", tuple(f.name for f in fields(ProfileRow))),
    "seed_selection": ("seed_rows", ("order", "token")),
    "evaluation": ("per_hop", ("hop", "accuracy", "count")),
    "verify": ("check_rows", ("check", "status")),
}


def _write_tabular(report: Report) -> str:
    if report.payload_kind not in _TABULAR_ROWS:
        raise ArgumentError(
            f"payload kind {report.payload_kind!r} has no tabular form")
    rows_key, columns = _TABULAR_ROWS[report.payload_kind]
    out = [f"# schema_version={report.schema_version}",
           f"# tool_version={report.tool_version}",
           f"# payload_kind={report.payload_kind}"]
    for key in sorted(report.parameters):
        out.append(f"# parameter.{key}={_fmt(report.parameters[key])}")
    scalars = {k: v for k, v in report.payload.items()
               if not isinstance(v, (list, dict))}
    for key in sorted(scalars):
        out.append(f"# {key}={_fmt(scalars[key])}")
    out.append("# " + "\t".join(columns))
    for row in report.payload.get(rows_key, ()):
        out.append("\t".join(_fmt(row[c]) for c in columns))
    return "\n".join(out) + "\n"
