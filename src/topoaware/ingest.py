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
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .errors import ArgumentError, CoverageError, ParseError
from .graph import Graph, _csr_graph, build_graph, degrees
from .metrics import EmbeddingTable

SCHEMA_VERSION = "1"

_INT_RE = re.compile(r"^[+-]?\d+$")


def _lines(text: str) -> list[str]:
    """Lines split at CRLF, CR and LF only (str.splitlines also splits at
    form feeds, U+0085 and more), without the empty piece after a final break."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
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
# masks that keep the first k = 0..8 bytes of a big-endian uint64
_PREFIX_MASK = np.array([2**64 - 2**(64 - 8 * k) for k in range(9)], dtype=np.uint64)


def _packed_ids(text) -> tuple[dict, np.ndarray] | None:
    """(token -> id map, the id of every token in order) of a clean edge
    list, with ids in first-seen order; None for text with a '#', CR, NUL,
    non-ASCII whitespace or lone surrogate, or a line without 0 or 2 tokens.
    Each token of the UTF-8 text is an exact key of ceil(longest / 8)
    uint64 words (its bytes, zero-padded; a NUL would pad "a" to "a\\x00",
    so text with one is declined), and one sort groups equal keys. Text
    whose keys would outweigh it 8 to 1 (a long token among many short
    ones) is declined too, so memory stays linear in the text."""
    if "#" in text or "\r" in text or "\x00" in text:
        return None
    if not text.isascii() and _WIDE_SPACE.search(text):
        return None
    try:
        raw = text.encode()
    except UnicodeEncodeError:  # a lone surrogate
        return None
    inside = np.frombuffer((b" %b " % raw).translate(_TOKEN_BYTE), dtype=np.int8)
    starts, ends = np.flatnonzero(np.diff(inside)).reshape(-1, 2).T
    if not starts.size or starts.size % 2:
        return None
    line = np.searchsorted(np.flatnonzero(np.frombuffer(raw, np.uint8) == 10), starts)
    if (line[0::2] != line[1::2]).any() or (np.diff(line[0::2]) <= 0).any():
        return None  # a line without 0 or 2 tokens
    size = ends - starts
    words = -(-int(size.max()) // 8)
    if words * starts.size > len(raw):
        return None
    buf = raw + bytes(8 * words)
    at = np.ndarray(len(buf) - 7, dtype=">u8", buffer=buf, strides=(1,))
    keys = [at[8 * w:][starts].astype(np.uint64) & _PREFIX_MASK[(size - 8 * w).clip(0, 8)]
            for w in range(words)]
    # lexsort took 4x argsort's time on one word of 10**6 keys
    order = np.argsort(keys[0]) if words == 1 else np.lexsort(keys[::-1])
    differs = np.zeros(order.size - 1, dtype=bool)
    while keys:  # each word's sorted copy replaces it, so one copy is alive
        k = keys.pop()[order]
        differs |= k[1:] != k[:-1]
    group = np.flatnonzero(np.concatenate([[True], differs]))
    first = np.minimum.reduceat(order, group)  # each distinct token's first position
    ids = np.empty_like(order)
    ids[order] = np.argsort(np.argsort(first)).repeat(np.diff(group, append=order.size))
    first.sort()
    tokens = [raw[s:e].decode() for s, e in zip(starts[first].tolist(), ends[first].tolist())]
    return dict(zip(tokens, range(len(tokens)))), ids


def load_graph(text) -> Graph:
    """The Graph of an edge-list text, equal to
    build_graph(parse_edge_list(text)). A clean text is interned as one
    buffer by packed byte keys; any other text goes through the
    line-by-line parser, which raises the ParseError with its line number."""
    packed = _packed_ids(text)
    if packed is not None:
        index, ids = packed
        return _csr_graph(index, ids[0::2], ids[1::2])
    return build_graph(parse_edge_list(text))


def write_edge_list(g: Graph) -> str:
    """Edges in dense-id order; isolated vertices appear as trailing
    self-loop lines so a round trip registers their tokens."""
    out = [f"{a} {b}" for a, b in g.edge_token_pairs()]
    out += [f"{g.tokens[u]} {g.tokens[u]}" for u in np.flatnonzero(degrees(g) == 0).tolist()]
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# seed / token lists


def parse_token_list(text) -> list:
    """One token per line; '#' comments and blanks skipped."""
    return [t for _, (t,) in _rows(_lines(text), None, 1, "token")]


def write_token_list(tokens) -> str:
    return "\n".join(tokens) + ("\n" if tokens else "")


def resolve_tokens(tokens, g: Graph) -> list:
    """Strict token -> dense id resolution; unknown tokens are an error."""
    unknown = [t for t in tokens if t not in g.token_index]
    if unknown:
        raise CoverageError("unknown vertex tokens", missing=tuple(unknown), kind="token")
    return [g.token_index[t] for t in tokens]


# ---------------------------------------------------------------------------
# vector tables


VECTOR_CHUNK_ROWS = 4096  # rows parsed per joined buffer; bounds the field lists


def _vector_block(rows, dim: int, g: Graph) -> np.ndarray | None:
    """The vectors of `rows`, parsed a chunk of rows at a time: each chunk is
    joined, split on commas and converted by one numpy call (which reads a
    str as float() does). None when any row is not a plain row of known,
    unique token and finite values, or holds a '#'."""
    vectors = np.full((g.n, dim), np.nan)
    filled = np.zeros(g.n, dtype=bool)
    for start in range(0, len(rows), VECTOR_CHUNK_ROWS):
        chunk = rows[start:start + VECTOR_CHUNK_ROWS]
        joined = ",".join(chunk)
        if "#" in joined or any(row.count(",") != dim for row in chunk):
            return None
        fields = joined.split(",")
        tokens = map(str.strip, fields[::dim + 1])
        del fields[::dim + 1]
        try:
            ids = np.fromiter(map(g.token_index.__getitem__, tokens), dtype=np.intp,
                              count=len(chunk))
            values = np.array(fields, dtype=np.float64).reshape(len(chunk), dim)
        except (KeyError, ValueError):
            return None
        if not np.isfinite(values).all():
            return None
        vectors[ids] = values
        filled[ids] = True
    # a repeated token fills one row twice
    return vectors if np.count_nonzero(filled) == len(rows) else None


def parse_vector_table(text, g: Graph) -> EmbeddingTable:
    """Comma-separated vector rows under a "node,d0,d1,..." header; vertices
    without a row get a NaN row. Clean rows are parsed a chunk at a time;
    if any check fails, the row loop reads the table again and raises the
    error of its first bad line."""
    lines = _lines(text)
    if not lines or not lines[0].strip():
        raise ParseError("missing header", line_number=1)
    header = [h.strip() for h in lines[0].split(",")]
    if header[0] != "node" or len(header) < 2:
        raise ParseError('header must be "node,d0,d1,..."', line_number=1)
    dim = len(header) - 1
    vectors = _vector_block(lines[1:], dim, g)
    if vectors is not None:
        return EmbeddingTable(vectors)
    vectors = np.full((g.n, dim), np.nan)
    seen: dict[str, int] = {}
    unknown: list[str] = []
    for ln, fields in _rows(lines[1:], ",", dim + 1, "fields", start=2):
        token = fields[0]
        if token in seen:
            raise ParseError(f"duplicate token {token!r} (first at line {seen[token]})",
                             line_number=ln, token=token)
        seen[token] = ln
        try:
            values = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise ParseError(f"non-numeric value: {exc}", line_number=ln, token=token) from None
        if not all(math.isfinite(x) for x in values):
            raise ParseError("non-finite value", line_number=ln, token=token)
        if token not in g.token_index:
            unknown.append(token)
            continue
        vectors[g.token_index[token]] = values
    if unknown:
        raise CoverageError("unknown vertex tokens", missing=tuple(unknown), kind="token")
    return EmbeddingTable(vectors)


def write_vector_table(emb: EmbeddingTable, g: Graph) -> str:
    """Covered rows in dense-id order under the standard header; float repr
    is shortest-round-trip so write -> parse is exact."""
    out = ["node," + ",".join(f"d{i}" for i in range(emb.dim))]
    for v in np.flatnonzero(emb.covered).tolist():
        # a row at a time: one tolist() of a 100k x 16 table added 60 MB to peak RSS
        out.append(g.tokens[v] + "," + ",".join(map(repr, emb.vectors[v].tolist())))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# label tables


@dataclass(frozen=True)
class LabelTable:
    """Per-token targets; mode is classification (all ints) or regression."""

    values: dict
    mode: str


def parse_label_table(text) -> LabelTable:
    """"node,label" rows: integer literals -> classification, decimals ->
    regression; mixing the two or repeating a token is an error."""
    lines = _lines(text)
    if not lines or lines[0].strip() != "node,label":
        raise ParseError('header must be "node,label"', line_number=1)
    values: dict = {}
    mode: str | None = None
    for ln, (token, label) in _rows(lines[1:], ",", 2, "fields", start=2):
        if token in values:
            raise ParseError(f"duplicate token {token!r}", line_number=ln, token=token)
        if _INT_RE.match(label):
            kind, value = "classification", int(label)
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
        values[token] = value
    if mode is None:
        raise ParseError("no label rows", line_number=len(lines) or 1)
    return LabelTable(values=values, mode=mode)


def write_label_table(values, mode: str) -> str:
    """Rows sorted by token; ints for classification, float repr otherwise."""
    out = ["node,label"]
    for token in sorted(values):
        v = values[token]
        out.append(f"{token},{int(v)}" if mode == "classification" else f"{token},{float(v)!r}")
    return "\n".join(out) + "\n"


def resolve_labels(table: LabelTable, g: Graph) -> dict:
    """Token-keyed labels -> dense-id-keyed; unknown tokens are an error."""
    ids = resolve_tokens(list(table.values), g)
    return {i: table.values[t] for i, t in zip(ids, table.values)}


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
        doc = {
            "schema_version": report.schema_version,
            "tool_version": report.tool_version,
            "parameters": report.parameters,
            "payload_kind": report.payload_kind,
            "payload": report.payload,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
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
    for key in ("schema_version", "tool_version", "parameters", "payload_kind", "payload"):
        if key not in doc:
            raise ParseError(f"structured report missing key {key!r}", line_number=1)
    return Report(parameters=doc["parameters"], payload_kind=doc["payload_kind"],
                  payload=doc["payload"], schema_version=doc["schema_version"],
                  tool_version=doc["tool_version"])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


_TABULAR_ROWS = {
    "partition": ("hop\tcount", "hop_counts", ("hop", "count")),
    "distortion": ("hop\tmean_distance\tstd\tcount", "profile",
                   ("hop", "mean_distance", "std", "count")),
    "seed_selection": ("order\ttoken", "seed_rows", ("order", "token")),
    "evaluation": ("hop\taccuracy\tcount", "per_hop", ("hop", "accuracy", "count")),
    "verify": ("check\tstatus", "check_rows", ("check", "status")),
}


def _write_tabular(report: Report) -> str:
    if report.payload_kind not in _TABULAR_ROWS:
        raise ArgumentError(
            f"payload kind {report.payload_kind!r} has no tabular form")
    header, rows_key, columns = _TABULAR_ROWS[report.payload_kind]
    out = [f"# schema_version={report.schema_version}",
           f"# tool_version={report.tool_version}",
           f"# payload_kind={report.payload_kind}"]
    for key in sorted(report.parameters):
        out.append(f"# parameter.{key}={_fmt(report.parameters[key])}")
    scalars = {k: v for k, v in report.payload.items()
               if not isinstance(v, (list, dict))}
    for key in sorted(scalars):
        out.append(f"# {key}={_fmt(scalars[key])}")
    out.append("# " + header)
    for row in report.payload.get(rows_key, ()):
        out.append("\t".join(_fmt(row[c]) for c in columns))
    return "\n".join(out) + "\n"
