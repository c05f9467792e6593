"""The CLI's error contract on mutated golden inputs.

Each case damages one input file of one file-reading command (bytes deleted,
inserted or cut off; a BOM, NUL, CR, form feed, NEL, `nan`, `1e400`, a huge
int, 2**63, a minus sign, a stray comma, a `#` or an invalid UTF-8 byte put
in) and runs `cli.main` on it three times: twice as is, and once with every
whole-buffer read (the packed-key graph read and the vector block) turned
off, so the row loop reads every file. The exit code must be 0, 2, 3, 4 or 5, stderr empty or
one line, stdout empty unless the exit code is 0, and all three runs byte-identical.
The long run is marked `slow` and deselected by default:

    python3 -m pytest -m slow tests/test_cli_contract.py
"""
from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from topoaware import ingest
from topoaware.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
_INPUTS = ("graph.txt", "small.txt", "seeds.txt", "embeddings.csv", "labels.csv",
           "predictions.csv")
_SEEDED = ["--graph", "graph.txt", "--seeds", "seeds.txt"]
COMMANDS = (
    ["partition", *_SEEDED],
    ["distortion", *_SEEDED, "--embeddings", "embeddings.csv"],
    ["evaluate", *_SEEDED, "--labels", "labels.csv", "--predictions", "predictions.csv",
     "--embeddings", "embeddings.csv"],
    ["sample", "--graph", "graph.txt", "--method", "kcenter", "--k", "5"],
    ["sample", "--graph", "small.txt", "--method", "coverage", "--k", "2", "--seed", "1"],
    ["embed", "--graph", "graph.txt", "--features", "embeddings.csv", "--layers", "1"],
)
INSERTS = (b"\xef\xbb\xbf", b"\x00", b"\r", b"\x0c", "\x85".encode(), b"nan", b"1e400",
           b"9" * 400, b"9223372036854775808", b"-", b",", b"#", b"\xff")
EXIT_CODES = {0, 2, 3, 4, 5}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name in _INPUTS:
        shutil.copy(GOLDEN / name, path / name)
    return path


@st.composite
def mutated_run(draw):
    """(argv, the input it damages, the damaged bytes)."""
    argv = draw(st.sampled_from(COMMANDS))
    target = draw(st.sampled_from([a for a in argv if a in _INPUTS]))
    data = (GOLDEN / target).read_bytes()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("delete", "insert", "truncate", "splice")))
        if kind == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 40)):]
        elif kind == "insert":
            data = data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]
        elif kind == "truncate":
            data = data[:at]
        else:  # a copy of some other stretch of the file
            start = draw(st.integers(0, len(data)))
            data = data[:at] + data[start:start + draw(st.integers(1, 80))] + data[at:]
    return argv, target, data


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(workspace, case):
    argv, target, data = case
    (workspace / "mutated").write_bytes(data)
    argv = [str(workspace / ("mutated" if a == target else a)) if a in _INPUTS else a
            for a in argv]
    first = _run(argv)
    code, out, err = first
    assert code in EXIT_CODES, err
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n")), err
    assert code == 0 or out == "", (code, out[:200])  # a failed run prints no report
    assert _run(argv) == first
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_packed_ids", lambda text: None)
        mp.setattr(ingest, "_vector_block", lambda rows, dim, g: None)
        assert _run(argv) == first


@seed(20261018)
@settings(max_examples=100)
@given(mutated_run())
def test_mutated_inputs_keep_the_error_contract(workspace, case):
    _check(workspace, case)


@pytest.mark.slow
@seed(20261019)
@settings(max_examples=3000)
@given(mutated_run())
def test_mutated_inputs_keep_the_error_contract_long(workspace, case):
    _check(workspace, case)
