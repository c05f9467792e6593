"""Seeded workload inputs, written by the benchmark's own numpy code.

Nothing here calls the library: the graph is drawn in O(m) and the tables
are formatted directly, so a change to `synthetic_sbm` or to the library
writers cannot change what the benchmark feeds the CLI.

Every file lives under one directory per (workload, seed, vertex count).
A `meta.json` written last marks the directory complete; a later run with
the same key reuses the files instead of drawing them again.
"""
from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VERTICES = 100_000
EDGES_PER_VERTEX = 5          # m = 5 n, about 500k edges at 100k vertices
BLOCKS = 50
INTRA_FRACTION = 0.9
SEED_COUNT = 100              # seed vertices for partition / distortion / evaluate
DIM = 16                      # embedding and feature table width
PRED_ACCURACY = 0.8           # share of predictions equal to the true label

SYNTH_BLOCKS = 3              # synth runs at 3 x 2000 vertices for n = 100k
SYNTH_P_IN = 0.01
SYNTH_P_OUT = 0.0005

GENERATOR_VERSION = 1


@dataclass(frozen=True)
class SeededGraph:
    """Vertex i has token v<i>; `edges` holds each undirected edge once."""

    n: int
    edges: np.ndarray          # (m, 2) int64, u != v, no duplicates
    blocks: np.ndarray         # block id per vertex


def draw_graph(n: int, rng: np.random.Generator) -> SeededGraph:
    """Block graph with BLOCKS equal blocks and INTRA_FRACTION of the edges
    inside a block. Self-loops and repeats are dropped, so m is a little
    under EDGES_PER_VERTEX * n."""
    size = -(-n // BLOCKS)
    blocks = np.arange(n) // size
    block_count = int(blocks[-1]) + 1
    m = EDGES_PER_VERTEX * n
    u = rng.integers(n, size=m)
    intra = rng.random(m) < INTRA_FRACTION
    bu = blocks[u]
    lo = bu * size
    hi = np.minimum(lo + size, n)
    v_intra = lo + (rng.random(m) * (hi - lo)).astype(np.int64)
    bv = (bu + rng.integers(1, block_count, size=m)) % block_count
    lo_v = bv * size
    hi_v = np.minimum(lo_v + size, n)
    v_inter = lo_v + (rng.random(m) * (hi_v - lo_v)).astype(np.int64)
    v = np.where(intra, v_intra, v_inter)
    keep = u != v
    u, v = u[keep], v[keep]
    key = np.minimum(u, v) * n + np.maximum(u, v)
    _, first = np.unique(key, return_index=True)
    first.sort()
    edges = np.stack([u[first], v[first]], axis=1).astype(np.int64)
    return SeededGraph(n=n, edges=edges, blocks=blocks)


def _tokens(ids) -> list[str]:
    return ["v" + str(i) for i in np.asarray(ids).tolist()]


def edge_list_text(g: SeededGraph) -> str:
    """Edges in drawn order, then a self-loop line per isolated vertex so
    that every token v0..v{n-1} is registered."""
    a = _tokens(g.edges[:, 0])
    b = _tokens(g.edges[:, 1])
    lines = [x + " " + y for x, y in zip(a, b)]
    touched = np.zeros(g.n, dtype=bool)
    touched[g.edges.ravel()] = True
    lines.extend(t + " " + t for t in _tokens(np.flatnonzero(~touched)))
    return "\n".join(lines) + "\n"


def vector_table_text(values: np.ndarray) -> str:
    """node,d0,... rows in vertex order; repr() round-trips every float."""
    dim = values.shape[1]
    out = ["node," + ",".join(f"d{i}" for i in range(dim))]
    for tok, row in zip(_tokens(range(len(values))), values.tolist()):
        out.append(tok + "," + ",".join(map(repr, row)))
    return "\n".join(out) + "\n"


def label_table_text(labels: np.ndarray) -> str:
    rows = [t + "," + str(y) for t, y in zip(_tokens(range(len(labels))), labels.tolist())]
    return "node,label\n" + "\n".join(rows) + "\n"


def block_vectors(g: SeededGraph, rng: np.random.Generator) -> np.ndarray:
    """Gaussian noise around a per-block centre, so embedding distance
    carries some of the block structure."""
    centres = rng.standard_normal((int(g.blocks.max()) + 1, DIM)) * 2.0
    return centres[g.blocks] + rng.standard_normal((g.n, DIM))


def noisy_predictions(truth: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """PRED_ACCURACY of the vertices keep their label; the rest get another."""
    classes = int(truth.max()) + 1
    wrong = rng.random(len(truth)) >= PRED_ACCURACY
    other = (truth + rng.integers(1, classes, size=len(truth))) % classes
    return np.where(wrong, other, truth)


def _write(path: Path, text: str) -> int:
    path.write_text(text, encoding="utf-8")
    return path.stat().st_size


def draw(workload: str, seed: int, n: int) -> dict:
    """Every array a workload's inputs are made of, from one PCG64 stream
    keyed by `seed`. The output checks call this again instead of parsing
    the files back."""
    rng = np.random.Generator(np.random.PCG64(seed))
    g = draw_graph(n, rng)
    data = {"graph": g}
    if workload == "evaluate_write":
        data["seeds"] = np.sort(rng.choice(n, size=min(SEED_COUNT, n - 1), replace=False))
        data["embeddings"] = block_vectors(g, rng)
        data["labels"] = g.blocks.astype(np.int64)
        data["predictions"] = noisy_predictions(data["labels"], rng)
        data["features"] = block_vectors(g, rng)
    return data


def build(workload: str, seed: int, n: int, cache: Path) -> dict:
    """Create (or reuse) the input files of one workload; return its
    meta.json record. Each workload gets only the files its commands read."""
    key = input_dir(workload, seed, n, cache)
    meta_path = key / "meta.json"
    if meta_path.exists():
        return json.loads(meta_path.read_text(encoding="utf-8"))
    tmp = key.with_name(key.name + f".tmp{os.getpid()}")
    for stale in (key, tmp):
        if stale.exists():
            shutil.rmtree(stale)
    tmp.mkdir(parents=True)
    data = draw(workload, seed, n)
    g = data["graph"]
    files = {"graph": _write(tmp / "graph.txt", edge_list_text(g))}
    if "seeds" in data:
        files["seeds"] = _write(tmp / "seeds.txt", "\n".join(_tokens(data["seeds"])) + "\n")
    for name in ("embeddings", "features"):
        if name in data:
            files[name] = _write(tmp / f"{name}.csv", vector_table_text(data[name]))
    for name in ("labels", "predictions"):
        if name in data:
            files[name] = _write(tmp / f"{name}.csv", label_table_text(data[name]))
    meta = {"workload": workload, "seed": seed, "n": n, "m": int(len(g.edges)),
            "dim": DIM if ("embeddings" in data or "features" in data) else 0,
            "blocks": int(g.blocks.max()) + 1, "bytes": files,
            "total_bytes": sum(files.values()), "generator_version": GENERATOR_VERSION}
    (tmp / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    tmp.rename(key)
    return meta


def synth_sizes(n: int) -> list[int]:
    return [max(10, min(2000, n // 50))] * SYNTH_BLOCKS


def input_dir(workload: str, seed: int, n: int, cache: Path) -> Path:
    return cache / f"{workload}-s{seed}-n{n}-g{GENERATOR_VERSION}"
