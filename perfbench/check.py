"""Independent output checks, in the benchmark's own numpy/scipy code.

Each check takes the command's spec and returns a list of problems (empty
when the output is right). Nothing here imports the library: distances come
from a frontier BFS on a sparse adjacency built from the drawn edge array,
embedding distances from a chunked `cdist`, PageRank from a separate power
iteration. Reports round floats to 6 significant digits, so floats are
compared at relative 1e-5 and counts exactly.
"""
from __future__ import annotations

import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

import inputs

REL = 1e-5              # report precision: 6 significant digits
EMBED_REL = 1e-9        # embed writes repr() floats
MAX_HOP = 5             # the CLI default every command here runs with
CHUNK = 8192


class Context:
    """The drawn inputs of one (workload, seed, n) and what derives from
    them, computed once per benchmark run."""

    def __init__(self, workload: str, seed: int, n: int):
        self.data = inputs.draw(workload, seed, n)
        self.n = n

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        e = self.data["graph"].edges
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(self.n, self.n))

    @cached_property
    def degree(self) -> np.ndarray:
        return np.diff(self.adjacency.indptr).astype(np.float64)

    def bfs(self, sources) -> np.ndarray:
        """Level-synchronous multi-source BFS: one sparse mat-vec per hop."""
        dist = np.full(self.n, np.inf)
        frontier = np.zeros(self.n, dtype=bool)
        frontier[np.asarray(sources, dtype=np.int64)] = True
        dist[frontier] = 0.0
        hop = 0
        while frontier.any():
            hop += 1
            frontier = (self.adjacency @ frontier.astype(np.float64) > 0) & np.isinf(dist)
            dist[frontier] = hop
        return dist

    @cached_property
    def seed_dist(self) -> np.ndarray:
        return self.bfs(self.data["seeds"])

    @cached_property
    def point_to_seeds(self) -> np.ndarray:
        """min Euclidean distance from every vertex to the seed vectors."""
        x = self.data["embeddings"]
        s = x[self.data["seeds"]]
        out = np.empty(self.n)
        for lo in range(0, self.n, CHUNK):
            out[lo:lo + CHUNK] = cdist(x[lo:lo + CHUNK], s).min(axis=1)
        return out

    def pagerank(self, damping=0.85, tol=1e-10, max_iter=200) -> np.ndarray:
        deg = self.degree
        dangling = deg == 0
        inv = np.zeros(self.n)
        inv[~dangling] = 1.0 / deg[~dangling]
        x = np.full(self.n, 1.0 / self.n)
        for _ in range(max_iter):
            nxt = damping * (self.adjacency @ (x * inv) + x[dangling].sum() / self.n) \
                + (1.0 - damping) / self.n
            done = np.abs(nxt - x).sum() < tol
            x = nxt
            if done:
                break
        return x


# ---------------------------------------------------------------------------
# helpers


def _close(reported, expected: float, rel: float = REL) -> bool:
    if reported == "unreachable":
        return math.isinf(expected)
    if not isinstance(reported, (int, float)) or isinstance(reported, bool):
        return False
    return math.isclose(float(reported), float(expected), rel_tol=rel, abs_tol=1e-12)


def _ids(tokens) -> np.ndarray:
    return np.asarray([int(t[1:]) for t in tokens], dtype=np.int64)


def _payload(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["payload"]


def _expect(problems: list, what: str, reported, expected, exact=False) -> None:
    ok = reported == expected if exact else _close(reported, expected)
    if not ok:
        problems.append(f"{what}: reported {reported!r}, expected {expected!r}")


def _hop_rows(ctx: Context):
    d = ctx.seed_dist
    return [(k, np.flatnonzero(d == k)) for k in range(1, MAX_HOP + 1)]


def _tail_counts(problems: list, p: dict, d: np.ndarray) -> None:
    finite = np.isfinite(d)
    _expect(problems, "overflow_count", p["overflow_count"],
            int((finite & (d > MAX_HOP)).sum()), exact=True)
    _expect(problems, "unreachable_count", p["unreachable_count"],
            int((~finite).sum()), exact=True)


def _distortion(ctx: Context):
    d = ctx.seed_dist
    mask = (d >= 1) & (d <= MAX_HOP)
    ratios = ctx.point_to_seeds[mask] / d[mask]
    lo, hi = float(ratios.min()), float(ratios.max())
    return lo, hi / lo, int(mask.sum())


# ---------------------------------------------------------------------------
# one check per command kind


def check_partition(ctx: Context, out: dict) -> list:
    p, problems = _payload(out["report"]), []
    _expect(problems, "seed_count", p["seed_count"], len(ctx.data["seeds"]), exact=True)
    expected = [{"hop": k, "count": int(len(v))} for k, v in _hop_rows(ctx)]
    _expect(problems, "hop_counts", p["hop_counts"], expected, exact=True)
    _tail_counts(problems, p, ctx.seed_dist)
    return problems


def check_distortion(ctx: Context, out: dict) -> list:
    p, problems = _payload(out["report"]), []
    r, alpha, pairs = _distortion(ctx)
    _expect(problems, "r", p["r"], r)
    _expect(problems, "alpha", p["alpha"], alpha)
    _expect(problems, "pair_count", p["pair_count"], pairs, exact=True)
    _expect(problems, "excluded_pairs", p["excluded_pairs"], 0, exact=True)
    rows = [(k, ctx.point_to_seeds[v]) for k, v in _hop_rows(ctx) if len(v)]
    if len(p["profile"]) != len(rows):
        problems.append(f"profile has {len(p['profile'])} rows, expected {len(rows)}")
    for got, (k, vals) in zip(p["profile"], rows):
        _expect(problems, "profile hop", got["hop"], k, exact=True)
        _expect(problems, f"profile[{k}].count", got["count"], len(vals), exact=True)
        _expect(problems, f"profile[{k}].mean_distance", got["mean_distance"], vals.mean())
        _expect(problems, f"profile[{k}].std", got["std"], vals.std())
    _tail_counts(problems, p, ctx.seed_dist)
    return problems


def check_evaluate(ctx: Context, out: dict) -> list:
    p, problems = _payload(out["report"]), []
    hit = ctx.data["predictions"] == ctx.data["labels"]
    rows = [(k, float(hit[v].mean()), len(v)) for k, v in _hop_rows(ctx) if len(v)]
    if len(p["per_hop"]) != len(rows):
        problems.append(f"per_hop has {len(p['per_hop'])} rows, expected {len(rows)}")
    for got, (k, acc, count) in zip(p["per_hop"], rows):
        _expect(problems, "per_hop hop", got["hop"], k, exact=True)
        _expect(problems, f"per_hop[{k}].count", got["count"], count, exact=True)
        _expect(problems, f"per_hop[{k}].accuracy", got["accuracy"], acc)
    accs = [acc for _, acc, _ in rows]
    md = max(accs) - min(accs) if len(accs) >= 2 else 0.0
    _expect(problems, "max_discrepancy", p["max_discrepancy"], md)
    train = float(hit[ctx.data["seeds"]].mean())
    _expect(problems, "train_accuracy", p["train_accuracy"], train)
    d = ctx.seed_dist
    inside = (d >= 1) & (d <= MAX_HOP)
    _expect(problems, "evaluated_count", p["evaluated_count"], int(inside.sum()), exact=True)
    _expect(problems, "overall_accuracy", p["overall_accuracy"], float(hit[inside].mean()))
    rest = d[d > 0]
    finite = rest[np.isfinite(rest)]
    agg = p["aggregate_distance"]
    _expect(problems, "aggregate_distance.value", agg["value"], float(finite.mean()))
    _expect(problems, "aggregate_distance.excluded_unreachable",
            agg["excluded_unreachable"], int(len(rest) - len(finite)), exact=True)
    _, alpha, _ = _distortion(ctx)
    for row in p["bounds"] or []:
        k = row["hop"]
        _expect(problems, f"bounds[{k}].alpha", row["alpha"], alpha)
        _expect(problems, f"bounds[{k}].bound_driver", row["bound_driver"], alpha * k)
        _expect(problems, f"bounds[{k}].bound_value", row["bound_value"],
                (1.0 - train) + alpha * k)
    if p["bounds"] is None or len(p["bounds"]) != len(rows):
        problems.append("bounds rows missing")
    _tail_counts(problems, p, d)
    return problems


def check_sample(ctx: Context, out: dict, method: str, k: int) -> list:
    p, problems = _payload(out["report"]), []
    tokens = p["seeds"]
    if len(tokens) != k or len(set(tokens)) != k:
        return [f"expected {k} distinct seeds, got {len(tokens)} ({len(set(tokens))} distinct)"]
    ids = _ids(tokens)
    if ids.min() < 0 or ids.max() >= ctx.n:
        return ["seed token outside the graph"]
    d = ctx.bfs(ids)
    rest = np.ones(ctx.n, dtype=bool)
    rest[ids] = False
    objective = float(d[rest].max())
    expected = "unreachable" if math.isinf(objective) else int(objective)
    _expect(problems, f"{method} objective", p["objective"], expected, exact=True)
    if method == "pagerank":
        # the top-k set up to ties: nothing left out scores clearly higher
        # than anything picked
        scores = ctx.pagerank()
        slack = 1e-6 * float(scores.max())
        if scores[rest].max() > scores[ids].min() + slack:
            problems.append("pagerank seeds are not a top-k set of the scores")
    return problems


def check_embed(ctx: Context, out: dict, layers: int) -> list:
    lines = out["table"].read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ids = _ids(r[0] for r in rows)
    got = np.asarray([r[1:] for r in rows], dtype=np.float64)
    if len(ids) != ctx.n or len(np.unique(ids)) != ctx.n:
        return [f"embed wrote {len(ids)} rows for {ctx.n} vertices"]
    h = ctx.data["features"]
    for _ in range(layers):
        h = (ctx.adjacency @ h + h) / (ctx.degree + 1.0)[:, None]
    want = h[ids]
    if got.shape != want.shape:
        return [f"embed wrote shape {got.shape}, expected {want.shape}"]
    bad = ~np.isclose(got, want, rtol=EMBED_REL, atol=1e-12 * float(np.abs(want).max()))
    if bad.any():
        return [f"{int(bad.sum())} embed values differ by more than {EMBED_REL:g} relative"]
    return []


def check_synth(ctx: Context, out: dict, sizes: list, p_in: float, p_out: float) -> list:
    problems = []
    n = sum(sizes)
    words = out["graph"].read_text(encoding="utf-8").split()
    pairs = _ids(words).reshape(-1, 2)
    if len(np.unique(pairs)) != n or pairs.min() != 0 or pairs.max() != n - 1:
        problems.append(f"synth graph does not name exactly the tokens v0..v{n - 1}")
    edges = pairs[pairs[:, 0] != pairs[:, 1]]
    key = np.minimum(edges[:, 0], edges[:, 1]) * n + np.maximum(edges[:, 0], edges[:, 1])
    if len(np.unique(key)) != len(key):
        problems.append("synth graph repeats an edge")
    intra = sum(s * (s - 1) // 2 for s in sizes)
    inter = n * (n - 1) // 2 - intra
    mean = p_in * intra + p_out * inter
    sigma = math.sqrt(p_in * (1 - p_in) * intra + p_out * (1 - p_out) * inter)
    if abs(len(edges) - mean) > 6 * sigma:
        problems.append(f"synth edge count {len(edges)} is outside {mean:.0f} +- 6 sigma "
                        f"({sigma:.1f})")
    label_rows = out["labels"].read_text(encoding="utf-8").splitlines()
    if label_rows[0] != "node,label":
        return problems + ["synth label header"]
    got = dict(row.split(",") for row in label_rows[1:])
    want = np.repeat(np.arange(len(sizes)), sizes)
    if len(got) != n or any(int(got.get(f"v{i}", -1)) != want[i] for i in range(n)):
        problems.append("synth block labels differ from the block sizes")
    return problems
