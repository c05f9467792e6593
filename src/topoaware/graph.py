"""Immutable undirected graph with hop-distance, degree, component, and
centrality queries.

Unreachable hop distances are IEEE +inf (`UNREACHABLE`): a distinguished
maximal value, never a finite sentinel. Distance arrays are float64 so inf
flows through min/max correctly and arithmetic on it stays inf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import ArgumentError, BoundsError, EmptyGraphError

UNREACHABLE = math.inf


def is_unreachable(x) -> bool:
    return x == UNREACHABLE


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph in compressed adjacency form.

    `offsets`/`neighbors` form a CSR layout: the neighbors of v are
    neighbors[offsets[v]:offsets[v+1]], sorted ascending. `tokens[i]` is the
    external name of dense id i; ids are assigned in first-seen order.
    """

    n: int
    m: int
    offsets: np.ndarray
    neighbors: np.ndarray
    tokens: tuple[str, ...]
    token_index: dict[str, int] = field(repr=False)

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    @cached_property
    def csr(self) -> sp.csr_matrix:
        data = np.ones(len(self.neighbors), dtype=np.float64)
        return sp.csr_matrix(
            (data, self.neighbors, self.offsets), shape=(self.n, self.n)
        )

    def id_of(self, token: str) -> int:
        try:
            return self.token_index[token]
        except KeyError:
            raise ArgumentError(f"unknown vertex token {token!r}") from None

    def edge_token_pairs(self):
        """Edges as (token, token) with u < v in dense-id order."""
        us = np.repeat(np.arange(self.n), np.diff(self.offsets))
        upper = us < self.neighbors
        for u, v in zip(us[upper].tolist(), self.neighbors[upper].tolist()):
            yield self.tokens[u], self.tokens[v]

    def __eq__(self, other) -> bool:
        """Token-level equality: same token set, same token-pair edge set."""
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self.tokens) != set(other.tokens):
            return False
        mine = {frozenset(e) for e in self.edge_token_pairs()}
        theirs = {frozenset(e) for e in other.edge_token_pairs()}
        return mine == theirs


def build_graph(edge_tokens) -> Graph:
    """Build a Graph from (token, token) pairs.

    Self-loops and duplicate edges are dropped; tokens appearing only in
    dropped pairs still get ids. Ids follow first-seen order.
    """
    tokens: list[str] = []
    index: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []
    count = 0
    for pair in edge_tokens:
        count += 1
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ArgumentError(f"edge {count} is not a token pair: {pair!r}") from None
        for t in (a, b):
            if not isinstance(t, str) or not t:
                raise ArgumentError(f"edge {count} has a non-string or empty token: {t!r}")
            if t not in index:
                index[t] = len(tokens)
                tokens.append(t)
        if a != b:
            us.append(index[a])
            vs.append(index[b])
    if count == 0:
        raise EmptyGraphError("no edges supplied")

    n = len(tokens)
    if us:
        u = np.asarray(us, dtype=np.int64)
        v = np.asarray(vs, dtype=np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
        m = pairs.shape[0]
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
        neighbors = cols
    else:
        m = 0
        offsets = np.zeros(n + 1, dtype=np.int64)
        neighbors = np.empty(0, dtype=np.int64)
    offsets.setflags(write=False)
    neighbors.setflags(write=False)
    return Graph(n=n, m=int(m), offsets=offsets, neighbors=neighbors,
                 tokens=tuple(tokens), token_index=index)


def _check_sources(g: Graph, sources) -> np.ndarray:
    src = sorted({int(s) for s in sources})
    if not src:
        raise ArgumentError("source set is empty")
    if src[0] < 0 or src[-1] >= g.n:
        raise BoundsError(f"source out of range 0..{g.n - 1}")
    return np.asarray(src, dtype=np.int64)


def multi_source_bfs(g: Graph, sources) -> np.ndarray:
    """result[v] = min hop distance from v to any source; UNREACHABLE across
    components. The sources are exactly the vertices at distance 0."""
    src = _check_sources(g, sources)
    return csgraph.dijkstra(g.csr, directed=True, unweighted=True,
                            indices=src, min_only=True)


def _hops(x) -> float:
    """A hop distance as an int, or UNREACHABLE."""
    x = float(x)
    return x if x == UNREACHABLE else int(x)


def degrees(g: Graph) -> np.ndarray:
    return np.diff(g.offsets)


@dataclass(frozen=True)
class PageRankResult:
    scores: np.ndarray
    converged: bool
    iterations: int


def pagerank(g: Graph, damping: float = 0.85, tol: float = 1e-10,
             max_iter: int = 200) -> PageRankResult:
    """Damped power iteration on the undirected adjacency (each edge two
    arcs); dangling/isolated vertices spread their mass uniformly. Stops when
    the L1 change drops below tol; non-convergence is flagged, not raised.
    """
    if not 0.0 < damping < 1.0:
        raise ArgumentError(f"damping must be in (0,1), got {damping}")
    if tol <= 0.0:
        raise ArgumentError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ArgumentError(f"max_iter must be >= 1, got {max_iter}")
    n = g.n
    deg = np.diff(g.offsets).astype(np.float64)
    dangling = deg == 0.0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    x = np.full(n, 1.0 / n)
    A = g.csr
    for it in range(1, max_iter + 1):
        spread = A @ (x * inv_deg)
        dangle_mass = float(x[dangling].sum()) / n
        nxt = damping * (spread + dangle_mass) + (1.0 - damping) / n
        delta = float(np.abs(nxt - x).sum())
        x = nxt
        if delta < tol:
            return PageRankResult(scores=x, converged=True, iterations=it)
    return PageRankResult(scores=x, converged=False, iterations=max_iter)


def closeness_centrality(g: Graph) -> np.ndarray:
    """Component-scaled closeness: (rc / sum d) * (rc / (n-1)), 0 for
    vertices with no reachable peer."""
    n = g.n
    out = np.zeros(n)
    if n <= 1:
        return out
    chunk = 256
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n))
        d = csgraph.dijkstra(g.csr, directed=True, unweighted=True, indices=idx)
        d = np.atleast_2d(d)
        finite = np.isfinite(d)
        finite[np.arange(len(idx)), idx] = False
        rc = finite.sum(axis=1).astype(np.float64)
        sums = np.where(finite, d, 0.0).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(rc > 0, (rc / np.where(sums > 0, sums, 1.0)) * (rc / (n - 1)), 0.0)
        out[idx] = vals
    return out


def connected_components(g: Graph) -> np.ndarray:
    """Component labels 0..c-1, relabeled to first-seen vertex order."""
    _, raw = csgraph.connected_components(g.csr, directed=False)
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]
