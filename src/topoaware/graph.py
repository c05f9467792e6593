"""Immutable undirected graph with hop-distance, degree and centrality
queries.

Unreachable hop distances are IEEE +inf (`UNREACHABLE`): a distinguished
maximal value, never a finite sentinel. Distance arrays are float64 so inf
flows through min/max correctly and arithmetic on it stays inf.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import ArgumentError, BoundsError, EmptyGraphError, SizeGuardError

UNREACHABLE = math.inf
CLOSENESS_MAX_N = 10_000  # one sweep per vertex: 27 s at 10k vertices, 50k edges


def seeded_rng(seed) -> np.random.Generator:
    """The PCG64 generator every random draw in the library comes from. A
    seed PCG64 rejects is an ArgumentError, and so is None, for which PCG64
    would draw unreproducible OS entropy."""
    if seed is not None:
        with contextlib.suppress(TypeError, ValueError):
            return np.random.Generator(np.random.PCG64(seed))
    raise ArgumentError(f"rng seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph as one read-only symmetric scipy CSR matrix
    with every stored entry 1.0.

    The neighbors of v are csr.indices[csr.indptr[v]:csr.indptr[v+1]],
    sorted ascending. `tokens[i]` is the external name of dense id i; ids
    are assigned in first-seen order.
    """

    csr: sp.csr_matrix
    tokens: tuple[str, ...]
    token_index: dict[str, int] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.tokens)

    @property
    def m(self) -> int:
        return self.csr.nnz // 2

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.csr.indices[self.csr.indptr[v] : self.csr.indptr[v + 1]]

    def edge_token_pairs(self):
        """Edges as (token, token) with u < v in dense-id order."""
        us = np.repeat(np.arange(self.n), degrees(self))
        upper = us < self.csr.indices
        for u, v in zip(us[upper].tolist(), self.csr.indices[upper].tolist()):
            yield self.tokens[u], self.tokens[v]

    def __eq__(self, other) -> bool:
        """Token-level equality: same token set, same token-pair edge set."""
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self.tokens) != set(other.tokens):
            return False
        order = [other.token_index[t] for t in self.tokens]
        return (self.csr != other.csr[order][:, order]).nnz == 0


def build_graph(edge_tokens) -> Graph:
    """Build a Graph from (token, token) pairs.

    Self-loops and duplicate edges are dropped; tokens appearing only in
    dropped pairs still get ids. Ids follow first-seen order.
    """
    flat: list[str] = []
    for count, pair in enumerate(edge_tokens, start=1):
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ArgumentError(f"edge {count} is not a token pair: {pair!r}") from None
        for t in (a, b):
            if not isinstance(t, str) or not t:
                raise ArgumentError(f"edge {count} has a non-string or empty token: {t!r}")
        flat += (a, b)
    if not flat:
        raise EmptyGraphError("no edges supplied")
    index: dict[str, int] = {}
    ids = np.array([index.setdefault(t, len(index)) for t in flat], dtype=np.int64)
    return _csr_graph(index, ids[0::2], ids[1::2])


def _id_graph(n: int, u, v) -> Graph:
    """The Graph over ids 0..n-1 (token "v{i}" for id i) of id pairs
    (u[j], v[j]); every id gets a vertex, paired or not."""
    return _csr_graph({f"v{i}": i for i in range(n)}, u, v)


def _csr_graph(index: dict, u, v) -> Graph:
    """The one place a Graph's matrix is built, from the token -> id map and
    two id arrays: self-loops are dropped, a repeated pair is kept once and
    every array is read-only."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    keep = u != v
    u, v = u[keep], v[keep]
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    n = len(index)
    csr = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    csr.data[:] = 1.0  # duplicate edges were summed
    for arr in (csr.data, csr.indices, csr.indptr):
        arr.setflags(write=False)
    return Graph(csr=csr, tokens=tuple(index), token_index=index)


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


# Work charged to each `relax` level on top of the neighbours it gathers, in
# the units of a full sweep's n + nnz. On a 100k-vertex path one numpy
# frontier step cost as much as 3200-4000 units of sweep (2-vCPU x86
# machine); charging about twice that holds a call that falls back on a long
# path to about 1.5 sweeps.
RELAX_LEVEL_CHARGE = 8192


def relax(g: Graph, dist: np.ndarray, source) -> None:
    """Lower `dist` in place to min(dist, hops from `source`).

    `dist` must be a `multi_source_bfs` array, or one already relaxed, so
    only vertices whose distance improves need expanding (pruned BFS, Akiba,
    Iwata and Yoshida 2013): each level keeps the gathered neighbours with
    dist > level. Each level is charged its gathered neighbours plus
    RELAX_LEVEL_CHARGE; once the charge passes one full sweep (n + nnz), the
    rest is one `multi_source_bfs` from `source` and a minimum, so a call
    costs at most about two sweeps.
    """
    s = int(_check_sources(g, [source])[0])
    if dist[s] == 0:
        return
    dist[s] = 0.0
    indptr, indices = g.csr.indptr, g.csr.indices
    budget, work = g.n + g.csr.nnz, 0
    frontier, level = np.array([s]), 0
    while frontier.size:
        starts, ends = indptr[frontier], indptr[frontier + 1]
        counts = ends - starts
        total = int(counts.sum())
        work += total + RELAX_LEVEL_CHARGE
        if work > budget:
            np.minimum(dist, multi_source_bfs(g, [s]), out=dist)
            return
        level += 1
        nb = indices[np.arange(total) + (ends - counts.cumsum()).repeat(counts)]
        # sort and drop repeats; numpy 2.4 np.unique hashes, 18x slower at 5000 ids
        nb = np.sort(nb[dist[nb] > level])
        first = np.ones(nb.size, dtype=bool)
        np.not_equal(nb[1:], nb[:-1], out=first[1:])
        frontier = nb[first]
        dist[frontier] = level


def _hops(x) -> float:
    """A hop distance as an int, or UNREACHABLE."""
    x = float(x)
    return x if x == UNREACHABLE else int(x)


def degrees(g: Graph) -> np.ndarray:
    return np.diff(g.csr.indptr)


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
    deg = degrees(g).astype(np.float64)
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
    vertices with no reachable peer. One BFS per vertex, so above
    CLOSENESS_MAX_N vertices it raises SizeGuardError before any sweep."""
    n = g.n
    if n > CLOSENESS_MAX_N:
        raise SizeGuardError(
            f"closeness centrality for {n} vertices exceeds the {CLOSENESS_MAX_N}-vertex "
            "limit of one BFS per vertex")
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
