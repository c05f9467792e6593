"""Immutable undirected graph with hop-distance, degree and centrality
queries.

Unreachable hop distances are IEEE +inf (`UNREACHABLE`): a distinguished
maximal value, never a finite sentinel. Distance arrays are float64 so inf
flows through min/max correctly and arithmetic on it stays inf.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    """Undirected simple graph as read-only symmetric CSR arrays.

    The neighbors of v are indices[indptr[v]:indptr[v+1]], sorted
    ascending. `tokens[i]` is the external name of dense id i; ids are
    assigned in first-seen order.
    """

    indptr: np.ndarray
    indices: np.ndarray
    tokens: tuple[str, ...]

    @cached_property
    def token_index(self) -> dict[str, int]:
        """token -> dense id, built on first use: a run that resolves no
        token (`sample` without a start vertex) never builds it."""
        return dict(zip(self.tokens, range(len(self.tokens))))

    @property
    def n(self) -> int:
        return len(self.tokens)

    @property
    def m(self) -> int:
        return self.indices.size // 2

    @cached_property
    def csr(self):
        """The arrays as a scipy CSR matrix with every stored entry 1.0, for
        the C sparse kernels; scipy is imported on first use, never by a load."""
        import scipy.sparse as sp

        data = np.ones(self.indices.size)
        data.setflags(write=False)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_token_pairs(self):
        """Edges as (token, token) with u < v in dense-id order."""
        us = np.repeat(np.arange(self.n), degrees(self))
        upper = us < self.indices
        for u, v in zip(us[upper].tolist(), self.indices[upper].tolist()):
            yield self.tokens[u], self.tokens[v]

    def __eq__(self, other) -> bool:
        """Token-level equality: same token set, same token-pair edge set."""
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self.tokens) != set(other.tokens):
            return False
        # arc keys u * n + v in other's ids; other's own are sorted already
        ids = np.array([other.token_index[t] for t in self.tokens], dtype=np.int64)
        mine = np.sort(np.repeat(ids, degrees(self)) * self.n + ids[self.indices])
        return np.array_equal(mine, np.repeat(np.arange(other.n), degrees(other)) * other.n
                              + other.indices)


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
    g = _csr_graph(tuple(index), ids[0::2], ids[1::2])
    g.__dict__["token_index"] = index  # the cached_property's slot, so it is built once
    return g


def _id_graph(n: int, u, v) -> Graph:
    """The Graph over ids 0..n-1 (token "v{i}" for id i) of id pairs
    (u[j], v[j]); every id gets a vertex, paired or not."""
    return _csr_graph(tuple(f"v{i}" for i in range(n)), u, v)


def _csr_graph(tokens, u, v) -> Graph:
    """The one place a Graph's arrays are built, from the tokens in id order
    and two id arrays: self-loops are dropped, a repeated pair is kept once and
    every array is read-only. Both arcs of each pair are packed as u * n + v
    keys and sorted once; the index dtype is scipy's COO -> CSR choice,
    int32 unless n or the arc count needs int64."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    keep = u != v
    u, v = u[keep], v[keep]
    n = len(tokens)
    keys = _distinct(np.concatenate([u * n + v, v * n + u]))
    dtype = np.int32 if max(n, keys.size) <= np.iinfo(np.int32).max else np.int64
    rows, cols = np.divmod(keys, n)
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(dtype)
    indices = cols.astype(dtype)
    for arr in (indptr, indices):
        arr.setflags(write=False)
    return Graph(indptr=indptr, indices=indices, tokens=tuple(tokens))


def _check_sources(n: int, sources) -> np.ndarray:
    """The sorted distinct ids of `sources`: the one check of a caller's id set."""
    src = sorted({int(s) for s in sources})
    if not src:
        raise ArgumentError("source set is empty")
    if src[0] < 0 or src[-1] >= n:
        raise BoundsError(f"source out of range 0..{n - 1}")
    return np.asarray(src, dtype=np.int64)


# A frontier of at most this many vertices is expanded by a scalar loop: a
# numpy level has a fixed cost of about 15-26 us however small its frontier,
# so each numpy level pays it with more than this many vertices.
SCALAR_FRONTIER_MAX = 32


def multi_source_bfs(g: Graph, sources) -> np.ndarray:
    """result[v] = min hop distance from v to any source; UNREACHABLE across
    components. The sources are exactly the vertices at distance 0."""
    dist = np.full(g.n, UNREACHABLE)
    relax(g, dist, sources)
    return dist


def relax(g: Graph, dist: np.ndarray, sources) -> None:
    """Lower `dist` in place to min(dist, hops from `sources`), skipping
    sources already at 0. `dist` must be all UNREACHABLE or a relaxed array,
    so only vertices whose distance improves need expanding (pruned BFS,
    Akiba, Iwata and Yoshida 2013).
    """
    src = _check_sources(g.n, sources)
    src = src[dist[src] != 0]
    if not src.size:
        return
    dist[src] = 0.0
    _lower(g, dist, src)


def _lower(g: Graph, dist: np.ndarray, frontier: np.ndarray) -> None:
    """Breadth-first levels from `frontier` (the vertices at distance 0),
    setting dist[v] = level for each neighbour with dist[v] > level: every
    BFS in the library is this loop. A frontier of at most
    SCALAR_FRONTIER_MAX vertices is expanded vertex by vertex, a larger one
    by one numpy gather (the frontier-size switch of Beamer, Asanovic and
    Patterson, SC 2012), so each numpy level has more than that many
    vertices to pay for and a call is O(n + nnz)."""
    indptr, indices = g.indptr, g.indices
    ptr, nbrs, d = memoryview(indptr), memoryview(indices), memoryview(dist)
    level = 0
    while len(frontier):
        level += 1
        if len(frontier) <= SCALAR_FRONTIER_MAX:
            nxt = []
            for u in frontier:
                for v in nbrs[ptr[u]:ptr[u + 1]]:
                    if d[v] > level:
                        d[v] = level
                        nxt.append(v)
            frontier = nxt
        else:
            starts, ends = indptr[frontier], indptr[1:][frontier]
            counts = ends - starts
            nb = indices[np.arange(int(counts.sum())) + (ends - counts.cumsum()).repeat(counts)]
            frontier = _distinct(nb[dist[nb] > level])
            dist[frontier] = level


def _distinct(a: np.ndarray) -> np.ndarray:
    """`a` sorted with repeats dropped. numpy 2.4's np.unique hashes: 18x
    slower at 5000 ids, 58x on the 10**6 arc keys of a 100k-vertex graph."""
    a = np.sort(a)
    first = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _hops(x) -> float:
    """A hop distance as an int, or UNREACHABLE."""
    x = float(x)
    return x if x == UNREACHABLE else int(x)


def degrees(g: Graph) -> np.ndarray:
    return np.diff(g.indptr)


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
        dangle_mass = float(x[dangling].sum()) / n
        nxt = damping * (A @ (x * inv_deg) + dangle_mass) + (1.0 - damping) / n
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
    from scipy.sparse import csgraph

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
