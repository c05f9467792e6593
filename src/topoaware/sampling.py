"""Cold-start seed selection: k-center objective, farthest-first greedy,
coverage-based probabilistic sampling, score/random baselines, and an
exhaustive optimum for small-instance verification."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InternalInvariantError, SizeGuardError
from .graph import (Graph, _check_sources, _hops, closeness_centrality, degrees,
                    multi_source_bfs, pagerank, relax, seeded_rng)

BRUTE_FORCE_MAX_N = 20


@dataclass(frozen=True)
class SeedSelection:
    """An ordered seed set with its k-center objective.

    The objective is read from the final set's multi-source hop array; when
    seeds = V the objective is undefined and reported as 0 with full_cover.
    """

    seeds: tuple
    objective: float
    method: str
    rng_seed: int | None = None
    full_cover: bool = False
    start_policy: str | None = None


def kcenter_objective(dist) -> float:
    """max over v outside the seed set of its hop distance to the set, read
    from the set's `multi_source_bfs` array (seeds are exactly dist == 0)."""
    worst = dist.max()
    if worst == 0:
        raise ArgumentError("seed set covers every vertex; objective undefined")
    return _hops(worst)


def _finish(g: Graph, seeds: list[int], dist: np.ndarray, method: str, rng_seed,
            start_policy=None) -> SeedSelection:
    full = len(seeds) == g.n
    objective = 0 if full else kcenter_objective(dist)
    return SeedSelection(seeds=tuple(seeds), objective=objective, method=method,
                         rng_seed=rng_seed, full_cover=full, start_policy=start_policy)


def _check_k(g: Graph, k: int) -> int:
    k = int(k)
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    if k > g.n:
        raise ArgumentError(f"k = {k} exceeds vertex count {g.n}")
    return k


def _highest_degree(g: Graph) -> int:
    return int(np.argmax(degrees(g)))


def kcenter_greedy(g: Graph, k: int, start="highest_degree",
                   rng_seed: int | None = None) -> SeedSelection:
    """Farthest-first traversal: each step adds the vertex farthest from the
    current seed set (ties to the lowest id, unreachable before any finite).

    The first seed costs one BFS; each later seed lowers the distance
    array in place with `relax`, a pruned frontier expansion that visits
    only the vertices it brings closer, in time linear in those vertices and
    their arcs. So O(k·m) is the worst case, and the final array always
    equals `multi_source_bfs(g, seeds)`. `start` is
    "highest_degree", "random" (needs rng_seed), or an explicit vertex id.
    """
    k = _check_k(g, k)
    if start == "highest_degree":
        first, policy = _highest_degree(g), "highest_degree"
    elif start == "random":
        first, policy = int(seeded_rng(rng_seed).integers(g.n)), "random"
    elif isinstance(start, (int, np.integer)) and not isinstance(start, bool):
        first = int(_check_sources(g.n, [start])[0])
        policy = f"vertex:{g.tokens[first]}"
    else:
        raise ArgumentError(f"unsupported start policy {start!r}")
    seeds = [first]
    dist = multi_source_bfs(g, [first])
    for _ in range(k - 1):
        nxt = int(np.argmax(dist))
        seeds.append(nxt)
        relax(g, dist, [nxt])
    return _finish(g, seeds, dist, "kcenter_greedy", rng_seed, policy)


def coverage_sampling(g: Graph, k: int, rng_seed: int) -> SeedSelection:
    """Probabilistic coverage sampling: start at the highest-degree vertex,
    then draw each next seed with probability proportional to its current
    distance to the seed set (unreachable weighted as n). Distances are
    kept as in `kcenter_greedy`."""
    k = _check_k(g, k)
    rng = seeded_rng(rng_seed)
    seeds = [_highest_degree(g)]
    dist = multi_source_bfs(g, seeds)
    for _ in range(k - 1):
        weights = np.minimum(dist, float(g.n))  # finite hops are below n
        total = float(weights.sum())
        if total <= 0.0:
            raise InternalInvariantError("all candidate weights are zero")
        # rng.choice(g.n, p=weights / total)'s own draw, without its O(n) checks of p
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        nxt = int(cdf.searchsorted(rng.random(), side="right"))
        seeds.append(nxt)
        relax(g, dist, [nxt])
    return _finish(g, seeds, dist, "coverage_sampling", rng_seed)


def baseline_select(g: Graph, k: int, method: str,
                    rng_seed: int | None = None) -> SeedSelection:
    """Baselines: uniform random (seeded) or top-k by degree, closeness
    centrality, or PageRank score (ties to the lowest id)."""
    k = _check_k(g, k)
    if method == "random":
        seeds = [int(v) for v in seeded_rng(rng_seed).choice(g.n, size=k, replace=False)]
        return _finish(g, seeds, multi_source_bfs(g, seeds), "random", rng_seed)
    if method == "degree":
        scores = degrees(g).astype(np.float64)
    elif method == "centrality":
        scores = closeness_centrality(g)
    elif method == "pagerank":
        scores = pagerank(g).scores
    else:
        raise ArgumentError(f"unknown baseline method {method!r}")
    order = np.lexsort((np.arange(g.n), -scores))
    seeds = [int(v) for v in order[:k]]
    return _finish(g, seeds, multi_source_bfs(g, seeds), method, rng_seed)


def brute_force_kcenter(g: Graph, k: int) -> SeedSelection:
    """Exhaustive optimum over all C(n,k) seed sets (n <= 20 guard); ties go
    to the lexicographically smallest set."""
    if g.n > BRUTE_FORCE_MAX_N:
        raise SizeGuardError(
            f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got n = {g.n}")
    k = _check_k(g, k)
    table = np.vstack([multi_source_bfs(g, [v]) for v in range(g.n)])
    best = min(itertools.combinations(range(g.n), k),
               key=lambda combo: table[list(combo)].min(axis=0).max())
    return _finish(g, list(best), table[list(best)].min(axis=0), "brute_force", None)
