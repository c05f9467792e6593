"""Built-in self-checks: each check runs the library against an independent
in-module reference route, case by case, and `run_verify` reports pass/fail
with the first counterexample.

A fault can be injected to corrupt the candidate side of one check, proving
the comparison actually bites.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, SizeGuardError
from .graph import Graph, _id_graph, degrees, multi_source_bfs, seeded_rng
from .metrics import estimate_distortion
from .sampling import BRUTE_FORCE_MAX_N, brute_force_kcenter, kcenter_greedy

MAX_GRAPHS = 500
MAX_N = 60
# the greedy check's sparse graph: at 20k vertices and about 60k edges every
# `relax` of a 30-seed traversal stays on its pruned branch
SPARSE_N = 20_000
SPARSE_K = 30


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: dict = field(default_factory=dict)


def _reference_bfs(adj, source):
    """Deque BFS over neighbor lists; inf for unreachable."""
    dist = [np.inf] * len(adj)
    dist[source] = 0.0
    q = deque([source])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] == np.inf:
                dist[v] = dist[u] + 1.0
                q.append(v)
    return np.asarray(dist)


def _random_graph(rng, n, p, connected=False) -> Graph:
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    us, vs = iu[keep], ju[keep]
    if connected:
        perm = rng.permutation(n)
        us, vs = np.concatenate([us, perm[:-1]]), np.concatenate([vs, perm[1:]])
    return _id_graph(n, us, vs)


def _adjacency_lists(g: Graph):
    return [list(map(int, g.neighbors_of(v))) for v in range(g.n)]


def _sparse_connected_graph(rng, n: int) -> Graph:
    """A random recursive tree (vertex i joins a uniform earlier vertex)
    plus 2n uniform random pairs: connected, sparse, low diameter."""
    parent = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    us, vs = rng.integers(0, n, size=(2, 2 * n))
    return _id_graph(n, np.concatenate([np.arange(1, n), us]), np.concatenate([parent, vs]))


def _reference_farthest_first(g: Graph, k: int, sweep) -> list[int]:
    """Farthest-first seeds from the highest-degree vertex, with one
    `sweep(source)` distance array and a minimum per seed; ties go to the
    lowest id."""
    seeds = [int(np.argmax(degrees(g)))]
    dist = sweep(seeds[0])
    for _ in range(k - 1):
        seeds.append(int(np.argmax(dist)))
        dist = np.minimum(dist, sweep(seeds[-1]))
    return seeds


def check_distance(rng, sparse_rng, graphs: int, n_max: int, inject: bool):
    """One-source multi_source_bfs against the in-module deque BFS."""
    for _ in range(graphs):
        n = int(rng.integers(2, n_max + 1))
        g = _random_graph(rng, n, p=float(rng.uniform(0.05, 0.5)))
        adj = _adjacency_lists(g)
        source = int(rng.integers(n))
        got = multi_source_bfs(g, [source])
        if inject:
            got[source] += 1.0
        want = _reference_bfs(adj, source)
        bad = np.flatnonzero(got != want)
        yield {"n": n, "source": source, "vertex": int(bad[0]), "got": float(got[bad[0]]),
               "want": float(want[bad[0]])} if len(bad) else None


def _greedy_cases(rng, sparse_rng, graphs: int, n_max: int):
    """(graph, k, reference sweep) per greedy case: `graphs` small connected
    graphs checked with the deque BFS, one sparse connected graph from
    `sparse_rng` checked with `multi_source_bfs`, then a 2000-vertex path
    checked with the deque BFS."""
    for _ in range(graphs):
        n = int(rng.integers(4, n_max + 1))
        g = _random_graph(rng, n, p=float(rng.uniform(0.1, 0.4)), connected=True)
        adj = _adjacency_lists(g)
        yield g, int(rng.integers(1, 4)), lambda s, adj=adj: _reference_bfs(adj, s)
    g = _sparse_connected_graph(sparse_rng, SPARSE_N)
    yield g, SPARSE_K, lambda s: multi_source_bfs(g, [s])
    path = _id_graph(2000, np.arange(1999), np.arange(1, 2000))
    adj = _adjacency_lists(path)
    yield path, 4, lambda s: _reference_bfs(adj, s)


def check_greedy(rng, sparse_rng, graphs: int, n_max: int, inject: bool):
    """Farthest-first seeds equal to a reference traversal, and their
    objective within 2x the exhaustive optimum where brute force is allowed.

    On the small graphs n + nnz is below one level's charge, so each stays
    in numpy only because a graph's loops are charged the scipy import until
    its first sweep; on the sparse graph every `relax` stays on its pruned
    branch. The last graph, a path, is deeper than that budget, so its first
    BFS falls back to a csgraph sweep, and every later `relax` then does."""
    for g, k, sweep in _greedy_cases(rng, sparse_rng, graphs, min(n_max, 12)):
        sel = kcenter_greedy(g, k)
        want = _reference_farthest_first(g, k, sweep)
        if list(sel.seeds) != want:
            yield {"n": g.n, "k": k, "seeds": list(sel.seeds), "reference_seeds": want}
        elif g.n > BRUTE_FORCE_MAX_N:
            yield None
        else:
            greedy = sel.objective * 3 if inject else sel.objective
            best = brute_force_kcenter(g, k).objective
            yield {"n": g.n, "k": k, "greedy_objective": float(greedy),
                   "optimal_objective": float(best)} if greedy > 2 * best else None


def check_distortion(rng, sparse_rng, graphs: int, n_max: int, inject: bool):
    """(r, alpha) certify the sandwich r*d <= d' <= alpha*r*d on every pair,
    and alpha is invariant under scaling of the embedding side."""
    for _ in range(graphs):
        count = int(rng.integers(1, 40))
        gd = rng.integers(1, 8, size=count).astype(float)
        ed = rng.uniform(0.05, 5.0, size=count) * gd
        est = estimate_distortion(gd, ed)
        r = est.r * 1.5 if inject else est.r
        lo, hi = r * gd, est.alpha * r * gd
        ok = np.all(lo <= ed * (1 + 1e-12)) and np.all(ed <= hi * (1 + 1e-12))
        scaled = estimate_distortion(gd, ed * 3.0)
        ok = ok and abs(scaled.alpha - est.alpha) <= 1e-12 * max(1.0, est.alpha)
        yield None if ok else {"pairs": count, "r": est.r, "alpha": est.alpha}


# name -> check(rng, sparse_rng, graphs, n_max, inject): a generator of None
# or a counterexample dict per case
CHECKS = {"distance": check_distance, "greedy": check_greedy, "distortion": check_distortion}
CHECK_NAMES = tuple(CHECKS)


def run_verify(rng_seed: int, graphs: int = 50, n_max: int = 30,
               inject_fault: str | None = None) -> list[CheckResult]:
    if graphs < 1 or graphs > MAX_GRAPHS:
        raise SizeGuardError(f"graphs must be within 1..{MAX_GRAPHS}, got {graphs}")
    if n_max < 4 or n_max > MAX_N:
        raise SizeGuardError(f"n-max must be within 4..{MAX_N}, got {n_max}")
    if inject_fault is not None and inject_fault not in CHECK_NAMES:
        raise ArgumentError(
            f"inject-fault must be one of {CHECK_NAMES}, got {inject_fault!r}")
    rng = seeded_rng(rng_seed)
    sparse_rng = seeded_rng([rng_seed, 1])
    results = []
    for name, check in CHECKS.items():  # a check stops at its first counterexample
        cases, detail = 0, {}
        for bad in check(rng, sparse_rng, graphs, n_max, name == inject_fault):
            cases += 1
            if bad is not None:
                detail = {"case": cases - 1} | bad
                break
        results.append(CheckResult(name, not detail, cases, detail))
    return results
