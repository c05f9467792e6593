from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csgraph

import oracles
from conftest import (LEVEL_CHARGES, er_graph, grid_graph, id_graph, level_charge, path_graph,
                      tied_graph)
from topoaware import (UNREACHABLE, ArgumentError, SizeGuardError, baseline_select,
                       brute_force_kcenter, coverage_sampling, kcenter_greedy,
                       kcenter_objective, multi_source_bfs)


def star_graph(leaves):
    return build_star(leaves)


def build_star(leaves):
    return id_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# ---------------------------------------------------------------------------
# objective


def test_objective_star_center():
    assert kcenter_objective(multi_source_bfs(star_graph(5), {0})) == 1


def test_objective_path_two_seeds():
    assert kcenter_objective(multi_source_bfs(path_graph(5), {1, 3})) == 1


def test_objective_rejects_full_vertex_set():
    g = path_graph(3)
    with pytest.raises(ArgumentError):
        kcenter_objective(multi_source_bfs(g, {0, 1, 2}))


def test_objective_unreachable():
    g = id_graph(4, [(0, 1), (2, 3)])
    assert kcenter_objective(multi_source_bfs(g, {0})) == UNREACHABLE


@given(st.integers(0, 2**32 - 1))
def test_objective_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    g, edges = er_graph(rng, n, 0.2)
    k = int(rng.integers(1, n))
    seeds = {int(v) for v in rng.choice(n, size=k, replace=False)}
    fw = oracles.floyd_warshall(n, edges)
    want = oracles.kcenter_objective(fw, seeds)
    got = kcenter_objective(multi_source_bfs(g, seeds))
    if want is None:
        assert got == UNREACHABLE
    else:
        assert got == want


# ---------------------------------------------------------------------------
# greedy


def test_greedy_path_k2():
    sel = kcenter_greedy(path_graph(5), 2)
    assert sel.seeds == (1, 4)
    assert sel.objective == 1
    assert sel.method == "kcenter_greedy"
    assert sel.start_policy == "highest_degree"


def test_greedy_star_k1():
    sel = kcenter_greedy(star_graph(6), 1)
    assert sel.seeds == (0,) and sel.objective == 1


def test_greedy_k_equals_n_flag():
    g = path_graph(4)
    sel = kcenter_greedy(g, 4)
    assert sorted(sel.seeds) == [0, 1, 2, 3]
    assert sel.objective == 0 and sel.full_cover


def test_greedy_k_out_of_range():
    g = path_graph(4)
    with pytest.raises(ArgumentError):
        kcenter_greedy(g, 0)
    with pytest.raises(ArgumentError):
        kcenter_greedy(g, 5)


def test_greedy_explicit_start_vertex():
    sel = kcenter_greedy(path_graph(5), 2, start=0)
    assert sel.seeds[0] == 0 and sel.seeds == (0, 4)
    assert sel.start_policy == "vertex:v0"


def test_greedy_random_start_needs_seed():
    with pytest.raises(ArgumentError):
        kcenter_greedy(path_graph(5), 2, start="random")
    for start in ("middle", True, 1.0):
        with pytest.raises(ArgumentError, match=f"^unsupported start policy {start!r}$"):
            kcenter_greedy(path_graph(5), 2, start=start)


def test_greedy_random_start_reproducible():
    g = path_graph(9)
    a = kcenter_greedy(g, 3, start="random", rng_seed=7)
    b = kcenter_greedy(g, 3, start="random", rng_seed=7)
    assert a.seeds == b.seeds and a.rng_seed == 7
    assert a.start_policy == "random"


def test_greedy_objective_is_recomputed():
    g = path_graph(7)
    sel = kcenter_greedy(g, 2)
    assert sel.objective == kcenter_objective(multi_source_bfs(g, sel.seeds))


@given(st.integers(0, 2**32 - 1))
def test_greedy_pick_distances_non_increasing(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    g, _ = er_graph(rng, n, 0.15, connected=True)
    k = int(rng.integers(2, min(n, 7)))
    sel = kcenter_greedy(g, k)
    gaps = []
    for i in range(1, len(sel.seeds)):
        d = multi_source_bfs(g, sel.seeds[:i])
        gaps.append(d[sel.seeds[i]])
    assert all(gaps[i] >= gaps[i + 1] for i in range(len(gaps) - 1))


@given(st.integers(0, 2**32 - 1))
def test_greedy_covers_every_component(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 30))
    g, _ = er_graph(rng, n, 0.05)
    c, labels = csgraph.connected_components(g.csr, directed=False)
    if c >= n:
        return
    k = int(rng.integers(c, n))
    sel = kcenter_greedy(g, k)
    assert {int(labels[s]) for s in sel.seeds} == set(range(c))
    assert sel.objective != UNREACHABLE


def test_greedy_tie_breaks_to_lowest_id():
    g = id_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    sel = kcenter_greedy(g, 1)
    assert sel.seeds == (0,)


@pytest.mark.parametrize("charge", LEVEL_CHARGES)
@given(st.integers(0, 2**32 - 1))
def test_greedy_matches_full_sweep_oracle(charge, seed):
    rng = np.random.default_rng(seed)
    g = tied_graph(rng)
    k = int(rng.integers(1, g.n + 1))
    with level_charge(charge):
        for start in ("highest_degree", "random", int(rng.integers(g.n))):
            sel = kcenter_greedy(g, k, start=start, rng_seed=seed)
            want = oracles.kcenter_greedy_sweeps(g, k, start, seed)
            assert (list(sel.seeds), sel.objective) == want


def _best_of_three(fn):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.parametrize("shape", ["path", "grid"])
def test_greedy_high_diameter_within_three_full_sweep_loops(shape):
    # a pruned frontier runs one numpy step per BFS level, so without the
    # full-sweep fallback a 20k-vertex path costs about 10x the sweep loop
    g = path_graph(20_000) if shape == "path" else grid_graph(100, 100)
    t_sweeps, want = _best_of_three(lambda: oracles.kcenter_greedy_sweeps(g, 200))
    t_relax, sel = _best_of_three(lambda: kcenter_greedy(g, 200))
    assert (list(sel.seeds), sel.objective) == want
    assert t_relax <= 3 * t_sweeps, f"{t_relax:.3f}s vs full sweeps {t_sweeps:.3f}s"


# ---------------------------------------------------------------------------
# brute force


def test_brute_path_k1():
    sel = brute_force_kcenter(path_graph(5), 1)
    assert sel.seeds == (2,) and sel.objective == 2
    assert sel.method == "brute_force"


def test_brute_k_n_minus_one():
    sel = brute_force_kcenter(path_graph(4), 3)
    assert sel.objective == 1


def test_brute_size_guard():
    with pytest.raises(SizeGuardError):
        brute_force_kcenter(path_graph(21), 2)


def test_brute_full_cover():
    sel = brute_force_kcenter(path_graph(4), 4)
    assert sel.objective == 0 and sel.full_cover


def test_brute_lexicographic_ties():
    g = id_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    sel = brute_force_kcenter(g, 1)
    assert sel.seeds == (0,)


def test_brute_every_set_leaves_a_vertex_unreachable():
    g = id_graph(5, [(0, 1), (2, 3)])
    sel = brute_force_kcenter(g, 2)
    assert sel.seeds == (0, 1) and sel.objective == UNREACHABLE


@given(st.integers(0, 2**32 - 1))
def test_brute_matches_combinatorial_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    g, edges = er_graph(rng, n, 0.3, connected=True)
    k = int(rng.integers(1, min(n, 4)))
    fw = oracles.floyd_warshall(n, edges)
    want_seeds, want_obj = oracles.brute_kcenter(fw, k)
    sel = brute_force_kcenter(g, k)
    assert sel.seeds == want_seeds
    assert sel.objective == want_obj


@given(st.integers(0, 2**32 - 1))
def test_greedy_within_twice_optimum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    g, _ = er_graph(rng, n, 0.3, connected=True)
    k = int(rng.integers(1, 4))
    if k >= n:
        return
    greedy = kcenter_greedy(g, k)
    best = brute_force_kcenter(g, k)
    assert greedy.objective <= 2 * best.objective


# ---------------------------------------------------------------------------
# coverage sampling


def test_coverage_first_seed_deterministic():
    sel = coverage_sampling(star_graph(4), 1, rng_seed=123)
    assert sel.seeds == (0,)
    assert sel.method == "coverage_sampling"


def test_coverage_path_second_pick_split():
    # path 0-1-2 with first pick forced to the max-degree centre 1: the two
    # remaining vertices are equidistant, so each should win about half the
    # time.
    g = path_graph(3)
    wins = sum(coverage_sampling(g, 2, rng_seed=s).seeds[1] == 0
               for s in range(10000))
    assert 0.48 <= wins / 10000 <= 0.52


def test_coverage_reproducible():
    g = path_graph(30)
    a = coverage_sampling(g, 5, rng_seed=9)
    b = coverage_sampling(g, 5, rng_seed=9)
    assert a.seeds == b.seeds and a.rng_seed == 9


def test_coverage_k_equals_n():
    g = path_graph(5)
    sel = coverage_sampling(g, 5, rng_seed=1)
    assert sorted(sel.seeds) == [0, 1, 2, 3, 4]
    assert sel.objective == 0 and sel.full_cover


@given(st.integers(0, 2**32 - 1))
def test_coverage_seeds_distinct_and_objective_consistent(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 25))
    g, _ = er_graph(rng, n, 0.2, connected=True)
    k = int(rng.integers(1, n))
    sel = coverage_sampling(g, k, rng_seed=seed)
    assert len(set(sel.seeds)) == k
    assert sel.objective == kcenter_objective(multi_source_bfs(g, sel.seeds))


@pytest.mark.parametrize("charge", LEVEL_CHARGES)
@given(st.integers(0, 2**32 - 1))
def test_coverage_matches_full_sweep_oracle(charge, seed):
    rng = np.random.default_rng(seed)
    g = tied_graph(rng)
    k = int(rng.integers(1, g.n + 1))
    with level_charge(charge):
        sel = coverage_sampling(g, k, rng_seed=seed)
    assert (list(sel.seeds), sel.objective) == oracles.coverage_sampling_sweeps(g, k, seed)


# ---------------------------------------------------------------------------
# baselines


def test_baseline_degree_star():
    sel = baseline_select(star_graph(5), 1, "degree")
    assert sel.seeds == (0,) and sel.method == "degree"


def test_baseline_degree_tie_order_by_id():
    g = id_graph(4, [(0, 1), (2, 3)])
    sel = baseline_select(g, 2, "degree")
    assert sel.seeds == (0, 1)


def test_baseline_random_reproducible_and_needs_seed():
    g = path_graph(10)
    a = baseline_select(g, 3, "random", rng_seed=4)
    b = baseline_select(g, 3, "random", rng_seed=4)
    assert a.seeds == b.seeds
    with pytest.raises(ArgumentError):
        baseline_select(g, 3, "random")


def test_baseline_pagerank_cycle_prefix():
    g = id_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    sel = baseline_select(g, 2, "pagerank")
    assert sel.seeds == (0, 1)


def test_baseline_centrality_path_centre_first():
    sel = baseline_select(path_graph(5), 1, "centrality")
    assert sel.seeds == (2,)


def test_baseline_unknown_method():
    with pytest.raises(ArgumentError):
        baseline_select(path_graph(4), 1, "magic")


@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["degree", "centrality", "pagerank"]))
def test_baseline_score_order_matches_oracle(seed, method):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    g, edges = er_graph(rng, n, 0.25)
    k = int(rng.integers(1, n + 1))
    sel = baseline_select(g, k, method)
    if method == "degree":
        scores = np.zeros(n)
        for u, v in edges:
            scores[u] += 1
            scores[v] += 1
    elif method == "centrality":
        scores = oracles.closeness_from_allpairs(oracles.floyd_warshall(n, edges))
    else:
        scores = oracles.dense_pagerank(n, edges, 0.85, 1e-10, 200)
    order = sorted(range(n), key=lambda v: (-round(scores[v], 9), v))[:k]
    got_scores = sorted((round(scores[v], 9) for v in sel.seeds), reverse=True)
    want_scores = sorted((round(scores[v], 9) for v in order), reverse=True)
    assert got_scores == want_scores


# ---------------------------------------------------------------------------
# cross-method invariant


@given(st.integers(0, 2**32 - 1))
def test_greedy_objective_never_worse_than_one_fewer_seed(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 25))
    g, _ = er_graph(rng, n, 0.2, connected=True)
    k = int(rng.integers(2, min(n, 6)))
    a = kcenter_greedy(g, k - 1)
    b = kcenter_greedy(g, k)
    assert b.objective <= a.objective
