from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.sparse import csgraph

import oracles
from conftest import (LEVEL_CHARGES, count_calls, er_graph, id_graph, level_charge, path_graph,
                      tied_graph)
from topoaware import (ArgumentError, BoundsError, EmbeddingTable, EmptyGraphError,
                       SizeGuardError, UNREACHABLE, build_graph, closeness_centrality, degrees,
                       graph, group_distance, kcenter_greedy, lipschitz_labels,
                       multi_source_bfs, pagerank)
from topoaware.graph import CLOSENESS_MAX_N, _id_graph, relax, seeded_rng
from topoaware.ingest import load_graph

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


@pytest.mark.parametrize("seed", [None, -1, 1.5, "7", [3, -2]])
def test_seeded_rng_rejects_what_pcg64_rejects_and_none(seed):
    with pytest.raises(ArgumentError, match="rng seed"):
        seeded_rng(seed)


def test_seeded_rng_is_pcg64():
    want = np.random.Generator(np.random.PCG64([4, 1])).random(3)
    assert np.array_equal(seeded_rng([4, 1]).random(3), want)


token_pairs = st.lists(
    st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")),
    min_size=1, max_size=12).map(lambda ps: [(a, b) for a, b in ps])


# ---------------------------------------------------------------------------
# build_graph


def test_build_drops_duplicates_and_self_loops():
    g = build_graph([("a", "b"), ("b", "a"), ("a", "a")])
    assert (g.n, g.m) == (2, 1)


def test_build_first_seen_id_order():
    g = build_graph([("a", "b"), ("b", "c")])
    assert g.token_index == {"a": 0, "b": 1, "c": 2}
    assert (g.n, g.m) == (3, 2)


def test_build_self_loop_only_token_still_registered():
    g = build_graph([("a", "b"), ("c", "c")])
    assert g.n == 3 and g.m == 1
    assert degrees(g)[g.token_index["c"]] == 0


def test_build_empty_input_is_an_error():
    with pytest.raises(EmptyGraphError):
        build_graph([])


def test_build_rejects_bad_tokens():
    with pytest.raises(ArgumentError):
        build_graph([("a", "")])
    with pytest.raises(ArgumentError):
        build_graph([("a", 3)])
    with pytest.raises(ArgumentError, match=r"^edge 2 is not a token pair: \('a', 'b', 'c'\)$"):
        build_graph([("a", "b"), ("a", "b", "c")])
    with pytest.raises(ArgumentError, match="^edge 1 is not a token pair: 3$"):
        build_graph([3])


@given(token_pairs)
def test_build_matches_set_based_reference(pairs):
    g = build_graph(pairs)
    tokens, edges = oracles.set_based_graph(pairs)
    assert list(g.tokens) == tokens
    assert g.m == len(edges)
    got = {frozenset(e) for e in g.edge_token_pairs()}
    assert got == edges
    for v in range(g.n):
        nb = g.neighbors_of(v)
        assert list(nb) == sorted(nb)


@st.composite
def pair_list_and_variant(draw):
    """A pair list (self-loops make isolated vertices) and a copy in another
    order with swapped endpoints, then changed by at most one edge or token."""
    pairs = draw(st.lists(st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef")),
                          min_size=1, max_size=15))
    other = [(b, a) if draw(st.booleans()) else (a, b)
             for a, b in draw(st.permutations(pairs))]
    change = draw(st.sampled_from(["none", "add_edge", "drop_edge", "add_token"]))
    if change == "add_edge":
        a, b = draw(st.lists(st.sampled_from("abcdefg"), min_size=2, max_size=2,
                             unique=True))
        other.append((a, b))
    elif change == "drop_edge" and any(a != b for a, b in other):
        e = draw(st.sampled_from([frozenset(p) for p in other if p[0] != p[1]]))
        other = [p for p in other if frozenset(p) != e] or [("a", "a")]
    elif change == "add_token":
        other.append(("z", "z"))
    return pairs, other, change


@given(pair_list_and_variant())
def test_graph_eq_matches_set_oracle(case):
    pairs, other, change = case
    g1, g2 = build_graph(pairs), build_graph(other)
    want = oracles.graphs_equal(g1, g2)
    assert (g1 == g2) is want and (g2 == g1) is want
    assert g1.__eq__(pairs) is NotImplemented and g1 != pairs
    if change == "none":
        assert want
    if change == "add_token":
        assert not want


def test_graph_is_immutable():
    g = build_graph([("a", "b")])
    with pytest.raises(Exception):
        g.n = 5
    for arr in (g.indptr, g.indices, g.csr.indptr, g.csr.indices, g.csr.data):
        with pytest.raises(ValueError):
            arr[0] = 9


@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=25))))
@example((1, []))
@example((1, [(0, 0)]))
@example((5, [(0, 1), (1, 0), (2, 2), (0, 1), (3, 1)]))
def test_id_graph_matches_build_graph_of_token_pairs(case):
    n, pairs = case
    got = _id_graph(n, [a for a, _ in pairs], [b for _, b in pairs])
    want = id_graph(n, pairs)
    assert got.tokens == want.tokens and got.token_index == want.token_index
    # scipy's COO -> CSR gives the same arrays, index dtype included
    indptr, indices, data = oracles.coo_to_csr(n, [a for a, _ in pairs], [b for _, b in pairs])
    for arrays, oracle in (((got.indptr, want.indptr, got.csr.indptr), indptr),
                           ((got.indices, want.indices, got.csr.indices), indices),
                           ((got.csr.data,), data)):
        for a in arrays:
            assert a.dtype == oracle.dtype and np.array_equal(a, oracle)
            assert not a.flags.writeable


# ---------------------------------------------------------------------------
# bfs / multi-source


def test_bfs_path():
    assert list(multi_source_bfs(path_graph(4), [0])) == [0, 1, 2, 3]


def test_bfs_disconnected():
    g = build_graph([("0", "1"), ("2", "3")])
    d = multi_source_bfs(g, [0])
    assert list(d[:2]) == [0, 1]
    assert d[2] == UNREACHABLE and d[3] == UNREACHABLE


def test_bfs_bounds_error():
    with pytest.raises(BoundsError):
        multi_source_bfs(path_graph(3), [3])
    with pytest.raises(BoundsError):
        multi_source_bfs(path_graph(3), [-1])


def test_bfs_matches_floyd_warshall_rows():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 31))
        g, edges = er_graph(rng, n, 0.15)
        fw = oracles.floyd_warshall(n, edges)
        s = int(rng.integers(n))
        assert np.array_equal(multi_source_bfs(g, [s]), fw[s])


def test_msbfs_all_sources_zero():
    g = path_graph(6)
    assert np.array_equal(multi_source_bfs(g, range(6)), np.zeros(6))


def test_msbfs_path_two_ends():
    assert list(multi_source_bfs(path_graph(5), {0, 4})) == [0, 1, 2, 1, 0]


def test_msbfs_empty_sources():
    with pytest.raises(ArgumentError):
        multi_source_bfs(path_graph(3), [])


_ID_DOORS = {
    "multi_source_bfs": lambda g, ids: multi_source_bfs(g, ids),
    "relax": lambda g, ids: relax(g, multi_source_bfs(g, [0]), ids),
    "group_distance": lambda g, ids: group_distance(g, ids, [0]),
    "lipschitz_labels": lambda g, ids: lipschitz_labels(
        EmbeddingTable(np.arange(g.n, dtype=float).reshape(-1, 1)), ids),
    "kcenter_greedy": lambda g, ids: kcenter_greedy(g, 2, start=ids[0]),
}


_ID_CASES = [*[(name, []) for name in ("multi_source_bfs", "group_distance", "lipschitz_labels")],
             *[(name, [5]) for name in _ID_DOORS]]


@pytest.mark.parametrize("name, ids", _ID_CASES,
                         ids=[f"{name}-{'n' if ids else 'empty'}" for name, ids in _ID_CASES])
def test_id_door_checks_every_id_set(name, ids):
    # an empty set and an id of n raise _check_sources's errors, whoever takes them
    want, message = ((ArgumentError, "source set is empty") if not ids
                     else (BoundsError, "source out of range 0..4"))
    with pytest.raises(ArgumentError) as exc:
        _ID_DOORS[name](path_graph(5), ids)
    assert (type(exc.value), str(exc.value)) == (want, message)


@given(st.data())
def test_msbfs_is_elementwise_min_of_bfs(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 41))
    g, _ = er_graph(rng, n, 0.1)
    k = int(rng.integers(1, min(n, 6)))
    sources = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
    expect = np.min([multi_source_bfs(g, [s]) for s in sources], axis=0)
    assert np.array_equal(multi_source_bfs(g, sources), expect)


def _counting_bfs(monkeypatch):
    """Lists that grow by one per frontier loop and per csgraph sweep."""
    return count_calls(monkeypatch, graph, "_lower"), count_calls(monkeypatch, csgraph, "dijkstra")


@pytest.mark.parametrize("charge", LEVEL_CHARGES)
@given(st.integers(0, 2**32 - 1))
def test_msbfs_matches_csgraph_sweep(charge, seed):
    # components of tied distances, isolated vertices, repeated sources
    rng = np.random.default_rng(seed)
    g = tied_graph(rng)
    sources = [int(v) for v in rng.integers(g.n, size=int(rng.integers(1, 9)))]
    with pytest.MonkeyPatch.context() as mp, level_charge(charge):
        loops, sweeps = _counting_bfs(mp)
        got = multi_source_bfs(g, sources)
    want = oracles.sweep_hops(g, sources)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (len(loops), len(sweeps)) == (1, 0 if charge == "pruned" else 1)


@pytest.mark.parametrize("charge", LEVEL_CHARGES)
@given(st.integers(0, 2**32 - 1))
def test_relax_chain_matches_multi_source_bfs(charge, seed):
    rng = np.random.default_rng(seed)
    g = tied_graph(rng)
    seeds = [int(v) for v in rng.integers(g.n, size=int(rng.integers(1, 9)))]
    dist = multi_source_bfs(g, seeds[:1])
    with pytest.MonkeyPatch.context() as mp, level_charge(charge):
        loops, sweeps = _counting_bfs(mp)
        for s in seeds[1:]:
            relax(g, dist, [s])
    assert np.array_equal(dist, multi_source_bfs(g, seeds))
    # one frontier loop per source not already in the set, each falling
    # back to one sweep or none of them
    fresh = sum(s not in seeds[:i] for i, s in enumerate(seeds) if i)
    assert (len(loops), len(sweeps)) == (fresh, 0 if charge == "pruned" else fresh)


def test_import_charge_lasts_until_the_graphs_first_sweep():
    # csgraph is imported in this process, yet a fresh graph's loop keeps the
    # import charge, as in a fresh CLI process, until that graph sweeps once
    g = load_graph((GOLDEN / "graph.txt").read_text(encoding="utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        loops, sweeps = _counting_bfs(mp)
        want = multi_source_bfs(g, [0])
        assert (len(loops), len(sweeps)) == (1, 0)
        graph._sweep(g, [1])
        loops.clear()
        sweeps.clear()
        assert np.array_equal(multi_source_bfs(g, [0]), want)
        assert (len(loops), len(sweeps)) == (1, 1)


def test_relax_path_from_the_middle():
    g = path_graph(7)
    dist = multi_source_bfs(g, [0])
    relax(g, dist, [4])
    assert list(dist) == [0, 1, 2, 1, 0, 1, 2]


def test_relax_reaches_a_new_component_and_checks_bounds():
    g = build_graph([("0", "1"), ("2", "3"), ("4", "4")])
    dist = multi_source_bfs(g, [0])
    relax(g, dist, [3])
    relax(g, dist, [4])
    assert list(dist) == [0, 1, 1, 0, 0]
    with pytest.raises(BoundsError):
        relax(g, dist, [5])


# ---------------------------------------------------------------------------
# degrees


def test_degrees_star_and_isolated():
    star = build_graph([("c", f"l{i}") for i in range(4)])
    d = degrees(star)
    assert d[star.token_index["c"]] == 4
    assert all(d[star.token_index[f"l{i}"]] == 1 for i in range(4))
    empty = build_graph([("a", "a"), ("b", "b"), ("c", "c")])
    assert list(degrees(empty)) == [0, 0, 0]


@given(token_pairs)
def test_degree_sum_is_twice_edge_count(pairs):
    g = build_graph(pairs)
    assert int(degrees(g).sum()) == 2 * g.m


# ---------------------------------------------------------------------------
# pagerank


def test_pagerank_cycle_uniform():
    g = id_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    res = pagerank(g)
    assert res.converged
    assert np.allclose(res.scores, 0.25, atol=1e-10)


def test_pagerank_star_matches_dense_oracle():
    star = build_graph([("c", f"l{i}") for i in range(3)])
    edges = [(0, i + 1) for i in range(3)]
    want = oracles.dense_pagerank(4, edges, 0.85, 1e-12, 500)
    got = pagerank(star, tol=1e-12, max_iter=500).scores
    assert np.max(np.abs(got - want)) < 1e-8


def test_pagerank_sums_to_one_with_isolated_vertices():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        g, _ = er_graph(rng, n, 0.08)
        res = pagerank(g)
        assert abs(res.scores.sum() - 1.0) < 1e-9


def test_pagerank_relabel_invariance():
    rng = np.random.default_rng(11)
    n = 20
    g, edges = er_graph(rng, n, 0.15)
    perm = [int(x) for x in rng.permutation(n)]
    g2 = id_graph(n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
    s1 = pagerank(g, tol=1e-13, max_iter=500).scores
    s2 = pagerank(g2, tol=1e-13, max_iter=500).scores
    assert np.max(np.abs(s2[perm] - s1)) < 1e-8


def test_pagerank_nonconvergence_flagged():
    g = build_graph([("c", f"l{i}") for i in range(5)])
    res = pagerank(g, tol=1e-15, max_iter=2)
    assert not res.converged and res.iterations == 2
    assert abs(res.scores.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("dangling", [False, True])
@pytest.mark.parametrize("damping, tol, max_iter", [(0.85, 1e-10, 200), (0.5, 1e-13, 500),
                                                    (0.85, 1e-15, 3)])
def test_pagerank_matches_the_sparse_loop_bit_for_bit(dangling, damping, tol, max_iter):
    # connected graphs have no dangling vertex; three isolated ones added
    rng = np.random.default_rng(5)
    for n in (2, 17, 300):
        g, edges = er_graph(rng, n, 0.05, connected=True)
        if dangling:
            g = id_graph(n + 3, edges)
        assert (degrees(g) == 0).any() == dangling
        got = pagerank(g, damping=damping, tol=tol, max_iter=max_iter)
        scores, converged, iterations = oracles.sparse_pagerank(g.csr, damping, tol, max_iter)
        assert got.scores.tobytes() == scores.tobytes()
        assert (got.converged, got.iterations) == (converged, iterations)
    assert converged == (max_iter > 3)


def test_pagerank_rejects_bad_parameters():
    g = path_graph(3)
    for kwargs in ({"damping": 0.0}, {"damping": 1.0}, {"tol": 0.0}, {"max_iter": 0}):
        with pytest.raises(ArgumentError):
            pagerank(g, **kwargs)


# ---------------------------------------------------------------------------
# closeness


def test_closeness_path_center_highest():
    c = closeness_centrality(path_graph(3))
    assert c[1] > c[0] and c[1] > c[2]


def test_closeness_single_vertex():
    g = build_graph([("a", "a")])
    assert list(closeness_centrality(g)) == [0.0]


def test_closeness_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 21))
        g, edges = er_graph(rng, n, 0.2)
        fw = oracles.floyd_warshall(n, edges)
        want = oracles.closeness_from_allpairs(fw)
        assert np.allclose(closeness_centrality(g), want, atol=1e-12)


def test_closeness_size_guard_fires_before_any_sweep(monkeypatch):
    g = path_graph(CLOSENESS_MAX_N + 1)
    loops, sweeps = _counting_bfs(monkeypatch)
    with pytest.raises(SizeGuardError, match="10001 vertices"):
        closeness_centrality(g)
    assert loops == sweeps == []


# ---------------------------------------------------------------------------
# metric axioms on hop distance


def test_hop_distance_metric_axioms_small():
    rng = np.random.default_rng(13)
    for _ in range(5):
        n = int(rng.integers(3, 16))
        g, _ = er_graph(rng, n, 0.3, connected=True)
        D = np.vstack([multi_source_bfs(g, [s]) for s in range(n)])
        assert np.all(D >= 0)                       # M1
        assert np.all(np.diag(D) == 0)              # M2
        off = ~np.eye(n, dtype=bool)
        assert np.all(D[off] > 0)                   # M3
        assert np.array_equal(D, D.T)               # M4
        for k in range(n):                          # M5
            assert np.all(D <= D[:, [k]] + D[[k], :])


def test_unreachable_is_maximal():
    assert UNREACHABLE > 10**18
    assert UNREACHABLE + 1 == UNREACHABLE
    assert max(3.0, UNREACHABLE) == UNREACHABLE
