from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csgraph

import oracles
from conftest import er_graph, id_graph, path_graph
from topoaware import (ArgumentError, CoverageError, EmbeddingTable,
                       SizeGuardError, lipschitz_labels,
                       one_hot_features, propagate, synthetic_sbm)
from topoaware.embed import ONE_HOT_MAX_N


# ---------------------------------------------------------------------------
# features


def test_one_hot_is_identity():
    g = path_graph(4)
    X = one_hot_features(g)
    assert X.dim == 4
    assert np.array_equal(X.vectors, np.eye(4))


def test_feature_matrix_rejects_non_finite():
    with pytest.raises(CoverageError):
        propagate(path_graph(2), EmbeddingTable(np.array([[1.0], [np.nan]])), layers=1)


def test_one_hot_size_guard_fires_before_allocating():
    g = path_graph(ONE_HOT_MAX_N + 1)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="5001 vertices.*--features"):
            one_hot_features(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# propagate


def test_propagate_isolated_vertex_keeps_features():
    g = id_graph(3, [(0, 1)])
    X = EmbeddingTable(np.array([[1.0], [3.0], [7.0]]))
    emb = propagate(g, X, layers=1)
    assert emb.vectors[2, 0] == pytest.approx(7.0)
    assert emb.vectors[0, 0] == pytest.approx(2.0)
    assert emb.vectors[1, 0] == pytest.approx(2.0)


def test_propagate_path3_one_layer():
    g = path_graph(3)
    X = EmbeddingTable(np.array([[0.0], [1.0], [2.0]]))
    emb = propagate(g, X, layers=1)
    assert emb.vectors[:, 0] == pytest.approx([0.5, 1.0, 1.5])


def test_propagate_row_count_mismatch():
    g = path_graph(3)
    with pytest.raises(ArgumentError):
        propagate(g, EmbeddingTable(np.zeros((2, 1))), layers=1)
    with pytest.raises(ArgumentError):
        propagate(g, one_hot_features(g), layers=0)


def test_propagate_overflow_is_argument_error():
    X = EmbeddingTable(np.array([[1e308], [-1e308], [1e308], [-1e308], [1e308]]))
    with pytest.raises(ArgumentError, match="overflow float64"):
        propagate(path_graph(5), X, layers=3)


def test_propagate_constant_features_are_fixed_point():
    rng = np.random.default_rng(2)
    g, _ = er_graph(rng, 15, 0.3)
    X = EmbeddingTable(np.tile([2.0, -1.0], (15, 1)))
    emb = propagate(g, X, layers=4)
    assert np.allclose(emb.vectors, X.vectors)


def test_propagate_respects_graph_automorphism():
    # path 0-1-2 is symmetric under swapping the endpoints
    g = path_graph(3)
    X = EmbeddingTable(np.array([[5.0], [1.0], [5.0]]))
    emb = propagate(g, X, layers=3)
    assert emb.vectors[0, 0] == pytest.approx(emb.vectors[2, 0])


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_propagate_matches_dense_oracle(seed, layers):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    g, edges = er_graph(rng, n, 0.25)
    X = rng.normal(size=(n, 3))
    want = oracles.dense_propagate(n, edges, X, layers)
    got = propagate(g, EmbeddingTable(X), layers).vectors
    assert np.max(np.abs(got - want)) < 1e-10


@given(st.integers(0, 2**32 - 1))
def test_propagate_output_stays_in_feature_hull(seed):
    # each output coordinate is a convex combination of input coordinates
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    g, _ = er_graph(rng, n, 0.3)
    X = rng.normal(size=(n, 1))
    got = propagate(g, EmbeddingTable(X), layers=3).vectors
    assert np.all(got >= X.min() - 1e-12)
    assert np.all(got <= X.max() + 1e-12)


# ---------------------------------------------------------------------------
# synthetic graphs


def test_sbm_disjoint_cliques():
    ds = synthetic_sbm([3, 4], p_in=1.0, p_out=0.0, rng_seed=0)
    g = ds.graph
    assert (g.n, g.m) == (7, 3 + 6)
    assert list(ds.labels) == [0, 0, 0, 1, 1, 1, 1]
    _, components = csgraph.connected_components(g.csr, directed=False)
    assert np.array_equal(components, ds.labels)


def test_sbm_single_block_is_complete():
    ds = synthetic_sbm([10], p_in=1.0, p_out=0.0, rng_seed=5)
    assert ds.graph.m == 45
    assert ds.block_count == 1


@pytest.mark.parametrize("sizes", [[1], [1, 1, 1]])
def test_sbm_without_edges_builds(sizes):
    # blocks of one vertex have no inside pairs, and p_out = 0 draws no other
    g = synthetic_sbm(sizes, p_in=1.0, p_out=0.0, rng_seed=0).graph
    assert (g.n, g.m) == (len(sizes), 0)
    assert list(g.tokens) == [f"v{i}" for i in range(len(sizes))]


def test_sbm_rejects_bad_probabilities():
    with pytest.raises(ArgumentError):
        synthetic_sbm([5, 5], p_in=1.0, p_out=1.0, rng_seed=0)
    with pytest.raises(ArgumentError):
        synthetic_sbm([5, 5], p_in=0.2, p_out=0.5, rng_seed=0)
    with pytest.raises(ArgumentError):
        synthetic_sbm([], p_in=0.5, p_out=0.1, rng_seed=0)
    with pytest.raises(ArgumentError):
        synthetic_sbm([0, 3], p_in=0.5, p_out=0.1, rng_seed=0)


@given(st.lists(st.integers(1, 12), min_size=1, max_size=4),
       st.floats(0.0, 0.49), st.floats(0.5, 1.0), st.integers(0, 2**32 - 1))
def test_sbm_matches_one_draw_over_all_pairs(sizes, p_out, p_in, seed):
    ds = synthetic_sbm(sizes, p_in, p_out, rng_seed=seed)
    got = [(int(a[1:]), int(b[1:])) for a, b in ds.graph.edge_token_pairs()]
    assert got == oracles.sbm_edges_one_draw(sizes, p_in, p_out, seed)


def test_sbm_memory_is_linear():
    # the one-draw form holds all 18M pairs of 3 x 2000 vertices (566 MiB)
    tracemalloc.start()
    try:
        ds = synthetic_sbm([2000] * 3, 0.01, 0.0005, rng_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.graph.n == 6000
    assert peak < 64 << 20


def test_sbm_token_order_and_determinism():
    a = synthetic_sbm([4, 4], p_in=0.9, p_out=0.2, rng_seed=11)
    b = synthetic_sbm([4, 4], p_in=0.9, p_out=0.2, rng_seed=11)
    assert list(a.graph.tokens) == [f"v{i}" for i in range(8)]
    assert a.graph == b.graph
    c = synthetic_sbm([4, 4], p_in=0.9, p_out=0.2, rng_seed=12)
    assert a.generator_params != c.generator_params


def test_sbm_edge_count_near_expectation():
    # [50, 50] with p_in=.3, p_out=.01: mean 760.5, std ~23; 4 sigma window
    counts = [synthetic_sbm([50, 50], 0.3, 0.01, rng_seed=s).graph.m
              for s in range(20)]
    mean = sum(counts) / len(counts)
    expected = 2 * (50 * 49 / 2) * 0.3 + 50 * 50 * 0.01
    assert abs(mean - expected) < 4 * 23 / (len(counts) ** 0.5)


def test_sbm_blocks_denser_inside_than_across():
    wins = 0
    for s in range(50):
        ds = synthetic_sbm([30, 30], 0.3, 0.02, rng_seed=s)
        labels = ds.labels
        intra = inter = 0
        for u, v in ds.graph.edge_token_pairs():
            ui, vi = ds.graph.token_index[u], ds.graph.token_index[v]
            if labels[ui] == labels[vi]:
                intra += 1
            else:
                inter += 1
        wins += intra > inter
    assert wins >= 48


# ---------------------------------------------------------------------------
# synthetic labels


def test_lipschitz_anchor_targets_are_zero():
    emb = EmbeddingTable(np.arange(5, dtype=float).reshape(-1, 1))
    y = lipschitz_labels(emb, {0, 4})
    assert y[0] == 0.0 and y[4] == 0.0
    assert y.tolist() == [0.0, 1.0, 2.0, 1.0, 0.0]


def test_lipschitz_line_single_anchor():
    emb = EmbeddingTable(np.arange(3, dtype=float).reshape(-1, 1))
    assert lipschitz_labels(emb, {0}).tolist() == [0.0, 1.0, 2.0]


@given(st.integers(0, 2**32 - 1))
def test_lipschitz_targets_are_one_lipschitz(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 20))
    emb = EmbeddingTable(rng.normal(size=(n, 3)))
    anchors = {int(a) for a in rng.choice(n, size=int(rng.integers(1, 4)),
                                          replace=False)}
    y = lipschitz_labels(emb, anchors)
    for u in range(n):
        for v in range(n):
            gap = np.linalg.norm(emb.vectors[u] - emb.vectors[v])
            assert abs(y[u] - y[v]) <= gap + 1e-9


def test_lipschitz_noise_reproducible_and_guarded():
    emb = EmbeddingTable(np.arange(6, dtype=float).reshape(-1, 1))
    a = lipschitz_labels(emb, {0}, noise=0.5, rng_seed=3)
    b = lipschitz_labels(emb, {0}, noise=0.5, rng_seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, lipschitz_labels(emb, {0}))
    with pytest.raises(ArgumentError):
        lipschitz_labels(emb, {0}, noise=0.5)
    with pytest.raises(ArgumentError):
        lipschitz_labels(emb, {0}, noise=-1.0, rng_seed=3)
    with pytest.raises(ArgumentError):
        lipschitz_labels(emb, set())


def test_lipschitz_requires_full_coverage():
    vec = np.full((3, 1), np.nan)
    vec[:2, 0] = [0.0, 1.0]
    emb = EmbeddingTable(vec)
    with pytest.raises(CoverageError):
        lipschitz_labels(emb, {0})


# ---------------------------------------------------------------------------
# propagation separates blocks


def test_propagated_one_hot_separates_sbm_blocks():
    # embeddings of same-block vertices should usually sit closer together
    # than cross-block pairs after two rounds of neighbourhood averaging
    wins = 0
    for s in range(100):
        ds = synthetic_sbm([30, 30], 0.3, 0.02, rng_seed=s)
        emb = propagate(ds.graph, one_hot_features(ds.graph), layers=2)
        rng = np.random.default_rng(s + 1)
        intra = []
        inter = []
        for _ in range(60):
            u, v = rng.integers(60), rng.integers(60)
            if u == v:
                continue
            d = np.linalg.norm(emb.vectors[u] - emb.vectors[v])
            (intra if ds.labels[u] == ds.labels[v] else inter).append(d)
        if intra and inter and np.mean(intra) < np.mean(inter):
            wins += 1
    assert wins >= 95
