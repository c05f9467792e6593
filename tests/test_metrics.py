from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

import oracles
from conftest import count_calls, er_graph, id_graph, path_graph
from topoaware import (UNREACHABLE, ArgumentError, CoverageError,
                       DegenerateEmbeddingError, EmbeddingTable, build_graph,
                       estimate_distortion, group_distance,
                       group_distance_point, hop_embedding_profile,
                       multi_source_bfs, one_hot_features,
                       paired_distances_for_distortion, partition_by_distance,
                       propagate, synthetic_sbm)
from topoaware import metrics
from topoaware.metrics import _POINT_TO_SET_ELEMENTS, _point_to_set


def line_embedding(g):
    return EmbeddingTable(np.arange(g.n, dtype=float).reshape(-1, 1))


def profile(g, seeds, emb, max_hop, point_to_set="min"):
    part = partition_by_distance(g, seeds, max_hop=max_hop)
    return hop_embedding_profile(*paired_distances_for_distortion(part, emb, point_to_set))


# ---------------------------------------------------------------------------
# group distances


def test_point_group_distance_path():
    g = path_graph(5)
    assert group_distance_point(g, 0, {3, 4}) == 3
    assert group_distance_point(g, 4, {4}) == 0


def test_point_group_distance_unreachable():
    g = build_two_components()
    assert group_distance_point(g, 0, {3}) == UNREACHABLE


def build_two_components():
    return id_graph(4, [(0, 1), (2, 3)])


def test_point_group_distance_empty_set():
    with pytest.raises(ArgumentError):
        group_distance_point(path_graph(3), 0, set())


def test_group_distance_asymmetric_example():
    g = path_graph(4)
    assert group_distance(g, {0, 3}, {1}) == 2
    assert group_distance(g, {1}, {0, 3}) == 1


def test_group_distance_self_is_zero():
    g = path_graph(6)
    assert group_distance(g, {1, 3, 5}, {1, 3, 5}) == 0


@given(st.integers(0, 2**32 - 1))
def test_group_distance_matches_double_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    g, edges = er_graph(rng, n, 0.15)
    fw = oracles.floyd_warshall(n, edges)
    a = {int(v) for v in rng.choice(n, size=int(rng.integers(1, n)), replace=False)}
    b = {int(v) for v in rng.choice(n, size=int(rng.integers(1, n)), replace=False)}
    want = oracles.group_distance(fw, a, b)
    got = group_distance(g, a, b)
    if want is None:
        assert got == UNREACHABLE
    else:
        assert got == want


@given(st.integers(0, 2**32 - 1))
def test_group_distance_shrinks_with_larger_target(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    g, _ = er_graph(rng, n, 0.25, connected=True)
    a = {int(v) for v in rng.choice(n, size=2, replace=False)}
    small = {int(rng.integers(n))}
    big = small | {int(rng.integers(n))}
    assert group_distance(g, a, big) <= group_distance(g, a, small)


# ---------------------------------------------------------------------------
# partition


def test_partition_path_example():
    g = path_graph(5)
    p = partition_by_distance(g, {0}, max_hop=3)
    assert p.counts.tolist() == [1, 1, 1, 1]
    assert p.dist.tolist() == [0, 1, 2, 3, 4]
    assert p.grouped.tolist() == [1, 2, 3]
    assert (p.overflow_count, p.unreachable_count) == (1, 0)
    assert p.max_hop == 3


def test_partition_all_seeds():
    g = path_graph(4)
    p = partition_by_distance(g, set(range(4)), max_hop=5)
    assert p.counts.tolist() == [4] and len(p.grouped) == 0
    assert (p.overflow_count, p.unreachable_count) == (0, 0)


def test_partition_unreachable_bucket():
    g = build_two_components()
    p = partition_by_distance(g, {0}, max_hop=2)
    assert p.counts.tolist() == [1, 1] and p.grouped.tolist() == [1]
    assert (p.overflow_count, p.unreachable_count) == (0, 2)
    assert np.flatnonzero(np.isinf(p.dist)).tolist() == [2, 3]


def test_partition_default_max_hop_is_five():
    g = path_graph(9)
    p = partition_by_distance(g, {0})
    assert p.max_hop == 5
    assert p.counts.tolist() == [1] * 6 and p.grouped.tolist() == [1, 2, 3, 4, 5]
    assert p.overflow_count == 3


def test_partition_counts_are_sized_by_the_hops_present():
    g = path_graph(4)
    p = partition_by_distance(g, {0}, max_hop=10**400)
    assert p.counts.tolist() == [1, 1, 1, 1]
    assert (p.overflow_count, p.unreachable_count) == (0, 0)
    for arr in (p.dist, p.counts, p.within, p.grouped):
        assert not arr.flags.writeable


@given(st.integers(0, 2**32 - 1))
def test_partition_cells_are_disjoint_and_cover(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    g, _ = er_graph(rng, n, 0.1)
    k = int(rng.integers(1, n))
    seeds = {int(v) for v in rng.choice(n, size=k, replace=False)}
    max_hop = int(rng.integers(1, 7))
    p = partition_by_distance(g, seeds, max_hop=max_hop)
    assert int(p.counts.sum()) + p.overflow_count + p.unreachable_count == n
    assert p.counts[0] == len(seeds) and np.all(p.counts > 0)
    dist = np.min([multi_source_bfs(g, [s]) for s in sorted(seeds)], axis=0)
    for h in range(1, max_hop + 1):
        want = int(np.count_nonzero(dist == h))
        assert (p.counts[h] if h < len(p.counts) else 0) == want
    assert p.grouped.tolist() == np.flatnonzero((dist >= 1) & (dist <= max_hop)).tolist()


def test_partition_rejects_bad_seeds():
    g = path_graph(3)
    with pytest.raises(ArgumentError):
        partition_by_distance(g, set())
    with pytest.raises(ArgumentError):
        partition_by_distance(g, {0}, max_hop=0)


# ---------------------------------------------------------------------------
# distortion


def test_distortion_doubled_distances():
    est = estimate_distortion([1, 2, 3], [2.0, 4.0, 6.0])
    assert est.r == pytest.approx(2.0) and est.alpha == pytest.approx(1.0)
    assert est.pair_count == 3 and est.excluded_pairs == 0


def test_distortion_spread_ratios():
    est = estimate_distortion([1, 1, 2], [1.0, 3.0, 2.0])
    assert est.r == pytest.approx(1.0)
    assert est.alpha == pytest.approx(3.0)
    assert est.min_ratio == pytest.approx(1.0)
    assert est.max_ratio == pytest.approx(3.0)


def test_distortion_zero_ratio_is_hard_error():
    with pytest.raises(DegenerateEmbeddingError) as ei:
        estimate_distortion([1, 2], [1.0, 0.0])
    assert "1" in str(ei.value)


def test_distortion_alpha_overflow_is_degenerate():
    with pytest.raises(DegenerateEmbeddingError, match="overflows float64"):
        estimate_distortion([1, 2], [1e-160, 1e150])


def test_distortion_zero_ratio_excluded_on_request():
    est = estimate_distortion([1, 2], [1.0, 0.0], exclude_zero_ratios=True)
    assert est.pair_count == 1 and est.excluded_pairs == 1
    assert est.alpha == pytest.approx(1.0)


def test_distortion_all_excluded_is_error():
    with pytest.raises(ArgumentError):
        estimate_distortion([1], [0.0], exclude_zero_ratios=True)


def test_distortion_input_validation():
    with pytest.raises(ArgumentError):
        estimate_distortion([], [])
    with pytest.raises(ArgumentError):
        estimate_distortion([1, 2], [1.0])
    with pytest.raises(ArgumentError):
        estimate_distortion([0], [1.0])
    with pytest.raises(ArgumentError):
        estimate_distortion([1], [math.inf])


ratio_lists = st.lists(
    st.tuples(st.integers(1, 9), st.floats(0.05, 50.0)), min_size=1, max_size=40)


@given(ratio_lists)
def test_distortion_sandwich_bound(pairs):
    gd = [g for g, _ in pairs]
    ed = [g * s for g, s in pairs]
    est = estimate_distortion(gd, ed)
    for g_i, e_i in zip(gd, ed):
        assert est.r * g_i <= e_i * (1 + 1e-12)
        assert e_i <= est.alpha * est.r * g_i * (1 + 1e-12)
    assert est.alpha >= 1.0


@given(ratio_lists, st.floats(0.01, 100.0))
def test_distortion_scale_invariance(pairs, scale):
    gd = [g for g, _ in pairs]
    ed = [g * s for g, s in pairs]
    a = estimate_distortion(gd, ed)
    b = estimate_distortion(gd, [e * scale for e in ed])
    assert b.alpha == pytest.approx(a.alpha, rel=1e-12)
    assert b.r == pytest.approx(a.r * scale, rel=1e-12)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=20),
       st.floats(0.1, 10.0))
def test_distortion_alpha_one_iff_constant_ratio(gd, c):
    est = estimate_distortion(gd, [g * c for g in gd])
    assert est.alpha == pytest.approx(1.0, rel=1e-12)
    assert est.r == pytest.approx(c, rel=1e-12)


# ---------------------------------------------------------------------------
# embedding table


def test_embedding_table_validation():
    with pytest.raises(ArgumentError):
        EmbeddingTable(np.zeros(3))
    with pytest.raises(ArgumentError):
        EmbeddingTable(np.full((2, 1), np.inf))


def test_embedding_table_rows_are_all_finite_or_all_nan():
    with pytest.raises(ArgumentError):
        EmbeddingTable(np.array([[1.0, 2.0], [1.0, np.nan]]))
    t = EmbeddingTable(np.array([[1.0, 2.0], [np.nan, np.nan]]))
    assert t.dim == 2 and t.covered.tolist() == [True, False]
    with pytest.raises(ValueError):
        t.covered[1] = True


def test_paired_distances_table_shorter_than_graph():
    g = path_graph(5)
    emb = EmbeddingTable(np.arange(3, dtype=float).reshape(-1, 1))
    with pytest.raises(CoverageError) as ei:
        paired_distances_for_distortion(partition_by_distance(g, {0}, max_hop=4), emb)
    assert ei.value.missing == (3, 4)


# ---------------------------------------------------------------------------
# hop profile


def test_profile_isometric_line():
    g = path_graph(7)
    rows = profile(g, {0}, line_embedding(g), max_hop=4)
    assert [r.hop for r in rows] == [1, 2, 3, 4]
    for r in rows:
        assert r.mean_distance == pytest.approx(float(r.hop))
        assert r.std == pytest.approx(0.0)
        assert r.count == 1


def test_profile_omits_empty_hops():
    g = path_graph(3)
    rows = profile(g, {0}, line_embedding(g), max_hop=5)
    assert [r.hop for r in rows] == [1, 2]


@given(st.integers(0, 2**32 - 1), st.sampled_from(["min", "mean"]))
def test_profile_matches_nested_loop_oracle(seed, mode):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 25))
    g, edges = er_graph(rng, n, 0.2, connected=True)
    emb = EmbeddingTable(rng.normal(size=(n, 3)))
    seeds = {int(v) for v in rng.choice(n, size=int(rng.integers(1, 4)), replace=False)}
    max_hop = int(rng.integers(1, 6))
    fw = oracles.floyd_warshall(n, edges)
    dist = [min(fw[s][v] for s in seeds) for v in range(n)]
    want = oracles.profile_rows(dist, emb.vectors, seeds, max_hop, mode)
    rows = profile(g, seeds, emb, max_hop=max_hop, point_to_set=mode)
    assert [(r.hop, r.count) for r in rows] == [(h, c) for h, _, _, c in want]
    for r, (_, m, s, _) in zip(rows, want):
        assert r.mean_distance == pytest.approx(m, rel=1e-10)
        assert r.std == pytest.approx(s, rel=1e-10, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_profile_rows_equal_the_per_hop_masks(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, 60))
    gd = rng.integers(1, 6, size=count).astype(float)
    ed = rng.normal(size=count) * 10.0 ** rng.integers(-3, 4, size=count)
    rows = hop_embedding_profile(gd, ed)
    assert [(r.hop, r.mean_distance, r.std, r.count) for r in rows] == \
        oracles.hop_rows_by_mask(gd, ed)
    with pytest.raises(ArgumentError, match="must have the same shape"):
        hop_embedding_profile(gd, np.append(ed, 1.0))


def test_profile_requires_coverage():
    g = path_graph(4)
    vec = np.full((4, 1), np.nan)
    vec[:2, 0] = [0.0, 1.0]
    emb = EmbeddingTable(vec)
    with pytest.raises(CoverageError):
        paired_distances_for_distortion(partition_by_distance(g, {0}, max_hop=3), emb)


# ---------------------------------------------------------------------------
# paired distances


def test_paired_distances_path():
    g = path_graph(3)
    gd, ed = paired_distances_for_distortion(partition_by_distance(g, {0}, max_hop=5),
                                             line_embedding(g))
    assert list(gd) == [1.0, 2.0]
    assert list(ed) == [1.0, 2.0]


@given(st.integers(0, 2**32 - 1))
def test_paired_distances_one_pair_per_eligible_vertex(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 22))
    g, edges = er_graph(rng, n, 0.2, connected=True)
    emb = EmbeddingTable(rng.normal(size=(n, 2)))
    seeds = {int(rng.integers(n))}
    max_hop = 3
    fw = oracles.floyd_warshall(n, edges)
    dist = [min(fw[s][v] for s in seeds) for v in range(n)]
    eligible = [v for v in range(n) if 1 <= dist[v] <= max_hop]
    gd, ed = paired_distances_for_distortion(partition_by_distance(g, seeds, max_hop=max_hop),
                                             emb)
    assert len(gd) == len(ed) == len(eligible)
    assert list(gd) == [float(dist[v]) for v in eligible]


def test_paired_distances_check_mode_without_pairs():
    # a-b plus an isolated c: with both a and b seeded nothing is within max_hop
    g = build_graph([("a", "b"), ("c", "c")])
    emb = EmbeddingTable(np.arange(3, dtype=float).reshape(-1, 1))
    part = partition_by_distance(g, {0, 1})
    assert len(paired_distances_for_distortion(part, emb)[0]) == 0
    with pytest.raises(ArgumentError):
        paired_distances_for_distortion(part, emb, point_to_set="median")


@given(st.integers(0, 2**32 - 1), st.integers(1, 150), st.integers(1, 8),
       st.sampled_from(["min", "mean"]))
def test_point_to_set_matches_per_vertex_loop(seed, dim, rows_per_chunk, mode):
    rng = np.random.default_rng(seed)
    seed_count = -(-_POINT_TO_SET_ELEMENTS // (dim * rows_per_chunk))
    n = seed_count + 16
    emb = EmbeddingTable(rng.normal(size=(n, dim)))
    seed_ids = np.sort(rng.choice(n, size=seed_count, replace=False))
    vs = rng.integers(0, n, size=int(rng.integers(2, 5)) * rows_per_chunk + 1)
    got = _point_to_set(emb, vs, seed_ids, mode)
    assert np.array_equal(got, oracles.point_to_set_loop(emb, vs, seed_ids, mode))


# small-integer lattices times a scale give exact ties and near-ties; the
# scales reach squares that overflow and products that underflow
_SCALES = st.sampled_from([1.0, 0.1, 1 / 3, 1e154, 1.3e154, 1e-310, 2.0 ** -1074, 1e-158])


@st.composite
def _nearest_seed_cases(draw):
    dim, n, scale = draw(st.integers(1, 5)), draw(st.integers(1, 12)), draw(_SCALES)
    lattice = st.tuples(st.integers(-3, 3), st.sampled_from([0, 0, 1, -2])).map(
        lambda ij: ij[0] * scale + ij[1] * scale * 1e-8)
    cell = draw(st.sampled_from([lattice, st.one_of(
        lattice, st.just(-0.0), st.floats(-4 * scale, 4 * scale), st.floats(-1e155, 1e155))]))
    vectors = draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=n, max_size=n))
    ids = st.integers(0, n - 1)
    # repeated seed ids give duplicate seed vectors
    seed_ids = draw(st.lists(ids, min_size=1, max_size=8))
    vs = draw(st.lists(ids, max_size=12))
    elements = draw(st.sampled_from([1, 2, 3, 7, 64, _POINT_TO_SET_ELEMENTS]))
    return vectors, seed_ids, vs, elements


def _check_nearest_seed(case):
    vectors, seed_ids, vs, elements = case
    emb = EmbeddingTable(np.array(vectors, dtype=np.float64))
    seed_ids, vs = np.array(seed_ids, dtype=np.intp), np.array(vs, dtype=np.intp)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        want = oracles.chunked_point_to_set(emb, vs, seed_ids, "min", elements)
    # no warning where the loop gives none
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore" if seen else "error")
        mp.setattr(metrics, "_POINT_TO_SET_ELEMENTS", elements)
        got = _point_to_set(emb, vs, seed_ids, "min")
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@given(_nearest_seed_cases())
@example(([[0.0], [1.0], [-1.0]], [1, 2], [0], 7))
@example(([[-0.0, 0.0], [0.0, -0.0]], [0], [1, 0], 1))
@example(([[1e154, 1e154], [-1e154, 1e154], [1e154, -1e154]], [1, 2], [0], 64))
@example(([[1e-310, 0.0], [0.0, 1e-310], [-1e-310, 0.0]], [1, 2], [0, 1, 2], 2))
@example(([[0.1], [0.3], [-0.1]], [1, 2], [0], 64))
@example(([[2 / 3, -2 / 3], [1 / 3, -1.0], [1 / 3, -1 / 3], [-1.0, -1 / 3], [1 / 3, -2 / 3],
           [1.0, -2 / 3]], [1, 2, 3, 4, 5], [0], 64))
@example(([[-1e-158, 0.0, 2e-158], [-1e-158, 0.0, -1e-158], [0.0, -2e-158, 0.0],
           [-3e-158, -3e-158, -1e-158], [3e-158, 0.0, -2e-158]], [1, 2, 3, 4], [0], 64))
@example(([[-1.2e154], [-1.3e154], [-1.2e154], [4e153]], [1, 2, 3], [0], 64))
@example(([[1.0, 2.0]], [0], [], 64))
def test_nearest_seed_matches_the_chunked_loop(case):
    _check_nearest_seed(case)


@pytest.mark.slow
@seed(20261019)
@settings(max_examples=20000)
@given(_nearest_seed_cases())
def test_nearest_seed_matches_the_chunked_loop_long(case):
    _check_nearest_seed(case)


def _loop_calls(monkeypatch, vectors, seed_ids):
    emb = EmbeddingTable(vectors)
    vs = np.setdiff1d(np.arange(len(vectors)), seed_ids)
    calls = count_calls(monkeypatch, metrics, "_exact_point_to_set")
    got = _point_to_set(emb, vs, seed_ids, "min")
    want = oracles.chunked_point_to_set(emb, vs, seed_ids, "min", _POINT_TO_SET_ELEMENTS)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    return len(calls)


def test_nearest_seed_skips_the_loop_on_block_vectors(monkeypatch):
    rng = np.random.default_rng(20261019)
    centres = 2.0 * rng.standard_normal((10, 16))
    vectors = centres[rng.integers(0, 10, size=2000)] + rng.standard_normal((2000, 16))
    assert _loop_calls(monkeypatch, vectors, np.sort(rng.choice(2000, 100, replace=False))) == 0


def test_nearest_seed_takes_the_loop_on_one_hot_ties(monkeypatch):
    sbm = synthetic_sbm([30, 30, 30], 0.3, 0.02, rng_seed=5)
    emb = propagate(sbm.graph, one_hot_features(sbm.graph), layers=1)
    seed_ids = np.arange(0, 90, 3)
    assert _loop_calls(monkeypatch, emb.vectors, seed_ids) == 1
