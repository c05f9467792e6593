"""Parameter-free propagation embedder plus synthetic graph and label
generators, so the full pipeline runs without any external model."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, SizeGuardError
from .graph import Graph, _check_sources, _id_graph, degrees, seeded_rng
from .metrics import EmbeddingTable, _point_to_set, _require_coverage

ONE_HOT_MAX_N = 5000  # one n x n float64 copy is 200 MB at this size
# one draw per vertex pair: 5 * 10**9 draws at this size, about 45 s at the
# 1.1 * 10**8 draws/s measured at 6000 and 20000 vertices (2-vCPU x86)
SBM_MAX_N = 100_000


@dataclass(frozen=True)
class SyntheticDataset:
    """A block-model graph with block-id labels and its generator parameters."""

    graph: Graph
    labels: np.ndarray
    block_count: int
    generator_params: tuple


def one_hot_features(g: Graph) -> EmbeddingTable:
    if g.n > ONE_HOT_MAX_N:
        raise SizeGuardError(
            f"one-hot features for {g.n} vertices exceed the {ONE_HOT_MAX_N}-vertex "
            "limit of an n x n matrix; pass --features with a feature table")
    return EmbeddingTable(np.eye(g.n))


def propagate(g: Graph, X: EmbeddingTable, layers: int) -> EmbeddingTable:
    """Mean aggregation over N(u) and u itself, identity update, repeated
    `layers` times: an untrained SGC-style propagator. X needs one row per
    vertex, every row covered; that is checked before `layers`."""
    if X.vectors.shape[0] != g.n:
        raise ArgumentError(
            f"feature matrix has {X.vectors.shape[0]} rows for a graph with {g.n} vertices")
    _require_coverage(X.covered, np.arange(g.n), "feature rows")
    if layers < 1:
        raise ArgumentError(f"layers must be >= 1, got {layers}")
    H = np.asarray(X.vectors, dtype=np.float64)
    denom = (degrees(g) + 1.0)[:, None]
    A = g.csr
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(layers):
            H = (A @ H + H) / denom
    if not np.isfinite(H).all():
        raise ArgumentError("propagated features overflow float64")
    return EmbeddingTable(H)


def synthetic_sbm(sizes, p_in: float, p_out: float, rng_seed: int) -> SyntheticDataset:
    """Stochastic block model: intra-block edges with probability p_in,
    inter-block with p_out; labels are block ids; tokens are v0..v{n-1} in id
    order (isolated vertices included). Memory is O(n + m): the pairs are
    drawn one row at a time. Above SBM_MAX_N vertices it raises
    SizeGuardError before any allocation."""
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ArgumentError("sizes must be a non-empty list of positive integers")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ArgumentError(
            f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    n = sum(sizes)
    if n > SBM_MAX_N:
        raise SizeGuardError(
            f"a block model of {n} vertices exceeds the {SBM_MAX_N}-vertex limit of "
            "one draw per vertex pair")
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng = seeded_rng(rng_seed)
    partners = []
    for i in range(n):
        # one draw per pair (i, j > i); PCG64 gives the same doubles in
        # pieces as in one call over all pairs in row-major order
        js = np.arange(i + 1, n)
        partners.append(js[rng.random(n - 1 - i) < np.where(labels[js] == labels[i], p_in, p_out)])
    u = np.repeat(np.arange(n), [len(js) for js in partners])
    graph = _id_graph(n, u, np.concatenate(partners))
    return SyntheticDataset(graph=graph, labels=labels, block_count=len(sizes),
                            generator_params=(tuple(sizes), float(p_in), float(p_out),
                                              int(rng_seed)))


def lipschitz_labels(emb: EmbeddingTable, anchors, noise: float = 0.0,
                     rng_seed: int | None = None) -> np.ndarray:
    """Regression targets that are 1-Lipschitz in embedding space at noise 0:
    min Euclidean distance to the anchor vectors, plus seeded Gaussian noise."""
    n = emb.vectors.shape[0]
    anchor_ids = _check_sources(n, anchors)
    if noise < 0.0:
        raise ArgumentError(f"noise must be >= 0, got {noise}")
    _require_coverage(emb.covered, np.arange(n), "embeddings")
    targets = _point_to_set(emb, np.arange(n), anchor_ids, "min")
    if noise > 0.0:
        targets = targets + noise * seeded_rng(rng_seed).standard_normal(n)
    return targets
