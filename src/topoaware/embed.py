"""Parameter-free propagation embedder plus synthetic graph and label
generators, so the full pipeline runs without any external model."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CoverageError, SizeGuardError
from .graph import Graph, build_graph, degrees
from .metrics import EmbeddingTable, _point_to_set, _require_coverage

ONE_HOT_MAX_N = 5000  # one n x n float64 copy is 200 MB at this size


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
    missing = np.flatnonzero(~X.covered)
    if len(missing):
        raise CoverageError("vertices without feature rows", missing=tuple(missing.tolist()))
    if layers < 1:
        raise ArgumentError(f"layers must be >= 1, got {layers}")
    H = np.asarray(X.vectors, dtype=np.float64)
    denom = (degrees(g) + 1.0)[:, None]
    A = g.csr
    for _ in range(layers):
        H = (A @ H + H) / denom
    return EmbeddingTable(H)


def synthetic_sbm(sizes, p_in: float, p_out: float, rng_seed: int) -> SyntheticDataset:
    """Stochastic block model: intra-block edges with probability p_in,
    inter-block with p_out; labels are block ids; tokens are v0..v{n-1} in id
    order (isolated vertices included)."""
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ArgumentError("sizes must be a non-empty list of positive integers")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ArgumentError(
            f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    iu, ju = np.triu_indices(n, k=1)
    p = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(len(iu)) < p
    # leading self-loop pairs pin the token order to 0..n-1 and register
    # isolated vertices; build_graph drops the loops
    pairs = [(f"v{i}", f"v{i}") for i in range(n)]
    pairs.extend((f"v{int(u)}", f"v{int(v)}") for u, v in zip(iu[keep], ju[keep]))
    graph = build_graph(pairs)
    return SyntheticDataset(graph=graph, labels=labels, block_count=len(sizes),
                            generator_params=(tuple(sizes), float(p_in), float(p_out),
                                              int(rng_seed)))


def lipschitz_labels(emb: EmbeddingTable, anchors, noise: float = 0.0,
                     rng_seed: int | None = None) -> np.ndarray:
    """Regression targets that are 1-Lipschitz in embedding space at noise 0:
    min Euclidean distance to the anchor vectors, plus seeded Gaussian noise."""
    anchor_ids = sorted({int(a) for a in anchors})
    if not anchor_ids:
        raise ArgumentError("anchor set is empty")
    if noise < 0.0:
        raise ArgumentError(f"noise must be >= 0, got {noise}")
    n = emb.vectors.shape[0]
    _require_coverage(emb, np.arange(n))
    if any(a < 0 or a >= n for a in anchor_ids):
        raise ArgumentError("anchor id out of range")
    targets = _point_to_set(emb, np.arange(n), np.asarray(anchor_ids), "min")
    if noise > 0.0:
        if rng_seed is None:
            raise ArgumentError("noise > 0 requires rng_seed")
        rng = np.random.Generator(np.random.PCG64(rng_seed))
        targets = targets + noise * rng.standard_normal(n)
    return targets
