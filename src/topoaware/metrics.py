"""Structural group distances, hop-based subgroup partitioning, and
distortion estimation between the graph metric and an embedding metric."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, BoundsError, CoverageError, DegenerateEmbeddingError
from .graph import Graph, _hops, multi_source_bfs

DEFAULT_MAX_HOP = 5


@dataclass(frozen=True, eq=False)
class SubgroupPartition:
    """Hop-distance partition of V relative to a seed set, held as the
    read-only multi-source hop array `dist` (seeds are exactly dist == 0).

    groups[k-1] = (k, vertices at hop distance exactly k), for k = 1..max_hop.
    overflow holds finite distances beyond max_hop; unreachable the rest.
    """

    dist: np.ndarray
    max_hop: int

    @cached_property
    def seed_set(self) -> frozenset:
        return _ids(self.dist == 0)

    @cached_property
    def groups(self) -> tuple:
        return tuple((k, _ids(self.dist == k)) for k in range(1, self.max_hop + 1))

    @cached_property
    def grouped(self) -> np.ndarray:
        """Ids at hop 1..max_hop (the union of the groups), ascending."""
        ids = np.flatnonzero((self.dist >= 1) & (self.dist <= self.max_hop))
        ids.setflags(write=False)
        return ids

    @cached_property
    def overflow(self) -> frozenset:
        return _ids(np.isfinite(self.dist) & (self.dist > self.max_hop))

    @cached_property
    def unreachable(self) -> frozenset:
        return _ids(~np.isfinite(self.dist))

    def group(self, k: int) -> frozenset:
        if not 1 <= k <= self.max_hop:
            raise ArgumentError(f"hop {k} outside 1..{self.max_hop}")
        return self.groups[k - 1][1]


def _ids(mask: np.ndarray) -> frozenset:
    return frozenset(np.flatnonzero(mask).tolist())


@dataclass(frozen=True)
class DistortionEstimate:
    """Tightest (r, alpha) certifying r*d <= d' <= alpha*r*d on the sample."""

    r: float
    alpha: float
    pair_count: int
    min_ratio: float
    max_ratio: float
    excluded_pairs: int


@dataclass(frozen=True)
class EmbeddingTable:
    """Per-vertex real vectors; rows outside `coverage` are undefined (NaN)."""

    dim: int
    vectors: np.ndarray
    coverage: frozenset

    def __post_init__(self):
        if self.dim < 1:
            raise ArgumentError(f"dim must be positive, got {self.dim}")
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.dim:
            raise ArgumentError(
                f"vectors must be (rows, {self.dim}), got {self.vectors.shape}")
        if self.coverage:
            ids = np.fromiter(self.coverage, dtype=np.int64)
            if ids.min() < 0 or ids.max() >= self.vectors.shape[0]:
                raise BoundsError("coverage id outside the vector table")
            if not np.all(np.isfinite(self.vectors[ids])):
                raise ArgumentError("covered embedding vectors must be finite")

    def vector(self, v: int) -> np.ndarray:
        if v not in self.coverage:
            raise CoverageError("vertex has no embedding", missing=(v,))
        return self.vectors[v]


def full_embedding_table(vectors: np.ndarray) -> EmbeddingTable:
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingTable(dim=vectors.shape[1], vectors=vectors,
                          coverage=frozenset(range(vectors.shape[0])))


def group_distance_point(g: Graph, v: int, S) -> float:
    """D_s(v, S) = min hop distance from v to any member of S."""
    return group_distance(g, [v], S)


def group_distance(g: Graph, S1, S2) -> float:
    """Directed max-min distance D_s(S1, S2); asymmetric."""
    s1 = sorted({int(v) for v in S1})
    if not s1:
        raise ArgumentError("first vertex set is empty")
    if s1[0] < 0 or s1[-1] >= g.n:
        raise BoundsError(f"vertex out of range 0..{g.n - 1}")
    return _hops(multi_source_bfs(g, S2)[s1].max())


def partition_by_distance(g: Graph, V0, max_hop: int = DEFAULT_MAX_HOP) -> SubgroupPartition:
    """Split V minus V0 into hop groups V_k (k = 1..max_hop), an overflow
    bucket (finite distance > max_hop), and the unreachable set."""
    if max_hop < 1:
        raise ArgumentError(f"max_hop must be positive, got {max_hop}")
    dist = multi_source_bfs(g, V0)
    dist.setflags(write=False)
    return SubgroupPartition(dist=dist, max_hop=max_hop)


def estimate_distortion(graph_dists, embed_dists,
                        exclude_zero_ratios: bool = False) -> DistortionEstimate:
    """Tightest scaling factor r = min(d'/d) and distortion alpha = max/min
    over the paired sample.

    Zero embedding distance at positive graph distance violates the r > 0
    requirement: a hard error unless exclude_zero_ratios, which skips such
    pairs and counts them in excluded_pairs.
    """
    gd = np.asarray(graph_dists, dtype=np.float64)
    ed = np.asarray(embed_dists, dtype=np.float64)
    if gd.ndim != 1 or ed.ndim != 1 or len(gd) != len(ed):
        raise ArgumentError("graph and embedding distances must be equal-length 1-D sequences")
    if len(gd) == 0:
        raise ArgumentError("no distance pairs supplied")
    if not np.all(np.isfinite(gd)) or np.any(gd <= 0):
        raise ArgumentError("graph distances must be finite and strictly positive")
    if not np.all(np.isfinite(ed)) or np.any(ed < 0):
        raise ArgumentError("embedding distances must be finite and non-negative")
    ratios = ed / gd
    zero = np.flatnonzero(ratios == 0.0)
    excluded = 0
    if len(zero):
        if not exclude_zero_ratios:
            i = int(zero[0])
            raise DegenerateEmbeddingError(
                f"pair {i} has embedding distance 0 at graph distance {gd[i]:g}; "
                "a positive scaling factor cannot exist")
        keep = ratios > 0.0
        excluded = int((~keep).sum())
        ratios = ratios[keep]
        if len(ratios) == 0:
            raise ArgumentError("all pairs were excluded as degenerate")
    min_ratio = float(ratios.min())
    max_ratio = float(ratios.max())
    return DistortionEstimate(r=min_ratio, alpha=max_ratio / min_ratio,
                              pair_count=int(len(ratios)), min_ratio=min_ratio,
                              max_ratio=max_ratio, excluded_pairs=excluded)


def _require_coverage(emb: EmbeddingTable, needed: np.ndarray) -> None:
    missing = [v for v in needed.tolist() if v not in emb.coverage]
    if missing:
        raise CoverageError("vertices without embeddings", missing=tuple(missing))


_POINT_TO_SET_ELEMENTS = 1 << 18  # float64 elements per broadcast difference block


def _point_to_set(emb: EmbeddingTable, vs: np.ndarray, seed_ids: np.ndarray,
                  mode: str) -> np.ndarray:
    """Euclidean point-to-set distances ("min" or "mean") from each v to the
    seed vectors, over vertex chunks of bounded size."""
    seed_vecs = emb.vectors[seed_ids]
    step = max(1, _POINT_TO_SET_ELEMENTS // seed_vecs.size)
    out = np.empty(len(vs))
    for start in range(0, len(vs), step):
        diff = seed_vecs - emb.vectors[vs[start:start + step], None, :]
        d = np.sqrt(np.add.reduce(diff * diff, axis=2))
        out[start:start + step] = d.min(axis=1) if mode == "min" else d.mean(axis=1)
    return out


@dataclass(frozen=True)
class ProfileRow:
    hop: int
    mean_distance: float
    std: float
    count: int


def paired_distances_for_distortion(part: SubgroupPartition, emb: EmbeddingTable,
                                    point_to_set: str = "min"):
    """One (graph distance, embedding distance) pair per vertex with
    1 <= D_s(v, V0) <= max_hop, in vertex-id order. Every seed and every
    vertex within max_hop must be embedded."""
    if point_to_set not in ("min", "mean"):
        raise ArgumentError(f"point_to_set must be 'min' or 'mean', got {point_to_set!r}")
    dist = part.dist
    _require_coverage(emb, np.flatnonzero(dist <= part.max_hop))
    vs = part.grouped
    return dist[vs], _point_to_set(emb, vs, np.flatnonzero(dist == 0), point_to_set)


def hop_embedding_profile(gd, ed) -> list[ProfileRow]:
    """Per-hop mean and population std of the embedding distances of
    `paired_distances_for_distortion`, one row per hop present."""
    gd = np.asarray(gd, dtype=np.float64)
    ed = np.asarray(ed, dtype=np.float64)
    if gd.shape != ed.shape:
        raise ArgumentError("graph and embedding distances must have the same shape")
    rows = []
    for k in np.unique(gd):
        vals = ed[gd == k]
        rows.append(ProfileRow(hop=int(k), mean_distance=float(vals.mean()),
                               std=float(vals.std()), count=len(vals)))
    return rows


def sampled_pair_distances(g: Graph, emb: EmbeddingTable, rng_seed: int,
                           max_pairs: int = 2000):
    """Diagnostic all-pairs mode: a seeded sample of distinct covered vertex
    pairs with finite graph distance, capped at max_pairs."""
    if max_pairs < 1:
        raise ArgumentError(f"max_pairs must be positive, got {max_pairs}")
    covered = np.asarray(sorted(emb.coverage), dtype=np.int64)
    if len(covered) < 2:
        raise ArgumentError("need at least two covered vertices")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    gd: list[float] = []
    ed: list[float] = []
    attempts = 0
    while len(gd) < max_pairs and attempts < 20 * max_pairs:
        u = covered[int(rng.integers(len(covered)))]
        dist_u = multi_source_bfs(g, [int(u)])
        take = min(max_pairs - len(gd), 32)
        for _ in range(take):
            attempts += 1
            v = covered[int(rng.integers(len(covered)))]
            if v == u or not np.isfinite(dist_u[v]):
                continue
            gd.append(float(dist_u[v]))
            ed.append(float(np.linalg.norm(emb.vectors[u] - emb.vectors[v])))
    return np.asarray(gd), np.asarray(ed)
