"""Structural group distances, hop-based subgroup partitioning, and
distortion estimation between the graph metric and an embedding metric."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, CoverageError, DegenerateEmbeddingError
from .graph import Graph, _check_sources, _hops, multi_source_bfs

DEFAULT_MAX_HOP = 5


@dataclass(frozen=True, eq=False)
class SubgroupPartition:
    """Hop-distance partition of V relative to a seed set, held as the
    read-only multi-source hop array `dist` (seeds are exactly dist == 0).

    counts[k] is the size of the hop group V_k (counts[0] of the seed set)
    for k up to the largest hop present within max_hop, so every count is
    positive; `overflow_count` counts the finite distances beyond max_hop,
    `unreachable_count` the rest.
    """

    dist: np.ndarray
    max_hop: int

    @cached_property
    def within(self) -> np.ndarray:
        """Ids at hop 0..max_hop (the seeds and the hop groups), ascending."""
        # hops are below n: the clamp keeps a huge max_hop out of the float compare
        return _read_only(np.flatnonzero(self.dist <= min(self.max_hop, len(self.dist))))

    @cached_property
    def grouped(self) -> np.ndarray:
        """Ids at hop 1..max_hop (the union of the hop groups), ascending."""
        return _read_only(self.within[self.dist[self.within] > 0])

    @cached_property
    def counts(self) -> np.ndarray:
        return _read_only(np.bincount(self.dist[self.within].astype(np.intp)))

    @property
    def unreachable_count(self) -> int:
        return int(np.isinf(self.dist).sum())

    @property
    def overflow_count(self) -> int:
        return len(self.dist) - len(self.within) - self.unreachable_count


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
    """Per-vertex real vectors, one row per vertex id. A row is covered when
    it is all finite; every other row is all NaN."""

    vectors: np.ndarray

    def __post_init__(self):
        vec = self.vectors
        if vec.ndim != 2 or vec.shape[1] < 1:
            raise ArgumentError(f"vectors must be (rows, dim >= 1), got {vec.shape}")
        if not np.all(np.isfinite(vec).all(axis=1) | np.isnan(vec).all(axis=1)):
            raise ArgumentError("each embedding row must be all finite or all NaN")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def covered(self) -> np.ndarray:
        """Read-only mask of the covered rows."""
        return _read_only(np.isfinite(self.vectors).all(axis=1))


def group_distance_point(g: Graph, v: int, S) -> float:
    """D_s(v, S) = min hop distance from v to any member of S."""
    return group_distance(g, [v], S)


def group_distance(g: Graph, S1, S2) -> float:
    """Directed max-min distance D_s(S1, S2); asymmetric."""
    s1 = _check_sources(g.n, S1)
    return _hops(multi_source_bfs(g, S2)[s1].max())


def partition_by_distance(g: Graph, V0, max_hop: int = DEFAULT_MAX_HOP) -> SubgroupPartition:
    """Split V minus V0 into hop groups V_k (k = 1..max_hop), an overflow
    bucket (finite distance > max_hop), and the unreachable set."""
    if max_hop < 1:
        raise ArgumentError(f"max_hop must be positive, got {max_hop}")
    return SubgroupPartition(dist=_read_only(multi_source_bfs(g, V0)), max_hop=max_hop)


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
    alpha = max_ratio / min_ratio
    if not np.isfinite(alpha):
        raise DegenerateEmbeddingError(
            f"distortion alpha = {max_ratio:g} / {min_ratio:g} overflows float64")
    return DistortionEstimate(r=min_ratio, alpha=alpha,
                              pair_count=int(len(ratios)), min_ratio=min_ratio,
                              max_ratio=max_ratio, excluded_pairs=excluded)


def _require_coverage(covered: np.ndarray, needed: np.ndarray, what: str) -> None:
    """Raise for the ids in `needed` without a set `covered` entry, in
    `needed` order; negative ids and ids past the mask count as uncovered."""
    inside = (needed >= 0) & (needed < len(covered))
    missing = needed[~np.append(covered, False)[np.where(inside, needed, -1)]]
    if len(missing):
        raise CoverageError(f"vertices without {what}", missing=tuple(missing.tolist()))


_POINT_TO_SET_ELEMENTS = 1 << 18  # float64 elements per difference or estimate block
_UNIT_ROUNDOFF = 2.0 ** -53


def _point_to_set(emb: EmbeddingTable, vs: np.ndarray, seed_ids: np.ndarray,
                  mode: str) -> np.ndarray:
    """Euclidean point-to-set distances ("min" or "mean") from each v to the
    seed vectors, bit-identical to `_exact_point_to_set`.

    "min" filters, then refines. For a row x and seeds s_j, let X = |x|^2,
    S_j = |s_j|^2, D_j = |x - s_j|^2 and M = X + max_j S_j. One matrix
    product per row chunk gives E_j = fl(S_j) + fl(x.(-2 s_j)), an estimate
    of D_j - X. A row with exactly one seed c whose E_c is within the
    threshold below of the row's least estimate gets sqrt of c's sum,
    computed as in the exact loop; every other row goes through the loop.

    Proof, with u = 2**-53, gamma_n = nu / (1 - nu) and g = gamma_(d+2) for
    d = dim (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., sec. 3.1), first without underflow:
    - |fl(S_j) - S_j| <= gamma_d S_j and |fl(x.s_j) - x.s_j| <=
      gamma_d |x|.|s_j| <= gamma_d M / 2 for any summation order, blocking,
      thread count or FMA, so with the last rounding
      |E_j + X - D_j| <= 2 gamma_(d+1) M.
    - The loop's sum of fl(fl(s_jk - x_k)^2) is D_j (1 + theta),
      |theta| <= g, in any order, and it returns sqrt of the least such sum,
      as sqrt and min are monotone. Let j have the least sum: then
      D_j (1 - g) <= D_i (1 + g) for every i, and as D_i <= 2M,
      E_j <= E_i + 2T with T = 5 g M.
    The threshold 16 g (fl(X) + max fl(S_j)) + d 2**-1070 is at least 2T:
    the factor 1.6 covers the error gamma_d of the computed norms and the
    roundings of the threshold, and fl(E_j - min E) is at most the threshold
    whenever the exact difference is, as rounding is monotone. Under gradual
    underflow each product may lose 2**-1075 more (sums and differences of
    subnormals are exact); fewer than 10d such losses reach the chain above,
    and the absolute term covers them. A row with fl(X) + max fl(S_j) below
    2**1022 overflows nowhere; any other row, or one with a NaN, takes the
    loop."""
    seed_vecs = emb.vectors[seed_ids]
    if mode != "min":
        return _exact_point_to_set(emb.vectors, vs, seed_vecs, mode)
    k, dim = seed_vecs.shape
    g = (dim + 2) * _UNIT_ROUNDOFF / (1 - (dim + 2) * _UNIT_ROUNDOFF)
    neg2s = np.ascontiguousarray(-2.0 * seed_vecs.T)
    step = max(1, _POINT_TO_SET_ELEMENTS // k)
    out = np.empty(len(vs))
    loop = [np.empty(0, dtype=np.intp)]
    # a row that overflows or meets a NaN here takes the loop
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.add.reduce(seed_vecs * seed_vecs, axis=1)
        for start in range(0, len(vs), step):
            x = emb.vectors[vs[start:start + step]]
            m = np.add.reduce(x * x, axis=1) + norms.max()
            # einsum, not matmul: on a 2-vCPU VM a threaded OpenBLAS product
            # of one chunk took 8 ms, against 1.2 ms here on one thread
            est = np.einsum("ij,jk->ik", x, neg2s)
            est += norms
            c = est.argmin(axis=1)
            est -= np.take_along_axis(est, c[:, None], axis=1)
            near = np.count_nonzero(est <= (16 * g * m + dim * 2.0 ** -1070)[:, None], axis=1)
            one = (near == 1) & (m < 2.0 ** 1022)
            diff = seed_vecs[c[one]] - x[one]
            out[start:start + step][one] = np.sqrt(np.add.reduce(diff * diff, axis=1))
            loop.append(start + np.flatnonzero(~one))
    loop = np.concatenate(loop)
    if len(loop):
        out[loop] = _exact_point_to_set(emb.vectors, vs[loop], seed_vecs, mode)
    return out


def _exact_point_to_set(vectors: np.ndarray, vs: np.ndarray, seed_vecs: np.ndarray,
                        mode: str) -> np.ndarray:
    """Point-to-set distances over vertex chunks of bounded size, from the
    exact sum of squared differences to every seed vector."""
    step = max(1, _POINT_TO_SET_ELEMENTS // seed_vecs.size)
    out = np.empty(len(vs))
    # a distance past float64 comes out inf, which estimate_distortion rejects
    with np.errstate(over="ignore"):
        for start in range(0, len(vs), step):
            diff = seed_vecs - vectors[vs[start:start + step], None, :]
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
    _require_coverage(emb.covered, part.within, "embeddings")
    vs = part.grouped
    return part.dist[vs], _point_to_set(emb, vs, np.flatnonzero(part.dist == 0), point_to_set)


def hop_embedding_profile(gd, ed) -> list[ProfileRow]:
    """Per-hop mean and population std of the embedding distances of
    `paired_distances_for_distortion`, one row per hop present."""
    gd = np.asarray(gd, dtype=np.float64)
    ed = np.asarray(ed, dtype=np.float64)
    if gd.shape != ed.shape:
        raise ArgumentError("graph and embedding distances must have the same shape")
    # a stable sort keeps each hop's distances in vertex-id order
    order = np.argsort(gd, kind="stable")
    hops, starts = np.unique(gd[order], return_index=True)
    return [ProfileRow(hop=int(k), mean_distance=float(vals.mean()),
                       std=float(vals.std()), count=len(vals))
            for k, vals in zip(hops.tolist(), np.split(ed[order], starts[1:]))]
