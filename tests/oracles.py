"""Brute-force reference implementations the test suite checks the library against.

Everything here is written directly from the definitions with the dumbest
correct algorithm available (dense matrices, nested loops, exhaustive
enumeration). Nothing imports topoaware.
"""
from __future__ import annotations

import itertools
import math
import re
import warnings

import numpy as np
import scipy.sparse as sp
from scipy import stats
from scipy.sparse import csgraph

INF = math.inf


# ---------------------------------------------------------------------------
# graph construction references


def coo_to_csr(n, u, v):
    """indptr, indices and data of the symmetric 0/1 matrix of id pairs
    (u[j], v[j]) by scipy's COO -> CSR: self-loops dropped, a repeated pair
    summed and then set to 1."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    keep = u != v
    rows = np.concatenate([u[keep], v[keep]])
    cols = np.concatenate([v[keep], u[keep]])
    csr = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    csr.data[:] = 1.0
    return csr.indptr, csr.indices, csr.data


def set_based_graph(edge_tokens):
    """Reference builder: first-seen token order, set-of-sets adjacency.

    Returns (tokens, edges) with tokens a list in first-seen order and edges a
    set of frozenset token pairs (self-loops and duplicates dropped).
    """
    tokens = []
    seen = {}
    edges = set()
    for a, b in edge_tokens:
        for t in (a, b):
            if t not in seen:
                seen[t] = len(tokens)
                tokens.append(t)
        if a != b:
            edges.add(frozenset((a, b)))
    return tokens, edges


def graphs_equal(g1, g2):
    """Token-level graph equality as sets: the same token set and the same
    set of frozenset token-pair edges (from each graph's edge_token_pairs)."""
    if set(g1.tokens) != set(g2.tokens):
        return False
    mine = {frozenset(e) for e in g1.edge_token_pairs()}
    theirs = {frozenset(e) for e in g2.edge_token_pairs()}
    return mine == theirs


# ---------------------------------------------------------------------------
# distances


def floyd_warshall(n, edges):
    """Dense all-pairs hop distances, INF across components."""
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    for u, v in edges:
        if u != v:
            d[u, v] = 1.0
            d[v, u] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def point_group_distance(dist_matrix, v, group):
    return min(dist_matrix[v, u] for u in group)


def group_distance(dist_matrix, s1, s2):
    """Directed max-min distance via the definitional double loop."""
    return max(point_group_distance(dist_matrix, v, s2) for v in s1)


def kcenter_objective(dist_matrix, seeds):
    n = dist_matrix.shape[0]
    rest = [v for v in range(n) if v not in set(seeds)]
    return group_distance(dist_matrix, rest, seeds)


def aggregate_distance(dist_matrix, seeds, aggregator):
    """Mean/max over finite complement distances plus excluded count."""
    n = dist_matrix.shape[0]
    seeds = set(seeds)
    vals = [point_group_distance(dist_matrix, v, seeds) for v in range(n) if v not in seeds]
    finite = [x for x in vals if x != INF]
    excluded = len(vals) - len(finite)
    if not finite:
        return None, excluded
    agg = max(finite) if aggregator == "max" else sum(finite) / len(finite)
    return agg, excluded


def brute_kcenter(dist_matrix, k):
    """Exhaustive minimum over all C(n,k) seed sets; lexicographically smallest
    minimizer."""
    n = dist_matrix.shape[0]
    best_set, best_obj = None, None
    for combo in itertools.combinations(range(n), k):
        obj = kcenter_objective(dist_matrix, combo)
        if best_obj is None or obj < best_obj:
            best_set, best_obj = combo, obj
    return best_set, best_obj


# ---------------------------------------------------------------------------
# centrality


def dense_pagerank(n, edges, damping, tol, max_iter):
    """Dense power iteration; undirected edges as two arcs, dangling mass
    spread uniformly."""
    A = np.zeros((n, n))
    for u, v in edges:
        if u != v:
            A[u, v] = 1.0
            A[v, u] = 1.0
    deg = A.sum(axis=1)
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        contrib = np.zeros(n)
        for u in range(n):
            if deg[u] > 0:
                contrib += x[u] * A[u] / deg[u]
            else:
                contrib += x[u] / n
        nxt = damping * contrib + (1.0 - damping) / n
        if np.abs(nxt - x).sum() < tol:
            return nxt
        x = nxt
    return x


def sparse_pagerank(A, damping, tol, max_iter):
    """(scores, converged, iterations) of the library's power iteration on
    the 0/1 CSR matrix A, one named array per step in the library's
    operation order, so its bits must equal these."""
    n = A.shape[0]
    deg = np.diff(A.indptr).astype(np.float64)
    dangling = deg == 0.0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    x = np.full(n, 1.0 / n)
    for it in range(1, max_iter + 1):
        spread = A @ (x * inv_deg)
        dangle_mass = float(x[dangling].sum()) / n
        nxt = damping * (spread + dangle_mass) + (1.0 - damping) / n
        delta = float(np.abs(nxt - x).sum())
        x = nxt
        if delta < tol:
            return x, True, it
    return x, False, max_iter


def closeness_from_allpairs(dist_matrix):
    """Wasserman-Faust closeness: (rc/sum) * (rc/(n-1)); isolated vertex 0."""
    n = dist_matrix.shape[0]
    out = np.zeros(n)
    for v in range(n):
        finite = [dist_matrix[v, u] for u in range(n) if u != v and dist_matrix[v, u] != INF]
        rc = len(finite)
        if rc == 0 or n == 1:
            out[v] = 0.0
        else:
            out[v] = (rc / sum(finite)) * (rc / (n - 1))
    return out


# ---------------------------------------------------------------------------
# embedding / propagation


def sbm_edges_one_draw(sizes, p_in, p_out, rng_seed):
    """Block-model id pairs from one uniform draw per pair over all
    n(n-1)/2 pairs in row-major order (O(n^2) memory)."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    iu, ju = np.triu_indices(len(labels), k=1)
    p = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = np.random.Generator(np.random.PCG64(rng_seed)).random(len(iu)) < p
    return list(zip(iu[keep].tolist(), ju[keep].tolist()))


def vector_table_text(tokens, vectors):
    """The vector table of the all-finite rows, one `repr(float(x))` per
    element."""
    out = ["node," + ",".join(f"d{i}" for i in range(vectors.shape[1]))]
    for token, row in zip(tokens, vectors):
        if np.isfinite(row).all():
            out.append(token + "," + ",".join(repr(float(x)) for x in row))
    return "\n".join(out) + "\n"


def dense_propagate(n, edges, X, layers):
    """(D+I)^{-1} (A+I) applied `layers` times to the feature rows."""
    A = np.zeros((n, n))
    for u, v in edges:
        if u != v:
            A[u, v] = 1.0
            A[v, u] = 1.0
    M = A + np.eye(n)
    M = M / M.sum(axis=1, keepdims=True)
    H = np.asarray(X, dtype=float)
    for _ in range(layers):
        H = M @ H
    return H


def profile_rows(dist_to_seeds, vectors, seed_ids, max_hop, point_to_set):
    """Nested-loop hop profile: (hop, mean, population std, count) rows with
    empty hops omitted."""
    seed_ids = sorted(seed_ids)
    rows = []
    for k in range(1, max_hop + 1):
        members = [v for v in range(len(dist_to_seeds)) if dist_to_seeds[v] == k]
        if not members:
            continue
        vals = []
        for v in members:
            ds = [float(np.linalg.norm(vectors[v] - vectors[s])) for s in seed_ids]
            vals.append(min(ds) if point_to_set == "min" else sum(ds) / len(ds))
        arr = np.asarray(vals)
        rows.append((k, float(arr.mean()), float(arr.std()), len(members)))
    return rows


def point_to_set_loop(emb, vs, seed_ids, mode):
    """Per-vertex loop of Euclidean point-to-set distances ("min" or
    "mean") from each v to the seed vectors; `emb` has a `vectors` array."""
    seed_vecs = emb.vectors[seed_ids]
    out = np.empty(len(vs))
    for i, v in enumerate(vs):
        d = np.linalg.norm(seed_vecs - emb.vectors[v], axis=1)
        out[i] = d.min() if mode == "min" else d.mean()
    return out


def chunked_point_to_set(emb, vs, seed_ids, mode, elements):
    """The broadcast loop of point-to-set distances ("min" or "mean") over
    vertex chunks of at most `elements` differences: one exact sum of
    squared differences per vertex and seed vector."""
    seed_vecs = emb.vectors[seed_ids]
    step = max(1, elements // seed_vecs.size)
    out = np.empty(len(vs))
    for start in range(0, len(vs), step):
        diff = seed_vecs - emb.vectors[vs[start:start + step], None, :]
        d = np.sqrt(np.add.reduce(diff * diff, axis=2))
        out[start:start + step] = d.min(axis=1) if mode == "min" else d.mean(axis=1)
    return out


# ---------------------------------------------------------------------------
# hop groups, label tables and prediction tables as sets and dicts


def frozenset_partition(dist, max_hop):
    """The seed set, the hop groups (k, V_k) for k = 1..max_hop, the
    overflow and the unreachable set as frozensets of ids, read from a
    multi-source hop array."""
    dist = np.asarray(dist)

    def ids(mask):
        return frozenset(np.flatnonzero(mask).tolist())

    return {"seeds": ids(dist == 0),
            "groups": [(k, ids(dist == k)) for k in range(1, max_hop + 1)],
            "overflow": ids(np.isfinite(dist) & (dist > max_hop)),
            "unreachable": ids(~np.isfinite(dist))}


def dict_missing(predicted, subset):
    """Ids of `subset` without a prediction, ascending."""
    return [v for v in sorted({int(v) for v in subset}) if v not in predicted]


def dict_risk(predicted, truth, subset, loss):
    """Mean per-vertex loss over sorted(subset), read from the predicted and
    true label dicts; every subset vertex must be a key."""
    ids = sorted({int(v) for v in subset})
    if loss == "zero_one":
        return float(np.mean([1.0 if predicted[v] != truth[v] else 0.0 for v in ids]))
    diffs = np.asarray([float(predicted[v]) - float(truth[v]) for v in ids])
    return float(np.mean(np.abs(diffs) if loss == "absolute" else diffs ** 2))


def dict_subgroup_accuracy(partition, predicted, truth):
    """(per-hop rows, train accuracy, max discrepancy) from a
    `frozenset_partition`: one zero-one dict risk per non-empty group."""
    train = 1.0 - dict_risk(predicted, truth, partition["seeds"], "zero_one")
    rows = tuple((k, 1.0 - dict_risk(predicted, truth, members, "zero_one"), len(members))
                 for k, members in partition["groups"] if members)
    accs = [acc for _, acc, _ in rows]
    md = float(max(accs) - min(accs)) if len(accs) >= 2 else 0.0
    return rows, float(train), md


class Rejected(Exception):
    """An input the dict label chain refuses. `kind` names the library error
    class that stands for it and `line` is a parse error's 1-based line;
    str() is the library's message."""

    def __init__(self, kind, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.kind, self.line = kind, line


def dict_label_table(text):
    """(token -> label dict, mode) of a "node,label" table, one row at a
    time: int() of an integer literal (classification), float() of a
    decimal (regression)."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = lines[:-1] if lines[-1] == "" else lines
    if not lines or lines[0].strip() != "node,label":
        raise Rejected("ParseError", 'header must be "node,label"', 1)
    values, mode = {}, None
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise Rejected("ParseError", f"expected 2 fields, found {len(fields)}", ln)
        token, label = fields
        if token in values:
            raise Rejected("ParseError", f"duplicate token {token!r}", ln)
        if re.match(r"^[+-]?\d+$", label):
            kind, value = "classification", int(label)
        else:
            try:
                value = float(label)
            except ValueError:
                raise Rejected("ParseError", f"non-numeric label {label!r}", ln) from None
            if not math.isfinite(value):
                raise Rejected("ParseError", "non-finite label", ln)
            kind = "regression"
        if mode is None:
            mode = kind
        elif mode != kind:
            raise Rejected("ParseError",
                           f"mixed integer and decimal labels ({mode} then {kind})", ln)
        values[token] = value
    if mode is None:
        raise Rejected("ParseError", "no label rows", len(lines) or 1)
    return values, mode


def dict_prediction_chain(truth_text, pred_text, tokens):
    """(mode, predicted, truth) of two label tables over a graph with the
    given id -> token list, through dicts: both tables parsed, their modes
    compared, each resolved to an id-keyed dict (truth first; an unknown
    token is a coverage error), both cut to their shared ids, and a negative
    class label refused by its token."""
    truth_values, truth_mode = dict_label_table(truth_text)
    pred_values, pred_mode = dict_label_table(pred_text)
    if truth_mode != pred_mode:
        raise Rejected("ArgumentError", f"labels are {truth_mode} but predictions are {pred_mode}")
    index = {t: v for v, t in enumerate(tokens)}
    resolved = []
    for values in (truth_values, pred_values):
        unknown = [t for t in values if t not in index]
        if unknown:
            more = f" (+{len(unknown) - 10} more)" if len(unknown) > 10 else ""
            raise Rejected("CoverageError",
                           f"unknown vertex tokens: {', '.join(unknown[:10])}{more}")
        resolved.append({index[t]: y for t, y in values.items()})
    truth, predicted = resolved
    shared = sorted(set(truth) & set(predicted))
    if truth_mode == "classification":
        for labels in (predicted, truth):
            for v in shared:
                if labels[v] < 0:
                    raise Rejected("ArgumentError", "classification labels must be "
                                   f"non-negative ints, got {labels[v]} at {tokens[v]}")
    return truth_mode, {v: predicted[v] for v in shared}, {v: truth[v] for v in shared}


def hop_rows_by_mask(gd, ed):
    """(hop, mean, population std, count) per distinct graph distance, with
    one boolean mask per hop."""
    gd, ed = np.asarray(gd, dtype=float), np.asarray(ed, dtype=float)
    rows = []
    for k in np.unique(gd):
        vals = ed[gd == k]
        rows.append((int(k), float(vals.mean()), float(vals.std()), len(vals)))
    return rows


def trial_blocks(trials, group_count):
    """(group, mean, population variance) over contiguous blocks of the
    accuracies sorted by distance descending (stable), remainder to the
    last block, one index loop per block."""
    order = sorted(range(len(trials)), key=lambda i: -trials[i][0])
    base = len(trials) // group_count
    out = []
    pos = 0
    for gi in range(1, group_count + 1):
        size = base if gi < group_count else len(trials) - pos
        accs = np.asarray([trials[order[i]][1] for i in range(pos, pos + size)])
        out.append((gi, float(accs.mean()), float(accs.var())))
        pos += size
    return out


# ---------------------------------------------------------------------------
# statistics


def spearman_rank(xs, ys):
    """Average-rank Spearman via Pearson on ranks. Returns nan when either
    side is constant."""

    def avg_ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        ranks = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            r = (i + j) / 2.0 + 1.0
            for t in range(i, j + 1):
                ranks[order[t]] = r
            i = j + 1
        return ranks

    rx = np.asarray(avg_ranks(list(xs)))
    ry = np.asarray(avg_ranks(list(ys)))
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        return float("nan")
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))


def scipy_spearman(xs, ys):
    """scipy.stats.spearmanr's statistic, nan when either side is constant
    or holds a nan."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return float(stats.spearmanr(xs, ys).statistic)


def ordering_violations(hop_risks):
    """All pairs (i, j) with hop_i > hop_j but risk_i < risk_j."""
    out = []
    for (hi, ri), (hj, rj) in itertools.permutations(hop_risks, 2):
        if hi > hj and ri < rj:
            out.append((hi, hj))
    return sorted(out)


# ---------------------------------------------------------------------------
# seed selection by one full sweep per seed


def sweep_hops(g, sources):
    """Hop distances to the nearest of `sources` over the graph's CSR matrix
    (scipy)."""
    return csgraph.dijkstra(g.csr, directed=True, unweighted=True,
                            indices=sorted(set(sources)), min_only=True)


def _objective(n, seeds, dist):
    return 0 if len(seeds) == n else float(dist.max())


def kcenter_greedy_sweeps(g, k, start="highest_degree", rng_seed=None):
    """Farthest-first traversal with a full sweep and a minimum per seed.
    Returns (seeds, objective)."""
    if start == "highest_degree":
        first = int(np.argmax(np.diff(g.csr.indptr)))
    elif start == "random":
        first = int(np.random.Generator(np.random.PCG64(rng_seed)).integers(g.n))
    else:
        first = int(start)
    seeds = [first]
    dist = sweep_hops(g, [first])
    for _ in range(k - 1):
        nxt = int(np.argmax(dist))
        seeds.append(nxt)
        dist = np.minimum(dist, sweep_hops(g, [nxt]))
    return seeds, _objective(g.n, seeds, dist)


def coverage_sampling_sweeps(g, k, rng_seed):
    """Distance-weighted seed draws with a full sweep and a minimum per seed.
    Returns (seeds, objective)."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    seeds = [int(np.argmax(np.diff(g.csr.indptr)))]
    dist = sweep_hops(g, [seeds[0]])
    for _ in range(k - 1):
        weights = np.where(np.isfinite(dist), dist, float(g.n))
        weights[seeds] = 0.0
        nxt = int(rng.choice(g.n, p=weights / weights.sum()))
        seeds.append(nxt)
        dist = np.minimum(dist, sweep_hops(g, [nxt]))
    return seeds, _objective(g.n, seeds, dist)
