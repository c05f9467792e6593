"""Empirical risk, per-subgroup accuracy and discrepancy, distortion-based
bound drivers, risk-ordering checks, and trial grouping."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .graph import _distinct
from .metrics import DistortionEstimate, SubgroupPartition, _read_only, _require_coverage

LOSSES = ("zero_one", "absolute", "squared")
ORDERING_LIST_MAX = 100  # inverted pairs an ordering check lists; its count covers all


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """Predicted and true labels as read-only arrays indexed by vertex id;
    valid where the read-only mask `covered` is set."""

    covered: np.ndarray
    predicted: np.ndarray
    truth: np.ndarray
    mode: str


def make_prediction_table(covered, predicted, truth, mode: str) -> PredictionTable:
    """A prediction table of a bool mask and two int (classification: non-
    negative where covered) or float label arrays of its length."""
    if mode not in ("classification", "regression"):
        raise ArgumentError(f"mode must be classification or regression, got {mode!r}")
    covered, predicted, truth = np.array(covered), np.array(predicted), np.array(truth)
    if covered.dtype != bool or covered.ndim != 1:
        raise ArgumentError("covered must be a one-dimensional bool mask")
    kinds = "iu" if mode == "classification" else "iuf"  # int, unsigned, float
    for labels in (predicted, truth):
        if labels.shape != covered.shape or labels.dtype.kind not in kinds:
            raise ArgumentError(f"{mode} labels must be of dtype kind {kinds!r} and shape "
                                f"{covered.shape}, got {labels.dtype} {labels.shape}")
        negative = covered & (labels < 0)
        if mode == "classification" and negative.any():
            v = int(negative.argmax())
            raise ArgumentError(
                f"classification labels must be non-negative ints, got {labels[v]} at {v}")
    return PredictionTable(covered=_read_only(covered), predicted=_read_only(predicted),
                           truth=_read_only(truth), mode=mode)


def empirical_risk(preds: PredictionTable, subset, loss: str) -> float:
    """Mean loss over the subset; zero_one only in classification mode."""
    if loss not in LOSSES:
        raise ArgumentError(f"loss must be one of {LOSSES}, got {loss!r}")
    if not (isinstance(subset, np.ndarray) and subset.dtype.kind == "i" and subset.ndim == 1):
        subset = np.fromiter(subset, dtype=np.intp)
    ids = _distinct(subset)
    if not len(ids):
        raise ArgumentError("subset is empty")
    _require_coverage(preds.covered, ids, "predictions")
    p, t = preds.predicted[ids], preds.truth[ids]
    if loss == "zero_one":
        if preds.mode != "classification":
            raise ArgumentError("zero_one loss requires classification mode")
        return np.count_nonzero(p != t) / len(ids)
    diffs = p.astype(np.float64) - t.astype(np.float64)
    return float(np.mean(np.abs(diffs) if loss == "absolute" else diffs ** 2))


@dataclass(frozen=True)
class SubgroupReport:
    """Per-hop accuracies R_k, the training accuracy R_0, and the maximum
    discrepancy MD = max |R_i - R_j| over reported hops."""

    per_hop: tuple
    train_accuracy: float
    max_discrepancy: float


def subgroup_accuracy(partition: SubgroupPartition, preds: PredictionTable) -> SubgroupReport:
    """R_k = 1 - zero-one risk on each non-empty hop group; hop 0 is the seed
    set. Predictions must cover the seeds and every group within max_hop."""
    if preds.mode != "classification":
        raise ArgumentError("subgroup accuracy requires classification predictions")
    within = partition.within
    _require_coverage(preds.covered, within, "predictions")
    hops = partition.dist[within].astype(np.intp)
    wrong = preds.predicted[within] != preds.truth[within]
    counts = partition.counts
    # sums of 0/1 are exact, so R_k equals 1 - mean of the per-vertex errors
    accs = (1.0 - np.bincount(hops[wrong], minlength=len(counts)) / counts).tolist()
    rows = tuple(zip(range(1, len(counts)), accs[1:], counts[1:].tolist()))
    md = max(accs[1:]) - min(accs[1:]) if len(rows) >= 2 else 0.0
    return SubgroupReport(per_hop=rows, train_accuracy=accs[0], max_discrepancy=md)


@dataclass(frozen=True)
class BoundReport:
    """Constant-free driver alpha * D_s of the risk bound
    R(V_i) <= R(V_0) + O(alpha * D_s(V_i, V_0))."""

    train_risk: float
    alpha: float
    group_distance: float
    bound_driver: float

    def bound_value(self, c: float = 1.0) -> float:
        return self.train_risk + c * self.bound_driver


def bound_report(train_risk: float, distortion: DistortionEstimate,
                 Dsi) -> BoundReport:
    if not np.isfinite(float(Dsi)):
        raise ArgumentError("group distance is unreachable; the bound is vacuous")
    d = float(Dsi)
    if d < 0:
        raise ArgumentError(f"group distance must be >= 0, got {d}")
    return BoundReport(train_risk=float(train_risk), alpha=float(distortion.alpha),
                       group_distance=d, bound_driver=float(distortion.alpha) * d)


@dataclass(frozen=True)
class OrderingResult:
    """Risk-ordering check across hops: the count of strict inversions, the
    first ORDERING_LIST_MAX of them (truncated when the count is larger),
    and the Spearman rank correlation between hop index and risk."""

    violations: tuple
    violation_count: int
    violations_truncated: bool
    spearman: float
    all_ties: bool


def _average_ranks(values) -> np.ndarray:
    """1-based ranks, tied values sharing their mean rank; NaN ranks as NaN
    (scipy.stats.rankdata's "average" method, with spearmanr's NaN result)."""
    values = np.asarray(values, dtype=np.float64)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return np.where(np.isnan(values), np.nan, ranks)


def _inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j] in O(G log G), as Knight (JASA 1966)
    counts Kendall's discordant pairs: a bottom-up merge of dense ranks. At
    width w each block of 2w holds two sorted halves, so the first halves'
    (block, rank) keys are sorted and block b's first half ends at (b + 1)w."""
    pos, count, w = np.arange(len(r), dtype=np.int64), 0, 1
    ranks = np.unique(r, return_inverse=True)[1]
    while w < len(r):
        block, first = pos // (2 * w), pos % (2 * w) < w
        keys = block * len(r) + ranks
        not_above = np.searchsorted(keys[first], keys[~first], side="right")
        count += int(((block[~first] + 1) * w - not_above).sum())
        ranks = np.sort(keys) - block * len(r)  # each block keeps its positions
        w *= 2
    return count


def ordering_check(subgroup_risks) -> OrderingResult:
    rows = [(int(k), float(r)) for k, r in subgroup_risks]
    if len(rows) < 2:
        raise ArgumentError("ordering check needs at least two hop groups")
    hops = [k for k, _ in rows]
    if len(set(hops)) != len(hops):
        raise ArgumentError("duplicate hop indices")
    risks = [r for _, r in rows]
    # violations are pairs hi > hj with ri < rj, so a NaN risk is in none
    order = np.argsort(hops)
    r = np.asarray(risks)[order]
    h, r = np.asarray(hops)[order][~np.isnan(r)], r[~np.isnan(r)]
    # group b has a violation when a risk before it in hop order is above its own
    groups = np.flatnonzero(r[1:] < np.maximum.accumulate(r)[:-1]) + 1
    pairs = [(int(h[b]), int(h[a])) for b in groups[:ORDERING_LIST_MAX]
             for a in np.flatnonzero(r[:b] > r[b])[:ORDERING_LIST_MAX]][:ORDERING_LIST_MAX]
    count = _inversions(r)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # equal risks give nan: all ties
        # columns, as scipy.stats.spearmanr stacks them: rows differ in the last ulp
        ranks = np.column_stack([_average_ranks(hops), _average_ranks(risks)])
        rho = float(np.corrcoef(ranks, rowvar=False)[1, 0])
    all_ties = not np.isfinite(rho)
    return OrderingResult(violations=tuple(pairs), violation_count=count,
                          violations_truncated=count > len(pairs),
                          spearman=0.0 if all_ties else rho, all_ties=all_ties)


def trial_grouping(trials, group_count: int):
    """Sort trials by aggregate distance descending (stable), split into
    group_count contiguous blocks (remainder to the last), and report 1-based
    (group, mean accuracy, population variance) rows."""
    trials = [(float(d), float(a)) for d, a in trials]
    if not trials:
        raise ArgumentError("no trials supplied")
    group_count = int(group_count)
    if group_count < 1:
        raise ArgumentError(f"group_count must be >= 1, got {group_count}")
    if group_count > len(trials):
        raise ArgumentError(
            f"group_count {group_count} exceeds trial count {len(trials)}")
    accs = np.asarray([a for _, a in sorted(trials, key=lambda t: -t[0])])
    blocks = np.split(accs, len(accs) // group_count * np.arange(1, group_count))
    return [(gi, float(b.mean()), float(b.var())) for gi, b in enumerate(blocks, start=1)]


@dataclass(frozen=True)
class AggregateDistance:
    value: float
    excluded_unreachable: int
    aggregator: str


def aggregate_distance(dist, aggregator: str) -> AggregateDistance:
    """max or mean of finite distances from the complement of V0 to V0, read
    from V0's `multi_source_bfs` array (V0 is exactly dist == 0), with the
    count of excluded unreachable vertices."""
    if aggregator not in ("max", "mean"):
        raise ArgumentError(f"aggregator must be 'max' or 'mean', got {aggregator!r}")
    vals = dist[dist > 0]
    if len(vals) == 0:
        raise ArgumentError("seed set covers every vertex; nothing to aggregate")
    finite = vals[np.isfinite(vals)]
    excluded = int(len(vals) - len(finite))
    if len(finite) == 0:
        raise ArgumentError("no finite distances from the complement to the seed set")
    value = float(finite.max()) if aggregator == "max" else float(finite.mean())
    return AggregateDistance(value=value, excluded_unreachable=excluded,
                             aggregator=aggregator)


def format_acc_md(accuracy: float, md: float) -> str:
    """Fixed two-decimal "ACC|MD" rendering on the percent scale."""
    for name, val in (("accuracy", accuracy), ("md", md)):
        if not 0.0 <= float(val) <= 100.0:
            raise ArgumentError(f"{name} must be within [0, 100], got {val}")
    return f"{float(accuracy):.2f}|{float(md):.2f}"
