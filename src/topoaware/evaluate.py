"""Empirical risk, per-subgroup accuracy and discrepancy, distortion-based
bound drivers, risk-ordering checks, and trial grouping."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import ArgumentError, SizeGuardError
from .graph import UNREACHABLE
from .metrics import DistortionEstimate, SubgroupPartition, _read_only, _require_coverage

LOSSES = ("zero_one", "absolute", "squared")
PREDICTION_MAX_ID = 10**7  # a mask and two codes per id: a 162 MiB peak at this id


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """Predicted and true labels as read-only int codes into `values` (equal
    codes, equal values), one per vertex id; valid where `covered` is set."""

    covered: np.ndarray
    predicted: np.ndarray
    truth: np.ndarray
    values: tuple
    mode: str


def make_prediction_table(predicted, truth, mode: str) -> PredictionTable:
    """Predicted and true labels keyed by the same vertex ids. The mask and
    the code arrays hold one entry per id up to the largest, so a table's
    memory grows with its largest id, not with its size; an id above
    PREDICTION_MAX_ID is a SizeGuardError, raised before they are built."""
    if mode not in ("classification", "regression"):
        raise ArgumentError(f"mode must be classification or regression, got {mode!r}")
    pk, tk = set(predicted), set(truth)
    if pk != tk:
        raise ArgumentError(
            f"predicted and truth must cover the same vertices; {len(pk ^ tk)} differ")
    if mode == "classification":
        for m in (predicted, truth):
            for v, y in m.items():
                if not isinstance(y, (int, np.integer)) or isinstance(y, bool) or y < 0:
                    raise ArgumentError(
                        f"classification labels must be non-negative ints, got {y!r} at {v}")
    try:
        ids = np.array([int(v) for v in pk], dtype=np.intp)
    except OverflowError:
        raise ArgumentError("vertex ids must fit a machine integer") from None
    if np.any(ids < 0):
        raise ArgumentError(f"vertex ids must be non-negative, got {int(ids.min())}")
    if ids.max(initial=0) > PREDICTION_MAX_ID:
        raise SizeGuardError(f"vertex id {int(ids.max())} exceeds the prediction table "
                             f"limit of {PREDICTION_MAX_ID}")
    covered = np.bincount(ids).astype(bool)
    index: dict = {}  # label value -> code, over both tables
    codes = np.zeros((2, len(covered)), dtype=np.intp)
    codes[:, ids] = [[index.setdefault(m[v], len(index)) for v in pk] for m in (predicted, truth)]
    return PredictionTable(covered=_read_only(covered), predicted=_read_only(codes[0]),
                           truth=_read_only(codes[1]), values=tuple(index), mode=mode)


def empirical_risk(preds: PredictionTable, subset, loss: str) -> float:
    """Mean loss over the subset; zero_one only in classification mode."""
    if loss not in LOSSES:
        raise ArgumentError(f"loss must be one of {LOSSES}, got {loss!r}")
    ids = np.unique(np.fromiter(subset, dtype=np.intp))
    if not len(ids):
        raise ArgumentError("subset is empty")
    _require_coverage(preds.covered, ids, "predictions")
    p, t = preds.predicted[ids], preds.truth[ids]
    if loss == "zero_one":
        if preds.mode != "classification":
            raise ArgumentError("zero_one loss requires classification mode")
        return np.count_nonzero(p != t) / len(ids)
    used = np.union1d(p, t)
    floats = np.zeros(len(preds.values))
    try:
        floats[used] = [float(preds.values[c]) for c in used.tolist()]
    except OverflowError:
        raise ArgumentError(f"{loss} loss needs labels that fit a float") from None
    diffs = floats[p] - floats[t]
    return float(np.mean(np.abs(diffs) if loss == "absolute" else diffs ** 2))


@dataclass(frozen=True)
class SubgroupReport:
    """Per-hop accuracies R_k, the training accuracy R_0, and the maximum
    discrepancy MD = max |R_i - R_j| over reported hops."""

    per_hop: tuple
    train_accuracy: float
    max_discrepancy: float
    max_hop: int


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
    return SubgroupReport(per_hop=rows, train_accuracy=accs[0],
                          max_discrepancy=md, max_hop=partition.max_hop)


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
    if Dsi == UNREACHABLE or not np.isfinite(float(Dsi)):
        raise ArgumentError("group distance is unreachable; the bound is vacuous")
    d = float(Dsi)
    if d < 0:
        raise ArgumentError(f"group distance must be >= 0, got {d}")
    return BoundReport(train_risk=float(train_risk), alpha=float(distortion.alpha),
                       group_distance=d, bound_driver=float(distortion.alpha) * d)


@dataclass(frozen=True)
class OrderingResult:
    """Risk-ordering check across hops: strict inversions plus the Spearman
    rank correlation between hop index and risk."""

    violations: tuple
    spearman: float
    all_ties: bool


def ordering_check(subgroup_risks) -> OrderingResult:
    rows = [(int(k), float(r)) for k, r in subgroup_risks]
    if len(rows) < 2:
        raise ArgumentError("ordering check needs at least two hop groups")
    hops = [k for k, _ in rows]
    if len(set(hops)) != len(hops):
        raise ArgumentError("duplicate hop indices")
    risks = [r for _, r in rows]
    violations = sorted((hi, hj) for hi, ri in rows for hj, rj in rows
                        if hi > hj and ri < rj)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # equal risks give nan: all ties
        rho = float(stats.spearmanr(hops, risks).statistic)
    all_ties = not np.isfinite(rho)
    return OrderingResult(violations=tuple(violations), spearman=0.0 if all_ties else rho,
                          all_ties=all_ties)


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
