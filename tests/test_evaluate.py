from __future__ import annotations

import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import er_graph, id_graph, path_graph
from topoaware import (ArgumentError, CoverageError, EmbeddingTable, TopoawareError,
                       aggregate_distance, bound_report, cli, empirical_risk,
                       estimate_distortion, format_acc_md, hop_embedding_profile,
                       make_prediction_table, multi_source_bfs, ordering_check,
                       paired_distances_for_distortion, parse_label_table,
                       partition_by_distance, subgroup_accuracy, trial_grouping)
from topoaware.evaluate import LOSSES, ORDERING_LIST_MAX


def table(predicted, truth, mode="classification"):
    """The prediction table of two label dicts keyed by the same ids."""
    assert predicted.keys() == truth.keys()
    ids = list(predicted)
    covered = np.zeros(max(ids, default=-1) + 1, dtype=bool)
    covered[ids] = True
    labels = []
    for m in (predicted, truth):
        values = np.array([m[v] for v in ids])
        labels.append(np.zeros(len(covered), dtype=values.dtype))
        labels[-1][ids] = values
    return make_prediction_table(covered, *labels, mode)


# ---------------------------------------------------------------------------
# prediction tables and risk


def test_table_requires_matching_keys_and_mode():
    mask, ones = np.ones(2, dtype=bool), np.ones(2, dtype=np.int64)
    for covered, predicted, truth, mode, message in [
        (mask, ones, ones, "ranking", "mode must be"),
        (np.ones(2, dtype=np.int64), ones, ones, "classification", "bool mask"),
        (mask, ones[:1], ones, "classification", "and shape \\(2,\\)"),
        (mask, ones, np.ones((2, 1), dtype=np.int64), "regression", "and shape \\(2,\\)"),
        (mask, ones, ones.astype(float), "classification", "got float64"),
        (mask, ones.astype(bool), ones, "regression", "got bool"),
        (mask, ones.astype(object), ones, "regression", "got object"),
        (mask, ones, np.array([1, -1]), "classification", "got -1 at 1"),
    ]:
        with pytest.raises(ArgumentError, match=message):
            make_prediction_table(covered, predicted, truth, mode)
    # only covered class labels must be non-negative; regression labels may be negative
    t = make_prediction_table([True, False], [1, -1], [1, -5], "classification")
    assert t.covered.tolist() == [True, False] and t.truth.tolist() == [1, -5]
    assert make_prediction_table(mask, -ones, ones, "regression").predicted.tolist() == [-1, -1]


def test_table_arrays_are_read_only_copies():
    covered, labels = np.ones(3, dtype=bool), np.arange(3)
    t = make_prediction_table(covered, labels, labels, "classification")
    labels[0] = 9
    assert t.predicted.tolist() == t.truth.tolist() == [0, 1, 2]
    for a in (t.covered, t.predicted, t.truth):
        with pytest.raises(ValueError):
            a[0] = a[1]


def test_risk_all_correct_and_half():
    t = table({0: 1, 1: 2}, {0: 1, 1: 2})
    assert empirical_risk(t, {0, 1}, "zero_one") == 0.0
    t2 = table({0: 1, 1: 2}, {0: 1, 1: 3})
    assert empirical_risk(t2, {0, 1}, "zero_one") == 0.5
    # an int array is taken as it is, repeats and order included
    for ids in (np.array([1, 0, 1]), np.array([1, 0], dtype=np.int32), np.array([1, 0, 1.0])):
        assert empirical_risk(t2, ids, "zero_one") == 0.5


def test_risk_is_exact_complement_of_accuracy():
    # 7140 correct out of 10000 means accuracy 71.40% and risk 0.2860 exactly
    n = 10000
    truth = {v: 1 for v in range(n)}
    predicted = {v: 1 if v < 7140 else 0 for v in range(n)}
    risk = empirical_risk(table(predicted, truth), range(n), "zero_one")
    assert risk == pytest.approx(0.2860, abs=1e-12)


def test_risk_absolute_and_squared():
    t = table({0: 1.0, 1: 3.0}, {0: 2.0, 1: 1.0}, mode="regression")
    assert empirical_risk(t, {0, 1}, "absolute") == pytest.approx(1.5)
    assert empirical_risk(t, {0, 1}, "squared") == pytest.approx(2.5)


def test_risk_guards():
    t = table({0: 1.0}, {0: 1.0}, mode="regression")
    with pytest.raises(ArgumentError):
        empirical_risk(t, {0}, "zero_one")
    with pytest.raises(ArgumentError):
        empirical_risk(t, set(), "absolute")
    with pytest.raises(CoverageError):
        empirical_risk(t, {5}, "absolute")
    with pytest.raises(ArgumentError):
        empirical_risk(t, {0}, "hinge")


# ---------------------------------------------------------------------------
# subgroup accuracy


def test_subgroup_perfect_predictions():
    g = path_graph(5)
    part = partition_by_distance(g, {0}, max_hop=3)
    t = table({v: 1 for v in range(5)}, {v: 1 for v in range(5)})
    rep = subgroup_accuracy(part, t)
    assert rep.train_accuracy == 1.0
    assert [acc for _, acc, _ in rep.per_hop] == [1.0, 1.0, 1.0]
    assert rep.max_discrepancy == 0.0


def test_subgroup_md_is_max_minus_min():
    # hops 1..3 of sizes 10, 10, 10 with accuracies 0.9, 0.8, 0.6
    star_rows = [(0, i + 1) for i in range(30)]
    g = id_graph(31, star_rows)
    part = partition_by_distance(g, {0}, max_hop=5)
    truth = {v: 1 for v in range(31)}
    predicted = dict(truth)
    part1 = np.flatnonzero(part.dist == 1).tolist()
    for v in part1[:3]:
        predicted[v] = 0
    rep = subgroup_accuracy(part, table(predicted, truth))
    assert rep.per_hop == ((1, pytest.approx(0.9), 30),)
    assert rep.max_discrepancy == 0.0  # single hop group


def test_subgroup_md_three_groups():
    # path so hops 1, 2, 3 each hold exactly one vertex
    g = path_graph(4)
    part = partition_by_distance(g, {0}, max_hop=3)
    truth = {v: 1 for v in range(4)}
    rep = subgroup_accuracy(part, table({0: 1, 1: 1, 2: 0, 3: 0}, truth))
    assert [acc for _, acc, _ in rep.per_hop] == [1.0, 0.0, 0.0]
    assert rep.max_discrepancy == pytest.approx(1.0)


@given(st.integers(0, 2**32 - 1))
def test_subgroup_matches_recount_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    g, edges = er_graph(rng, n, 0.15, connected=True)
    seeds = {int(v) for v in rng.choice(n, size=int(rng.integers(1, 4)), replace=False)}
    max_hop = int(rng.integers(1, 6))
    part = partition_by_distance(g, seeds, max_hop=max_hop)
    truth = {v: int(rng.integers(3)) for v in range(n)}
    predicted = {v: int(rng.integers(3)) for v in range(n)}
    rep = subgroup_accuracy(part, table(predicted, truth))
    fw = oracles.floyd_warshall(n, edges)
    dist = [min(fw[s][v] for s in seeds) for v in range(n)]
    for k, acc, count in rep.per_hop:
        members = [v for v in range(n) if dist[v] == k]
        assert count == len(members) and members
        want = sum(predicted[v] == truth[v] for v in members) / len(members)
        assert acc == pytest.approx(want)
    accs = [acc for _, acc, _ in rep.per_hop]
    if len(accs) >= 2:
        assert rep.max_discrepancy == pytest.approx(max(accs) - min(accs))
    else:
        assert rep.max_discrepancy == 0.0


def test_subgroup_needs_classification_and_coverage():
    g = path_graph(4)
    part = partition_by_distance(g, {0}, max_hop=2)
    reg = table({v: 1.0 for v in range(4)}, {v: 1.0 for v in range(4)},
                mode="regression")
    with pytest.raises(ArgumentError):
        subgroup_accuracy(part, reg)
    short = table({0: 1, 1: 1}, {0: 1, 1: 1})
    with pytest.raises(CoverageError):
        subgroup_accuracy(part, short)


def assert_matches_dicts(part, max_hop, preds, predicted, truth, subset):
    """subgroup_accuracy (in classification mode) and every loss's
    empirical_risk over `subset` equal the dict oracles' on the id-keyed
    labels, or raise the CoverageError naming the same ids."""
    old = oracles.frozenset_partition(part.dist, max_hop)
    runs = [(subset, lambda loss=loss: empirical_risk(preds, subset, loss),
             lambda loss=loss: oracles.dict_risk(predicted, truth, subset, loss))
            for loss in LOSSES if loss != "zero_one" or preds.mode == "classification"]
    if preds.mode == "classification":
        def accuracy():
            rep = subgroup_accuracy(part, preds)
            return rep.per_hop, rep.train_accuracy, rep.max_discrepancy

        runs.append((part.within, accuracy,
                     lambda: oracles.dict_subgroup_accuracy(old, predicted, truth)))
    for ids, got, want in runs:
        missing = oracles.dict_missing(predicted, ids)
        if missing:
            with pytest.raises(CoverageError) as err:
                got()
            assert err.value.missing == tuple(missing)
        else:
            assert got() == want()


# the labels drawn for the array-against-dict comparison: the last two are
# distinct ints, equal as floats
_LABELS = [0, 1, 2, 2**63 - 2, 2**63 - 1]


@given(st.integers(0, 2**32 - 1))
def test_tables_match_the_set_and_dict_forms(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    g, _ = er_graph(rng, n, float(rng.uniform(0.03, 0.3)))
    seeds = {int(v) for v in rng.choice(n, size=int(rng.integers(1, n)), replace=False)}
    max_hop = int(rng.integers(1, 7))
    part = partition_by_distance(g, seeds, max_hop=max_hop)
    old = oracles.frozenset_partition(part.dist, max_hop)
    sizes = [len(old["seeds"])] + [len(members) for _, members in old["groups"]]
    counts = part.counts.tolist()
    assert counts == sizes[:len(counts)] and not any(sizes[len(counts):])
    assert part.overflow_count == len(old["overflow"])
    assert part.unreachable_count == len(old["unreachable"])

    kept = [v for v in range(n) if rng.random() > 0.1]
    truth = {v: _LABELS[int(rng.integers(len(_LABELS)))] for v in kept}
    predicted = {v: _LABELS[int(rng.integers(len(_LABELS)))] for v in kept}
    subset = {int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)))}
    for mode in ("classification", "regression"):
        preds = table(predicted, truth, mode)
        assert_matches_dicts(part, max_hop, preds, predicted, truth, subset)


# label-table rows for the comparison with the dict chain
_INT_LABELS = ["0", "1", "2", "+2", "007", str(2**63 - 2), str(2**63 - 1)]
_DECIMAL_LABELS = ["0.5", "-1.25", "2.0", "1e3", "-0.0", "3.25"]
_ODD_LABELS = {"outside int64": [str(2**63), str(-2**63 - 1), "9" * 30],
               "bad label": ["nan", "inf", "one", ""], "negative": ["-1", "-3", str(-2**63)]}
_CHAIN_GRAPH = path_graph(6)


@st.composite
def label_text(draw, pool):
    """A "node,label" table over v0..v5 (shuffled, a few rows dropped) with
    labels from `pool`, changed in most draws: one row more (a repeated or
    unknown token, a label of the other mode, three fields, a blank or a
    comment) or one row's label odd (outside int64, not a finite number,
    negative)."""
    known = list(_CHAIN_GRAPH.tokens)
    tokens = draw(st.permutations(known))[:len(known) - draw(st.sampled_from([0, 0, 1, 3]))]
    rows = [f"{t},{draw(st.sampled_from(pool))}" for t in tokens]
    other = _DECIMAL_LABELS if pool is _INT_LABELS else _INT_LABELS
    extra = [f"{draw(st.sampled_from(tokens or known))},{draw(st.sampled_from(pool))}",
             f"zz,{draw(st.sampled_from(pool))}",
             f"{draw(st.sampled_from(known))},{draw(st.sampled_from(other))}",
             "v1,1,2", draw(st.sampled_from(["", "# note"]))]
    odd = [draw(st.sampled_from(labels)) for labels in _ODD_LABELS.values()]
    change = draw(st.integers(0, len(extra) + len(odd) + 7))
    if change < len(extra):
        rows.insert(draw(st.integers(0, len(rows))), extra[change])
    elif change < len(extra) + len(odd) and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = f"{tokens[i]},{odd[change - len(extra)]}"
    return "node,label\n" + "".join(r + "\n" for r in rows)


def first_outside_int64(text):
    """The line of the first row whose int label is outside int64 and whose
    token is new, or None."""
    seen = set()
    for ln, line in enumerate(text.split("\n")[1:], start=2):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2 or line.strip().startswith("#"):
            continue
        if fields[0] not in seen and re.match(r"^[+-]?\d+$", fields[1]):
            if not -2**63 <= int(fields[1]) < 2**63:
                return ln
        seen.add(fields[0])
    return None


def dict_chain(truth_text, pred_text):
    """The dict chain's result or Rejected error, with one change: each
    table's first out-of-int64 row is a parse error unless an earlier line
    already is one."""
    try:
        for text in (truth_text, pred_text):
            line = first_outside_int64(text)
            try:
                oracles.dict_label_table(text)
            except oracles.Rejected as err:
                if line is None or err.line < line:
                    raise
            if line is not None:
                raise oracles.Rejected("ParseError", "integer label outside int64", line)
        return oracles.dict_prediction_chain(truth_text, pred_text, _CHAIN_GRAPH.tokens)
    except oracles.Rejected as err:
        return err


@settings(max_examples=150)
@given(st.sampled_from([_INT_LABELS, _DECIMAL_LABELS]), st.data())
def test_label_arrays_match_the_dict_chain(pool, data):
    # the predictions take the other mode now and then
    pred_pool = data.draw(st.sampled_from([pool] * 7 + [_INT_LABELS, _DECIMAL_LABELS]))
    truth_text, pred_text = data.draw(label_text(pool)), data.draw(label_text(pred_pool))
    want = dict_chain(truth_text, pred_text)
    try:
        truth_table = parse_label_table(truth_text)
        preds = cli._prediction_table(truth_table, parse_label_table(pred_text), _CHAIN_GRAPH)
    except TopoawareError as err:
        assert isinstance(want, oracles.Rejected), err
        assert (type(err).__name__, str(err)) == (want.kind, str(want))
        return
    assert not isinstance(want, oracles.Rejected), want
    mode, predicted, truth = want
    ids = sorted(predicted)
    assert preds.mode == mode and np.flatnonzero(preds.covered).tolist() == ids
    assert preds.predicted[ids].tolist() == [predicted[v] for v in ids]
    assert preds.truth[ids].tolist() == [truth[v] for v in ids]
    seeds = data.draw(st.sets(st.integers(0, 5), min_size=1))
    max_hop = data.draw(st.integers(1, 4))
    subset = data.draw(st.sets(st.integers(0, 5), min_size=1))
    part = partition_by_distance(_CHAIN_GRAPH, seeds, max_hop=max_hop)
    assert_matches_dicts(part, max_hop, preds, predicted, truth, subset)


def test_risk_negative_and_past_the_end_ids_are_uncovered():
    t = table({0: 1, 2: 1}, {0: 1, 2: 0})
    assert t.covered.tolist() == [True, False, True]
    for subset, missing in (({-1, 0}, (-1,)), ({1, 2}, (1,)), ({0, 3, 99}, (3, 99))):
        with pytest.raises(CoverageError) as err:
            empirical_risk(t, subset, "zero_one")
        assert err.value.missing == missing


def test_large_max_hop_costs_nothing_per_hop():
    # n * max_hop = 2e10: the partition counts, the subgroup accuracy, the
    # distortion pairs and the hop profile must do no work per empty hop
    rng = np.random.default_rng(7)
    n = 20_000
    parent = (rng.random(n - 1) * np.arange(1, n)).astype(int)
    edges = list(zip(range(1, n), parent.tolist()))
    edges += [(int(u), int(v)) for u, v in rng.integers(0, n, size=(2 * n, 2))]
    g = id_graph(n, edges)
    emb = EmbeddingTable(rng.normal(size=(n, 4)))
    labels = {v: int(y) for v, y in enumerate(rng.integers(3, size=n))}
    preds = table({v: (y + (v % 5 == 0)) % 3 for v, y in labels.items()}, labels)

    t0 = time.perf_counter()
    part = partition_by_distance(g, rng.choice(n, size=5, replace=False).tolist(),
                                 max_hop=10**6)
    counts = part.counts
    rep = subgroup_accuracy(part, preds)
    gd, ed = paired_distances_for_distortion(part, emb)
    rows = hop_embedding_profile(gd, ed)
    elapsed = time.perf_counter() - t0

    hops = len(counts) - 1
    assert hops == int(part.dist.max()) and 2 <= hops < 30
    assert (part.overflow_count, part.unreachable_count) == (0, 0)
    assert [k for k, _, _ in rep.per_hop] == [r.hop for r in rows] == list(range(1, hops + 1))
    assert [c for _, _, c in rep.per_hop] == [r.count for r in rows] == counts[1:].tolist()
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


# ---------------------------------------------------------------------------
# bound report


def test_bound_report_example():
    est = estimate_distortion([1, 2], [2.0, 4.0])
    rep = bound_report(0.05, est, 3)
    assert rep.alpha == pytest.approx(1.0)
    assert rep.bound_driver == pytest.approx(3.0)
    assert rep.bound_value() == pytest.approx(3.05)
    assert rep.bound_value(c=2.0) == pytest.approx(6.05)


def test_bound_zero_distance():
    est = estimate_distortion([1], [1.0])
    rep = bound_report(0.1, est, 0)
    assert rep.bound_driver == 0.0 and rep.bound_value() == pytest.approx(0.1)


def test_bound_rejects_unreachable_and_negative():
    est = estimate_distortion([1], [1.0])
    with pytest.raises(ArgumentError):
        bound_report(0.1, est, float("inf"))
    with pytest.raises(ArgumentError):
        bound_report(0.1, est, -1)


@given(st.floats(0, 1), st.integers(0, 9), st.integers(0, 9))
def test_bound_monotone_in_distance(risk, d1, d2):
    est = estimate_distortion([1, 1], [1.0, 2.5])
    lo, hi = sorted((d1, d2))
    assert (bound_report(risk, est, lo).bound_value()
            <= bound_report(risk, est, hi).bound_value())


# ---------------------------------------------------------------------------
# ordering


def test_ordering_monotone_risks():
    res = ordering_check([(1, 0.1), (2, 0.2), (3, 0.4)])
    assert res.violations == ()
    assert res.spearman == pytest.approx(1.0)
    assert not res.all_ties


def test_ordering_detects_inversions():
    res = ordering_check([(1, 0.5), (2, 0.2), (3, 0.4)])
    assert (2, 1) in res.violations and (3, 1) in res.violations
    assert res.spearman < 1.0


def test_ordering_all_equal_risks():
    res = ordering_check([(1, 0.3), (2, 0.3), (3, 0.3)])
    assert res.spearman == 0.0 and res.all_ties
    assert res.violations == ()


def test_ordering_guards():
    with pytest.raises(ArgumentError):
        ordering_check([(1, 0.1)])
    with pytest.raises(ArgumentError):
        ordering_check([(1, 0.1), (1, 0.2)])


@given(st.lists(st.floats(0, 1), min_size=2, max_size=8, unique=True))
def test_ordering_matches_enumeration_oracle(risks):
    rows = list(enumerate(risks, start=1))
    res = ordering_check(rows)
    want = oracles.ordering_violations(rows)
    assert set(res.violations) == set(want)
    rho = oracles.spearman_rank([k for k, _ in rows], risks)
    assert res.spearman == pytest.approx(rho, abs=1e-9)


@given(st.lists(st.tuples(st.integers(-50, 50),
                          st.sampled_from([0.0, 0.25, 1.0, np.inf, np.nan]) | st.floats(0, 1)),
                min_size=2, max_size=40, unique_by=lambda row: row[0]))
def test_ordering_spearman_equals_scipy_bits(rows):
    # few distinct risks, so ties and all-ties (nan, reported as 0.0) are common
    res = ordering_check(rows)
    rho = oracles.scipy_spearman([k for k, _ in rows], [r for _, r in rows])
    assert res.all_ties == (not np.isfinite(rho))
    want = 0.0 if res.all_ties else rho
    assert np.float64(res.spearman).view(np.uint64) == np.float64(want).view(np.uint64)


@given(st.lists(st.tuples(st.integers(-50, 50),
                          st.sampled_from([0.0, 0.25, 1.0, np.inf, -np.inf, np.nan])),
                min_size=2, max_size=40, unique_by=lambda row: row[0]))
def test_ordering_count_and_list_match_enumeration_oracle(rows):
    # few distinct risks: ties are common, and so are lists cut at ORDERING_LIST_MAX
    res = ordering_check(rows)
    want = oracles.ordering_violations(rows)
    assert res.violation_count == len(want)
    assert list(res.violations) == want[:ORDERING_LIST_MAX]
    assert res.violations_truncated == (len(want) > ORDERING_LIST_MAX)


def test_ordering_counts_every_inverted_pair_in_linear_memory():
    g = 10**5
    rows = [(k, -float(k)) for k in range(1, g + 1)]
    tracemalloc.start()
    try:
        res = ordering_check(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.violation_count == g * (g - 1) // 2 == 4_999_950_000
    assert res.violations == tuple((hi, hj) for hi in range(2, 16) for hj in range(1, hi))[:100]
    assert res.violations_truncated and peak < 64 * 10**6


# ---------------------------------------------------------------------------
# trial grouping


def test_trial_grouping_block_means():
    # 6 trials, 3 groups of 2, sorted by distance descending
    trials = [(5.0, 0.60), (4.0, 0.70), (3.0, 0.80), (2.0, 0.90),
              (1.0, 0.95), (6.0, 0.50)]
    rows = trial_grouping(trials, 3)
    assert [g for g, _, _ in rows] == [1, 2, 3]
    assert rows[0][1] == pytest.approx((0.50 + 0.60) / 2)
    assert rows[2][1] == pytest.approx((0.90 + 0.95) / 2)


@given(st.integers(0, 2**32 - 1))
def test_trial_grouping_matches_the_block_loop(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 40))
    trials = [(float(d), float(a)) for d, a in
              zip(rng.integers(0, 5, size=count), rng.random(count))]
    group_count = int(rng.integers(1, count + 1))
    assert trial_grouping(trials, group_count) == oracles.trial_blocks(trials, group_count)


def test_trial_grouping_remainder_goes_last():
    trials = [(float(32 - i), 0.5) for i in range(32)]
    rows = trial_grouping(trials, 3)
    sizes = []
    pos = 0
    for g, mean, var in rows:
        assert mean == pytest.approx(0.5) and var == pytest.approx(0.0)
    # reconstruct sizes from a varying-accuracy copy
    trials2 = [(float(32 - i), float(i)) for i in range(32)]
    rows2 = trial_grouping(trials2, 3)
    assert rows2[0][1] == pytest.approx(np.mean(range(10)))
    assert rows2[1][1] == pytest.approx(np.mean(range(10, 20)))
    assert rows2[2][1] == pytest.approx(np.mean(range(20, 32)))


def test_trial_grouping_equal_distances_keep_input_order():
    trials = [(1.0, 0.1), (1.0, 0.9)]
    rows = trial_grouping(trials, 2)
    assert rows[0][1] == pytest.approx(0.1)
    assert rows[1][1] == pytest.approx(0.9)


def test_trial_grouping_population_variance():
    rows = trial_grouping([(2.0, 0.0), (1.0, 1.0)], 1)
    assert rows == [(1, pytest.approx(0.5), pytest.approx(0.25))]


def test_trial_grouping_guards():
    with pytest.raises(ArgumentError):
        trial_grouping([], 1)
    with pytest.raises(ArgumentError):
        trial_grouping([(1.0, 0.5)], 2)
    with pytest.raises(ArgumentError):
        trial_grouping([(1.0, 0.5)], 0)


# ---------------------------------------------------------------------------
# aggregate distance


def test_aggregate_path_max_and_mean():
    g = path_graph(4)
    assert aggregate_distance(multi_source_bfs(g, {0}), "max").value == 3.0
    assert aggregate_distance(multi_source_bfs(g, {0}), "mean").value == pytest.approx(2.0)


def test_aggregate_excludes_unreachable():
    g = id_graph(4, [(0, 1), (2, 3)])
    res = aggregate_distance(multi_source_bfs(g, {0}), "mean")
    assert res.value == pytest.approx(1.0)
    assert res.excluded_unreachable == 2


def test_aggregate_guards():
    g = path_graph(3)
    with pytest.raises(ArgumentError):
        aggregate_distance(multi_source_bfs(g, set()), "max")
    with pytest.raises(ArgumentError):
        aggregate_distance(multi_source_bfs(g, {0, 1, 2}), "max")
    with pytest.raises(ArgumentError):
        aggregate_distance(multi_source_bfs(g, {0}), "median")
    isolated = id_graph(3, [(1, 2)])
    with pytest.raises(ArgumentError):
        aggregate_distance(multi_source_bfs(isolated, {0}), "mean")


@given(st.integers(0, 2**32 - 1), st.sampled_from(["max", "mean"]))
def test_aggregate_matches_oracle(seed, aggregator):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    g, edges = er_graph(rng, n, 0.2)
    k = int(rng.integers(1, n))
    seeds = {int(v) for v in rng.choice(n, size=k, replace=False)}
    fw = oracles.floyd_warshall(n, edges)
    want, want_excl = oracles.aggregate_distance(fw, seeds, aggregator)
    if want is None:
        with pytest.raises(ArgumentError):
            aggregate_distance(multi_source_bfs(g, seeds), aggregator)
    else:
        res = aggregate_distance(multi_source_bfs(g, seeds), aggregator)
        assert res.value == pytest.approx(want)
        assert res.excluded_unreachable == want_excl


# ---------------------------------------------------------------------------
# formatting


def test_format_examples():
    assert format_acc_md(49.03, 8.23) == "49.03|8.23"
    assert format_acc_md(100.0, 0.0) == "100.00|0.00"
    assert format_acc_md(61.75, 14.32) == "61.75|14.32"


def test_format_range_errors():
    with pytest.raises(ArgumentError):
        format_acc_md(-0.1, 0.0)
    with pytest.raises(ArgumentError):
        format_acc_md(50.0, 101.0)
