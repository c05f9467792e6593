from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import er_graph, id_graph
from topoaware import (ArgumentError, CoverageError, EmbeddingTable, SizeGuardError,
                       aggregate_distance, bound_report, empirical_risk, estimate_distortion,
                       evaluate, format_acc_md, hop_embedding_profile, make_prediction_table,
                       multi_source_bfs, ordering_check,
                       paired_distances_for_distortion, partition_by_distance,
                       subgroup_accuracy, trial_grouping)


def path_graph(n):
    return id_graph(n, [(i, i + 1) for i in range(n - 1)])


def table(predicted, truth, mode="classification"):
    return make_prediction_table(predicted, truth, mode)


# ---------------------------------------------------------------------------
# prediction tables and risk


def test_table_requires_matching_keys_and_mode():
    with pytest.raises(ArgumentError):
        make_prediction_table({0: 1}, {1: 1}, "classification")
    with pytest.raises(ArgumentError):
        make_prediction_table({0: 1}, {0: 1}, "ranking")
    with pytest.raises(ArgumentError):
        make_prediction_table({0: -1}, {0: 1}, "classification")
    with pytest.raises(ArgumentError):
        make_prediction_table({0: 0.5}, {0: 1}, "classification")
    with pytest.raises(ArgumentError, match="machine integer"):
        make_prediction_table({2**70: 1}, {2**70: 1}, "classification")


def test_prediction_id_size_guard_fires_before_allocation(monkeypatch):
    # ids 2**62 and 2**40 escaped as a numpy ValueError and a MemoryError
    calls = []
    monkeypatch.setattr(evaluate.np, "bincount", lambda *a, **k: calls.append(a))
    top = evaluate.PREDICTION_MAX_ID + 1
    with pytest.raises(SizeGuardError, match=f"vertex id {top} exceeds"):
        make_prediction_table({0: 1, top: 1}, {0: 1, top: 0}, "classification")
    assert calls == []


def test_risk_all_correct_and_half():
    t = table({0: 1, 1: 2}, {0: 1, 1: 2})
    assert empirical_risk(t, {0, 1}, "zero_one") == 0.0
    t2 = table({0: 1, 1: 2}, {0: 1, 1: 3})
    assert empirical_risk(t2, {0, 1}, "zero_one") == 0.5


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


def test_risk_labels_too_large_for_a_float():
    t = table({0: 10**400, 1: 1}, {0: 1, 1: 1}, mode="regression")
    for loss in ("absolute", "squared"):
        with pytest.raises(ArgumentError, match=f"{loss} loss"):
            empirical_risk(t, {0, 1}, loss)
    assert empirical_risk(table({0: 10**400}, {0: 10**400}), {0}, "zero_one") == 0.0


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
    assert rep.max_hop == 3


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


# the labels drawn for the array-against-dict comparison: huge ints stay
# exact in zero-one loss, and overflow a float in the other two
_LABELS = [0, 1, 2, 10**400, 10**400 + 1]


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
    preds = table(predicted, truth)
    missing = oracles.dict_missing(predicted, np.flatnonzero(part.dist <= max_hop))
    if missing:
        with pytest.raises(CoverageError) as err:
            subgroup_accuracy(part, preds)
        assert err.value.missing == tuple(missing)
    else:
        rep = subgroup_accuracy(part, preds)
        want = oracles.dict_subgroup_accuracy(old, predicted, truth)
        assert (rep.per_hop, rep.train_accuracy, rep.max_discrepancy) == want

    subset = {int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)))}
    missing = oracles.dict_missing(predicted, subset)
    reg = table(predicted, truth, mode="regression")
    for loss, t in (("zero_one", preds), ("absolute", reg), ("squared", reg)):
        if missing:
            with pytest.raises(CoverageError) as err:
                empirical_risk(t, subset, loss)
            assert err.value.missing == tuple(missing)
            continue
        try:
            want = oracles.dict_risk(predicted, truth, subset, loss)
        except OverflowError:
            with pytest.raises(ArgumentError, match=f"{loss} loss"):
                empirical_risk(t, subset, loss)
        else:
            assert empirical_risk(t, subset, loss) == want


def test_risk_negative_and_past_the_end_ids_are_uncovered():
    t = table({0: 1, 2: 1}, {0: 1, 2: 0})
    assert t.covered.tolist() == [True, False, True]
    for subset, missing in (({-1, 0}, (-1,)), ({1, 2}, (1,)), ({0, 3, 99}, (3, 99))):
        with pytest.raises(CoverageError) as err:
            empirical_risk(t, subset, "zero_one")
        assert err.value.missing == missing
    with pytest.raises(ArgumentError):
        table({-1: 1}, {-1: 1})


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
