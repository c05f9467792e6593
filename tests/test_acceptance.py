"""Acceptance suite: one test per shipped guarantee, one printed verdict line
per criterion. Tolerances and budgets are asserted, not just reported."""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

import oracles
from conftest import er_graph, id_graph, label_table
from topoaware import (ArgumentError, EmbeddingTable, Report,
                       brute_force_kcenter, build_graph, empirical_risk,
                       estimate_distortion, group_distance, group_distance_point,
                       hop_embedding_profile, jsonable, kcenter_greedy,
                       kcenter_objective, lipschitz_labels,
                       make_prediction_table, multi_source_bfs, one_hot_features,
                       ordering_check,
                       paired_distances_for_distortion, pagerank,
                       parse_edge_list, parse_label_table,
                       parse_report, parse_token_list, parse_vector_table,
                       partition_by_distance, propagate, synthetic_sbm,
                       write_edge_list, write_label_table, write_report,
                       write_token_list, write_vector_table)
from topoaware import aggregate_distance as lib_aggregate_distance
from topoaware.cli import main as cli_main


@pytest.fixture(scope="module")
def verdict(request):
    """Prints one pass/fail line per criterion through pytest's own terminal
    stream, visible regardless of capture mode."""
    tw = request.config.get_terminal_writer()

    def emit(num, name, ok, elapsed):
        tw.line(f"\ncriterion {num:2d}  {name:<46s} "
                f"{'PASS' if ok else 'FAIL'}  ({elapsed:6.2f}s)")

    return emit


# ---------------------------------------------------------------------------
# 1. distance oracles


def test_criterion_01_distance_oracle_equivalence(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    mismatches = []
    for trial in range(100):
        n = int(rng.integers(2, 51))
        g, edges = er_graph(rng, n, float(rng.uniform(0.03, 0.3)))
        fw = oracles.floyd_warshall(n, edges)
        for _ in range(3):
            v = int(rng.integers(n))
            s = {int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                            replace=False)}
            if group_distance_point(g, v, s) != oracles.point_group_distance(fw, v, s):
                mismatches.append(("point", trial))
        a = {int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)}
        b = {int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)}
        if group_distance(g, a, b) != oracles.group_distance(fw, a, b):
            mismatches.append(("group", trial))
        k = int(rng.integers(1, n)) if n > 1 else 1
        seeds = {int(x) for x in rng.choice(n, size=k, replace=False)}
        if n - k >= 1:
            got = kcenter_objective(multi_source_bfs(g, seeds))
            if got != oracles.kcenter_objective(fw, seeds):
                mismatches.append(("objective", trial))
            for aggregator in ("max", "mean"):
                want, want_excl = oracles.aggregate_distance(fw, seeds, aggregator)
                if want is None:
                    try:
                        lib_aggregate_distance(multi_source_bfs(g, seeds), aggregator)
                        mismatches.append(("aggregate-missing-error", trial))
                    except ArgumentError:
                        pass
                else:
                    got = lib_aggregate_distance(multi_source_bfs(g, seeds), aggregator)
                    if got.value != want or got.excluded_unreachable != want_excl:
                        mismatches.append(("aggregate", trial))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    verdict(1, "distance-oracle equivalence (100 graphs)", ok, elapsed)
    assert not mismatches, mismatches[:5]
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


# ---------------------------------------------------------------------------
# 2. distortion certification


def test_criterion_02_distortion_certificates(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    rel = 1e-12
    failures = []
    for trial in range(200):
        count = int(rng.integers(1, 60))
        gd = rng.integers(1, 10, size=count).astype(float)
        ed = gd * rng.uniform(0.05, 20.0, size=count)
        est = estimate_distortion(gd, ed)
        lo = est.r * gd
        hi = est.alpha * est.r * gd
        if not (np.all(lo <= ed * (1 + rel)) and np.all(ed <= hi * (1 + rel))):
            failures.append(("sandwich", trial))
        if est.alpha < 1.0 - rel:
            failures.append(("alpha-below-one", trial))
        # constant-ratio input
        c = float(rng.uniform(0.1, 10.0))
        flat = estimate_distortion(gd, gd * c)
        if abs(flat.alpha - 1.0) > rel:
            failures.append(("constant-ratio", trial))
        # scale invariance
        scale = float(rng.uniform(0.01, 100.0))
        scaled = estimate_distortion(gd, ed * scale)
        if abs(scaled.alpha - est.alpha) > rel * est.alpha:
            failures.append(("alpha-scale", trial))
        if abs(scaled.r - est.r * scale) > rel * est.r * scale:
            failures.append(("r-scale", trial))
    elapsed = time.perf_counter() - t0
    ok = not failures
    verdict(2, "distortion sandwich certificates", ok, elapsed)
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# 3. k-center 2-approximation


def test_criterion_03_kcenter_two_approximation(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    violations = []
    for trial in range(200):
        n = int(rng.integers(4, 13))
        g, _ = er_graph(rng, n, float(rng.uniform(0.2, 0.6)), connected=True)
        k = int(rng.integers(1, 4))
        greedy = kcenter_greedy(g, k)
        best = brute_force_kcenter(g, k)
        if greedy.objective > 2 * best.objective:
            violations.append((trial, greedy.objective, best.objective))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 30.0
    verdict(3, "k-center 2-approximation (200 graphs)", ok, elapsed)
    assert not violations, violations[:5]
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


# ---------------------------------------------------------------------------
# 4. hop distance vs embedding distance trend


def test_criterion_04_hop_profile_trend(verdict):
    t0 = time.perf_counter()
    hits = 0
    runs = 50
    for s in range(runs):
        ds = synthetic_sbm([50, 50, 50], 0.3, 0.01, rng_seed=s)
        g = ds.graph
        emb = propagate(g, one_hot_features(g), layers=2)
        sel = kcenter_greedy(g, 5)
        part = partition_by_distance(g, set(sel.seeds), max_hop=5)
        rows = hop_embedding_profile(*paired_distances_for_distortion(part, emb))
        if len(rows) < 2:
            continue
        rho = oracles.spearman_rank([r.hop for r in rows],
                                    [r.mean_distance for r in rows])
        if rho >= 0.9:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 0.9 * runs and elapsed < 60.0
    verdict(4, f"hop/embedding trend ({hits}/{runs} runs)", ok, elapsed)
    assert hits >= 0.9 * runs, f"only {hits}/{runs} runs reached spearman 0.9"
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


# ---------------------------------------------------------------------------
# 5. risk-ordering harness


def test_criterion_05_risk_ordering_harness(verdict):
    t0 = time.perf_counter()
    hits = 0
    runs = 100
    for s in range(runs):
        ds = synthetic_sbm([50, 50, 50], 0.3, 0.01, rng_seed=s)
        g = ds.graph
        emb = propagate(g, one_hot_features(g), layers=2)
        rng = np.random.default_rng(s)
        anchors = {int(a) for a in rng.choice(g.n, size=5, replace=False)}
        y = lipschitz_labels(emb, anchors)
        # nearest-anchor prediction: each vertex inherits the label of its
        # closest anchor in embedding space
        anchor_ids = sorted(anchors)
        anchor_vecs = emb.vectors[anchor_ids]
        predicted = np.empty(g.n)
        for v in range(g.n):
            gaps = np.linalg.norm(anchor_vecs - emb.vectors[v], axis=1)
            predicted[v] = y[anchor_ids[int(np.argmin(gaps))]]
        preds = make_prediction_table(np.ones(g.n, dtype=bool), predicted, y, "regression")
        part = partition_by_distance(g, anchors, max_hop=5)
        risks = [(k, empirical_risk(preds, np.flatnonzero(part.dist == k), "absolute"))
                 for k in range(1, len(part.counts))]
        if len(risks) < 2:
            continue
        oc = ordering_check(risks)
        if oc.spearman >= 0.8:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 0.9 * runs and elapsed < 120.0
    verdict(5, f"risk-ordering harness ({hits}/{runs} runs)", ok, elapsed)
    assert hits >= 0.9 * runs, f"only {hits}/{runs} runs reached spearman 0.8"
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"


# ---------------------------------------------------------------------------
# 6. seed quality: greedy vs random


def test_criterion_06_seed_quality_vs_random(verdict):
    t0 = time.perf_counter()
    runs = 100
    mean_wins = 0
    max_wins = 0
    from topoaware import baseline_select
    for i in range(runs):
        ds = synthetic_sbm([20] * 15, 0.5, 0.003, rng_seed=i)
        g = ds.graph
        greedy = kcenter_greedy(g, 15)
        random_sel = baseline_select(g, 15, "random", rng_seed=i + 10000)
        g_mean = lib_aggregate_distance(multi_source_bfs(g, greedy.seeds), "mean").value
        r_mean = lib_aggregate_distance(multi_source_bfs(g, random_sel.seeds), "mean").value
        if g_mean <= r_mean:
            mean_wins += 1
        if greedy.objective <= random_sel.objective:
            max_wins += 1
    elapsed = time.perf_counter() - t0
    ok = mean_wins >= 95 and max_wins >= 95
    verdict(6, f"greedy vs random (mean {mean_wins}, max {max_wins}/100)", ok, elapsed)
    assert mean_wins >= 95, f"greedy mean distance won only {mean_wins}/100"
    assert max_wins >= 95, f"greedy max distance won only {max_wins}/100"


# ---------------------------------------------------------------------------
# 7. pagerank


def test_criterion_07_pagerank_oracle(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_gap = 0.0
    worst_sum = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 41))
        g, edges = er_graph(rng, n, float(rng.uniform(0.05, 0.4)))
        got = pagerank(g, tol=1e-13, max_iter=2000).scores
        want = oracles.dense_pagerank(n, edges, 0.85, 1e-13, 2000)
        worst_gap = max(worst_gap, float(np.max(np.abs(got - want))))
        default = pagerank(g).scores
        worst_sum = max(worst_sum, abs(float(default.sum()) - 1.0))
    worst_cycle = 0.0
    for n in range(3, 13):
        cyc = id_graph(n, [(i, (i + 1) % n) for i in range(n)])
        scores = pagerank(cyc).scores
        worst_cycle = max(worst_cycle, float(np.max(np.abs(scores - 1.0 / n))))
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-8 and worst_sum < 1e-9 and worst_cycle < 1e-10
    verdict(7, "pagerank vs dense oracle", ok, elapsed)
    assert worst_gap < 1e-8, f"oracle gap {worst_gap:.2e}"
    assert worst_sum < 1e-9, f"sum drift {worst_sum:.2e}"
    assert worst_cycle < 1e-10, f"cycle non-uniformity {worst_cycle:.2e}"


# ---------------------------------------------------------------------------
# 8. metric axioms


def test_criterion_08_metric_axioms(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    broken = []
    for trial in range(50):
        n = int(rng.integers(2, 31))
        g, _ = er_graph(rng, n, float(rng.uniform(0.1, 0.5)), connected=True)
        D = np.vstack([multi_source_bfs(g, [s]) for s in range(n)])
        off = ~np.eye(n, dtype=bool)
        if not np.all(D >= 0):
            broken.append(("M1", trial))
        if not np.all(np.diag(D) == 0):
            broken.append(("M2", trial))
        if not np.all(D[off] > 0):
            broken.append(("M3", trial))
        if not np.array_equal(D, D.T):
            broken.append(("M4", trial))
        for k in range(n):
            if not np.all(D <= D[:, [k]] + D[[k], :]):
                broken.append(("M5", trial))
                break
    elapsed = time.perf_counter() - t0
    ok = not broken
    verdict(8, "metric axioms M1-M5 (50 graphs)", ok, elapsed)
    assert not broken, broken[:5]


# ---------------------------------------------------------------------------
# 9. determinism and round trips


def test_criterion_09_determinism_and_round_trips(verdict, tmp_path, capsys):
    t0 = time.perf_counter()
    problems = []

    # byte-identical reports for identical run configuration + rng seed
    g = id_graph(6, [(i, i + 1) for i in range(5)])
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text(write_edge_list(g))
    out = tmp_path / "report.json"
    argv = ["sample", "--graph", str(graph_file), "--method", "coverage",
            "--k", "3", "--seed", "11", "--out", str(out)]
    assert cli_main(argv) == 0
    first = out.read_bytes()
    assert cli_main(argv) == 0
    if out.read_bytes() != first:
        problems.append("sample report bytes differ")
    capsys.readouterr()

    # 50 randomized write -> parse identities across every ingest format
    rng = np.random.default_rng(909)
    for trial in range(50):
        n = int(rng.integers(2, 20))
        gr, _ = er_graph(rng, n, 0.25)
        if build_graph(parse_edge_list(write_edge_list(gr))) != gr:
            problems.append(f"edge list trial {trial}")
        k = int(rng.integers(1, n + 1))
        ids = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
        vec = np.full((n, 3), np.nan)
        vec[ids] = rng.normal(size=(k, 3)) * 10.0 ** rng.integers(-6, 7)
        emb = EmbeddingTable(vec)
        back = parse_vector_table(write_vector_table(emb, gr), gr)
        if not np.array_equal(back.covered, emb.covered) or not np.array_equal(
                back.vectors[ids], emb.vectors[ids]):
            problems.append(f"vector table trial {trial}")
        tokens = [gr.tokens[v] for v in ids]
        if parse_token_list(write_token_list(tokens)) != tokens:
            problems.append(f"token list trial {trial}")
        for mode, draw in (("classification", lambda: int(rng.integers(5))),
                           ("regression", lambda: float(rng.normal()))):
            labels = {t: draw() for t in tokens}
            back = parse_label_table(write_label_table(label_table(labels, mode)))
            if dict(zip(back.tokens, back.values.tolist())) != labels or back.mode != mode:
                problems.append(f"{mode} labels trial {trial}")
        rep = Report(parameters={"rng_seed": trial, "k": k},
                     payload_kind="partition",
                     payload=jsonable({"value": float(rng.normal()),
                                       "far": math.inf,
                                       "rows": [{"hop": 1, "count": n}]}))
        if parse_report(write_report(rep)) != rep:
            problems.append(f"report trial {trial}")
    elapsed = time.perf_counter() - t0
    ok = not problems
    verdict(9, "determinism and 50 round-trip payloads", ok, elapsed)
    assert not problems, problems[:5]


# ---------------------------------------------------------------------------
# 10. scale smoke test


def test_criterion_10_kcenter_scale(verdict):
    rng = np.random.default_rng(1010)
    n = 100_000
    m_target = 500_000
    raw = rng.integers(0, n, size=(m_target, 2))
    pairs = [(f"v{i}", f"v{i}") for i in range(n)]
    pairs.extend((f"v{int(u)}", f"v{int(v)}") for u, v in raw)
    g = build_graph(pairs)
    assert g.n == n and g.m > 0.9 * m_target

    t0 = time.perf_counter()
    sel100 = kcenter_greedy(g, 100)
    t100 = time.perf_counter() - t0
    t0 = time.perf_counter()
    sel200 = kcenter_greedy(g, 200)
    t200 = time.perf_counter() - t0

    assert len(sel100.seeds) == 100 and len(sel200.seeds) == 200
    assert sel200.objective <= sel100.objective
    ok = t100 < 30.0 and t200 <= 2.5 * t100
    verdict(10, f"scale: k=100 in {t100:.2f}s, k=200/{t200:.2f}s", ok, t100 + t200)
    assert t100 < 30.0, f"k=100 took {t100:.2f}s, budget 30s"
    assert t200 <= 2.5 * t100, f"k=200 took {t200:.2f}s vs 2.5x budget {2.5 * t100:.2f}s"
