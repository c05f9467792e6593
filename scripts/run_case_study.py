#!/usr/bin/env python3
"""End-to-end case study on a synthetic block-model graph.

Generates an SBM graph, propagates one-hot features into embeddings, selects
cold-start seed sets with every method, then reports per-hop embedding
distances, distortion, per-subgroup accuracy of a nearest-seed classifier,
and the seed-quality comparison across methods.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from topoaware import (aggregate_distance, baseline_select, coverage_sampling,
                       estimate_distortion, hop_embedding_profile,
                       kcenter_greedy, make_prediction_table, multi_source_bfs,
                       one_hot_features, ordering_check,
                       paired_distances_for_distortion, partition_by_distance,
                       propagate, subgroup_accuracy, synthetic_sbm)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="50,50,50",
                        help="comma-separated block sizes")
    parser.add_argument("--p-in", type=float, default=0.3, dest="p_in",
                        help="intra-block edge probability")
    parser.add_argument("--p-out", type=float, default=0.01, dest="p_out",
                        help="inter-block edge probability")
    parser.add_argument("--k", type=int, default=5, help="seed-set size")
    parser.add_argument("--layers", type=int, default=2,
                        help="propagation rounds for the embeddings")
    parser.add_argument("--max-hop", type=int, default=5, dest="max_hop")
    parser.add_argument("--seed", type=int, default=0, help="rng seed")
    return parser.parse_args(argv)


def nearest_seed_predictions(g, labels, seeds):
    """Classify every vertex with the block label of its nearest seed."""
    seed_ids = sorted(seeds)
    best = np.full(g.n, -1)
    best_dist = np.full(g.n, np.inf)
    for s in seed_ids:
        d = multi_source_bfs(g, [s])
        closer = d < best_dist
        best[closer] = labels[s]
        best_dist[closer] = d[closer]
    predicted = np.where(best >= 0, best, labels[seed_ids[0]])
    return make_prediction_table(np.ones(g.n, dtype=bool), predicted, labels, "classification")


def main(argv=None) -> int:
    args = parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]

    ds = synthetic_sbm(sizes, args.p_in, args.p_out, rng_seed=args.seed)
    g = ds.graph
    print(f"graph: n={g.n} m={g.m} blocks={ds.block_count} rng_seed={args.seed}")

    emb = propagate(g, one_hot_features(g), layers=args.layers)
    sel = kcenter_greedy(g, args.k)
    seeds = set(sel.seeds)
    print(f"\nk-center seeds (k={args.k}): "
          f"{[g.tokens[v] for v in sel.seeds]}  objective={sel.objective}")

    part = partition_by_distance(g, seeds, max_hop=args.max_hop)
    gd, ed = paired_distances_for_distortion(part, emb)
    print(f"\nhop profile (embedding distance to the seed set, {args.layers}-layer propagation)")
    print(f"{'hop':>4} {'count':>6} {'mean dist':>10} {'std':>8}")
    for row in hop_embedding_profile(gd, ed):
        print(f"{row.hop:>4} {row.count:>6} {row.mean_distance:>10.4f} {row.std:>8.4f}")
    if part.overflow_count or part.unreachable_count:
        print(f"  overflow={part.overflow_count} unreachable={part.unreachable_count}")

    est = estimate_distortion(gd, ed)
    print(f"\ndistortion over {est.pair_count} vertex/seed-set pairs: "
          f"r={est.r:.4f} alpha={est.alpha:.4f}")

    preds = nearest_seed_predictions(g, ds.labels, seeds)
    report = subgroup_accuracy(part, preds)
    print("\nnearest-seed classifier, accuracy by hop distance from the seed set")
    print(f"{'hop':>4} {'count':>6} {'accuracy':>9}")
    for k, acc, count in report.per_hop:
        print(f"{k:>4} {count:>6} {acc:>9.4f}")
    print(f"train accuracy (on seeds): {report.train_accuracy:.4f}")
    print(f"max discrepancy across hops: {report.max_discrepancy:.4f}")
    if len(report.per_hop) >= 2:
        oc = ordering_check([(k, 1.0 - acc) for k, acc, _ in report.per_hop])
        print(f"risk/hop ordering: spearman={oc.spearman:.3f} "
              f"violations={oc.violation_count}")

    print("\nseed-method comparison (lower is better)")
    print(f"{'method':<20} {'max dist':>9} {'mean dist':>10}")
    selections = {
        "kcenter_greedy": sel,
        "coverage_sampling": coverage_sampling(g, args.k, rng_seed=args.seed),
        "random": baseline_select(g, args.k, "random", rng_seed=args.seed),
        "degree": baseline_select(g, args.k, "degree"),
        "centrality": baseline_select(g, args.k, "centrality"),
        "pagerank": baseline_select(g, args.k, "pagerank"),
    }
    for name, choice in selections.items():
        mean = aggregate_distance(multi_source_bfs(g, choice.seeds), "mean").value
        print(f"{name:<20} {choice.objective:>9} {mean:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
