"""Command-line surface: partition | distortion | sample | evaluate | embed |
synth | verify.

Exit codes: 0 ok, 2 usage, 3 parse, 4 coverage, 5 degenerate data,
70 internal invariant or failed verification. Every report embeds the full
effective run configuration, so a run is reproducible from its own report.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .errors import (ArgumentError, CoverageError, DegenerateEmbeddingError,
                     InternalInvariantError, ParseError, TopoawareError)
from .evaluate import (aggregate_distance, bound_report, empirical_risk,
                       format_acc_md, make_prediction_table, ordering_check,
                       subgroup_accuracy)
from .embed import one_hot_features, propagate, synthetic_sbm
from .graph import Graph, build_graph
from .ingest import (Report, jsonable, parse_edge_list, parse_label_table,
                     parse_token_list, parse_vector_table, resolve_labels,
                     resolve_tokens, write_edge_list, write_label_table,
                     write_report, write_token_list, write_vector_table)
from .metrics import (estimate_distortion, hop_embedding_profile,
                      paired_distances_for_distortion, partition_by_distance)
from .sampling import baseline_select, coverage_sampling, kcenter_greedy
from .verify import run_verify

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_COVERAGE = 4
EXIT_DEGENERATE = 5
EXIT_INTERNAL = 70

METHOD_CHOICES = ("kcenter", "coverage", "random", "degree", "centrality", "pagerank")
RANDOMIZED_METHODS = ("coverage", "random")


def _read(path: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8 (byte 0x{data[exc.start]:02x})",
                         line_number=data.count(b"\n", 0, exc.start) + 1) from None


def _load_graph(path: str) -> Graph:
    return build_graph(parse_edge_list(_read(path)))


def _load_seeds(path: str, g: Graph) -> list:
    return resolve_tokens(parse_token_list(_read(path)), g)


def _tokenize_coverage(exc: CoverageError, g: Graph) -> CoverageError:
    if exc.kind != "id":
        return exc
    tokens = tuple(g.tokens[int(v)] for v in exc.missing)
    return CoverageError(exc.base_message, missing=tokens, kind="token")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _report(args, kind: str, payload: dict, **resolved) -> None:
    """Write the report; its parameters are the parsed arguments, overridden
    by the values the command resolved from them."""
    params = {k: v for k, v in vars(args).items() if k != "func"} | resolved
    report = Report(parameters=jsonable(params), payload_kind=kind,
                    payload=jsonable(payload))
    _emit(write_report(report, args.format), args.out)


def _resolve_k(args, n: int) -> tuple[int, bool]:
    if args.k is not None and args.fraction is not None:
        raise ArgumentError("give either --k or --fraction, not both")
    if args.k is not None:
        return int(args.k), False
    if args.fraction is not None:
        f = float(args.fraction)
        if not 0.0 < f < 1.0:
            raise ArgumentError(f"--fraction must be in (0,1), got {f}")
        return max(1, int(f * n)), True
    raise ArgumentError("one of --k or --fraction is required")


def _parse_start(start_args, g: Graph):
    if start_args is None:
        return "highest_degree", "highest-degree"
    policy = start_args[0]
    if policy == "highest-degree":
        if len(start_args) != 1:
            raise ArgumentError("--start highest-degree takes no extra value")
        return "highest_degree", "highest-degree"
    if policy == "random":
        if len(start_args) != 1:
            raise ArgumentError("--start random takes no extra value")
        return "random", "random"
    if policy == "vertex":
        if len(start_args) != 2:
            raise ArgumentError("--start vertex requires a token")
        return resolve_tokens([start_args[1]], g)[0], f"vertex {start_args[1]}"
    raise ArgumentError(f"unknown start policy {policy!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_partition(args) -> int:
    g = _load_graph(args.graph)
    seeds = _load_seeds(args.seeds, g)
    part = partition_by_distance(g, seeds, args.max_hop)
    payload = {
        "seed_count": len(part.seed_set),
        "hop_counts": [{"hop": k, "count": len(members)} for k, members in part.groups],
        "overflow_count": len(part.overflow),
        "unreachable_count": len(part.unreachable),
    }
    _report(args, "partition", payload)
    return EXIT_OK


def cmd_distortion(args) -> int:
    g = _load_graph(args.graph)
    seeds = _load_seeds(args.seeds, g)
    try:
        emb = parse_vector_table(_read(args.embeddings), g)
        part = partition_by_distance(g, seeds, args.max_hop)
        gd, ed = paired_distances_for_distortion(part, emb, args.point_to_set)
    except CoverageError as exc:
        raise _tokenize_coverage(exc, g) from None
    est = estimate_distortion(gd, ed, exclude_zero_ratios=args.exclude_degenerate_pairs)
    payload = {
        "r": est.r, "alpha": est.alpha, "min_ratio": est.min_ratio,
        "max_ratio": est.max_ratio, "pair_count": est.pair_count,
        "excluded_pairs": est.excluded_pairs,
        "overflow_count": len(part.overflow),
        "unreachable_count": len(part.unreachable),
        "profile": [{"hop": row.hop, "mean_distance": row.mean_distance,
                     "std": row.std, "count": row.count}
                    for row in hop_embedding_profile(gd, ed)],
    }
    _report(args, "distortion", payload)
    return EXIT_OK


def cmd_sample(args) -> int:
    g = _load_graph(args.graph)
    k, from_fraction = _resolve_k(args, g.n)
    start_policy_str = None
    if args.method == "kcenter":
        start, start_policy_str = _parse_start(args.start, g)
        if start == "random" and args.rng_seed is None:
            raise ArgumentError("--start random requires --seed")
        sel = kcenter_greedy(g, k, start=start, rng_seed=args.rng_seed)
    else:
        if args.start is not None:
            raise ArgumentError("--start applies only to --method kcenter")
        if args.method in RANDOMIZED_METHODS and args.rng_seed is None:
            raise ArgumentError(f"--method {args.method} requires --seed")
        if args.method == "coverage":
            sel = coverage_sampling(g, k, rng_seed=args.rng_seed)
        else:
            sel = baseline_select(g, k, method=args.method, rng_seed=args.rng_seed)
    if from_fraction:
        sys.stderr.write(f"resolved k = {k} from fraction {args.fraction}\n")
    seed_tokens = [g.tokens[v] for v in sel.seeds]
    payload = {
        "seeds": seed_tokens,
        "seed_rows": [{"order": i, "token": t} for i, t in enumerate(seed_tokens)],
        "k": k, "objective": sel.objective, "method": sel.method,
        "rng_seed": sel.rng_seed, "full_cover": sel.full_cover,
        "start_policy": sel.start_policy,
    }
    resolved = {"k": k, "k_resolved_from_fraction": from_fraction, "start": start_policy_str}
    if args.method == "centrality":
        resolved["centrality_variant"] = "closeness"
    _report(args, "seed_selection", payload, **resolved)
    if args.seeds_out is not None:
        _emit(write_token_list(seed_tokens), args.seeds_out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    g = _load_graph(args.graph)
    seeds = _load_seeds(args.seeds, g)
    truth_table = parse_label_table(_read(args.labels))
    pred_table = parse_label_table(_read(args.predictions))
    if truth_table.mode != pred_table.mode:
        raise ArgumentError(
            f"labels are {truth_table.mode} but predictions are {pred_table.mode}")
    truth = resolve_labels(truth_table, g)
    predicted = resolve_labels(pred_table, g)
    shared = sorted(set(truth) & set(predicted))
    preds = make_prediction_table({v: predicted[v] for v in shared},
                                  {v: truth[v] for v in shared}, truth_table.mode)
    part = partition_by_distance(g, seeds, args.max_hop)
    try:
        report = subgroup_accuracy(part, preds)
        evaluated = part.grouped
        if len(evaluated) == 0:
            raise ArgumentError("no test vertices within max_hop of the seed set")
        overall = 1.0 - empirical_risk(preds, evaluated, "zero_one")
    except CoverageError as exc:
        raise _tokenize_coverage(exc, g) from None
    agg = aggregate_distance(part.dist, args.aggregator)
    ordering = None
    if len(report.per_hop) >= 2:
        risks = [(k, 1.0 - acc) for k, acc, _ in report.per_hop]
        oc = ordering_check(risks)
        ordering = {"violations": [list(p) for p in oc.violations],
                    "spearman": oc.spearman, "all_ties": oc.all_ties}
    bounds = None
    if args.embeddings is not None:
        try:
            emb = parse_vector_table(_read(args.embeddings), g)
            gd, ed = paired_distances_for_distortion(part, emb, args.point_to_set)
        except CoverageError as exc:
            raise _tokenize_coverage(exc, g) from None
        est = estimate_distortion(gd, ed,
                                  exclude_zero_ratios=args.exclude_degenerate_pairs)
        train_risk = 1.0 - report.train_accuracy
        bounds = []
        for k, _, count in report.per_hop:
            br = bound_report(train_risk, est, k)
            bounds.append({"hop": k, "count": count, "alpha": br.alpha,
                           "group_distance": br.group_distance,
                           "bound_driver": br.bound_driver,
                           "bound_value": br.bound_value(args.bound_constant)})
    payload = {
        "per_hop": [{"hop": k, "accuracy": acc, "count": count}
                    for k, acc, count in report.per_hop],
        "train_accuracy": report.train_accuracy,
        "max_discrepancy": report.max_discrepancy,
        "overall_accuracy": overall,
        "acc_md": format_acc_md(100.0 * overall, 100.0 * report.max_discrepancy),
        "evaluated_count": len(evaluated),
        "overflow_count": len(part.overflow),
        "unreachable_count": len(part.unreachable),
        "aggregate_distance": {"value": agg.value, "aggregator": agg.aggregator,
                               "excluded_unreachable": agg.excluded_unreachable},
        "ordering": ordering,
        "bounds": bounds,
    }
    _report(args, "evaluation", payload)
    return EXIT_OK


def cmd_embed(args) -> int:
    g = _load_graph(args.graph)
    try:
        X = (one_hot_features(g) if args.features == "one_hot"
             else parse_vector_table(_read(args.features), g))
        emb = propagate(g, X, args.layers)
    except CoverageError as exc:
        raise _tokenize_coverage(exc, g) from None
    _emit(write_vector_table(emb, g), args.out)
    return EXIT_OK


def cmd_synth(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    ds = synthetic_sbm(sizes, args.p_in, args.p_out, args.seed)
    _emit(write_edge_list(ds.graph), args.out)
    if args.labels_out is not None:
        values = {ds.graph.tokens[v]: int(ds.labels[v]) for v in range(ds.graph.n)}
        _emit(write_label_table(values, "classification"), args.labels_out)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_verify(args.rng_seed, graphs=args.graphs, n_max=args.n_max,
                         inject_fault=args.inject_fault)
    all_passed = all(r.passed for r in results)
    payload = {
        "all_passed": all_passed,
        "check_rows": [{"check": r.name, "status": "pass" if r.passed else "FAIL"}
                       for r in results],
        "checks": [{"name": r.name, "passed": r.passed, "cases": r.cases,
                    "counterexample": r.detail or None} for r in results],
    }
    _report(args, "verify", payload)
    return EXIT_OK if all_passed else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoaware",
        description="Topology awareness of node embeddings: distortion, "
                    "structural subgroups, and k-center seed selection.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common_out(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("structured", "tabular"),
                       default="structured")

    p = sub.add_parser("partition", help="hop-distance subgroup counts")
    p.add_argument("--graph", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--max-hop", type=int, default=5, dest="max_hop")
    common_out(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("distortion", help="distortion estimate and hop profile")
    p.add_argument("--graph", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--max-hop", type=int, default=5, dest="max_hop")
    p.add_argument("--point-to-set", choices=("min", "mean"), default="min",
                   dest="point_to_set")
    p.add_argument("--exclude-degenerate-pairs", action="store_true",
                   dest="exclude_degenerate_pairs")
    common_out(p)
    p.set_defaults(func=cmd_distortion)

    p = sub.add_parser("sample", help="seed selection")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", choices=METHOD_CHOICES, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--fraction", type=float, default=None)
    p.add_argument("--start", nargs="+", default=None,
                   metavar=("highest-degree|random|vertex", "TOKEN"))
    p.add_argument("--seed", type=int, default=None, dest="rng_seed", help="rng seed")
    p.add_argument("--seeds-out", default=None, dest="seeds_out",
                   help="also write the seed tokens, one per line")
    common_out(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", help="per-subgroup accuracy and discrepancy")
    p.add_argument("--graph", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--labels", required=True, help="ground-truth label table")
    p.add_argument("--predictions", required=True, help="predicted label table")
    p.add_argument("--embeddings", default=None,
                   help="optional; enables the distortion bound rows")
    p.add_argument("--max-hop", type=int, default=5, dest="max_hop")
    p.add_argument("--aggregator", choices=("max", "mean"), default="mean")
    p.add_argument("--point-to-set", choices=("min", "mean"), default="min",
                   dest="point_to_set")
    p.add_argument("--exclude-degenerate-pairs", action="store_true",
                   dest="exclude_degenerate_pairs")
    p.add_argument("--bound-constant", type=float, default=1.0,
                   dest="bound_constant")
    common_out(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("embed", help="toy mean-aggregation propagator")
    p.add_argument("--graph", required=True)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--features", default="one_hot",
                   help='"one_hot" or a feature table path')
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("synth", help="stochastic block model generator")
    p.add_argument("--sizes", required=True, help="comma-separated block sizes")
    p.add_argument("--p-in", type=float, required=True, dest="p_in")
    p.add_argument("--p-out", type=float, required=True, dest="p_out")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="edge-list path (default stdout)")
    p.add_argument("--labels-out", default=None, dest="labels_out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="built-in dual-route self-checks")
    p.add_argument("--graphs", type=int, default=50)
    p.add_argument("--n-max", type=int, default=30, dest="n_max")
    p.add_argument("--seed", type=int, required=True, dest="rng_seed")
    p.add_argument("--inject-fault", choices=("distance", "greedy", "distortion"),
                   default=None, dest="inject_fault")
    common_out(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except CoverageError as exc:
        sys.stderr.write(f"coverage error: {exc}\n")
        return EXIT_COVERAGE
    except DegenerateEmbeddingError as exc:
        sys.stderr.write(f"degenerate data: {exc}\n")
        return EXIT_DEGENERATE
    except InternalInvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except ArgumentError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except TopoawareError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
