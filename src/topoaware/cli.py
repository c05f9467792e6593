"""Command-line surface: partition | distortion | sample | evaluate | embed |
synth | verify.

Exit codes: 0 ok, 2 usage, 3 parse, 4 coverage, 5 degenerate data,
70 internal invariant or failed verification. Every report embeds the full
effective run configuration, so a run is reproducible from its own report.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from ._version import __version__
from .errors import (ArgumentError, CoverageError, DegenerateEmbeddingError,
                     InternalInvariantError, ParseError, SizeGuardError, TopoawareError)
from .evaluate import (aggregate_distance, bound_report, empirical_risk,
                       format_acc_md, make_prediction_table, ordering_check,
                       subgroup_accuracy)
from .embed import one_hot_features, propagate, synthetic_sbm
from .graph import Graph, seeded_rng
from .ingest import (LabelTable, Report, jsonable, load_graph, parse_label_table,
                     parse_token_list, parse_vector_table, resolve_labels,
                     resolve_tokens, write_edge_list, write_label_table,
                     write_report, write_token_list, write_vector_table)
from .metrics import (DEFAULT_MAX_HOP, estimate_distortion, hop_embedding_profile,
                      paired_distances_for_distortion, partition_by_distance)
from .sampling import baseline_select, coverage_sampling, kcenter_greedy
from .verify import CHECK_NAMES, run_verify

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_COVERAGE = 4
EXIT_DEGENERATE = 5
EXIT_INTERNAL = 70

# error class -> (stderr prefix, exit code); the first match wins
_ERRORS = ((ParseError, "parse error", EXIT_PARSE),
           (CoverageError, "coverage error", EXIT_COVERAGE),
           (DegenerateEmbeddingError, "degenerate data", EXIT_DEGENERATE),
           (InternalInvariantError, "internal error", EXIT_INTERNAL),
           (ArgumentError, "usage error", EXIT_USAGE),
           (TopoawareError, "error", EXIT_INTERNAL))

METHOD_CHOICES = ("kcenter", "coverage", "random", "degree", "centrality", "pagerank")
PARTITION_MAX_HOP = 100_000  # one report row per hop: 1.1 s and 202 MB at this size
# the ordering check lists every inverted pair of groups: 53 MiB traced at this size
EVALUATE_MAX_GROUPS = 500
RANDOMIZED_METHODS = ("coverage", "random")


def _read(path: str) -> str:
    try:
        data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")  # a leading BOM
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8 (byte 0x{data[exc.start]:02x})",
                         line_number=data.count(b"\n", 0, exc.start) + 1) from None


def _load_seeds(path: str, g: Graph) -> list:
    return resolve_tokens(parse_token_list(_read(path)), g)


def _emit(outputs) -> None:
    """Write (text, destination) pairs, files first, then streams (None is stdout); refuse
    two that name one file, and after a failed write remove the files this run created."""
    files = [(text, out) for text, out in outputs if isinstance(out, str)]
    real = [os.path.realpath(out) for _, out in files]
    for i, (_, out) in enumerate(files):
        if real[i] in real[:i]:
            raise ArgumentError(f"cannot write {out}: another output names the same file")
    new = [out for _, out in files if not os.path.lexists(out)]
    for text, out in files:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            for path in filter(os.path.lexists, new):  # never a device or an older file
                os.unlink(path)
            raise ArgumentError(f"cannot write {out}: {exc.strerror}") from None
    for text, out in outputs:
        if not isinstance(out, str):
            (out or sys.stdout).write(text)


def _report(args, kind: str, payload: dict, **resolved) -> tuple[str, str | None]:
    """The report and its destination; its parameters are the parsed
    arguments, overridden by the values the command resolved from them."""
    params = {k: v for k, v in vars(args).items() if k != "func"} | resolved
    report = Report(parameters=jsonable(params), payload_kind=kind,
                    payload=jsonable(payload))
    return write_report(report, args.format), args.out


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


def _estimate(args, part, emb):
    """The distortion pairs of `part` under `emb`, and their estimate."""
    gd, ed = paired_distances_for_distortion(part, emb, args.point_to_set)
    return gd, ed, estimate_distortion(gd, ed, exclude_zero_ratios=args.exclude_degenerate_pairs)


def _parse_start(start_args, g: Graph):
    policy, *rest = start_args or ["highest-degree"]
    if policy in ("highest-degree", "random"):
        if rest:
            raise ArgumentError(f"--start {policy} takes no extra value")
        return policy.replace("-", "_"), policy
    if policy == "vertex":
        if len(rest) != 1:
            raise ArgumentError("--start vertex requires a token")
        return resolve_tokens(rest, g)[0], f"vertex {rest[0]}"
    raise ArgumentError(f"unknown start policy {policy!r}")


def _prediction_table(truth_table, pred_table, g: Graph):
    """The predictions of the vertices both label tables name."""
    if truth_table.mode != pred_table.mode:
        raise ArgumentError(f"labels are {truth_table.mode} but predictions are {pred_table.mode}")
    truth_covered, truth = resolve_labels(truth_table, g)
    pred_covered, predicted = resolve_labels(pred_table, g)
    covered = truth_covered & pred_covered
    for labels in (predicted, truth):  # make_prediction_table would name an id, not a token
        negative = covered & (labels < 0)
        if truth_table.mode == "classification" and negative.any():
            v = int(negative.argmax())
            raise ArgumentError(f"classification labels must be non-negative ints, "
                                f"got {labels[v]} at {g.tokens[v]}")
    return make_prediction_table(covered, predicted, truth, truth_table.mode)


# ---------------------------------------------------------------------------
# subcommands: (parsed arguments, --graph graph or None) -> (exit code, outputs for _emit)


def cmd_partition(args, g) -> tuple[int, list]:
    seeds = _load_seeds(args.seeds, g)
    part = partition_by_distance(g, seeds, args.max_hop)
    if part.max_hop > PARTITION_MAX_HOP:
        raise SizeGuardError(f"max_hop exceeds the {PARTITION_MAX_HOP}-row limit of the report")
    counts = part.counts.tolist() + [0] * (part.max_hop + 1 - len(part.counts))
    payload = {
        "seed_count": counts[0],
        "hop_counts": [{"hop": k, "count": c} for k, c in enumerate(counts) if k],
        "overflow_count": part.overflow_count,
        "unreachable_count": part.unreachable_count,
    }
    return EXIT_OK, [_report(args, "partition", payload)]


def cmd_distortion(args, g) -> tuple[int, list]:
    seeds = _load_seeds(args.seeds, g)
    emb = parse_vector_table(_read(args.embeddings), g)
    part = partition_by_distance(g, seeds, args.max_hop)
    gd, ed, est = _estimate(args, part, emb)
    payload = vars(est) | {
        "overflow_count": part.overflow_count,
        "unreachable_count": part.unreachable_count,
        "profile": [vars(row) for row in hop_embedding_profile(gd, ed)],
    }
    return EXIT_OK, [_report(args, "distortion", payload)]


def cmd_sample(args, g) -> tuple[int, list]:
    if args.rng_seed is not None:
        seeded_rng(args.rng_seed)  # the same check for every method, drawing or not
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
    seed_tokens = [g.tokens[v] for v in sel.seeds]
    payload = vars(sel) | {
        "seeds": seed_tokens, "k": k,
        "seed_rows": [{"order": i, "token": t} for i, t in enumerate(seed_tokens)],
    }
    resolved = {"k": k, "k_resolved_from_fraction": from_fraction, "start": start_policy_str}
    if args.method == "centrality":
        resolved["centrality_variant"] = "closeness"
    outputs = [_report(args, "seed_selection", payload, **resolved)]
    if from_fraction:
        outputs.insert(0, (f"resolved k = {k} from fraction {args.fraction}\n", sys.stderr))
    if args.seeds_out is not None:
        outputs.append((write_token_list(seed_tokens), args.seeds_out))
    return EXIT_OK, outputs


def cmd_evaluate(args, g) -> tuple[int, list]:
    if not math.isfinite(args.bound_constant):
        raise ArgumentError(f"--bound-constant must be finite, got {args.bound_constant}")
    seeds = _load_seeds(args.seeds, g)
    truth_table = parse_label_table(_read(args.labels))
    preds = _prediction_table(truth_table, parse_label_table(_read(args.predictions)), g)
    part = partition_by_distance(g, seeds, args.max_hop)
    report = subgroup_accuracy(part, preds)
    if len(report.per_hop) > EVALUATE_MAX_GROUPS:
        raise SizeGuardError(f"{len(report.per_hop)} hop groups exceed the "
                             f"{EVALUATE_MAX_GROUPS}-group limit of the ordering check")
    evaluated = part.grouped
    if len(evaluated) == 0:
        raise ArgumentError("no test vertices within max_hop of the seed set")
    overall = 1.0 - empirical_risk(preds, evaluated, "zero_one")
    agg = aggregate_distance(part.dist, args.aggregator)
    ordering = None
    if len(report.per_hop) >= 2:
        risks = [(k, 1.0 - acc) for k, acc, _ in report.per_hop]
        ordering = vars(ordering_check(risks))
    bounds = None
    if args.embeddings is not None:
        est = _estimate(args, part, parse_vector_table(_read(args.embeddings), g))[2]
        rows = [(k, count, bound_report(1.0 - report.train_accuracy, est, k))
                for k, _, count in report.per_hop]
        bounds = [{"hop": k, "count": count, "alpha": br.alpha,
                   "group_distance": br.group_distance, "bound_driver": br.bound_driver,
                   "bound_value": br.bound_value(args.bound_constant)}
                  for k, count, br in rows]
        overflow = next((b["hop"] for b in bounds if not math.isfinite(b["bound_value"])), None)
        if overflow is not None:
            raise ArgumentError(f"--bound-constant {args.bound_constant} makes the bound "
                                f"value at hop {overflow} overflow")
    payload = {
        "per_hop": [{"hop": k, "accuracy": acc, "count": count}
                    for k, acc, count in report.per_hop],
        "train_accuracy": report.train_accuracy,
        "max_discrepancy": report.max_discrepancy,
        "overall_accuracy": overall,
        "acc_md": format_acc_md(100.0 * overall, 100.0 * report.max_discrepancy),
        "evaluated_count": len(evaluated),
        "overflow_count": part.overflow_count,
        "unreachable_count": part.unreachable_count,
        "aggregate_distance": vars(agg),
        "ordering": ordering,
        "bounds": bounds,
    }
    return EXIT_OK, [_report(args, "evaluation", payload)]


def cmd_embed(args, g) -> tuple[int, list]:
    X = (one_hot_features(g) if args.features == "one_hot"
         else parse_vector_table(_read(args.features), g))
    return EXIT_OK, [(write_vector_table(propagate(g, X, args.layers), g), args.out)]


def cmd_synth(args, g) -> tuple[int, list]:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ArgumentError(f"--sizes must be comma-separated ints, got {args.sizes!r}") from None
    ds = synthetic_sbm(sizes, args.p_in, args.p_out, args.seed)
    outputs = [(write_edge_list(ds.graph), args.out)]
    if args.labels_out is not None:
        table = LabelTable(ds.graph.tokens, ds.labels, "classification")
        outputs.append((write_label_table(table), args.labels_out))
    return EXIT_OK, outputs


def cmd_verify(args, g) -> tuple[int, list]:
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
    return EXIT_OK if all_passed else EXIT_INTERNAL, [_report(args, "verify", payload)]


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

    def graph_command(name, func, summary, seeds=True, **embeddings):
        """A subcommand over --graph; with `seeds`, also over a seed set and
        its hop groups; with `embeddings` (the keywords of --embeddings),
        also over an embedding table and its distortion pairs."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--graph", required=True)
        if seeds:
            p.add_argument("--seeds", required=True)
            p.add_argument("--max-hop", type=int, default=DEFAULT_MAX_HOP)
        if embeddings:
            p.add_argument("--embeddings", **embeddings)
            p.add_argument("--point-to-set", choices=("min", "mean"), default="min")
            p.add_argument("--exclude-degenerate-pairs", action="store_true")
        return p

    common_out(graph_command("partition", cmd_partition, "hop-distance subgroup counts"))
    common_out(graph_command("distortion", cmd_distortion,
                             "distortion estimate and hop profile", required=True))

    p = graph_command("sample", cmd_sample, "seed selection", seeds=False)
    p.add_argument("--method", choices=METHOD_CHOICES, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--fraction", type=float, default=None)
    p.add_argument("--start", nargs="+", default=None,
                   metavar=("highest-degree|random|vertex", "TOKEN"))
    p.add_argument("--seed", type=int, default=None, dest="rng_seed", help="rng seed")
    p.add_argument("--seeds-out", default=None,
                   help="also write the seed tokens, one per line")
    common_out(p)

    p = graph_command("evaluate", cmd_evaluate, "per-subgroup accuracy and discrepancy",
                      default=None, help="optional; enables the distortion bound rows")
    p.add_argument("--labels", required=True, help="ground-truth label table")
    p.add_argument("--predictions", required=True, help="predicted label table")
    p.add_argument("--aggregator", choices=("max", "mean"), default="mean")
    p.add_argument("--bound-constant", type=float, default=1.0)
    common_out(p)

    p = graph_command("embed", cmd_embed, "toy mean-aggregation propagator", seeds=False)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--features", default="one_hot",
                   help='"one_hot" or a feature table path')
    p.add_argument("--out", default=None)

    p = sub.add_parser("synth", help="stochastic block model generator")
    p.add_argument("--sizes", required=True, help="comma-separated block sizes")
    p.add_argument("--p-in", type=float, required=True)
    p.add_argument("--p-out", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="edge-list path (default stdout)")
    p.add_argument("--labels-out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="built-in dual-route self-checks")
    p.add_argument("--graphs", type=int, default=50)
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--seed", type=int, required=True, dest="rng_seed")
    p.add_argument("--inject-fault", choices=CHECK_NAMES, default=None)
    common_out(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    g = None
    try:
        if "graph" in vars(args):
            g = load_graph(_read(args.graph))
        code, outputs = args.func(args, g)
        _emit(outputs)
        return code
    except TopoawareError as exc:
        if isinstance(exc, CoverageError) and exc.kind == "id":
            # the library names dense ids; the user knows the graph's tokens
            exc = CoverageError(exc.base_message, kind="token",
                                missing=tuple(g.tokens[int(v)] for v in exc.missing))
        prefix, code = next((p, c) for cls, p, c in _ERRORS if isinstance(exc, cls))
        sys.stderr.write(f"{prefix}: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
