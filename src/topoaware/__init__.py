"""Topology awareness of node embeddings: metric distortion, structural
subgroups, per-subgroup evaluation, and k-center cold-start seed selection."""
from ._version import __version__
from .errors import (ArgumentError, BoundsError, CoverageError,
                     DegenerateEmbeddingError, EmptyGraphError,
                     InternalInvariantError, ParseError, SizeGuardError,
                     TopoawareError)
from .graph import (UNREACHABLE, Graph, PageRankResult, build_graph,
                    closeness_centrality, degrees, multi_source_bfs, pagerank)
from .metrics import (DEFAULT_MAX_HOP, DistortionEstimate, EmbeddingTable,
                      ProfileRow, SubgroupPartition, estimate_distortion,
                      group_distance, group_distance_point, hop_embedding_profile,
                      paired_distances_for_distortion, partition_by_distance)
from .sampling import (SeedSelection, baseline_select, brute_force_kcenter,
                       coverage_sampling, kcenter_greedy, kcenter_objective)
from .embed import (SyntheticDataset, lipschitz_labels, one_hot_features,
                    propagate, synthetic_sbm)
from .evaluate import (AggregateDistance, BoundReport, OrderingResult,
                       PredictionTable, SubgroupReport, aggregate_distance,
                       bound_report, empirical_risk, format_acc_md,
                       make_prediction_table, ordering_check,
                       subgroup_accuracy, trial_grouping)
from .ingest import (LabelTable, Report, jsonable, load_graph, parse_edge_list,
                     parse_label_table, parse_report, parse_token_list,
                     parse_vector_table, resolve_labels, resolve_tokens, sig6,
                     write_edge_list, write_label_table, write_report,
                     write_token_list, write_vector_table)
from .verify import CheckResult, run_verify

__all__ = [name for name in dir() if not name.startswith("_")]
