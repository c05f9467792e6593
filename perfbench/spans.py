"""Outside-in tracing: wrap named library functions in spans without
touching the library.

A module that did `from .graph import bfs_distances` holds its own
reference, so every `topoaware.*` module whose attribute *is* the original
function gets the wrapper. Spans nest: a layer's self time is its span
minus the spans it caused. A name that no longer exists is reported as
absent, never as zero.
"""
from __future__ import annotations

import sys
import time

# label -> (home module, function names). Labels sharing several functions
# add their spans together (resolve_labels calls resolve_tokens; the two BFS
# entry points form one layer).
TARGETS = {
    "ingest.parse_edge_list": ("topoaware.ingest", ("parse_edge_list",)),
    "ingest.parse_vector_table": ("topoaware.ingest", ("parse_vector_table",)),
    "ingest.parse_label_table": ("topoaware.ingest", ("parse_label_table",)),
    "ingest.resolve": ("topoaware.ingest", ("resolve_tokens", "resolve_labels")),
    "ingest.write_vector_table": ("topoaware.ingest", ("write_vector_table",)),
    "ingest.write_edge_list": ("topoaware.ingest", ("write_edge_list",)),
    "graph.build_graph": ("topoaware.graph", ("build_graph",)),
    "graph.bfs": ("topoaware.graph", ("bfs_distances", "multi_source_bfs")),
    "graph.pagerank": ("topoaware.graph", ("pagerank",)),
    "metrics.partition": ("topoaware.metrics", ("partition_by_distance",)),
    "metrics.hop_profile": ("topoaware.metrics", ("hop_embedding_profile",)),
    "metrics.paired_distances": ("topoaware.metrics", ("paired_distances_for_distortion",)),
    "metrics.estimate_distortion": ("topoaware.metrics", ("estimate_distortion",)),
    "sampling.kcenter": ("topoaware.sampling", ("kcenter_greedy",)),
    "sampling.coverage": ("topoaware.sampling", ("coverage_sampling",)),
    "sampling.baseline": ("topoaware.sampling", ("baseline_select",)),
    "sampling.objective": ("topoaware.sampling", ("kcenter_objective",)),
    "evaluate.prediction_table": ("topoaware.evaluate", ("make_prediction_table",)),
    "evaluate.subgroup_accuracy": ("topoaware.evaluate", ("subgroup_accuracy",)),
    "evaluate.aggregate_distance": ("topoaware.evaluate", ("aggregate_distance",)),
    "embed.propagate": ("topoaware.embed", ("propagate",)),
    "embed.synthetic_sbm": ("topoaware.embed", ("synthetic_sbm",)),
}


class Tracer:
    """In-memory span list. Each span is [label, parent index, start, end,
    note]; `note` holds a count read from the call's result."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def enter(self, label: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([label, parent, time.perf_counter(), None, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def leave(self, index: int, note=None) -> None:
        self.spans[index][3] = time.perf_counter()
        self.spans[index][4] = note
        self._stack.pop()

    def wrap(self, fn, label: str):
        def traced(*args, **kwargs):
            index = self.enter(label)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.leave(index, _note(result))
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def install(self) -> list[str]:
        """Wrap every target found; return the labels with no function."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "topoaware" or name.startswith("topoaware."))]
        absent = []
        for label, (home, names) in TARGETS.items():
            found = False
            for name in names:
                original = getattr(sys.modules.get(home), name, None)
                if not callable(original):
                    continue
                found = True
                wrapper = self.wrap(original, label)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
            if not found:
                absent.append(label)
        return absent


def _note(result):
    """Work counts carried by a result: PageRank iterations, seeds chosen."""
    iterations = getattr(result, "iterations", None)
    if isinstance(iterations, int):
        return {"iterations": iterations}
    seeds = getattr(result, "seeds", None)
    if isinstance(seeds, tuple):
        return {"k": len(seeds)}
    return None
