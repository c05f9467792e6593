from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def id_graph(n, edges):
    """Graph over dense ids 0..n-1 ("v{i}" tokens) from (u, v) id pairs;
    leading self-loop pairs register every vertex so ids match positions."""
    from topoaware import build_graph

    pairs = [(f"v{i}", f"v{i}") for i in range(n)]
    pairs.extend((f"v{u}", f"v{v}") for u, v in edges)
    return build_graph(pairs)


def label_table(values, mode="classification"):
    """A LabelTable of a token -> label dict, in the dict's order."""
    from topoaware import LabelTable

    return LabelTable(tuple(values), np.array(list(values.values())), mode)


def path_graph(n):
    return id_graph(n, [(i, i + 1) for i in range(n - 1)])


def er_graph(rng, n, p, connected=False):
    """Seeded random graph plus its id edge list (for the oracles)."""
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    if connected:
        perm = [int(x) for x in rng.permutation(n)]
        for a, b in zip(perm, perm[1:]):
            edges.add((a, b) if a < b else (b, a))
    edges = sorted(edges)
    return id_graph(n, edges), edges


def grid_edges(rows, cols):
    """Id pairs of a rows x cols grid with row-major ids."""
    ids = np.arange(rows * cols).reshape(rows, cols)
    return [(int(u), int(v)) for a, b in ((ids[:, :-1], ids[:, 1:]), (ids[:-1], ids[1:]))
            for u, v in zip(a.ravel(), b.ravel())]


def grid_graph(rows, cols):
    return id_graph(rows * cols, grid_edges(rows, cols))


def tied_graph(rng):
    """Graph with many equal hop distances: one to four components (cycles,
    grids, complete bipartite blocks, sparse random blocks) plus up to three
    isolated vertices, under a random id permutation."""
    edges, n = [], 0
    for _ in range(int(rng.integers(1, 5))):
        kind = int(rng.integers(4))
        if kind == 0:
            size = int(rng.integers(3, 12))
            block = [(i, (i + 1) % size) for i in range(size)]
        elif kind == 1:
            rows, cols = (int(x) for x in rng.integers(1, 5, size=2))
            size, block = rows * cols, grid_edges(rows, cols)
        elif kind == 2:
            a, b = (int(x) for x in rng.integers(1, 5, size=2))
            size = a + b
            block = [(u, a + v) for u in range(a) for v in range(b)]
        else:
            size = int(rng.integers(2, 12))
            block = [(u, v) for u in range(size) for v in range(u + 1, size)
                     if rng.random() < 0.25]
        edges += [(n + u, n + v) for u, v in block]
        n += size
    n += int(rng.integers(0, 4))
    perm = rng.permutation(n)
    return id_graph(n, [(int(perm[u]), int(perm[v])) for u, v in edges])


# values of SCALAR_FRONTIER_MAX that force each branch of `graph._lower`: at 0
# every nonempty frontier takes the numpy gather, and at the huge value every
# frontier takes the scalar loop
FRONTIER_BRANCHES = {"numpy": 0, "scalar": 10**12}


@contextlib.contextmanager
def frontier_branch(name):
    import topoaware.graph

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topoaware.graph, "SCALAR_FRONTIER_MAX", FRONTIER_BRANCHES[name])
        yield


def count_calls(mp, owner, name):
    """Patch owner.name, through `mp`, to count its calls; the returned list
    grows by one per call."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    mp.setattr(owner, name, counted)
    return calls
