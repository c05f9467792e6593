from __future__ import annotations

import dataclasses

import pytest

from conftest import count_calls
from topoaware import ArgumentError, SizeGuardError, graph, kcenter_greedy, run_verify, verify
from topoaware.graph import seeded_rng
from topoaware.verify import CHECK_NAMES


def test_all_checks_pass_on_healthy_library():
    results = run_verify(rng_seed=0, graphs=10, n_max=15)
    assert [r.name for r in results] == list(CHECK_NAMES)
    assert all(r.passed for r in results)
    assert all(r.cases >= 1 for r in results)


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_injected_fault_fails_only_its_check(name):
    results = run_verify(rng_seed=1, graphs=8, n_max=12, inject_fault=name)
    by_name = {r.name: r for r in results}
    assert not by_name[name].passed
    assert by_name[name].detail, "failing check should carry a counterexample"
    for other in CHECK_NAMES:
        if other != name:
            assert by_name[other].passed


def test_run_verify_is_reproducible():
    a = run_verify(rng_seed=42, graphs=5, n_max=10)
    b = run_verify(rng_seed=42, graphs=5, n_max=10)
    assert a == b


def test_size_guards():
    with pytest.raises(SizeGuardError):
        run_verify(rng_seed=0, graphs=0)
    with pytest.raises(SizeGuardError):
        run_verify(rng_seed=0, graphs=501)
    with pytest.raises(SizeGuardError):
        run_verify(rng_seed=0, n_max=3)
    with pytest.raises(SizeGuardError):
        run_verify(rng_seed=0, n_max=61)
    with pytest.raises(ArgumentError):
        run_verify(rng_seed=0, inject_fault="everything")


def test_distance_check_reaches_the_numpy_levels(monkeypatch):
    # the broom's 40 spokes make a frontier wider than SCALAR_FRONTIER_MAX
    levels = count_calls(monkeypatch, graph, "_distinct")
    cases = list(verify.check_distance(seeded_rng(0), seeded_rng([0, 1]), 10, 30, False))
    assert cases == [None] * 11 and len(levels) >= 1


def test_greedy_check_compares_seeds_with_the_deque_reference(monkeypatch):
    def reversed_seeds(g, k):
        sel = kcenter_greedy(g, k)
        return dataclasses.replace(sel, seeds=sel.seeds[::-1])

    monkeypatch.setattr(verify, "kcenter_greedy", reversed_seeds)
    greedy = run_verify(rng_seed=0, graphs=10, n_max=15)[1]
    assert not greedy.passed
    assert greedy.detail["seeds"] == greedy.detail["reference_seeds"][::-1]


def test_greedy_check_compares_the_large_case(monkeypatch):
    def shifted_on_large_graphs(g, k):
        sel = kcenter_greedy(g, k)
        if g.n < verify.SPARSE_N:
            return sel
        return dataclasses.replace(sel, seeds=sel.seeds[1:] + sel.seeds[:1])

    monkeypatch.setattr(verify, "kcenter_greedy", shifted_on_large_graphs)
    greedy = run_verify(rng_seed=0, graphs=3, n_max=12)[1]
    assert not greedy.passed and greedy.cases == 4
    assert greedy.detail["n"] == verify.SPARSE_N
