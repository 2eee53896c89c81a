"""Coprime graph construction, the cyclic fast path, and the degree formula."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimegraph import coprime
from coprimegraph.coprime import (
    UndefinedCoprimeGraphError,
    _graph_from_orders,
    build,
    build_cyclic,
    graph_json,
    to_dot,
)
from coprimegraph.groups import (
    cyclic_spec_order,
    make_cyclic,
    make_dihedral,
    parse_group_spec,
)
from coprimegraph.lattice import divisors, is_prime
from coprimegraph.theorems import load_catalog
from helpers import counted_degrees, degree_formula, small_graph_isomorphic


def degrees_by_order(graph):
    return sorted((v.order, graph.degree(v.vid)) for v in graph.vertices)


def test_a4_is_k44():
    g = build(parse_group_spec("A4"))
    assert g.n_vertices == 8
    assert g.n_edges == 16
    # parts: four order-3 subgroups vs three order-2 plus the order-4 one
    assert all(g.degree(v.vid) == 4 for v in g.vertices)


def test_d12_is_k_1_10_plus_three_isolated():
    g = build(make_dihedral(6))
    degs = sorted(g.degree(v) for v in range(g.n_vertices))
    assert g.n_vertices == 14
    assert degs == [0, 0, 0] + [1] * 10 + [10]


def test_s3_is_k13():
    g = build(make_dihedral(3))
    assert degrees_by_order(g) == [(2, 1), (2, 1), (2, 1), (3, 3)]


def test_build_rejects_trivial_and_prime_order():
    with pytest.raises(UndefinedCoprimeGraphError):
        build(make_cyclic(1))
    with pytest.raises(UndefinedCoprimeGraphError):
        build(make_cyclic(7))


def test_build_cyclic_36():
    g = build_cyclic(36)
    assert [v.order for v in g.vertices] == [2, 3, 4, 6, 9, 12, 18]
    edges = {(g.vertices[u].order, g.vertices[v].order) for u, v in g.edges()}
    assert edges == {(2, 3), (2, 9), (3, 4), (4, 9)}


def test_build_cyclic_30():
    g = build_cyclic(30)
    assert g.n_vertices == 6
    assert g.n_edges == 6


def test_build_cyclic_4_single_vertex():
    g = build_cyclic(4)
    assert [v.order for v in g.vertices] == [2]
    assert g.n_edges == 0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 97])
def test_build_cyclic_rejects(n):
    with pytest.raises(UndefinedCoprimeGraphError):
        build_cyclic(n)


def test_duplicate_orders_make_distinct_vertices():
    g = build(parse_group_spec("Q8"))
    assert [v.order for v in g.vertices] == [2, 4, 4, 4]
    assert g.n_edges == 0


def test_fast_path_matches_generic_pipeline():
    """Identity map on order labels between the divisor path and the lattice
    path, for every composite n up to 300 and every cyclic catalog modulus."""
    catalog_moduli = {cyclic_spec_order(e.spec) for e in load_catalog()} - {None}
    for n in sorted(set(range(4, 301)) | catalog_moduli):
        if is_prime(n):
            continue
        fast = build_cyclic(n)
        slow = build(make_cyclic(n))
        assert (fast.source, fast.parent_order) == (slow.source, slow.parent_order)
        assert [v.order for v in fast.vertices] == [v.order for v in slow.vertices]
        assert fast.edges() == slow.edges()


def test_degree_formula_examples():
    assert degree_formula(36, 2) == 2
    assert degree_formula(360, 45) == 3
    assert degree_formula(8, 2) == 0


def test_degree_formula_rejects_bad_orders():
    with pytest.raises(ValueError):
        degree_formula(36, 5)
    with pytest.raises(ValueError):
        degree_formula(36, 36)
    with pytest.raises(ValueError):
        degree_formula(36, 1)


@pytest.mark.parametrize("n", [12, 30, 36, 60, 210, 360])
def test_degree_formula_matches_counted(n):
    g = build_cyclic(n)
    counted = counted_degrees(g)
    for d in divisors(n):
        if 1 < d < n:
            assert degree_formula(n, d) == counted[d]


@given(st.integers(min_value=4, max_value=400))
@settings(max_examples=60, deadline=None)
def test_gcd_adjacency_property(n):
    if is_prime(n):
        return
    g = build_cyclic(n)
    orders = [v.order for v in g.vertices]
    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            assert (v in g.neighbors(u)) == (gcd(orders[u], orders[v]) == 1)
        assert u not in g.neighbors(u)


def test_graphs_of_isomorphic_constructions_are_isomorphic():
    a = build(make_dihedral(3))
    b = build(parse_group_spec("SD:3,2,2"))
    assert small_graph_isomorphic(a, b)
    c = build(make_dihedral(9))
    d = build(parse_group_spec("SD:9,2,8"))
    assert small_graph_isomorphic(c, d)


def test_dot_export_deterministic_and_labeled():
    g = build_cyclic(30)
    dot = to_dot(g)
    assert dot == to_dot(g)
    assert 'v0 [label="2"];' in dot
    assert "v0 -- v1;" in dot
    assert dot.startswith('graph "P(Z30)"')


def test_dot_duplicate_order_labels_get_suffixes():
    dot = to_dot(build(parse_group_spec("Q8")))
    assert 'label="4#0"' in dot and 'label="4#2"' in dot
    assert 'label="2"' in dot


def test_json_export_shape():
    payload = graph_json(build_cyclic(12))
    assert payload["source"] == "Z12"
    assert payload["vertices"] == [
        {"id": 0, "order": 2},
        {"id": 1, "order": 3},
        {"id": 2, "order": 4},
        {"id": 3, "order": 6},
    ]
    assert payload["edges"] == [[0, 1], [1, 2]]


@given(st.lists(st.integers(min_value=1, max_value=60), max_size=25))
@settings(max_examples=200, deadline=None)
def test_twin_classes_give_the_pairwise_gcd_adjacency(orders):
    g = _graph_from_orders("orders", 1, orders)
    for u in range(len(orders)):
        assert g.neighbors(u) == {
            v for v in range(len(orders)) if v != u and gcd(orders[u], orders[v]) == 1
        }


@pytest.mark.parametrize("spec", ["Z:720", "D:60", "X(S3,S4)"])
def test_one_gcd_per_pair_of_distinct_orders(monkeypatch, spec):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return gcd(a, b)

    group = parse_group_spec(spec)
    monkeypatch.setattr(coprime, "gcd", counting)
    g = build(group)
    k = len({v.order for v in g.vertices})
    assert len(calls) == k * (k + 1) // 2
    assert len({frozenset(c) for c in calls}) == len(calls)
