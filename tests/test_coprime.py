"""Coprime graph construction, the cyclic fast path, and the degree formula."""

import inspect
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coprimegraph import cli, coprime
from coprimegraph.analysis import analyze
from coprimegraph.coprime import (
    CoprimeGraph,
    UndefinedCoprimeGraphError,
    build,
    build_cyclic,
    graph_for_spec,
    graph_json,
    to_dot,
)
from coprimegraph.groups import (
    cyclic_spec_order,
    make_cyclic,
    make_dihedral,
    parse_group_spec,
)
from coprimegraph.lattice import all_subgroups, divisors, is_prime, members, prime_supports
from coprimegraph.theorems import load_catalog
import helpers
from helpers import (
    CYCLIC_EXACT_MODULI,
    LATTICE_EXPORT_SPECS,
    build_from_subgroup_list,
    counted_degrees,
    degree_formula,
    eager_support_adjacency,
    gcd_rows_from_orders,
    members_by_lowest_bit,
    neighbour_sets,
    small_graph_isomorphic,
    trial_division_primes,
)


def degrees_by_order(graph):
    return sorted((order, graph.degree(v)) for v, order in enumerate(graph.orders))


def test_a4_is_k44():
    g = build(parse_group_spec("A4"))
    assert g.n_vertices == 8
    assert g.n_edges == 16
    # parts: four order-3 subgroups vs three order-2 plus the order-4 one
    assert all(g.degree(v) == 4 for v in range(g.n_vertices))


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
    assert g.orders == (2, 3, 4, 6, 9, 12, 18)
    edges = {(g.orders[u], g.orders[v]) for u, v in g.edges()}
    assert edges == {(2, 3), (2, 9), (3, 4), (4, 9)}


def test_build_cyclic_30():
    g = build_cyclic(30)
    assert g.n_vertices == 6
    assert g.n_edges == 6


def test_build_cyclic_4_single_vertex():
    g = build_cyclic(4)
    assert g.orders == (2,)
    assert g.n_edges == 0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 97])
def test_build_cyclic_rejects(n):
    with pytest.raises(UndefinedCoprimeGraphError):
        build_cyclic(n)


def test_duplicate_orders_make_distinct_vertices():
    g = build(parse_group_spec("Q8"))
    assert g.orders == (2, 4, 4, 4)
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
        assert fast.orders == slow.orders
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
    orders = g.orders
    sets = neighbour_sets(g.masks)
    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            assert (v in sets[u]) == (gcd(orders[u], orders[v]) == 1)
        assert u not in sets[u]


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
    assert payload["edges"] == [(0, 1), (1, 2)]


def test_a_coprime_graph_is_made_from_its_orders_alone():
    assert list(inspect.signature(CoprimeGraph).parameters) == ["source", "parent_order", "orders"]
    with pytest.raises(TypeError):
        CoprimeGraph("hand", 30, [30, 2, 3], [0] * 3)
    # the orders 2 and 3 are coprime, so their vertices are joined
    assert CoprimeGraph("hand", 30, [30, 2, 3]).edges() == [(1, 2)]


def test_a_hand_built_graph_exports_vertex_i_at_position_i():
    # no vertex carries an id of its own, so the exports cannot relabel the
    # rows: the order-3 vertex's edges go to orders 2 and 4, both coprime to 3
    g = CoprimeGraph("hand", 12, [2, 3, 4])
    assert g.masks == (0b010, 0b101, 0b010)
    assert to_dot(g).splitlines()[1:-1] == [
        '  v0 [label="2"];',
        '  v1 [label="3"];',
        '  v2 [label="4"];',
        "  v0 -- v1;",
        "  v1 -- v2;",
    ]
    payload = graph_json(g)
    assert payload["vertices"] == [{"id": v, "order": o} for v, o in enumerate((2, 3, 4))]
    orders = g.orders
    assert all(gcd(orders[u], orders[v]) == 1 for u, v in payload["edges"])


@given(st.lists(st.integers(min_value=1, max_value=60), max_size=25))
@settings(max_examples=200, deadline=None)
def test_twin_classes_give_the_pairwise_gcd_adjacency(orders):
    g = CoprimeGraph("orders", 1, orders)
    sets = neighbour_sets(g.masks)
    for u in range(len(orders)):
        assert sets[u] == {
            v for v in range(len(orders)) if v != u and gcd(orders[u], orders[v]) == 1
        }


@pytest.mark.parametrize("spec", ["Z:720", "D:60", "X(S3,S4)"])
def test_one_support_per_distinct_order_and_no_gcd(monkeypatch, spec):
    calls = []

    def counting(orders, primes):
        calls.append(list(orders))
        return prime_supports(orders, primes)

    group = parse_group_spec(spec)
    monkeypatch.setattr(coprime, "prime_supports", counting)
    g = build(group)
    assert calls == [list(dict.fromkeys(g.orders))]
    assert not hasattr(coprime, "gcd")


def gcd_build_json(g) -> str:
    """The JSON export of the gcd build on g's orders, after checking that g
    has its rows and that they hold the gcd build's own neighbour sets: its
    edges are read off those sets, not off g."""
    rows, sets = gcd_rows_from_orders(g.orders)
    assert g.masks == tuple(rows)
    assert neighbour_sets(g.masks) == tuple(sets)
    return cli._json_text({
        "source": g.source,
        "parent_order": g.parent_order,
        "vertices": [{"id": v, "order": order} for v, order in enumerate(g.orders)],
        "edges": [(u, v) for u, near in enumerate(sets) for v in sorted(near) if v > u],
    })


def assert_same_as_gcd_build(capsys, g, export_args):
    want = gcd_build_json(g)
    assert cli.main(["export", *export_args, "--format", "json"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("spec", [e.spec for e in load_catalog()])
def test_support_build_matches_the_gcd_build_on_the_catalog(capsys, spec):
    g = graph_for_spec(spec, 420)
    assert_same_as_gcd_build(capsys, g, [spec, "--max-order", "420"])


@pytest.mark.parametrize("n", CYCLIC_EXACT_MODULI)
def test_support_build_matches_the_gcd_build_on_cyclic_exact_moduli(capsys, n):
    assert_same_as_gcd_build(capsys, build_cyclic(n), [f"Z:{n}"])


@pytest.mark.parametrize("k", range(2, 12))
def test_support_build_matches_the_gcd_build_on_primorials(capsys, k):
    n = prod(trial_division_primes(k))
    assert_same_as_gcd_build(capsys, build_cyclic(n), [f"Z:{n}"])


@pytest.mark.parametrize("spec", LATTICE_EXPORT_SPECS)
def test_support_build_matches_the_gcd_build_on_lattice_export_specs(capsys, spec):
    g = graph_for_spec(spec, 4096)
    assert_same_as_gcd_build(capsys, g, [spec, "--max-order", "4096"])


# the rows and the edges read off them, against the eager per-support build

ROW_SPECS = (
    [e.spec for e in load_catalog()]
    + [f"Z:{n}" for n in CYCLIC_EXACT_MODULI]
    + [f"Z:{prod(trial_division_primes(k))}" for k in range(2, 13)]
    + LATTICE_EXPORT_SPECS
)


@pytest.mark.parametrize("spec", ROW_SPECS)
def test_neighbour_sets_match_the_eager_support_build(spec):
    g = graph_for_spec(spec, 4096)
    want = eager_support_adjacency(g.orders)
    assert g.masks == tuple(sum(1 << w for w in s) for s in want)
    assert g.edges() == [(u, v) for u in range(len(want)) for v in sorted(want[u]) if u < v]
    assert g.n_edges == sum(map(len, want)) // 2
    assert [g.degree(v) for v in range(g.n_vertices)] == list(map(len, want))


@given(st.integers(min_value=0, max_value=1 << 5000))
@example(0)
@example((1 << 4100) - 1)
@example(1 << 4100)
@settings(max_examples=200, deadline=None)
def test_members_lists_the_set_bits_lowest_first(mask):
    assert members(mask) == members_by_lowest_bit(mask)


@st.composite
def divisor_lists(draw):
    """A random n and a sorted list of its divisors, repeats allowed, as the
    vertex orders of a graph with twins."""
    n = draw(st.integers(min_value=1, max_value=10**9))
    orders = draw(st.lists(st.sampled_from(divisors(n)), max_size=40))
    return n, sorted(orders)


def divisor_graph(case):
    n, orders = case
    return CoprimeGraph("orders", n, orders)


@given(divisor_lists().map(divisor_graph))
# README's hand-built graph, and one whose order-1 vertex is the only one
# with its own bit cleared from its row
@example(CoprimeGraph("hand", 6, [2, 3]))
@example(CoprimeGraph("orders", 6, [1, 2, 3, 6]))
@settings(max_examples=400, deadline=None)
def test_support_build_matches_the_gcd_build_on_divisor_lists(g):
    sets = neighbour_sets(g.masks)
    assert g.edges() == [(u, v) for u in range(g.n_vertices) for v in sorted(sets[u]) if u < v]
    assert cli._json_text(graph_json(g)) == gcd_build_json(g)


# the catalog, the benchmark's lattice-export groups, D_256, S6, and the
# non-solvable PSL(2,7) and A5 x Z2
SUBGROUP_LIST_SPECS = sorted(
    {e.spec for e in load_catalog()}
    | set(LATTICE_EXPORT_SPECS)
    | {
        "D:256",
        "PERM:6:[0 1 2 3 4 5],[0 1]",
        "PERM:7:[0 1 2 3 4 5 6],[2 4]x[5 6]",
        "X(PERM:5:[0 1 2],[2 3 4],Z:2)",
    }
)


@pytest.mark.parametrize("spec", SUBGROUP_LIST_SPECS)
def test_counts_build_matches_the_subgroup_list_build(monkeypatch, spec):
    group = parse_group_spec(spec, 4096)
    # both builds read one enumeration of the lattice
    lattice = all_subgroups(group, 4096)
    for module in (coprime, helpers):
        monkeypatch.setattr(module, "all_subgroups", lambda *_: lattice)
    got, want = build(group, 4096), build_from_subgroup_list(group, 4096)
    assert graph_json(got) == graph_json(want)
    cap = got.n_vertices
    assert analyze(got, cap).to_json_dict() == analyze(want, cap).to_json_dict()
