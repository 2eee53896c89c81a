"""Exact invariants against exhaustive oracles, plus certificate validation."""

import math
import random
import sys
from collections import Counter
from dataclasses import fields
from itertools import combinations
from unittest import mock

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import coprimegraph
from coprimegraph import analysis, planarity
from coprimegraph.analysis import (
    INFINITE,
    ExactCapExceeded,
    adjacency_sets,
    analyze,
    chromatic_number,
    classify_shape,
    clique_number,
    contains_complete_bipartite,
    girth,
    independence_number,
    is_bipartite,
    is_planar,
    maximum_clique,
    shape_predicates,
    verify_kuratowski_witness,
    verify_rotation_system,
    vertex_report,
)
from coprimegraph.coprime import (
    CoprimeGraph,
    build,
    build_cyclic,
    graph_for_spec,
)
from coprimegraph.embedding import SimpleGraph
from coprimegraph.errors import CertificateError, EdgeListError
from coprimegraph.groups import make_dihedral, parse_group_spec
from coprimegraph.lattice import members, pi
from coprimegraph.theorems import CatalogEntry, evaluate_entry, load_catalog
from helpers import (
    alpha_oracle,
    chi_oracle,
    dsatur_color_count,
    girth_oracle,
    kuratowski_witness_oracle,
    min_vertex_cover_oracle,
    neighbour_sets,
    omega_oracle,
    parent_support_classes,
    recursive_max_clique_masks,
    rescanning_k_colorable,
    small_graph_isomorphic,
    structure_by_sets,
)


def adj_of(edges, n):
    out = [set() for _ in range(n)]
    for u, v in edges:
        out[u].add(v)
        out[v].add(u)
    return out


def complete_bipartite(m, n):
    return adj_of([(i, m + j) for i in range(m) for j in range(n)], m + n)


def cycle_graph(n):
    return adj_of([(i, (i + 1) % n) for i in range(n)], n)


# girth


def test_girth_examples():
    assert girth(adj_of([], 3)) == INFINITE
    assert girth(cycle_graph(5)) == 5
    assert girth(complete_bipartite(2, 2)) == 4
    assert girth(build_cyclic(36)) == 4
    assert girth(build_cyclic(30)) == 3
    assert girth(build_cyclic(8)) == INFINITE


def test_girth_triangle_with_tail():
    g = adj_of([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], 5)
    assert girth(g) == 3


# diameter, connectivity conventions


def test_analyze_z30_headline():
    rep = analyze(build_cyclic(30))
    assert (rep.diameter, rep.girth, rep.alpha, rep.omega, rep.chi) == (3, 3, 3, 3, 3)
    assert rep.predicates["unicyclic"] and rep.planarity.planar


def test_analyze_a4_headline():
    rep = analyze(build(parse_group_spec("A4")))
    assert rep.diameter == 2
    assert rep.girth == 4
    assert rep.shape.kind == "CompleteBipartite" and rep.shape.args == (4, 4)


def test_analyze_z6_headline():
    rep = analyze(build_cyclic(6))
    assert rep.diameter == 1
    assert rep.shape.kind == "Complete" and rep.shape.args == (2,)


def test_single_vertex_graph_counts_as_totally_disconnected():
    rep = analyze(build_cyclic(4))
    assert not rep.is_connected
    assert rep.diameter == INFINITE
    assert rep.component_diameters == [0]
    assert rep.predicates["null"]


def test_disconnected_diameter_per_component():
    rep = analyze(build_cyclic(12))
    assert not rep.is_connected
    assert rep.diameter == INFINITE
    assert sorted(rep.component_diameters) == [0, 2]


# alpha/omega/chi against exhaustive oracles


ORACLE_GRAPHS = []
_rng = random.Random(2301)
for _n in (5, 7, 9, 11, 12):
    for _p in (0.2, 0.5, 0.8):
        _edges = [
            (u, v)
            for u in range(_n)
            for v in range(u + 1, _n)
            if _rng.random() < _p
        ]
        ORACLE_GRAPHS.append(adj_of(_edges, _n))
ORACLE_GRAPHS += [
    adj_of([], 4),
    complete_bipartite(2, 3),
    cycle_graph(7),
    adj_of([(u, v) for u in range(5) for v in range(u + 1, 5)], 5),
]
for _n in (4, 6, 8, 9, 10, 12, 16, 30, 36, 60):
    ORACLE_GRAPHS.append([set(s) for s in neighbour_sets(build_cyclic(_n).masks)])
# DSATUR's greedy colouring uses 4 colours here but chi = omega = 3, so the
# colourability search must succeed below the greedy count
DSATUR_GAP = adj_of(
    [(0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 6), (2, 3), (2, 4), (3, 6), (4, 5)], 7
)
ORACLE_GRAPHS.append(DSATUR_GAP)


@pytest.mark.parametrize("idx", range(len(ORACLE_GRAPHS)))
def test_alpha_omega_chi_match_exhaustive_search(idx):
    adj = ORACLE_GRAPHS[idx]
    assert len(adj) <= 12
    assert independence_number(adj) == alpha_oracle(adj)
    assert clique_number(adj) == omega_oracle(adj)
    assert chromatic_number(adj) == chi_oracle(adj)


@pytest.mark.parametrize("idx", range(0, len(ORACLE_GRAPHS), 3))
def test_gallai_identity_alpha_plus_cover(idx):
    adj = ORACLE_GRAPHS[idx]
    assert independence_number(adj) + min_vertex_cover_oracle(adj) == len(adj)


@pytest.mark.parametrize("idx", range(len(ORACLE_GRAPHS)))
def test_report_internal_consistency(idx):
    adj = ORACLE_GRAPHS[idx]
    rep = analyze(adj)
    assert rep.omega <= rep.chi
    if rep.is_bipartite:
        assert rep.girth != 3
    if rep.forbidden["K33"] or rep.forbidden["K5"]:
        assert not rep.planarity.planar


def test_dsatur_gap_graph_is_colored_below_the_greedy_count(monkeypatch):
    assert dsatur_color_count(DSATUR_GAP) == 4
    tried = []
    search = analysis._k_colorable

    def recording(adj, k):
        tried.append(k)
        return search(adj, k)

    monkeypatch.setattr(analysis, "_k_colorable", recording)
    assert clique_number(DSATUR_GAP) == chromatic_number(DSATUR_GAP) == 3
    assert tried == [3]


def test_null_graph_invariants():
    adj = adj_of([], 4)
    assert independence_number(adj) == 4
    assert clique_number(adj) == 1
    assert chromatic_number(adj) == 1


def test_prime_power_cyclic_null_graphs():
    # Z_16 has three nontrivial proper subgroups, Z_32 has four
    rep16 = analyze(build_cyclic(16))
    assert (rep16.n_vertices, rep16.alpha, rep16.omega, rep16.chi) == (3, 3, 1, 1)
    rep32 = analyze(build_cyclic(32))
    assert (rep32.n_vertices, rep32.alpha, rep32.omega, rep32.chi) == (4, 4, 1, 1)


def test_exact_cap_raises():
    adj = adj_of([], 70)
    with pytest.raises(ExactCapExceeded):
        independence_number(adj, cap=64)
    with pytest.raises(ExactCapExceeded):
        chromatic_number(adj, cap=64)


def test_analyze_checks_the_exact_cap_before_any_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("ran before the exact cap was checked")

    monkeypatch.setattr(analysis, "girth", fail)
    monkeypatch.setattr(analysis, "_structure", fail)
    g = build_cyclic(420)
    n = g.n_vertices
    with pytest.raises(ExactCapExceeded, match=f"^{n} vertices exceed the exact-solver cap {n - 1}$"):
        analyze(g, exact_cap=n - 1)


# alpha from prime supports, against the vertex-level search

CYCLIC_EXACT_MODULI = (
    2310, 4620, 9240, 13860, 30030, 39270, 43890, 46410, 55440, 60060, 90090, 110880, 120120,
    150150,
)
SMALL_PRIMES = (2, 3, 5, 7, 11)


@pytest.fixture(scope="module")
def catalog_graphs():
    out = {}
    for entry in load_catalog():
        group = parse_group_spec(entry.spec, max_order=420)
        out[entry.spec] = build(group)
    return out


def support_alpha(g):
    """alpha of a coprime graph, asserting that the support path takes it."""
    adj = analysis._adjacency(g)
    assert adj.classes is not None
    return independence_number(adj, cap=len(adj.masks))


def vertex_alpha(g):
    """alpha by maximum clique on the complement: a plain list has no orders."""
    return independence_number(neighbour_sets(g.masks), cap=g.n_vertices)


def test_support_alpha_matches_vertex_search_on_the_catalog(catalog_graphs):
    assert len(catalog_graphs) == 62
    for spec, g in catalog_graphs.items():
        assert support_alpha(g) == vertex_alpha(g), spec


@pytest.mark.parametrize("n", CYCLIC_EXACT_MODULI + (900, 1800, 44100))
def test_support_alpha_matches_vertex_search_on_cyclic_moduli(n):
    g = build_cyclic(n)
    assert support_alpha(g) == vertex_alpha(g)


@st.composite
def order_multisets(draw):
    """Orders that are products of powers of 2, 3, 5, 7 and 11, none 1, under
    a parent order their lcm divides."""
    exponents = st.tuples(*[st.integers(0, 2)] * len(SMALL_PRIMES)).filter(any)
    orders = draw(st.lists(
        exponents.map(lambda e: math.prod(p**a for p, a in zip(SMALL_PRIMES, e))),
        min_size=1,
        max_size=18,
    ))
    return math.lcm(*orders) * draw(st.sampled_from((1, 2, math.prod(SMALL_PRIMES)))), orders


@settings(max_examples=200, deadline=None)
@given(order_multisets())
def test_support_alpha_matches_vertex_search_on_order_multisets(case):
    parent_order, orders = case
    g = CoprimeGraph("orders", parent_order, orders)
    assert support_alpha(g) == vertex_alpha(g)


@pytest.mark.parametrize("k", range(3, 9))
def test_squarefree_cyclic_alpha_closed_form(k):
    # every nonempty subset of the k primes but the full one is a vertex, and
    # an intersecting family holds at most one of each complementary pair
    g = build_cyclic(math.prod((2, 3, 5, 7, 11, 13, 17, 19)[:k]))
    assert g.n_vertices == 2**k - 2
    assert support_alpha(g) == 2 ** (k - 1) - 1


# the support classes a built graph carries, against the previous class
# finder, which derived them over the parent's primes and re-checked them


def test_support_classes_match_the_previous_finder_on_the_catalog(catalog_graphs):
    for spec, g in catalog_graphs.items():
        assert analysis._adjacency(g).classes == parent_support_classes(g), spec
        assert analysis._adjacency(g).classes is g.classes, spec


@pytest.mark.parametrize("n", CYCLIC_EXACT_MODULI + (900, 1800, 44100))
def test_support_classes_match_the_previous_finder_on_cyclic_moduli(n):
    g = build_cyclic(n)
    assert analysis._adjacency(g).classes == parent_support_classes(g)
    assert analysis._adjacency(g).classes is g.classes


@settings(max_examples=200, deadline=None)
@given(order_multisets())
def test_support_classes_match_the_previous_finder_on_order_multisets(case):
    parent_order, orders = case
    assume(pi(parent_order) == pi(math.lcm(*orders)))
    g = CoprimeGraph("orders", parent_order, orders)
    assert analysis._adjacency(g).classes == parent_support_classes(g)
    assert analysis._adjacency(g).classes is g.classes


@pytest.mark.parametrize("family", [(2, (0b001, 0b010)), (2, (0b001,))])
def test_support_family_is_rechecked_against_the_adjacency(monkeypatch, family):
    # in Z_30 the supports {2} and {3} are disjoint, so their vertices are
    # adjacent; and the class of {2} alone is one vertex, not two
    monkeypatch.setattr(analysis, "_max_support_family", lambda weight, k: family)
    with pytest.raises(CertificateError):
        independence_number(build_cyclic(30))


def test_support_family_search_is_not_bounded_by_the_recursion_limit():
    # every nonempty proper subset of k primes, once: more complementary
    # pairs than the recursion limit, and alpha is one of each pair
    k = sys.getrecursionlimit().bit_length() + 1
    weight = Counter({s: 1 for s in range(1, (1 << k) - 1)})
    alpha, family = analysis._max_support_family(weight, k)
    assert alpha == len(family) == 2 ** (k - 1) - 1 > sys.getrecursionlimit()
    assert all(s & t for s, t in combinations(family, 2))


def assert_k_colorable_matches_the_rescanning_search(g, chi=None):
    # chromatic_number hands the search its twin quotient's member lists.
    # Each k answer on them, on the full rows' lists and on the sets must be
    # the rescanning search's on the full sets; chromatic_number must be the
    # first k that succeeds, and the exhaustive oracle's ``chi`` if given
    adj = analysis._adjacency(g)
    masks = adj.masks
    lists = list(map(members, masks))
    omega = analysis._max_clique_masks(masks, len(masks)).bit_count()
    sets = neighbour_sets(masks)
    successes = []
    for k in range(omega, dsatur_color_count(sets) + 1):
        want = rescanning_k_colorable(sets, k)
        assert analysis._k_colorable(sets, k) == want, k
        assert analysis._k_colorable(lists, k) == want, k
        assert analysis._k_colorable(adj.quotient, k) == want, k
        if want:
            successes.append(k)
    assert chromatic_number(adj, len(masks)) == successes[0]
    if chi is not None:
        assert successes[0] == chi


# the exhaustive oracle's 3^n subset pairs stay under a second up to here
CHI_ORACLE_MAX_VERTICES = 12


def test_k_colorable_matches_the_rescanning_search_on_the_catalog(catalog_graphs):
    for spec, g in catalog_graphs.items():
        sets = neighbour_sets(g.masks)
        chi = chi_oracle(sets) if len(sets) <= CHI_ORACLE_MAX_VERTICES else None
        assert_k_colorable_matches_the_rescanning_search(g, chi)


@pytest.mark.parametrize("n", CYCLIC_EXACT_MODULI)
def test_k_colorable_matches_the_rescanning_search_on_cyclic_moduli(n):
    assert_k_colorable_matches_the_rescanning_search(build_cyclic(n))


def test_vertex_report_reads_one_unchanged_member_list_per_graph(monkeypatch, catalog_graphs):
    # the planarity test, the Kuratowski search on Z_900 among them, gets the
    # adjacency's lists and the colouring search its twin quotient's, each
    # built once per adjacency and left as built
    readers = {
        (analysis, "_k_colorable"): [],
        (planarity, "rotation_system"): [],
        (planarity, "kuratowski_edges"): [],
    }
    for (module, name), calls in readers.items():
        def recording(lists, *args, calls=calls, reader=getattr(module, name)):
            calls.append(lists)
            return reader(lists, *args)

        monkeypatch.setattr(module, name, recording)
    planar_tests = 0
    for g in [*catalog_graphs.values(), build_cyclic(900)]:
        for calls in readers.values():
            calls.clear()
        adj = analysis._adjacency(g)
        lists, quotient = adj.lists, adj.quotient
        vertex_report(adj, g.n_vertices)
        assert lists == list(map(members, g.masks)), g.source
        assert quotient == twin_quotient_lists(g.masks), g.source
        colourings = readers[analysis, "_k_colorable"]
        planar = readers[planarity, "rotation_system"] + readers[planarity, "kuratowski_edges"]
        assert colourings and all(c is quotient for c in colourings), g.source
        assert all(c is lists for c in planar), g.source
        planar_tests += len(planar)
    assert planar_tests
    # Z_900, the last graph, took the Kuratowski search
    assert readers[planarity, "kuratowski_edges"]


def twin_quotient_lists(masks):
    """The graph induced on the least vertex of each distinct row, renumbered
    in vertex order, as neighbour lists built from pairs."""
    reps = [v for v, m in enumerate(masks) if masks.index(m) == v]
    return [[j for j, w in enumerate(reps) if masks[v] >> w & 1] for v in reps]


def test_lists_build_one_member_list_per_distinct_row(monkeypatch, catalog_graphs):
    calls = []

    def counting(mask):
        calls.append(mask)
        return members(mask)

    monkeypatch.setattr(analysis, "members", counting)
    for g in [*catalog_graphs.values(), build_cyclic(900), graph_for_spec("X(S3,S4)", 4096)]:
        calls.clear()
        lists = analysis._adjacency(g).lists
        assert sorted(calls) == sorted(set(g.masks)), g.source
        assert lists == list(map(members, g.masks)), g.source
        # vertices with equal rows share the one list
        assert len({id(row) for row in lists}) == len(set(g.masks)), g.source


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    return SimpleGraph.from_edges(n, [(u, v) for u, v in pairs if u != v])


@settings(max_examples=150, deadline=None)
@given(simple_graphs())
def test_k_colorable_matches_the_rescanning_search_on_random_graphs(graph):
    assert_k_colorable_matches_the_rescanning_search(graph)


def test_k_colorable_search_is_not_bounded_by_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    path = SimpleGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    assert chromatic_number(path, cap=n) == 2


def assert_clique_search_matches_the_recursive_search(masks):
    # the same clique, and the same candidate sets coloured in the same order
    calls = []
    greedy = analysis._greedy_color_order

    def recording(masks, candidates):
        calls.append(candidates)
        return greedy(masks, candidates)

    with mock.patch.object(analysis, "_greedy_color_order", recording):
        got = analysis._max_clique_masks(masks, len(masks))
        visits, calls = calls, []
        want = recursive_max_clique_masks(masks, len(masks))
    assert got == want
    assert visits == calls


def complement(masks):
    full = (1 << len(masks)) - 1
    return [full & ~(1 << v) & ~m for v, m in enumerate(masks)]


def test_clique_search_matches_the_recursive_search_on_the_catalog(catalog_graphs):
    for spec, g in catalog_graphs.items():
        assert_clique_search_matches_the_recursive_search(g.masks)
        assert_clique_search_matches_the_recursive_search(complement(g.masks))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=32), st.randoms(use_true_random=False))
def test_clique_search_matches_the_recursive_search_on_random_graphs(n, rng):
    density = rng.random()
    pairs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
    masks = SimpleGraph.from_edges(n, pairs).masks
    assert_clique_search_matches_the_recursive_search(masks)
    assert_clique_search_matches_the_recursive_search(complement(masks))


def test_clique_search_is_not_bounded_by_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    complete = analysis._Adjacency(tuple(complement([0] * n)))
    assert clique_number(complete, cap=n) == n


def test_complement_clique_search_is_not_bounded_by_the_recursion_limit():
    # alpha of a graph without orders is a clique search on the complement
    n = sys.getrecursionlimit() + 200
    assert independence_number(SimpleGraph.from_edges(n, []), cap=n) == n


# the order-level report against vertex_report, its oracle

LATTICE_EXPORT_SPECS = (
    "D:64", "D:96", "D:105", "D:120", "D:128", "PERM:5:[0 1 2 3 4],[0 1]", "X(S4,Z:10)",
    "X(A4,A4)", "X(S3,S4)", "SD:63,6,2", "SD:31,10,2", "X(Q8,Z:15)",
)


def both_reports(g):
    """analyze's and vertex_report's JSON, and how many structure sweeps
    analyze ran: none on the order-level path, one on the vertex-level."""
    cap = max(g.n_vertices, 1)
    with mock.patch.object(analysis, "_structure", wraps=analysis._structure) as sweep:
        fast = analyze(g, cap).to_json_dict()
    return fast, vertex_report(g, cap).to_json_dict(), sweep.call_count


def test_order_report_matches_vertex_report_on_the_catalog(catalog_graphs):
    for spec, g in catalog_graphs.items():
        fast, slow, sweeps = both_reports(g)
        assert fast == slow, spec
        assert sweeps == 0, spec


@pytest.mark.parametrize("n", CYCLIC_EXACT_MODULI + (900, 44100))
def test_order_report_matches_vertex_report_on_cyclic_moduli(n):
    fast, slow, sweeps = both_reports(build_cyclic(n))
    assert fast == slow
    assert sweeps == 0


@pytest.mark.parametrize("spec", LATTICE_EXPORT_SPECS)
def test_order_report_matches_vertex_report_on_lattice_groups(spec):
    fast, slow, sweeps = both_reports(graph_for_spec(spec, max_order=4096))
    assert fast == slow
    assert sweeps == 0


def test_order_report_matches_vertex_report_on_s6():
    # 1453 vertices: the vertex-level report, whose sweep, colouring search
    # and rotation-system check run on the rows, against the order-level one
    fast, slow, sweeps = both_reports(graph_for_spec("PERM:6:[0 1 2 3 4 5],[0 1]", 720))
    assert fast == slow
    assert sweeps == 0


@settings(max_examples=200, deadline=None)
@given(order_multisets(), st.one_of(st.none(), st.sampled_from(SMALL_PRIMES)))
def test_order_report_matches_vertex_report_on_order_multisets(case, left_out):
    # a vertex of order p joins for every prime p of the parent but one
    parent_order, orders = case
    orders = orders + [p for p in SMALL_PRIMES if parent_order % p == 0 and p != left_out]
    fast, slow, sweeps = both_reports(CoprimeGraph("orders", parent_order, orders))
    assert fast == slow
    # the order-level path needs a prime-power vertex for every prime of the
    # orders' lcm, and at most 4n sets of those primes for n vertices
    primes = pi(math.lcm(*orders))
    supports = [{q for q in primes if order % q == 0} for order in orders]
    order_level = all({p} in supports for p in primes) and 2 ** len(primes) <= 4 * len(orders)
    assert sweeps == (0 if order_level else 1)


def hand_made_coprime_graph():
    """The coprime graph of orders 30, 2 and 3 drawn by hand: its one edge is
    2 -- 3, and a SimpleGraph carries no supports to group the vertices by."""
    return SimpleGraph.from_edges(3, [(1, 2)])


def test_hand_made_coprime_graph_falls_back_to_the_vertex_search():
    g = hand_made_coprime_graph()
    assert analysis._adjacency(g).classes is None
    assert independence_number(g) == 2


def test_hand_made_coprime_graph_takes_the_vertex_level_report():
    fast, slow, sweeps = both_reports(hand_made_coprime_graph())
    assert fast == slow
    assert sweeps == 1


def test_a_parent_prime_dividing_no_order_takes_the_order_level_report():
    # the parent's 2 divides no order; the orders' only prime is 3
    fast, slow, sweeps = both_reports(CoprimeGraph("orders", 6, [3, 3]))
    assert fast == slow
    assert sweeps == 0


def test_an_order_1_vertex_takes_the_vertex_level_report():
    # support 0: the vertex of order 1 is joined to every other one
    g = CoprimeGraph("orders", 12, [1, 2, 3])
    assert analysis._adjacency(g).classes is None
    fast, slow, sweeps = both_reports(g)
    assert fast == slow
    assert sweeps == 1
    assert independence_number(g) == vertex_alpha(g)


def test_a_simple_graph_of_coprime_edges_takes_the_vertex_level_report():
    # the edges are P(Z_360)'s, but a SimpleGraph carries no supports
    built = build_cyclic(360)
    g = SimpleGraph.from_edges(built.n_vertices, built.edges())
    fast, slow, sweeps = both_reports(g)
    assert fast == slow
    assert sweeps == 1
    # every invariant but the name and the vertex orders is P(Z_360)'s
    want = both_reports(built)[0]
    assert (fast["source"], fast["vertex_orders"]) == ("graph", None)
    assert {**fast, "source": want["source"], "vertex_orders": want["vertex_orders"]} == want


# one adjacency per graph


@pytest.fixture
def adjacencies(monkeypatch):
    """Every _Adjacency made, one per graph an invariant is asked of."""
    made = []

    class Counting(analysis._Adjacency):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(analysis, "_Adjacency", Counting)
    return made


@pytest.mark.parametrize("n", [4, 30, 210])
def test_analyze_builds_the_adjacency_once(adjacencies, n):
    # every solver runs on the graph's own rows, not on a copy of them
    g = build_cyclic(n)
    analyze(g)
    assert len(adjacencies) == 1
    assert adjacencies[0].masks is g.masks
    assert adjacencies[0].graph is g


def test_each_fact_is_kept_once():
    # an adjacency reads the orders, primes, supports and name off its graph
    assert [f.name for f in fields(analysis._Adjacency)] == ["masks", "graph"]
    assert analysis._adjacency(SimpleGraph.from_edges(2, [(0, 1)])).graph is None
    assert analysis._adjacency(adj_of([(0, 1)], 2)).graph is None
    # a coprime graph keeps its support classes, not their subset unions; an
    # adjacency hands them over only without a vertex of order 1
    assert not hasattr(build_cyclic(30), "inside")
    one = CoprimeGraph("one", 6, [1, 2, 3])
    assert one.classes[0] == 0b001
    assert analysis._adjacency(one).classes is None
    # a lattice is its counts and its element sets, and unicyclicity is a
    # key of shape_predicates
    assert not hasattr(coprimegraph, "Subgroup")
    assert not hasattr(coprimegraph.lattice, "Subgroup")
    assert not hasattr(coprimegraph, "is_unicyclic")
    assert not hasattr(analysis, "is_unicyclic")


def test_catalog_entry_builds_the_adjacency_once(adjacencies):
    rows = evaluate_entry(CatalogEntry(spec="S3xS3", order=36))
    assert rows and all(r.passed for r in rows)
    assert len(adjacencies) == 1


def test_a_graphs_own_rows_are_its_adjacency():
    for g in (build_cyclic(30), SimpleGraph.from_edges(3, [(0, 1), (1, 2)])):
        assert analysis._adjacency(g).masks is g.masks
        assert not hasattr(g, "adj")
        # adjacency_sets takes raw neighbour lists only
        with pytest.raises(TypeError):
            adjacency_sets(g)


@pytest.mark.parametrize(
    "sets",
    [
        pytest.param([{5}], id="out-of-range"),
        pytest.param([{1}, {0, -1}], id="negative"),
        pytest.param([{1}, set()], id="not-mirrored"),
        pytest.param([{0}], id="loop"),
    ],
)
def test_a_raw_neighbour_list_must_describe_a_simple_graph(sets):
    with pytest.raises(EdgeListError):
        analyze(sets)
    with pytest.raises(EdgeListError):
        adjacency_sets(tuple(sets))


@pytest.mark.parametrize("form", ["coprime", "simple"])
@pytest.mark.parametrize("spec", ["Z:210", "S3xS3", "A4"])
def test_vertex_report_runs_one_clique_search(monkeypatch, spec, form):
    # alpha of a graph without orders is a clique search on the complement,
    # so only the searches on the adjacency's own rows are counted
    graph = build(parse_group_spec(spec))
    if form == "simple":
        graph = SimpleGraph.from_edges(graph.n_vertices, graph.edges())
    adj = analysis._adjacency(graph)
    calls = []
    search = analysis._max_clique_masks

    def counting(masks, n):
        calls.append(masks)
        return search(masks, n)

    monkeypatch.setattr(analysis, "_max_clique_masks", counting)
    report = vertex_report(adj)
    assert [masks is adj.masks for masks in calls].count(True) == 1
    assert report.omega == clique_number(adj) == len(maximum_clique(adj))
    assert [masks is adj.masks for masks in calls].count(True) == 1


@pytest.fixture
def structure_calls(monkeypatch):
    """Adjacencies handed to _structure, the one BFS sweep."""
    calls = []
    sweep = analysis._structure

    def counting(adj):
        calls.append(adj)
        return sweep(adj)

    monkeypatch.setattr(analysis, "_structure", counting)
    return calls


@pytest.mark.parametrize("n", [4, 30, 210])
def test_analyze_runs_the_structure_sweep_once(structure_calls, n):
    # at most once: the order-level report of P(Z_n) runs no sweep at all,
    # the vertex-level one exactly one
    analyze(build_cyclic(n))
    assert structure_calls == []
    vertex_report(build_cyclic(n))
    assert len(structure_calls) == 1


def test_catalog_entry_runs_the_structure_sweep_once(structure_calls):
    rows = evaluate_entry(CatalogEntry(spec="S3xS3", order=36))
    assert rows and all(r.passed for r in rows)
    assert len(structure_calls) == 1


INVARIANTS = {
    "girth": girth,
    "is_bipartite": is_bipartite,
    "maximum_clique": maximum_clique,
    "clique_number": clique_number,
    "independence_number": independence_number,
    "chromatic_number": chromatic_number,
    "is_planar": is_planar,
    "classify_shape": classify_shape,
    "shape_predicates": shape_predicates,
    "contains_complete_bipartite": lambda g: [
        contains_complete_bipartite(g, a, b)
        for a, b in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 3), (3, 4))
    ],
    "analyze": lambda g: analyze(g).to_json_dict() | {"source": None, "vertex_orders": None},
}


@pytest.mark.parametrize("spec", ["Z:30", "Z:210", "A4", "D:6", "Z:16"])
def test_invariants_agree_on_every_graph_form(spec):
    graph = build(parse_group_spec(spec))
    forms = [
        graph,
        neighbour_sets(graph.masks),
        SimpleGraph.from_edges(graph.n_vertices, graph.edges()),
    ]
    for name, invariant in INVARIANTS.items():
        values = [invariant(form) for form in forms]
        assert all(value == values[0] for value in values[1:]), (spec, name)
    assert all(small_graph_isomorphic(f1, f2) for f1 in forms for f2 in forms), spec
    cert = is_planar(graph)
    for form in forms:
        if cert.planar:
            rotation = {v: list(nbrs) for v, nbrs in enumerate(cert.rotation)}
            assert verify_rotation_system(form, rotation), spec
        else:
            found = verify_kuratowski_witness(form, list(cert.witness_edges))
            assert found == (cert.witness_kind, cert.witness_branch_vertices), spec


# planarity certificates


def test_planar_certificate_z210_is_refused():
    # P(Z_210) contains a literal K33: orders {2, 3, 6} against {5, 7, 35}
    g = build_cyclic(210)
    vid = {order: v for v, order in enumerate(g.orders)}
    literal = [(vid[a], vid[b]) for a in (2, 3, 6) for b in (5, 7, 35)]
    assert verify_kuratowski_witness(g, literal)[0] == "K33"
    cert = is_planar(g)
    assert not cert.planar
    assert cert.witness_kind == "K33"
    assert len(cert.witness_edges) == 9


def test_planar_certificates_verified():
    for source in (build_cyclic(60), build_cyclic(30), build(make_dihedral(6))):
        cert = is_planar(source)
        assert cert.planar
        rotation = {v: list(nbrs) for v, nbrs in enumerate(cert.rotation)}
        assert verify_rotation_system(source, rotation)


def test_rotation_verifier_rejects_wrong_neighbor_sets():
    g = build_cyclic(30)
    cert = is_planar(g)
    rotation = {v: list(nbrs) for v, nbrs in enumerate(cert.rotation)}
    victim = next(v for v in rotation if len(rotation[v]) >= 2)
    rotation[victim] = rotation[victim][:-1]
    assert not verify_rotation_system(g, rotation)


def test_rotation_verifier_rejects_a_rotation_on_other_vertices():
    adj = adj_of([(0, 1), (1, 2)], 3)
    assert verify_rotation_system(adj, {0: [1], 1: [0, 2], 2: [1]})
    assert not verify_rotation_system(adj, {0: [1], 1: [0, 2]})
    assert not verify_rotation_system(adj, {0: [1], 1: [0, 2], 2: [1], 3: []})


def test_rotation_verifier_rejects_bad_embedding_of_nonplanar_graph():
    # K5 with any rotation system must fail the Euler face count
    adj = adj_of([(u, v) for u in range(5) for v in range(u + 1, 5)], 5)
    rotation = {v: sorted(adj[v]) for v in range(5)}
    assert not verify_rotation_system(adj, rotation)


def test_nonplanar_witness_verified_and_tamper_rejected():
    g = build_cyclic(420)
    cert = is_planar(g)
    assert not cert.planar
    kind, branch = verify_kuratowski_witness(g, list(cert.witness_edges))
    assert kind == cert.witness_kind
    assert branch == cert.witness_branch_vertices
    # dropping one witness edge breaks the subdivision degree profile
    assert verify_kuratowski_witness(g, list(cert.witness_edges)[1:]) is None
    # an edge not present in the host graph is rejected outright
    u = g.orders.index(2)
    w = g.orders.index(6)
    assert verify_kuratowski_witness(g, [(u, w)] + list(cert.witness_edges)) is None


def test_witness_verifier_accepts_hand_built_k33_subdivision():
    # K33 with one edge subdivided once
    edges = [(i, 3 + j) for i in range(3) for j in range(3) if (i, j) != (0, 0)]
    edges += [(0, 6), (6, 3)]
    adj = adj_of(edges, 7)
    kind, branch = verify_kuratowski_witness(adj, edges)
    assert kind == "K33"
    assert branch == (0, 1, 2, 3, 4, 5)


def test_witness_verifier_rejects_k4():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert verify_kuratowski_witness(adj_of(edges, 4), edges) is None


K5_EDGES = list(combinations(range(5), 2))
# a triangular prism: six vertices of degree 3 and nine edges, but not K33
PRISM = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


@pytest.mark.parametrize(
    "witness",
    [
        pytest.param([], id="empty"),
        pytest.param([(0, 0)], id="loop"),
        pytest.param([(0, 13)], id="edge-not-in-host"),
        pytest.param([(0, -1)], id="negative-end"),
        pytest.param([(-1, 0)], id="negative-start"),
        pytest.param([(0, 14)], id="end-out-of-range"),
        pytest.param([(0, 1)], id="degree-1"),
        pytest.param([(0, 1), (1, 2), (0, 2)], id="no-branch-vertex"),
        # vertex 0 of degree 4 has a chain 0-10-11-0 back to itself
        pytest.param(
            [(0, 10), (10, 11), (11, 0), (0, 1), (0, 2), (3, 12), (12, 4)]
            + list(combinations(range(1, 5), 2)),
            id="chain-back-to-its-branch-vertex",
        ),
        # K5 less 0-1 and 2-3, plus second chains 0-10-2 and 1-11-3
        pytest.param(
            [e for e in K5_EDGES if e not in ((0, 1), (2, 3))] + [(0, 10), (10, 2), (1, 11), (11, 3)],
            id="two-chains-join-one-pair",
        ),
        pytest.param(PRISM, id="six-degree-3-not-bipartite"),
        # a K5 and, on no chain of it, the triangle 10-11-12
        pytest.param(K5_EDGES + [(10, 11), (11, 12), (10, 12)], id="k5-plus-a-disjoint-cycle"),
    ],
)
def test_witness_verifier_rejects_each_malformed_witness(witness):
    # the host is K14 less the edge 0-13, so every other pair is an edge
    host = [set(range(14)) - {v} for v in range(14)]
    host[0].discard(13)
    host[13].discard(0)
    assert verify_kuratowski_witness(host, witness) is None


def test_witness_verifier_counts_a_loop_chain_against_the_comparison():
    # K5 less 3-4, with a chain 3-10-11-3 back to 3: five branch vertices,
    # ten chains, and no branch degree checked before the pairs are compared
    witness = [e for e in K5_EDGES if e != (3, 4)] + [(3, 10), (10, 11), (11, 3)]
    host = adj_of(list(combinations(range(12), 2)), 12)
    assert verify_kuratowski_witness(host, witness) is None


# K_{3,2}: planar, with vertices 0, 1, 2 of degree 2 and 3, 4 of degree 3
K32 = SimpleGraph.from_edges(5, [(a, b) for a in (0, 1, 2) for b in (3, 4)])


@pytest.mark.parametrize(
    "witness",
    [
        # host[-1] is vertex 4's row, so (-1, a) once read as an edge and made
        # -1 a sixth branch vertex of a K33 on a planar host
        pytest.param([e for a in range(3) for e in ((a, 3), (a, 4), (-1, a))], id="minus-1"),
        pytest.param([(7, 0)], id="first-end-past-the-host"),
        pytest.param([(0, 7)], id="second-end-past-the-host"),
        pytest.param([(3, -2)], id="negative-second-end"),
    ],
)
def test_witness_ends_must_be_host_vertices(witness):
    assert is_planar(K32).planar
    assert verify_kuratowski_witness(K32, witness) is None


K33_EDGES = [(a, b) for a in range(3) for b in range(3, 6)]
WITNESS_CHANGES = (
    None, "drop", "chord", "reversed-duplicate", "disjoint-cycle", "host-edge-removed",
)


@st.composite
def kuratowski_cases(draw):
    """(host, witness, change, branch): K5 or K33 with each edge subdivided 0-2
    times, relabelled into a host with up to four more vertices and eight more
    edges, then changed as named; branch is the relabelled branch vertices."""
    kind = draw(st.sampled_from(("K5", "K33")))
    n = 5 if kind == "K5" else 6
    edges = []
    for u, v in K5_EDGES if kind == "K5" else K33_EDGES:
        inner = list(range(n, n + draw(st.integers(0, 2))))
        n += len(inner)
        path = [u, *inner, v]
        edges += zip(path, path[1:])
    branch_count = 5 if kind == "K5" else 6
    change = draw(st.sampled_from(WITNESS_CHANGES))
    if change == "disjoint-cycle":
        edges += [(n, n + 1), (n + 1, n + 2), (n + 2, n)]
        n += 3
    n += draw(st.integers(0, 4))
    label = draw(st.permutations(range(n)))
    witness = [(label[u], label[v]) for u, v in edges]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    host = {frozenset(e) for e in witness + extra if e[0] != e[1]}
    i = draw(st.integers(0, len(witness) - 1))
    if change == "drop":
        del witness[i]
    elif change == "reversed-duplicate":
        witness.append(witness[i][::-1])
    elif change == "host-edge-removed":
        host.discard(frozenset(witness[i]))
    elif change == "chord":
        ends = sorted({v for e in witness for v in e})
        chord = draw(st.tuples(st.sampled_from(ends), st.sampled_from(ends)).filter(
            lambda e: e[0] != e[1]
        ))
        witness.append(chord)
        host.add(frozenset(chord))
    branch = tuple(sorted(label[v] for v in range(branch_count)))
    return adj_of([tuple(e) for e in host], n), witness, change, (kind, branch)


@settings(max_examples=400, deadline=None)
@given(kuratowski_cases())
def test_witness_verifier_matches_the_previous_checks(case):
    host, witness, change, verdict = case
    found = verify_kuratowski_witness(host, witness)
    if change == "disjoint-cycle":
        # the oracle accepts a subdivision plus a cycle off its chains
        assert found is None
        return
    assert found == kuratowski_witness_oracle(host, witness)
    if change in (None, "reversed-duplicate"):
        assert found == verdict
    elif change in ("drop", "host-edge-removed"):
        assert found is None


@pytest.mark.parametrize(
    "n,planar",
    [(30, True), (60, True), (90, True), (210, False), (420, False)],
)
def test_cyclic_planarity_verdicts(n, planar):
    assert is_planar(build_cyclic(n)).planar is planar


# the nonplanarity witness: a K33 subgraph when there is one, else networkx's
# counterexample search, which stays here as the slow-path oracle


def nx_graph(adj):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(adj)))
    graph.add_edges_from((u, v) for u in range(len(adj)) for v in adj[u] if u < v)
    return graph


def first_k33_subgraph(adj):
    """Edges from the lexicographically first triple with >= 3 common
    neighbours to the lowest three of them, or None."""
    for triple in combinations(range(len(adj)), 3):
        common = set.intersection(*(set(adj[v]) for v in triple))
        if len(common) >= 3:
            right = sorted(common)[:3]
            return sorted((min(u, x), max(u, x)) for u in triple for x in right)
    return None


@pytest.fixture
def counterexample_calls(monkeypatch):
    """Graphs that is_planar hands to the Kuratowski search."""
    calls = []
    search = planarity.kuratowski_edges

    def counting(adjs):
        calls.append(adjs)
        return search(adjs)

    monkeypatch.setattr(planarity, "kuratowski_edges", counting)
    return calls


@pytest.fixture(scope="module")
def nonplanar_catalog_graphs(catalog_graphs):
    return {
        entry.spec: catalog_graphs[entry.spec]
        for entry in load_catalog()
        if entry.expect.get("planar") is False
    }


def test_catalog_witnesses_are_k33_subgraphs(nonplanar_catalog_graphs, counterexample_calls):
    assert len(nonplanar_catalog_graphs) == 18
    for spec, graph in nonplanar_catalog_graphs.items():
        cert = is_planar(graph)
        assert not cert.planar, spec
        assert cert.witness_kind == "K33", spec
        assert len(cert.witness_edges) == 9, spec
        assert list(cert.witness_edges) == first_k33_subgraph(neighbour_sets(graph.masks)), spec
        assert verify_kuratowski_witness(graph, list(cert.witness_edges)) == (
            "K33",
            cert.witness_branch_vertices,
        ), spec
    assert counterexample_calls == []


def test_networkx_counterexample_verifies_on_catalog(nonplanar_catalog_graphs):
    for spec, graph in nonplanar_catalog_graphs.items():
        counter = nx.algorithms.planarity.get_counterexample(nx_graph(neighbour_sets(graph.masks)))
        assert verify_kuratowski_witness(graph, list(counter.edges())) is not None, spec


def test_k5_witness_comes_from_the_fallback(counterexample_calls):
    k5 = adj_of(list(combinations(range(5), 2)), 5)
    cert = is_planar(k5)
    assert len(counterexample_calls) == 1
    assert cert.witness_kind == "K5"
    assert cert.witness_branch_vertices == (0, 1, 2, 3, 4)


def test_z900_witness_comes_from_the_fallback(counterexample_calls):
    # P(Z_900), 25 vertices and 36 edges, is nonplanar without a K33 subgraph
    g = build_cyclic(900)
    cert = is_planar(g)
    assert len(counterexample_calls) == 1
    assert not cert.planar
    assert verify_kuratowski_witness(g, list(cert.witness_edges)) == (
        cert.witness_kind,
        cert.witness_branch_vertices,
    )


def test_petersen_witness_is_a_proper_k33_subdivision(counterexample_calls):
    # girth 5, so no K33 subgraph: the witness must subdivide some edges
    petersen = adj_of(nx.petersen_graph().edges(), 10)
    cert = is_planar(petersen)
    assert len(counterexample_calls) == 1
    assert cert.witness_kind == "K33"
    assert len(cert.witness_edges) > 9


@pytest.fixture
def planarity_tests(monkeypatch):
    """Graphs that is_planar hands to the left-right planarity test."""
    calls = []
    test = planarity.rotation_system

    def counting(adjs):
        calls.append(adjs)
        return test(adjs)

    monkeypatch.setattr(planarity, "rotation_system", counting)
    return calls


def test_a_k33_triple_settles_nonplanarity_without_networkx(
    nonplanar_catalog_graphs, planarity_tests
):
    for g in (build_cyclic(210), build_cyclic(150150), *nonplanar_catalog_graphs.values()):
        cert = is_planar(g)
        assert (cert.planar, cert.witness_kind, len(cert.witness_edges)) == (False, "K33", 9)
    assert planarity_tests == []


def test_k5_and_petersen_still_take_the_networkx_planarity_test(planarity_tests):
    k5 = adj_of(list(combinations(range(5), 2)), 5)
    petersen = adj_of(nx.petersen_graph().edges(), 10)
    assert [is_planar(g).witness_kind for g in (k5, petersen)] == ["K5", "K33"]
    assert len(planarity_tests) == 2


@st.composite
def small_graphs(draw, min_vertices=1, max_vertices=10):
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return adj_of([p for p, k in zip(pairs, keep) if k], n)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_planarity_matches_networkx_and_witnesses_verify(adj):
    cert = is_planar(adj)
    assert cert.planar == nx.check_planarity(nx_graph(adj))[0]
    k33 = first_k33_subgraph(adj)
    assert contains_complete_bipartite(adj, 3, 3) == (k33 is not None)
    if cert.planar:
        rotation = {v: list(nbrs) for v, nbrs in enumerate(cert.rotation)}
        assert verify_rotation_system(adj, rotation)
        return
    assert verify_kuratowski_witness(adj, list(cert.witness_edges)) == (
        cert.witness_kind,
        cert.witness_branch_vertices,
    )
    if k33 is not None:
        assert list(cert.witness_edges) == k33


@settings(max_examples=300, deadline=None)
@given(small_graphs(min_vertices=0, max_vertices=12))
def test_structure_sweep_matches_networkx(adj):
    graph = nx_graph(adj)
    comps = sorted(sorted(c) for c in nx.connected_components(graph))
    structure = analysis._adjacency(adj).structure
    assert analysis.connected_components(adj) == comps
    assert list(structure.diameters) == [nx.diameter(graph.subgraph(c)) for c in comps]
    assert girth(adj) == girth_oracle(adj)
    assert is_bipartite(adj) == nx.is_bipartite(graph)
    if structure.coloring is not None:
        assert all(structure.coloring[c[0]] == 0 for c in comps)
        assert all(structure.coloring[u] != structure.coloring[v] for u, v in graph.edges)
    preds = shape_predicates(adj)
    if graph.number_of_edges() == 0:
        # an edgeless graph counts as disconnected, so it is no tree
        assert (preds["connected"], preds["tree"], preds["forest"]) == (False, False, True)
    else:
        assert preds["connected"] == nx.is_connected(graph)
        assert preds["tree"] == nx.is_tree(graph)
        assert preds["forest"] == nx.is_forest(graph)


def named_shapes_oracle(graph):
    """Each named pattern of a NetworkX graph -> its args, or None where it
    does not match, in the precedence classify_shape uses."""
    n, e = graph.number_of_nodes(), graph.number_of_edges()
    connected = n >= 2 and nx.is_connected(graph)
    sides = None
    if connected and nx.is_bipartite(graph):
        sides = sorted(map(len, nx.bipartite.sets(graph)))
    return {
        "Complete": (n,) if n >= 2 and 2 * e == n * (n - 1) else None,
        "Star": (n - 1,) if n >= 2 and nx.is_isomorphic(graph, nx.star_graph(n - 1)) else None,
        "Path": (n - 1,) if n >= 2 and nx.is_isomorphic(graph, nx.path_graph(n)) else None,
        "CompleteBipartite": tuple(sides) if sides and e == sides[0] * sides[1] else None,
        "Cycle": (n,) if n >= 3 and nx.is_isomorphic(graph, nx.cycle_graph(n)) else None,
    }


@settings(max_examples=300, deadline=None)
@given(small_graphs(min_vertices=0, max_vertices=12))
def test_shapes_match_networkx(adj):
    graph = nx_graph(adj)
    n, e = graph.number_of_nodes(), graph.number_of_edges()
    c = nx.number_connected_components(graph)
    named = named_shapes_oracle(graph)
    connected = e >= 1 and nx.is_connected(graph)
    assert shape_predicates(adj) == {
        "null": e == 0,
        "complete": named["Complete"] is not None,
        "star": named["Star"] is not None,
        "path": named["Path"] is not None,
        "cycle": named["Cycle"] is not None,
        "complete_bipartite": named["CompleteBipartite"] is not None,
        "tree": connected and nx.is_tree(graph),
        "forest": n == 0 or nx.is_forest(graph),
        "unicyclic": e - n + c == 1,
        "connected": connected,
    }
    core = graph.subgraph([v for v in graph if graph.degree(v)])
    m = core.number_of_nodes()
    kinds = [(kind, args) for kind, args in named_shapes_oracle(core).items() if args is not None]
    if m == 0:
        kinds.insert(0, ("Null", ()))
    elif nx.is_connected(core) and e == m - 1:
        kinds.append(("Tree", ()))
    elif nx.is_connected(core) and e == m:
        kinds.append(("Unicyclic", ()))
    kind, args = (kinds + [("Other", ())])[0]
    assert classify_shape(adj) == analysis.ShapeDescriptor(kind, args, n - m)


# the sweep on rows against the sweep on neighbour sets


def assert_sweep_matches_the_set_sweep(g):
    adj = analysis._adjacency(g)
    oracle = structure_by_sets(neighbour_sets(adj.masks))
    # repr also tells an int girth from a float one, which the JSON would show
    assert repr(adj.structure) == repr(oracle)


def test_sweep_matches_the_set_sweep_on_the_catalog(catalog_graphs):
    for spec, g in catalog_graphs.items():
        assert_sweep_matches_the_set_sweep(g)


@pytest.mark.parametrize("n", CYCLIC_EXACT_MODULI + (900,))
def test_sweep_matches_the_set_sweep_on_cyclic_moduli(n):
    assert_sweep_matches_the_set_sweep(build_cyclic(n))


def test_sweep_matches_the_set_sweep_on_a_product_group():
    assert_sweep_matches_the_set_sweep(graph_for_spec("X(S3,S4)", 4096))


@settings(max_examples=300, deadline=None)
@given(small_graphs(min_vertices=0, max_vertices=16))
def test_sweep_matches_the_set_sweep_on_random_graphs(adj):
    assert_sweep_matches_the_set_sweep(adj)


@st.composite
def false_twin_blowups(draw, max_base=8):
    """A random graph of at most ``max_base`` vertices with each vertex
    replaced by 1-3 pairwise non-adjacent copies of it, the copies spread
    over shuffled ids."""
    base = draw(small_graphs(min_vertices=1, max_vertices=max_base))
    copies = draw(st.lists(st.integers(1, 3), min_size=len(base), max_size=len(base)))
    origin = [v for v, c in enumerate(copies) for _ in range(c)]
    ids = draw(st.permutations(range(len(origin))))
    edges = [
        (ids[a], ids[b])
        for a, b in combinations(range(len(origin)), 2)
        if origin[b] in base[origin[a]]
    ]
    return adj_of(edges, len(origin))


@settings(max_examples=300, deadline=None)
@given(false_twin_blowups())
def test_sweep_matches_the_set_sweep_on_false_twin_blowups(adj):
    assert_sweep_matches_the_set_sweep(adj)


def test_sweep_matches_the_set_sweep_when_false_twins_lie_on_the_only_cycle():
    # the path 0-1-2 hangs on the 4-cycle 2-3-4-5, the only cycle; 3 and 5
    # have equal rows, so the sweep roots 3 and not 5
    adj = adj_of([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2)], 6)
    assert list(analysis._adjacency(adj).rows.values()) == [0, 1, 2, 3, 4]
    assert_sweep_matches_the_set_sweep(adj)
    assert (girth(adj), analysis._adjacency(adj).structure.diameters) == (4, (4,))


@settings(max_examples=150, deadline=None)
@given(false_twin_blowups())
def test_k_colorable_matches_the_rescanning_search_on_false_twin_blowups(adj):
    assert_k_colorable_matches_the_rescanning_search(adj)


@settings(max_examples=150, deadline=None)
@given(false_twin_blowups(max_base=4))
def test_chromatic_number_matches_the_oracle_on_small_false_twin_blowups(adj):
    assert len(adj) <= CHI_ORACLE_MAX_VERTICES
    assert_k_colorable_matches_the_rescanning_search(adj, chi_oracle(adj))


# forbidden subgraphs


def test_contains_k1b_examples():
    d12 = build(make_dihedral(6))
    assert contains_complete_bipartite(d12, 1, 4)
    assert not contains_complete_bipartite(d12, 2, 2)
    assert contains_complete_bipartite(build_cyclic(36), 2, 2)


def test_contains_star_by_degree():
    s3 = build(make_dihedral(3))
    assert contains_complete_bipartite(s3, 1, 3)
    assert not contains_complete_bipartite(s3, 1, 4)


def test_contains_k23_and_k33():
    assert contains_complete_bipartite(complete_bipartite(2, 3), 2, 3)
    assert not contains_complete_bipartite(complete_bipartite(2, 2), 2, 3)
    assert contains_complete_bipartite(complete_bipartite(3, 4), 3, 3)
    assert not contains_complete_bipartite(build_cyclic(60), 3, 3)


def test_contains_rejects_bad_sizes():
    with pytest.raises(ValueError):
        contains_complete_bipartite(complete_bipartite(2, 2), 4, 4)
    with pytest.raises(ValueError):
        contains_complete_bipartite(complete_bipartite(2, 2), 3, 2)


# unicyclicity and shapes


def test_unicyclic_examples():
    assert shape_predicates(build_cyclic(30))["unicyclic"]
    assert shape_predicates(build_cyclic(36))["unicyclic"]  # one 4-cycle plus isolated vertices
    assert not shape_predicates(build_cyclic(60))["unicyclic"]
    assert not shape_predicates(adj_of([], 3))["unicyclic"]


def test_shape_examples():
    assert classify_shape(build_cyclic(6)) == classify_shape(
        adj_of([(0, 1)], 2)
    )
    s = classify_shape(build_cyclic(6))
    assert (s.kind, s.args, s.isolated) == ("Complete", (2,), 0)
    s = classify_shape(build(make_dihedral(3)))
    assert (s.kind, s.args, s.isolated) == ("Star", (3,), 0)
    s = classify_shape(build_cyclic(12))
    assert (s.kind, s.args, s.isolated) == ("Star", (2,), 1)
    s = classify_shape(build_cyclic(36))
    assert (s.kind, s.args, s.isolated) == ("CompleteBipartite", (2, 2), 3)
    s = classify_shape(build_cyclic(8))
    assert (s.kind, s.args, s.isolated) == ("Null", (), 2)


def test_shape_path_and_cycle_and_tree():
    path4 = adj_of([(0, 1), (1, 2), (2, 3)], 4)
    assert classify_shape(path4).kind == "Path"
    assert classify_shape(path4).args == (3,)
    assert classify_shape(cycle_graph(5)).kind == "Cycle"
    spider = adj_of([(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)], 6)
    assert classify_shape(spider).kind == "Tree"
    tri_tail = adj_of([(0, 1), (1, 2), (2, 0), (2, 3)], 4)
    assert classify_shape(tri_tail).kind == "Unicyclic"


def test_four_cycle_core_reads_complete_bipartite_not_cycle():
    assert classify_shape(cycle_graph(4)).kind == "CompleteBipartite"


def test_whole_graph_predicates():
    preds = shape_predicates(build_cyclic(6))
    assert preds["complete"] and preds["star"] and preds["path"] and preds["tree"]
    preds = shape_predicates(build(make_dihedral(6)))
    assert not preds["star"] and not preds["tree"] and not preds["connected"]
    preds = shape_predicates(build(parse_group_spec("A4")))
    assert preds["complete_bipartite"] and preds["connected"]
    preds = shape_predicates(build_cyclic(4))
    assert preds["null"] and not preds["tree"] and not preds["complete"]


# small-graph isomorphism


def test_iso_q8_z32():
    assert small_graph_isomorphic(build(parse_group_spec("Q8")), build_cyclic(32))


def test_iso_k2_vs_empty():
    assert not small_graph_isomorphic(adj_of([(0, 1)], 2), adj_of([], 2))


def test_iso_detects_relabeling():
    g1 = adj_of([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4)
    g2 = adj_of([(2, 3), (3, 0), (0, 1), (1, 2), (1, 3)], 4)
    assert small_graph_isomorphic(g1, g2)


def test_iso_same_degree_sequence_different_graphs():
    # C6 vs two triangles: both 2-regular on 6 vertices
    c6 = cycle_graph(6)
    two_triangles = adj_of([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 6)
    assert not small_graph_isomorphic(c6, two_triangles)


def test_iso_cap():
    big = adj_of([], 17)
    with pytest.raises(ExactCapExceeded):
        small_graph_isomorphic(big, big)


def test_a4_graph_isomorphic_to_k44():
    assert small_graph_isomorphic(build(parse_group_spec("A4")), complete_bipartite(4, 4))


# report serialization


def test_report_json_roundtrip_keys():
    rep = analyze(build_cyclic(36))
    payload = rep.to_json_dict()
    assert payload["girth"] == 4
    assert payload["diameter"] == "inf"
    assert payload["shape"] == {"core": "CompleteBipartite", "args": [2, 2], "isolated": 3}
    assert payload["planarity"]["planar"] is True
    assert set(payload["forbidden"]) == {"K12", "K13", "K14", "K22", "K23", "K33", "K5"}
    import json

    assert json.dumps(payload, sort_keys=True)  # serializable
