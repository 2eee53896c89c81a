"""Exact invariants against exhaustive oracles, plus certificate validation."""

import math
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimegraph import analysis
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
    is_unicyclic,
    maximum_clique,
    shape_predicates,
    small_graph_isomorphic,
    verify_kuratowski_witness,
    verify_rotation_system,
)
from coprimegraph.coprime import CoprimeGraph, GraphVertex, _graph_from_orders, build, build_cyclic
from coprimegraph.embedding import SimpleGraph
from coprimegraph.errors import CertificateError
from coprimegraph.groups import NAMED_GROUPS, make_dihedral, parse_group_spec
from coprimegraph.lattice import all_subgroups
from coprimegraph.theorems import CatalogEntry, evaluate_entry, load_catalog
from helpers import (
    alpha_oracle,
    chi_oracle,
    dsatur_color_count,
    min_vertex_cover_oracle,
    omega_oracle,
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
    rep = analyze(build(NAMED_GROUPS["A4"]()))
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
    ORACLE_GRAPHS.append([set(s) for s in build_cyclic(_n).adj])
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
    monkeypatch.setattr(analysis, "component_diameter", fail)
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
        out[entry.spec] = build(group, all_subgroups(group, max_order=420))
    return out


def support_alpha(g):
    """alpha of a coprime graph, asserting that the support path takes it."""
    adj = analysis._adjacency(g)
    assert analysis._support_classes(adj) is not None
    return independence_number(adj, cap=len(adj.masks))


def vertex_alpha(g):
    """alpha by maximum clique on the complement: a plain list has no orders."""
    return independence_number(adjacency_sets(g), cap=g.n_vertices)


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
    g = _graph_from_orders("orders", parent_order, orders)
    assert support_alpha(g) == vertex_alpha(g)


@pytest.mark.parametrize("k", range(3, 9))
def test_squarefree_cyclic_alpha_closed_form(k):
    # every nonempty subset of the k primes but the full one is a vertex, and
    # an intersecting family holds at most one of each complementary pair
    g = build_cyclic(math.prod((2, 3, 5, 7, 11, 13, 17, 19)[:k]))
    assert g.n_vertices == 2**k - 2
    assert support_alpha(g) == 2 ** (k - 1) - 1


def test_hand_made_coprime_graph_falls_back_to_the_vertex_search():
    # orders 30, 2 and 3 with no edges: by their supports 2 -- 3 would be one
    vertices = [GraphVertex(v, order) for v, order in enumerate((30, 2, 3))]
    g = CoprimeGraph("hand", 30, vertices, [frozenset()] * 3)
    assert analysis._support_classes(analysis._adjacency(g)) is None
    assert independence_number(g) == 3


@pytest.mark.parametrize("family", [(2, (0b001, 0b010)), (2, (0b001,))])
def test_support_family_is_rechecked_against_the_adjacency(monkeypatch, family):
    # in Z_30 the supports {2} and {3} are disjoint, so their vertices are
    # adjacent; and the class of {2} alone is one vertex, not two
    monkeypatch.setattr(analysis, "_max_support_family", lambda weight, k: family)
    with pytest.raises(CertificateError):
        independence_number(build_cyclic(30))


# one adjacency per graph


@pytest.fixture
def adjacency_calls(monkeypatch):
    """Graphs handed to adjacency_sets, the only builder of an adjacency."""
    calls = []
    build_sets = analysis.adjacency_sets

    def counting(g):
        calls.append(g)
        return build_sets(g)

    monkeypatch.setattr(analysis, "adjacency_sets", counting)
    return calls


@pytest.mark.parametrize("n", [4, 30, 210])
def test_analyze_builds_the_adjacency_once(adjacency_calls, n):
    analyze(build_cyclic(n))
    assert len(adjacency_calls) == 1


def test_catalog_entry_builds_the_adjacency_once(adjacency_calls):
    rows = evaluate_entry(CatalogEntry(spec="S3xS3", order=36))
    assert rows and all(r.passed for r in rows)
    assert len(adjacency_calls) == 1


INVARIANTS = {
    "girth": girth,
    "is_bipartite": is_bipartite,
    "maximum_clique": maximum_clique,
    "clique_number": clique_number,
    "independence_number": independence_number,
    "chromatic_number": chromatic_number,
    "is_planar": is_planar,
    "is_unicyclic": is_unicyclic,
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
        adjacency_sets(graph),
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
    vid = {v.order: v.vid for v in g.vertices}
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
    orders = {v.vid: v.order for v in g.vertices}
    u = next(v for v in orders if orders[v] == 2)
    w = next(v for v in orders if orders[v] == 6)
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
        common = set.intersection(*(adj[v] for v in triple))
        if len(common) >= 3:
            right = sorted(common)[:3]
            return sorted((min(u, x), max(u, x)) for u in triple for x in right)
    return None


@pytest.fixture
def counterexample_calls(monkeypatch):
    """Graphs that is_planar hands to networkx's counterexample search."""
    calls = []
    search = nx.algorithms.planarity.get_counterexample

    def counting(graph):
        calls.append(graph)
        return search(graph)

    monkeypatch.setattr(nx.algorithms.planarity, "get_counterexample", counting)
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
        assert list(cert.witness_edges) == first_k33_subgraph(adjacency_sets(graph)), spec
        assert verify_kuratowski_witness(graph, list(cert.witness_edges)) == (
            "K33",
            cert.witness_branch_vertices,
        ), spec
    assert counterexample_calls == []


def test_networkx_counterexample_verifies_on_catalog(nonplanar_catalog_graphs):
    for spec, graph in nonplanar_catalog_graphs.items():
        counter = nx.algorithms.planarity.get_counterexample(nx_graph(adjacency_sets(graph)))
        assert verify_kuratowski_witness(graph, list(counter.edges())) is not None, spec


def test_k5_witness_comes_from_the_fallback(counterexample_calls):
    k5 = adj_of(list(combinations(range(5), 2)), 5)
    cert = is_planar(k5)
    assert len(counterexample_calls) == 1
    assert cert.witness_kind == "K5"
    assert cert.witness_branch_vertices == (0, 1, 2, 3, 4)


def test_petersen_witness_is_a_proper_k33_subdivision(counterexample_calls):
    # girth 5, so no K33 subgraph: the witness must subdivide some edges
    petersen = adj_of(nx.petersen_graph().edges(), 10)
    cert = is_planar(petersen)
    assert len(counterexample_calls) == 1
    assert cert.witness_kind == "K33"
    assert len(cert.witness_edges) > 9


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
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
    assert is_unicyclic(build_cyclic(30))
    assert is_unicyclic(build_cyclic(36))  # one 4-cycle plus isolated vertices
    assert not is_unicyclic(build_cyclic(60))
    assert not is_unicyclic(adj_of([], 3))


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
    preds = shape_predicates(build(NAMED_GROUPS["A4"]()))
    assert preds["complete_bipartite"] and preds["connected"]
    preds = shape_predicates(build_cyclic(4))
    assert preds["null"] and not preds["tree"] and not preds["complete"]


# small-graph isomorphism


def test_iso_q8_z32():
    assert small_graph_isomorphic(build(NAMED_GROUPS["Q8"]()), build_cyclic(32))


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
    assert small_graph_isomorphic(build(NAMED_GROUPS["A4"]()), complete_bipartite(4, 4))


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
