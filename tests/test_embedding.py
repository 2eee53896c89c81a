"""Induced-embedding construction: maximal independent sets, labels, verifier."""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimegraph.coprime import build_cyclic
from coprimegraph.embedding import (
    EmbeddingCertificate,
    MisCapExceeded,
    SimpleGraph,
    embed,
    first_primes,
    maximal_independent_sets,
    parse_edge_list,
    verify_embedding,
)


def complete_graph(n):
    return SimpleGraph.from_edges(n, combinations(range(n), 2))


def test_first_primes():
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]


def test_mis_of_triangle_is_singletons():
    assert maximal_independent_sets(complete_graph(3)) == [(0,), (1,), (2,)]


def test_mis_of_edgeless_is_everything():
    g = SimpleGraph.from_edges(3, [])
    assert maximal_independent_sets(g) == [(0, 1, 2)]


def test_mis_of_worked_five_vertex_example():
    # complete bipartite on parts {0,2,3} and {1,4}: those parts are the only
    # maximal independent sets
    g = SimpleGraph.from_edges(5, [(a, b) for a in (0, 2, 3) for b in (1, 4)])
    assert maximal_independent_sets(g) == [(0, 2, 3), (1, 4)]


def test_mis_every_vertex_covered():
    g = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    sets = maximal_independent_sets(g)
    covered = {v for s in sets for v in s}
    assert covered == set(range(6))


def test_mis_cap():
    with pytest.raises(MisCapExceeded):
        maximal_independent_sets(SimpleGraph.from_edges(25, []), cap=20)


def test_embed_single_edge():
    cert = embed(SimpleGraph.from_edges(2, [(0, 1)]))
    assert cert.labels == (2, 3)
    assert cert.modulus == 6


def test_embed_triangle():
    cert = embed(complete_graph(3))
    assert cert.labels == (2, 3, 5)
    assert cert.modulus == 30


def test_embed_single_vertex_adjusts_modulus():
    cert = embed(SimpleGraph.from_edges(1, []))
    assert cert.labels == (2,)
    assert cert.modulus == 4


def test_embed_worked_five_vertex_example_uses_prime_powers():
    g = SimpleGraph.from_edges(5, [(a, b) for a in (0, 2, 3) for b in (1, 4)])
    cert = embed(g)
    assert cert.labels == (2, 3, 4, 8, 9)
    assert cert.modulus == 72
    assert verify_embedding(g, cert)


def test_embedded_triangle_is_induced_in_cyclic_graph():
    cert = embed(complete_graph(3))
    graph = build_cyclic(cert.modulus)
    order_to_vid = {v.order: v.vid for v in graph.vertices}
    vids = [order_to_vid[label] for label in cert.labels]
    for i, j in combinations(range(3), 2):
        assert vids[j] in graph.neighbors(vids[i])


def test_embedded_path_is_induced_in_cyclic_graph():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    cert = embed(g)
    graph = build_cyclic(cert.modulus)
    order_to_vid = {v.order: v.vid for v in graph.vertices}
    vids = [order_to_vid[label] for label in cert.labels]
    for u in range(3):
        for v in range(u + 1, 3):
            assert (vids[v] in graph.neighbors(vids[u])) == g.has_edge(u, v)


def test_verify_embedding_rejects_shared_prime_on_edge():
    g = SimpleGraph.from_edges(2, [(0, 1)])
    bad = EmbeddingCertificate(
        mis=((0,), (1,)), prime_assignment=(2, 2), labels=(2, 4), modulus=8
    )
    assert not verify_embedding(g, bad)


def test_verify_embedding_rejects_label_equal_to_modulus():
    g = SimpleGraph.from_edges(2, [(0, 1)])
    bad = EmbeddingCertificate(
        mis=((0,), (1,)), prime_assignment=(2, 3), labels=(2, 6), modulus=6
    )
    assert not verify_embedding(g, bad)


def test_verify_embedding_rejects_duplicate_labels():
    g = SimpleGraph.from_edges(2, [])
    bad = EmbeddingCertificate(
        mis=((0, 1),), prime_assignment=(2,), labels=(2, 2), modulus=8
    )
    assert not verify_embedding(g, bad)


def test_verify_embedding_rejects_missing_required_coprimality():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    bad = EmbeddingCertificate(
        mis=((0,), (1,), (2,)),
        prime_assignment=(2, 3, 5),
        labels=(2, 3, 6),
        modulus=30,
    )
    assert not verify_embedding(g, bad)


def test_label_supports_match_membership():
    g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    cert = embed(g)
    for v in range(4):
        support = {
            cert.prime_assignment[i]
            for i, s in enumerate(cert.mis)
            if v in s
        }
        label = cert.labels[v]
        label_primes = {p for p in cert.prime_assignment if label % p == 0}
        assert label_primes == support


def _exhaustive_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield SimpleGraph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_embed_verify_roundtrip_exhaustive_small(n):
    for g in _exhaustive_graphs(n):
        cert = embed(g)
        assert verify_embedding(g, cert)
        assert len(set(cert.labels)) == g.n_vertices
        assert all(1 < label < cert.modulus for label in cert.labels)


def test_embed_verify_roundtrip_exhaustive_six_vertices():
    # all 2^15 labeled graphs on 6 vertices
    for g in _exhaustive_graphs(6):
        assert verify_embedding(g, embed(g))


@given(
    st.integers(min_value=5, max_value=11).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).map(lambda t: (min(t), max(t))).filter(lambda t: t[0] != t[1]),
                max_size=n * (n - 1) // 2,
            ),
        )
    )
)
@settings(max_examples=120, deadline=None)
def test_embed_verify_roundtrip_random(args):
    n, edges = args
    g = SimpleGraph.from_edges(n, edges)
    cert = embed(g)
    assert verify_embedding(g, cert)
    # independent re-statement of the coprimality equivalence
    for u in range(n):
        for v in range(u + 1, n):
            assert (gcd(cert.labels[u], cert.labels[v]) == 1) == g.has_edge(u, v)
    # neighbours against a scan of the edge set; the cached adjacency leaves
    # equality and hashing to the fields
    for u in range(n):
        assert g.neighbors(u) == {b if a == u else a for a, b in g.edges if u in (a, b)}
    fresh = SimpleGraph.from_edges(n, edges)
    assert g == fresh and hash(g) == hash(fresh)


# edge-list parsing


def test_parse_edge_list_basic():
    g = parse_edge_list("0 1\n\n1 2\n")
    assert g.n_vertices == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_edge_list_header_and_comments():
    g = parse_edge_list("# demo\nn 5\n0 1\n")
    assert g.n_vertices == 5
    assert g.edges == frozenset({(0, 1)})


@pytest.mark.parametrize("text", ["0\n", "0 1 2\n", "a b\n", "-1 0\n", "n x\n", ""])
def test_parse_edge_list_rejects(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_simple_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(0, 5)])
