"""Induced-embedding construction: maximal independent sets, labels, verifier."""

import json
import random
import re
import sys
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coprimegraph.coprime import build_cyclic
from coprimegraph.errors import clip
from coprimegraph.embedding import (
    EdgeListError,
    EmbeddingCertificate,
    MisCapExceeded,
    SimpleGraph,
    embed,
    first_primes,
    maximal_independent_sets,
    parse_edge_list,
    verify_embedding,
)
from coprimegraph.groups import ascii_int

from helpers import (
    brute_force_maximal_independent_sets,
    embed_oracle,
    from_edges_oracle,
    full_scan_maximal_independent_sets,
    neighbour_sets,
    parse_edge_list_oracle,
    recursive_maximal_independent_sets,
    trial_division_primes,
)


def complete_graph(n):
    return SimpleGraph.from_edges(n, combinations(range(n), 2))


def test_first_primes():
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]


def test_first_primes_prefixes_are_fresh_copies():
    assert first_primes(0) == [] and first_primes(1) == [2]
    assert first_primes(200) == trial_division_primes(200)
    short = first_primes(5)
    short.append(4)
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


def test_mis_of_edgeless_graph_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    assert maximal_independent_sets(SimpleGraph.from_edges(n, []), cap=n) == [tuple(range(n))]


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
    order_to_vid = {order: v for v, order in enumerate(graph.orders)}
    vids = [order_to_vid[label] for label in cert.labels]
    for i, j in combinations(range(3), 2):
        assert vids[j] in neighbour_sets(graph.masks)[vids[i]]


def test_embedded_path_is_induced_in_cyclic_graph():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    cert = embed(g)
    graph = build_cyclic(cert.modulus)
    order_to_vid = {order: v for v, order in enumerate(graph.orders)}
    vids = [order_to_vid[label] for label in cert.labels]
    for u in range(3):
        for v in range(u + 1, 3):
            assert (vids[v] in neighbour_sets(graph.masks)[vids[u]]) == ((u, v) in g.edges)


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
            assert (gcd(cert.labels[u], cert.labels[v]) == 1) == ((u, v) in g.edges)
    # neighbours against a scan of the edge set; the cached rows leave
    # equality and hashing to the fields
    sets = neighbour_sets(g.masks)
    for u in range(n):
        assert sets[u] == {b if a == u else a for a, b in g.edges if u in (a, b)}
    fresh = SimpleGraph.from_edges(n, edges)
    assert g == fresh and hash(g) == hash(fresh)


def _graph(n, density, seed):
    rng = random.Random(seed)
    return SimpleGraph.from_edges(
        n, [pair for pair in combinations(range(n), 2) if rng.random() < density]
    )


GRAPHS = st.builds(
    _graph,
    st.integers(1, 20),
    st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]),
    st.integers(0, 2**32),
)


# twin-rich graphs: 1458 sets and a 5224-digit modulus; all 20 vertices
# twins, ranks up to 19; eight isolated twins over 64 sets
TRIANGLES_20 = SimpleGraph.from_edges(
    20,
    [(a, b) for t in range(0, 18, 3) for a, b in ((t, t + 1), (t, t + 2), (t + 1, t + 2))]
    + [(18, 19)],
)
EDGELESS_20 = SimpleGraph.from_edges(20, [])
SIX_EDGES_20 = SimpleGraph.from_edges(20, [(2 * i, 2 * i + 1) for i in range(6)])
TWIN_RICH = [TRIANGLES_20, EDGELESS_20, SIX_EDGES_20]


@given(GRAPHS)
@example(TRIANGLES_20)
@example(EDGELESS_20)
@example(SIX_EDGES_20)
@settings(max_examples=150, deadline=None)
def test_mis_matches_the_recursive_and_brute_force_oracles(g):
    sets = maximal_independent_sets(g)
    assert sets == recursive_maximal_independent_sets(g)
    if g.n_vertices <= 12:
        assert sets == brute_force_maximal_independent_sets(g)


@given(
    st.builds(
        _graph,
        st.integers(0, 16),
        st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]),
        st.integers(0, 2**32),
    )
)
@settings(max_examples=300, deadline=None)
def test_mis_matches_the_listing_that_scans_every_pivot(g):
    assert maximal_independent_sets(g) == full_scan_maximal_independent_sets(g)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
@pytest.mark.parametrize(
    "edges",
    [
        lambda n: [],
        lambda n: combinations(range(n), 2),
        lambda n: [(0, v) for v in range(1, n)],
        lambda n: [(n - 1, v) for v in range(n - 1)],
    ],
    ids=["edgeless", "complete", "star", "star-last-centre"],
)
def test_mis_of_edgeless_complete_and_star_graphs_matches_the_full_scan(n, edges):
    g = SimpleGraph.from_edges(n, edges(n))
    assert maximal_independent_sets(g) == full_scan_maximal_independent_sets(g)


@given(GRAPHS)
@settings(max_examples=150, deadline=None)
def test_embed_json_is_byte_equal_to_the_oracle(g):
    def dump(cert):
        return json.dumps(cert.to_json_dict(), indent=2, sort_keys=True)

    assert dump(embed(g)) == dump(embed_oracle(g))


@pytest.mark.parametrize("g", TWIN_RICH, ids=["triangles", "edgeless", "six-edges"])
def test_embed_equals_the_oracle_on_twin_rich_graphs(g):
    # compared as certificates: json.dumps cannot print the triangles'
    # 5224-digit modulus under the default limit on integer digits
    assert embed(g) == embed_oracle(g)


@given(GRAPHS)
@settings(max_examples=150, deadline=None)
def test_masks_are_the_rows_of_the_neighbour_sets(g):
    # each row against a scan of the edge set
    assert g.masks == tuple(
        sum(1 << (b if a == u else a) for a, b in g.edges if u in (a, b))
        for u in range(g.n_vertices)
    )


def test_embed_refuses_a_huge_header_before_building_its_rows():
    g = parse_edge_list("n 1000000000\n0 1\n")
    with pytest.raises(MisCapExceeded):
        embed(g)
    assert "masks" not in g.__dict__


def test_verify_embedding_reads_every_pair():
    # one wrong pair, the last one checked, is enough to reject
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    cert = embed(g)
    assert verify_embedding(g, cert)
    assert not verify_embedding(SimpleGraph.from_edges(4, [(0, 1), (1, 2)]), cert)


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


@pytest.mark.parametrize("text", ["n \u0663\n", "n 3_0\n", "n +3\n", "0 1_0\n", "\u0660 1\n", "0 +-1\n"])
def test_parse_edge_list_reads_ascii_digits_only(text):
    with pytest.raises(EdgeListError, match="line 1"):
        parse_edge_list(text)


def test_parse_edge_list_ids_may_carry_a_sign():
    assert parse_edge_list("+0 +1\n").edges == frozenset({(0, 1)})
    with pytest.raises(EdgeListError, match="vertex ids must be nonnegative"):
        parse_edge_list("-1 0\n")


# ASCII digits and signs, other scripts' digits, "_", and anything else
ID_TOKENS = st.text(st.sampled_from("0123456789+-_\u0663\u00b9") | st.characters(), max_size=5)


@settings(max_examples=300)
@given(ID_TOKENS.filter(lambda t: t and not any(c.isspace() or c == "#" for c in t)))
def test_an_edge_id_is_read_exactly_when_it_is_a_signed_ascii_integer(token):
    try:
        parse_edge_list(f"5 {token}\n")
        read = True
    except EdgeListError as exc:
        read = "expected integers" not in str(exc)
    assert read == bool(re.fullmatch("[+-]?[0-9]+", token))


@settings(max_examples=300)
@given(ID_TOKENS.filter(lambda t: t and not any(c.isspace() or c == "#" for c in t)))
def test_an_edge_id_is_read_exactly_when_ascii_int_reads_it(token):
    try:
        ascii_int(token)
        readable = True
    except ValueError:
        readable = False
    try:
        parse_edge_list(f"5 {token}\n")
        read = True
    except EdgeListError as exc:
        read = "expected integers" not in str(exc)
    assert read == readable


@pytest.mark.parametrize(
    "text", ["0 1 " + "2 " * 500 + "\n", "0 x" + "1" * 500 + "\n"], ids=["fields", "integers"]
)
def test_an_edge_list_error_quotes_a_long_line_clipped(text):
    with pytest.raises(EdgeListError) as info:
        parse_edge_list(text)
    assert str(info.value).endswith(f"got {clip(text.rstrip())!r}")
    assert len(str(info.value)) < 120


def test_neighbors_are_the_cached_adjacency():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (3, 1)])
    assert g.masks == (0b10, 0b1101, 0b10, 0b10)
    assert neighbour_sets(g.masks) == (
        frozenset({1}), frozenset({0, 2, 3}), frozenset({1}), frozenset({1})
    )
    # the rows are built once and are the only adjacency
    assert g.masks is g.masks
    assert not hasattr(g, "neighbors") and not hasattr(g, "adj")


def test_embed_refuses_a_graph_without_vertices():
    with pytest.raises(ValueError, match="at least one vertex"):
        embed(SimpleGraph(0, frozenset()))


def test_simple_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(0, 5)])


# the edge-list parser against the one it replaced

LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\x0c", "\u2028"])
FILLER_LINES = st.sampled_from(["", "   ", "\t", "# a comment", " # 0 1"])
EDIT_CHARS = st.sampled_from(list("0123456789 _#+-n\u0663"))


@st.composite
def edge_list_texts(draw):
    """A valid edge list with comments, blank lines, mixed line breaks and its
    header before, after or twice, then 0-3 characters inserted, replaced or
    deleted."""
    n = draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=10))
    lines = [f"{u} {v}" + draw(st.sampled_from(["", " ", "  # edge"])) for u, v in edges]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(FILLER_LINES))
    headers = [f"n {draw(st.integers(max(n - 2, 0), n + 2))}" for _ in range(2)]
    place = draw(st.sampled_from(["none", "before", "after", "twice"]))
    if place in ("before", "twice"):
        lines.insert(0, headers[0])
    if place in ("after", "twice"):
        lines.append(headers[1])
    chars = list("".join(line + draw(LINE_BREAKS) for line in lines))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or i == len(chars):
            chars.insert(i, draw(EDIT_CHARS))
        elif edit == "replace":
            chars[i] = draw(EDIT_CHARS)
        else:
            del chars[i]
    return "".join(chars)


def _parsed(parse, text):
    """The graph with its edges in iteration order, or the error's type and text."""
    try:
        g = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return g, list(g.edges)


@settings(max_examples=400, deadline=None)
@given(edge_list_texts(), st.booleans())
@example("n 3\n0 1\n1 2\n", False)
@example("0 1\r\n\u20281 2\x0c2 0 # c\nn 3\n", False)
@example("n 5\n0 4\nn 3\n", False)
@example("0 0\n1 x\n", False)
@example("0 1 2\nn x\n", True)
@example("\u0663 1\n", True)
def test_edge_list_parser_matches_the_previous_parser(text, as_bytes):
    data = text.encode() if as_bytes else text
    assert _parsed(parse_edge_list, data) == _parsed(parse_edge_list_oracle, data)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 6),
    st.lists(st.tuples(st.integers(-2, 8), st.integers(-2, 8)), max_size=8),
)
@example(3, [(0, 1), (2, 2), (0, 5)])
@example(3, [(0, 5), (2, 2)])
@example(2, [(1, 0), (0, 1), (1, 0)])
def test_from_edges_matches_the_previous_normalisation(n, edges):
    new = _parsed(lambda e: SimpleGraph.from_edges(n, iter(e)), edges)
    assert new == _parsed(lambda e: from_edges_oracle(n, e), edges)
