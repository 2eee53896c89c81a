"""The left-right planarity port against NetworkX, its origin, as the oracle:
the same clockwise rotation system on a planar graph and the same Kuratowski
edge set on a nonplanar one, with each vertex's neighbours in ascending order
on both sides, as ``analysis.is_planar`` hands them over."""

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimegraph import planarity
from coprimegraph.coprime import build_cyclic, graph_for_spec
from coprimegraph.theorems import load_catalog
from helpers import neighbour_sets


def networkx_planarity(adj):
    """NetworkX's rotation system (clockwise lists) and, on a nonplanar graph,
    the sorted edges of its counterexample; the graph is fed as
    ``is_planar`` fed it before the port: vertices in order, then edges in
    lexicographic order."""
    n = len(adj)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((u, v) for u in range(n) for v in sorted(adj[u]) if u < v)
    ok, embedding = nx.check_planarity(graph)
    if ok:
        data = embedding.get_data()
        return [data[v] for v in range(n)], None
    counter = nx.algorithms.planarity.get_counterexample(graph)
    return None, sorted((min(u, v), max(u, v)) for u, v in counter.edges())


def assert_same_as_networkx(adj) -> bool:
    """Whether the graph is planar, after asserting that the port agrees."""
    rotation, witness = networkx_planarity(adj)
    lists = [sorted(nbrs) for nbrs in adj]
    assert planarity.rotation_system(lists) == rotation
    if witness is not None:
        assert planarity.kuratowski_edges(lists) == witness
    return witness is None


def adj_of(edges, n):
    out = [set() for _ in range(n)]
    for u, v in edges:
        out[u].add(v)
        out[v].add(u)
    return out


def relabelled(adj, rng):
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    return adj_of(((perm[u], perm[v]) for u in range(len(adj)) for v in adj[u] if u < v), len(adj))


def triangulation(n, rng):
    """A random triangulation of n >= 3 vertices: each new vertex is put in a
    random face, then 2n random edge flips mix the result up."""
    adj = adj_of([(0, 1), (1, 2), (0, 2)], n)
    faces = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        for x in (a, b, c):
            adj[v].add(x)
            adj[x].add(v)
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    for _ in range(2 * n):
        i, j = rng.sample(range(len(faces)), 2)
        shared = set(faces[i]) & set(faces[j])
        if len(shared) != 2:
            continue
        (c,), (d,) = set(faces[i]) - shared, set(faces[j]) - shared
        a, b = shared
        if d in adj[c] or len(adj[a]) <= 3 or len(adj[b]) <= 3:
            continue
        adj[a].discard(b)
        adj[b].discard(a)
        adj[c].add(d)
        adj[d].add(c)
        faces[i], faces[j] = (a, c, d), (b, c, d)
    return relabelled(adj, rng)


@st.composite
def small_graphs(draw, max_vertices=12):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return adj_of([p for p, k in zip(pairs, keep) if k], n)


@settings(max_examples=400, deadline=None)
@given(small_graphs())
def test_the_port_matches_networkx_on_small_graphs(adj):
    assert_same_as_networkx(adj)


def test_the_port_matches_networkx_on_edgeless_and_disconnected_graphs():
    k4 = list(combinations(range(4), 2))
    k5 = list(combinations(range(5), 2))
    assert assert_same_as_networkx(adj_of([], 0))
    assert assert_same_as_networkx(adj_of([], 7))
    assert assert_same_as_networkx(adj_of(k4 + [(u + 5, v + 5) for u, v in k4], 10))
    assert not assert_same_as_networkx(adj_of([(u + 3, v + 3) for u, v in k5] + [(0, 1)], 9))


def test_the_port_matches_networkx_on_the_catalog():
    planar = 0
    entries = load_catalog()
    assert len(entries) == 62
    for entry in entries:
        planar += assert_same_as_networkx(neighbour_sets(graph_for_spec(entry.spec, 420).masks))
    assert planar == 62 - 18


def test_the_port_matches_networkx_on_named_nonplanar_graphs():
    petersen = adj_of(nx.petersen_graph().edges(), 10)
    k5 = adj_of(combinations(range(5), 2), 5)
    k33 = adj_of([(u, v) for u in range(3) for v in range(3, 6)], 6)
    for adj in (neighbour_sets(build_cyclic(900).masks), k5, k33, petersen):
        assert not assert_same_as_networkx(adj)


@pytest.mark.parametrize("rows,cols", [(1, 6), (2, 2), (3, 4), (6, 7), (10, 10)])
def test_the_port_matches_networkx_on_grids(rows, cols):
    grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(rows, cols))
    adj = adj_of(grid.edges(), rows * cols)
    assert assert_same_as_networkx(adj)
    assert assert_same_as_networkx(relabelled(adj, random.Random(rows * cols)))


@pytest.mark.parametrize("n", [4, 5, 8, 13, 30, 64, 120, 200])
def test_the_port_matches_networkx_on_random_triangulations(n):
    rng = random.Random(n)
    adj = triangulation(n, rng)
    assert sum(map(len, adj)) == 2 * (3 * n - 6)
    assert assert_same_as_networkx(adj)
    if 5 <= n <= 64:
        # one edge moved to where it is missing, planar or not
        u, v = rng.choice([(u, v) for u in range(n) for v in adj[u] if u < v])
        x, y = rng.choice([(x, y) for x, y in combinations(range(n), 2) if y not in adj[x]])
        moved = [set(nbrs) for nbrs in adj]
        moved[u].discard(v)
        moved[v].discard(u)
        moved[x].add(y)
        moved[y].add(x)
        assert_same_as_networkx(moved)
        # one edge more than a triangulation holds
        adj[x].add(y)
        adj[y].add(x)
        assert not assert_same_as_networkx(adj)
