"""Exact graph invariants with self-verified certificates.

Everything here is exact: clique, independence and chromatic numbers come from
branch-and-bound searches, planarity verdicts carry either a rotation system
that passes an Euler face count or a Kuratowski subdivision witness that is
re-validated by degree profile and path contraction before being returned.
The independence number of a coprime graph is searched over prime supports,
of which there are at most 2^k - 1 for k primes, however many vertices share
them; every other solver works on vertices, and ``--exact-cap`` bounds their
count before any of them runs.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations

import networkx as nx

from .errors import CertificateError, ExactCapExceeded, check_exact_cap

INFINITE = math.inf

DEFAULT_EXACT_CAP = 64
ISO_CAP = 16

FORBIDDEN_PATTERNS = ("K12", "K13", "K14", "K22", "K23", "K33", "K5")


def adjacency_sets(g) -> list[set[int]]:
    """Normalize a graph-like object to a list of neighbor sets.

    Accepts anything with ``n_vertices`` and ``neighbors(v)`` (CoprimeGraph,
    SimpleGraph) or a raw list of neighbor collections.
    """
    if isinstance(g, list):
        return [set(s) for s in g]
    return [set(g.neighbors(v)) for v in range(g.n_vertices)]


@dataclass(frozen=True)
class _Adjacency:
    """One graph's adjacency: neighbour sets and the same rows as bitmasks.

    A coprime graph also brings its vertex orders and its parent's primes,
    from which ``independence_number`` works on prime supports.
    """

    sets: tuple[frozenset[int], ...]
    masks: tuple[int, ...]
    orders: tuple[int, ...] | None = None
    primes: tuple[int, ...] = ()


def _adjacency(g) -> _Adjacency:
    """The adjacency every public invariant starts from.

    Built once through ``adjacency_sets`` from a CoprimeGraph, a SimpleGraph
    or a list of neighbour sets; an ``_Adjacency`` is returned unchanged, so
    ``analyze`` pays for it once however many invariants it computes.
    """
    if isinstance(g, _Adjacency):
        return g
    sets = tuple(frozenset(s) for s in adjacency_sets(g))
    masks = tuple(sum(1 << w for w in s) for s in sets)
    if hasattr(g, "orders"):
        return _Adjacency(sets, masks, tuple(g.orders()), tuple(sorted(g.parent_primes())))
    return _Adjacency(sets, masks)


def edge_list(adj: list[set[int]]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in sorted(adj[u]) if u < v]


def connected_components(adj: list[set[int]]) -> list[list[int]]:
    n = len(adj)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _bfs_dist(adj: list[set[int]], src: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def component_diameter(adj: list[set[int]], comp: list[int]) -> int:
    best = 0
    for v in comp:
        dist = _bfs_dist(adj, v)
        best = max(best, max(dist[u] for u in comp))
    return best


def girth(g) -> float:
    """Length of the shortest cycle, or INFINITE for forests.

    BFS from every root; a non-tree edge (u, w) seen from root s bounds the
    shortest cycle through s by dist(u) + dist(w) + 1, and scanning all roots
    makes the minimum exact.
    """
    adj = _adjacency(g).sets
    n = len(adj)
    best = INFINITE
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                continue
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def _two_coloring(adj) -> list[int] | None:
    """A proper 0/1 colouring by BFS from each uncoloured vertex in index
    order, or None if some edge joins two vertices of one colour."""
    color = [-1] * len(adj)
    for s in range(len(adj)):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return color


def is_bipartite(g) -> bool:
    return _two_coloring(_adjacency(g).sets) is not None


# Exact solvers on bitmask adjacency.


def _greedy_color_order(masks, candidates: int) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set; per-vertex color indices are the
    clique-size upper bounds used by the Tomita-style search below."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    remaining = candidates
    while remaining:
        color += 1
        avail = remaining
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            avail &= ~masks[v]
            remaining &= ~(1 << v)
            order.append(v)
            bounds.append(color)
    return order, bounds


def _max_clique_masks(masks, n: int) -> int:
    if n == 0:
        return 0
    best_mask = 0
    best = 0

    def expand(size: int, current: int, candidates: int) -> None:
        nonlocal best, best_mask
        order, bounds = _greedy_color_order(masks, candidates)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            bit = 1 << v
            new_candidates = candidates & masks[v]
            if new_candidates:
                expand(size + 1, current | bit, new_candidates)
            elif size + 1 > best:
                best = size + 1
                best_mask = current | bit
            candidates &= ~bit
        return

    expand(0, 0, (1 << n) - 1)
    return best_mask


def maximum_clique(g, cap: int = DEFAULT_EXACT_CAP) -> list[int]:
    """An exact maximum clique, as a sorted vertex list."""
    masks = _adjacency(g).masks
    n = len(masks)
    check_exact_cap(n, cap)
    mask = _max_clique_masks(masks, n)
    return [v for v in range(n) if mask >> v & 1]


def clique_number(g, cap: int = DEFAULT_EXACT_CAP) -> int:
    return len(maximum_clique(g, cap))


def _support_classes(adj: _Adjacency) -> dict[int, int] | None:
    """The graph's vertices grouped by prime support, as support -> vertex
    bitmask, or None unless two vertices are adjacent exactly when their
    supports are disjoint.

    A vertex's support is the bitmask of the parent's primes dividing its
    order.  A coprime graph built from its orders always passes the
    comparison; a hand-made one need not.
    """
    supports = [
        sum(1 << i for i, p in enumerate(adj.primes) if order % p == 0) for order in adj.orders
    ]
    classes: dict[int, int] = {}
    for v, s in enumerate(supports):
        classes[s] = classes.get(s, 0) | 1 << v
    disjoint = {s: sum(m for t, m in classes.items() if not s & t) for s in classes}
    if any(adj.masks[v] != disjoint[s] for v, s in enumerate(supports)):
        return None
    return classes


def _max_support_family(weight: Counter[int], k: int) -> tuple[int, tuple[int, ...]]:
    """The heaviest pairwise-intersecting family of nonempty subsets of k
    primes, as its total weight and its members with positive weight.

    With non-negative weights an optimum can be taken maximal, and a maximal
    intersecting family holds exactly one member of each complementary pair.
    The full set meets every other and is always taken.  So the search picks
    one member per pair, heaviest pair first, keeps a pick only if it meets
    every earlier pick, and cuts a branch once the weight still to come
    cannot beat the best family.  Some member of a pair always meets every
    earlier pick: if S missed A and the complement of S missed B, then A and
    B would be disjoint.
    """
    full = (1 << k) - 1
    pairs = sorted(
        {tuple(sorted((s, full ^ s), key=lambda t: (-weight[t], t))) for s in weight if s != full},
        key=lambda pair: (-weight[pair[0]] - weight[pair[1]], pair),
    )
    rest = [0] * (len(pairs) + 1)
    for i in range(len(pairs) - 1, -1, -1):
        rest[i] = rest[i + 1] + weight[pairs[i][0]]
    best, best_family = -1, ()

    def extend(i: int, family: tuple[int, ...], total: int) -> None:
        nonlocal best, best_family
        if total + rest[i] <= best:
            return
        if i == len(pairs):
            best, best_family = total, family
            return
        for s in pairs[i]:
            if all(s & t for t in family):
                extend(i + 1, family + (s,), total + weight[s])

    extend(0, (), weight[full])
    return best, tuple(s for s in (full, *best_family) if weight[s])


def independence_number(g, cap: int = DEFAULT_EXACT_CAP) -> int:
    """Exact independence number.

    In a coprime graph an independent set is a union of support classes
    whose supports pairwise meet, so ``_max_support_family`` finds alpha on
    the supports; the vertex set it covers is re-checked against the
    adjacency before its size is returned.  A graph without vertex orders
    gets maximum clique on the complement.
    """
    adj = _adjacency(g)
    masks = adj.masks
    n = len(masks)
    check_exact_cap(n, cap)
    classes = None if adj.orders is None else _support_classes(adj)
    if classes is None:
        full = (1 << n) - 1
        comp = [full & ~(1 << v) & ~m for v, m in enumerate(masks)]
        return _max_clique_masks(comp, n).bit_count()
    weight = Counter({s: m.bit_count() for s, m in classes.items()})
    alpha, family = _max_support_family(weight, len(adj.primes))
    chosen = sum(classes[s] for s in family)
    if chosen.bit_count() != alpha or any(masks[v] & chosen for v in range(n) if chosen >> v & 1):
        raise CertificateError("support family does not give an independent set of its weight")
    return alpha


def _k_colorable(adj, k: int) -> bool:
    """Backtracking k-colouring in DSATUR order: the uncoloured vertex with the
    most distinct neighbour colours, then the highest degree, then the lowest
    index, takes the lowest free colour first.  So the first descent is the
    DSATUR greedy colouring, and it succeeds without backtracking whenever k
    is at least the greedy colour count."""
    n = len(adj)
    colors = [-1] * n

    def pick() -> int:
        best_v, best_key = -1, (-1, -1)
        for v in range(n):
            if colors[v] >= 0:
                continue
            sat = len({colors[u] for u in adj[v] if colors[u] >= 0})
            key = (sat, len(adj[v]))
            if key > best_key:
                best_key, best_v = key, v
        return best_v

    def rec(assigned: int, max_used: int) -> bool:
        if assigned == n:
            return True
        v = pick()
        taken = {colors[u] for u in adj[v] if colors[u] >= 0}
        # allowing at most one fresh color breaks color-permutation symmetry
        for c in range(min(max_used + 1, k - 1) + 1):
            if c in taken:
                continue
            colors[v] = c
            if rec(assigned + 1, max(max_used, c)):
                return True
            colors[v] = -1
        return False

    return rec(0, -1)


def chromatic_number(g, cap: int = DEFAULT_EXACT_CAP) -> int:
    """Exact chromatic number: the first k >= omega for which the
    k-colourability search succeeds.  That search never passes the DSATUR
    greedy colour count, where its first descent already succeeds."""
    adj = _adjacency(g)
    n = len(adj.sets)
    check_exact_cap(n, cap)
    k = _max_clique_masks(adj.masks, n).bit_count()
    while not _k_colorable(adj.sets, k):
        k += 1
    return k


# Planarity with verified certificates.


@dataclass(frozen=True)
class PlanarityCertificate:
    """Either a rotation system passing the Euler face check, or a verified
    subdivision of K5 or K33."""

    planar: bool
    rotation: tuple[tuple[int, ...], ...] | None = None
    witness_kind: str | None = None
    witness_edges: tuple[tuple[int, int], ...] | None = None
    witness_branch_vertices: tuple[int, ...] | None = None


def _count_faces(rotation: dict[int, list[int]], comp: list[int]) -> int:
    darts = {(u, v) for u in comp for v in rotation[u]}
    faces = 0
    seen: set[tuple[int, int]] = set()
    succ = {u: {v: rotation[u][(i + 1) % len(rotation[u])] for i, v in enumerate(rotation[u])}
            for u in comp}
    for dart in darts:
        if dart in seen:
            continue
        faces += 1
        cur = dart
        while cur not in seen:
            seen.add(cur)
            u, v = cur
            cur = (v, succ[v][u])
    return faces


def verify_rotation_system(g, rotation: dict[int, list[int]]) -> bool:
    """Euler check V - E + F = 2 on every component of the rotation system.

    Components without edges count a single face.  Equivalently the whole
    graph satisfies V - E + F' = 1 + C once the shared outer face is counted
    only once.
    """
    adj = _adjacency(g).sets
    n = len(adj)
    if set(rotation) != set(range(n)):
        return False
    for v in range(n):
        if sorted(rotation[v]) != sorted(adj[v]):
            return False
    for comp in connected_components(adj):
        edges = sum(len(adj[v]) for v in comp) // 2
        faces = 1 if edges == 0 else _count_faces(rotation, comp)
        if len(comp) - edges + faces != 2:
            return False
    return True


def verify_kuratowski_witness(
    g, witness_edges: list[tuple[int, int]]
) -> tuple[str, tuple[int, ...]] | None:
    """Validate an edge set as a K5 or K33 subdivision inside the host graph.

    Checks: every witness edge exists in the host; branch vertices have degree
    4 (K5) or 3 (K33) in the witness with every other vertex of degree 2; the
    degree-2 chains contract to exactly the simple edge set of K5, or to a
    complete bipartite 3+3 graph.  Returns (kind, branch vertices) or None.
    """
    host = _adjacency(g).sets
    wadj: dict[int, set[int]] = {}
    for u, v in witness_edges:
        if u == v or v not in host[u]:
            return None
        wadj.setdefault(u, set()).add(v)
        wadj.setdefault(v, set()).add(u)
    if not wadj:
        return None
    degs = {v: len(s) for v, s in wadj.items()}
    branch = sorted(v for v, d in degs.items() if d >= 3)
    if any(d not in (2, 3, 4) for d in degs.values()):
        return None
    if len(branch) == 5 and all(degs[v] == 4 for v in branch):
        kind, want_paths = "K5", 10
    elif len(branch) == 6 and all(degs[v] == 3 for v in branch):
        kind, want_paths = "K33", 9
    else:
        return None

    # contract the degree-2 chains into branch-to-branch connections
    pairs = []
    used_darts = set()
    for b in branch:
        for first in sorted(wadj[b]):
            if (b, first) in used_darts:
                continue
            prev, cur = b, first
            used_darts.add((b, first))
            while cur not in branch:
                nxts = [w for w in wadj[cur] if w != prev]
                if len(nxts) != 1:
                    return None
                prev, cur = cur, nxts[0]
            used_darts.add((cur, prev))
            if cur == b:
                return None
            pairs.append((min(b, cur), max(b, cur)))
    if len(pairs) != want_paths:
        return None
    distinct = set(pairs)
    if len(distinct) != want_paths:
        return None

    if kind == "K5":
        if distinct != {(a, b) for a, b in combinations(branch, 2)}:
            return None
    else:
        cadj = {b: {v for u, v in distinct if u == b} | {u for u, v in distinct if v == b}
                for b in branch}
        side = {branch[0]}
        other = cadj[branch[0]]
        if len(other) != 3:
            return None
        side = set(branch) - other
        if len(side) != 3:
            return None
        for u in side:
            if cadj[u] != other:
                return None
        for u in other:
            if cadj[u] != side:
                return None
    return kind, tuple(branch)


def is_planar(g) -> PlanarityCertificate:
    """Planarity with a self-verified certificate either way.

    networkx's planarity test gives the verdict.  A nonplanar graph's witness
    is the first triple u < v < w with at least three common neighbours,
    joined to the lowest three of them: a literal K33.  Only a graph without
    one goes to networkx's counterexample search, which deletes edges one at a
    time and re-tests planarity after each.
    """
    adj = _adjacency(g)
    n = len(adj.sets)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edge_list(adj.sets))
    ok, embedding = nx.check_planarity(graph, counterexample=False)
    if ok:
        data = embedding.get_data()
        rotation = {v: list(data.get(v, [])) for v in range(n)}
        if not verify_rotation_system(adj, rotation):
            raise CertificateError("planar embedding failed the Euler face check")
        return PlanarityCertificate(
            planar=True,
            rotation=tuple(tuple(rotation[v]) for v in range(n)),
        )
    found = _k3b_triple(adj.masks, 3)
    if found is None:
        counter = nx.algorithms.planarity.get_counterexample(graph)
        witness = sorted((min(u, v), max(u, v)) for u, v in counter.edges())
    else:
        *left, common = found
        right = [x for x in range(n) if common >> x & 1][:3]
        witness = sorted((min(u, x), max(u, x)) for u in left for x in right)
    verdict = verify_kuratowski_witness(adj, witness)
    if verdict is None:
        raise CertificateError("nonplanarity witness failed subdivision validation")
    kind, branch = verdict
    return PlanarityCertificate(
        planar=False,
        witness_kind=kind,
        witness_edges=tuple(witness),
        witness_branch_vertices=branch,
    )


# Forbidden subgraphs and shapes.


def contains_complete_bipartite(g, a: int, b: int) -> bool:
    """Subgraph (not induced) K_{a,b} containment for a in {1, 2, 3}.

    K_{1,b} needs a vertex of degree >= b; K_{2,b} a vertex pair with >= b
    common neighbors; K_{3,b} a vertex triple with >= b common neighbors.
    """
    if a not in (1, 2, 3):
        raise ValueError(f"left part size must be 1, 2 or 3, got {a}")
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    adj = _adjacency(g)
    if a == 1:
        return any(len(s) >= b for s in adj.sets)
    if a == 2:
        return any((mu & mv).bit_count() >= b for mu, mv in combinations(adj.masks, 2))
    return _k3b_triple(adj.masks, b) is not None


def _k3b_triple(masks, b: int) -> tuple[int, int, int, int] | None:
    """The first triple u < v < w, in lexicographic order, with at least b
    common neighbours, as (u, v, w, common-neighbour mask); None if none.

    A pair with fewer than b common neighbours is skipped before any third
    vertex is tried, since a third vertex only shrinks the common set.
    """
    n = len(masks)
    for u in range(n):
        for v in range(u + 1, n):
            pair = masks[u] & masks[v]
            if pair.bit_count() < b:
                continue
            for w in range(v + 1, n):
                common = pair & masks[w]
                if common.bit_count() >= b:
                    return u, v, w, common
    return None


def is_unicyclic(g) -> bool:
    """Exactly one cycle overall: E - V + C = 1.  Connectivity not required."""
    return shape_predicates(g)["unicyclic"]


@dataclass(frozen=True)
class ShapeDescriptor:
    """Most specific named pattern of the non-isolated core, plus the count of
    isolated vertices reported separately."""

    kind: str
    args: tuple[int, ...]
    isolated: int


def _induced(adj: list[set[int]], keep: list[int]) -> list[set[int]]:
    pos = {v: i for i, v in enumerate(keep)}
    return [{pos[w] for w in adj[v] if w in pos} for v in keep]


def _is_complete(adj: list[set[int]]) -> bool:
    n = len(adj)
    return n >= 2 and all(len(adj[v]) == n - 1 for v in range(n))


def _is_star(adj: list[set[int]]) -> tuple[bool, int]:
    n = len(adj)
    if n < 2:
        return False, 0
    degs = sorted(len(s) for s in adj)
    if degs[-1] == n - 1 and degs[:-1] == [1] * (n - 1):
        return True, n - 1
    return False, 0


def _is_path(adj: list[set[int]]) -> tuple[bool, int]:
    n = len(adj)
    if n < 2 or len(connected_components(adj)) != 1:
        return False, 0
    degs = sorted(len(s) for s in adj)
    if n == 2:
        return degs == [1, 1], 1
    if degs[:2] == [1, 1] and degs[2:] == [2] * (n - 2):
        return True, n - 1
    return False, 0


def _is_cycle(adj: list[set[int]]) -> tuple[bool, int]:
    n = len(adj)
    ok = n >= 3 and len(connected_components(adj)) == 1 and all(len(s) == 2 for s in adj)
    return ok, n


def _complete_bipartite_parts(adj: list[set[int]]) -> tuple[int, int] | None:
    n = len(adj)
    if n < 2 or len(connected_components(adj)) != 1:
        return None
    color = _two_coloring(adj)
    if color is None:
        return None
    left = [v for v in range(n) if color[v] == 0]
    right = [v for v in range(n) if color[v] == 1]
    if all(len(adj[v]) == len(right) for v in left) and all(
        len(adj[v]) == len(left) for v in right
    ):
        m, k = sorted((len(left), len(right)))
        return m, k
    return None


def classify_shape(g) -> ShapeDescriptor:
    """Classify the non-isolated core by the fixed precedence
    Null > Complete > Star > Path > CompleteBipartite > Cycle > Tree >
    Unicyclic > Other.

    CompleteBipartite is tested before Cycle so that a four-cycle core reads
    as K_{2,2}; it is the only graph matching both patterns.
    """
    adj = _adjacency(g).sets
    isolated = sum(1 for s in adj if not s)
    core_vertices = [v for v in range(len(adj)) if adj[v]]
    core = _induced(adj, core_vertices)
    n = len(core)
    if n == 0:
        return ShapeDescriptor("Null", (), isolated)
    if _is_complete(core):
        return ShapeDescriptor("Complete", (n,), isolated)
    ok, leaves = _is_star(core)
    if ok:
        return ShapeDescriptor("Star", (leaves,), isolated)
    ok, length = _is_path(core)
    if ok:
        return ShapeDescriptor("Path", (length,), isolated)
    parts = _complete_bipartite_parts(core)
    if parts is not None:
        return ShapeDescriptor("CompleteBipartite", parts, isolated)
    ok, length = _is_cycle(core)
    if ok:
        return ShapeDescriptor("Cycle", (length,), isolated)
    comps = connected_components(core)
    edges = sum(len(s) for s in core) // 2
    if len(comps) == 1 and edges == n - 1:
        return ShapeDescriptor("Tree", (), isolated)
    if len(comps) == 1 and edges == n:
        return ShapeDescriptor("Unicyclic", (), isolated)
    return ShapeDescriptor("Other", (), isolated)


def shape_predicates(g) -> dict[str, bool]:
    """Whole-graph named-shape booleans, independent of the core precedence.

    A graph with vertices but no edges is the null graph and counts as
    disconnected, so the single-vertex graph is neither complete nor a tree.
    """
    adj = _adjacency(g).sets
    n = len(adj)
    edges = sum(len(s) for s in adj) // 2
    comps = connected_components(adj)
    connected = len(comps) == 1 and edges >= 1
    acyclic = edges - n + len(comps) == 0
    parts = _complete_bipartite_parts(adj) if connected else None
    return {
        "null": edges == 0,
        "complete": _is_complete(adj),
        "star": _is_star(adj)[0],
        "path": _is_path(adj)[0],
        "cycle": _is_cycle(adj)[0],
        "complete_bipartite": parts is not None,
        "tree": connected and acyclic,
        "forest": acyclic,
        "unicyclic": edges - n + len(comps) == 1,
        "connected": connected,
    }


def small_graph_isomorphic(g1, g2, cap: int = ISO_CAP) -> bool:
    """Exact isomorphism test by backtracking with degree pruning."""
    a1 = _adjacency(g1).sets
    a2 = _adjacency(g2).sets
    n = len(a1)
    if n != len(a2):
        return False
    if n > cap:
        raise ExactCapExceeded(f"{n} vertices exceed the isomorphism cap {cap}")
    if sorted(len(s) for s in a1) != sorted(len(s) for s in a2):
        return False

    def signature(adj, v):
        return (len(adj[v]), tuple(sorted(len(adj[w]) for w in adj[v])))

    sig1 = {v: signature(a1, v) for v in range(n)}
    sig2 = {v: signature(a2, v) for v in range(n)}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False

    order = sorted(range(n), key=lambda v: (-len(a1[v]), v))
    mapping = [-1] * n
    used = [False] * n

    def rec(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or sig1[v] != sig2[w]:
                continue
            ok = True
            for u in a1[v]:
                mu = mapping[u]
                if mu >= 0 and mu not in a2[w]:
                    ok = False
                    break
            if ok:
                for u in range(n):
                    mu = mapping[u]
                    if mu >= 0 and u not in a1[v] and mu in a2[w]:
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used[w] = True
                if rec(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return rec(0)


@dataclass
class AnalysisReport:
    """All exact invariants of one graph, JSON-serializable."""

    source: str
    n_vertices: int
    n_edges: int
    vertex_orders: list[int] | None
    components: list[list[int]]
    is_connected: bool
    diameter: float
    component_diameters: list[int]
    girth: float
    alpha: int
    omega: int
    chi: int
    is_bipartite: bool
    planarity: PlanarityCertificate
    forbidden: dict[str, bool]
    shape: ShapeDescriptor
    predicates: dict[str, bool]

    def to_json_dict(self) -> dict:
        def enc(x):
            return "inf" if x == INFINITE else x

        planar = {"planar": self.planarity.planar}
        if self.planarity.planar:
            planar["rotation"] = {
                str(v): list(nbrs) for v, nbrs in enumerate(self.planarity.rotation)
            }
        else:
            planar["witness"] = {
                "kind": self.planarity.witness_kind,
                "branch_vertices": list(self.planarity.witness_branch_vertices),
                "edges": [list(e) for e in self.planarity.witness_edges],
            }
        return {
            "source": self.source,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "vertex_orders": self.vertex_orders,
            "components": self.components,
            "connected": self.is_connected,
            "diameter": enc(self.diameter),
            "component_diameters": self.component_diameters,
            "girth": enc(self.girth),
            "alpha": self.alpha,
            "omega": self.omega,
            "chi": self.chi,
            "bipartite": self.is_bipartite,
            "planarity": planar,
            "forbidden": dict(self.forbidden),
            "shape": {
                "core": self.shape.kind,
                "args": list(self.shape.args),
                "isolated": self.shape.isolated,
            },
            "predicates": dict(self.predicates),
        }


def analyze(g, exact_cap: int = DEFAULT_EXACT_CAP) -> AnalysisReport:
    """Compute every invariant exactly; no heuristics, caps raise instead.

    The adjacency is built once and every invariant reads it; the exact-solver
    cap is checked before any of them runs.
    """
    adj = _adjacency(g)
    n = len(adj.sets)
    check_exact_cap(n, exact_cap)
    edges = sum(len(s) for s in adj.sets) // 2
    comps = connected_components(adj.sets)
    comp_diams = [component_diameter(adj.sets, c) for c in comps]
    preds = shape_predicates(adj)
    connected = preds["connected"]
    diam = comp_diams[0] if connected else INFINITE
    gb = girth(adj)
    alpha = independence_number(adj, exact_cap)
    omega = clique_number(adj, exact_cap)
    chi = chromatic_number(adj, exact_cap)
    forbidden = {}
    for pattern in FORBIDDEN_PATTERNS:
        if pattern == "K5":
            forbidden[pattern] = omega >= 5
        else:
            forbidden[pattern] = contains_complete_bipartite(
                adj, int(pattern[1]), int(pattern[2:])
            )
    return AnalysisReport(
        source=getattr(g, "source", "graph"),
        n_vertices=n,
        n_edges=edges,
        vertex_orders=None if adj.orders is None else list(adj.orders),
        components=comps,
        is_connected=connected,
        diameter=diam,
        component_diameters=comp_diams,
        girth=gb,
        alpha=alpha,
        omega=omega,
        chi=chi,
        is_bipartite=is_bipartite(adj),
        planarity=is_planar(adj),
        forbidden=forbidden,
        shape=classify_shape(adj),
        predicates=preds,
    )
