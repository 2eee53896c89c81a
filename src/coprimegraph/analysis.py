"""Exact graph invariants with self-verified certificates.

Everything here is exact: clique, independence and chromatic numbers come from
branch-and-bound searches, planarity verdicts carry either a rotation system
that passes an Euler face count or a Kuratowski subdivision witness on host
vertices whose contracted chains equal K5 or K33, checked before it is
returned.  Both come from a literal K33 or from the left-right test in
``planarity``, so nothing here needs more than the standard library.  One
``_Adjacency`` per graph holds the graph's own bitmask rows, its only
adjacency, which every solver reads, and computes its sweep, its maximum
clique and the member lists of its rows once each.  It groups the vertices by
equal row once: such vertices are false twins, and the sweep, the member lists
and the colouring search each work once per distinct row.  The adjacency of a
coprime graph keeps the graph itself, which carries each vertex's prime
support and groups the vertices by them once.  Its independence number is
searched over those supports, at most 2^k - 1 for k primes, however many
vertices share them.  ``analyze`` reads every other invariant of P(G) but
planarity off the support weights too, with the paper's theorems as closed
forms; ``vertex_report`` runs the vertex-level solvers instead, for any other
graph and as the oracle.  ``--exact-cap`` bounds the vertex count before
either runs.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from . import planarity
from .coprime import CoprimeGraph
from .errors import CertificateError, EdgeListError, check_exact_cap, clip
from .lattice import members, subset_sums
# re-exported: callers have always caught the exact cap's error from here
from .errors import ExactCapExceeded  # noqa: F401

INFINITE = math.inf

DEFAULT_EXACT_CAP = 64

FORBIDDEN_PATTERNS = ("K12", "K13", "K14", "K22", "K23", "K33", "K5")


def adjacency_sets(g) -> tuple[frozenset[int], ...]:
    """A raw list or tuple of neighbour collections, frozen once and checked
    to describe a simple graph: every neighbour is a vertex id, none is the
    vertex itself, and each lists the other.  ``_adjacency`` reads its rows
    off the sets; no solver reads the sets themselves.
    """
    sets = tuple(map(frozenset, g))
    n = len(sets)
    for v, s in enumerate(sets):
        for w in s:
            if not (0 <= w < n and w != v and v in sets[w]):
                raise EdgeListError(
                    f"neighbour {clip(w)} of vertex {v} is out of range 0..{n - 1}, "
                    "the vertex itself, or does not list it back"
                )
    return sets


@dataclass(frozen=True)
class _Adjacency:
    """One graph's adjacency: its bitmask rows, the graph's own ``masks`` (a
    raw list's derived once), which every solver here reads.

    A coprime graph is kept as ``graph``, whose vertex orders, name, primes,
    supports and support classes let ``independence_number`` and ``analyze``
    work on prime supports; a ``SimpleGraph`` or a raw list keeps None.  The
    ``structure`` sweep, the maximum ``clique``, the ``rows`` grouping, the
    rows' member ``lists`` and the twin ``quotient`` are computed on first
    use and kept with the adjacency.

    Vertices with equal rows are false twins: neither row holds its own
    vertex, so they are not adjacent, and every other vertex is joined to
    both or to neither.  ``rows`` groups them by reading ``masks`` alone,
    never the orders or supports, so the solvers that use it still do not
    know the support rule that ``verify`` checks them against.
    """

    masks: tuple[int, ...]
    graph: CoprimeGraph | None = None

    @cached_property
    def structure(self) -> _Structure:
        return _structure(self)

    @property
    def classes(self) -> dict[int, int] | None:
        """The graph's own support classes, support -> vertex bitmask in
        first-vertex order, or None without a coprime graph or with a vertex
        of order 1 (support 0)."""
        if self.graph is None or 0 in self.graph.classes:
            return None
        return self.graph.classes

    @cached_property
    def clique(self) -> int:
        """A maximum clique, as a vertex bitmask."""
        return _max_clique_masks(self.masks, len(self.masks))

    @cached_property
    def rows(self) -> dict[int, int]:
        """Each distinct row -> its least vertex, in vertex order."""
        first: dict[int, int] = {}
        for v, m in enumerate(self.masks):
            first.setdefault(m, v)
        return first

    @cached_property
    def lists(self) -> list[list[int]]:
        """Each row's members, ascending: what the planarity test and the
        rotation-system check walk.  Vertices with equal rows share one list
        object, and no reader changes it."""
        shared = {m: members(m) for m in self.rows}
        return [shared[m] for m in self.masks]

    @cached_property
    def quotient(self) -> list[list[int]]:
        """The member lists of the graph induced on each distinct row's least
        vertex, renumbered in vertex order: what the colouring search walks.
        False twins can share a colour, so its chromatic number is the
        graph's."""
        index = {v: i for i, v in enumerate(self.rows.values())}
        keep = sum(1 << v for v in index)
        return [[index[w] for w in members(self.masks[v] & keep)] for v in index]


@dataclass(frozen=True)
class _Structure:
    """What one BFS from every vertex, up to false twins, tells about a graph.

    ``components`` are sorted and listed by least vertex, ``diameters`` is
    one per component, and ``coloring`` is the parity of the distance from
    each component's least vertex, or None if some edge joins two vertices
    of one parity (an odd cycle).
    """

    components: tuple[tuple[int, ...], ...]
    diameters: tuple[int, ...]
    girth: float
    coloring: tuple[int, ...] | None


def _structure(adj: _Adjacency) -> _Structure:
    """Components, diameters, girth and 2-colouring from one sweep on rows.

    A BFS from root s goes a level at a time: the next level is the union of
    the current level's rows, less the vertices already found, and the last
    level's index is s's eccentricity.  Over the rows of level d, ``once``
    collects the vertices joined to a member and ``twice`` those joined to
    two.  An edge inside the level bounds the shortest cycle through s by
    2d + 1, and a vertex of the next level joined to two members by 2d + 2;
    the minimum over all roots is the girth.  The BFS from a component's
    least vertex also gives the component and its distance parities, which
    colour it properly unless an edge lies inside a level (an odd cycle).

    Only a component's least vertex and the least vertex of each distinct
    row are roots.  A later vertex whose row was already swept is a false
    twin of that row's root: every other vertex is at the same distance
    from both, and the two are at distance 2, so their eccentricities are
    equal, and swapping them maps a shortest cycle through one onto a cycle
    of the same length through the other.
    """
    masks = adj.masks
    first_of_row = adj.rows
    n = len(masks)
    comp_of = [-1] * n
    components: list[tuple[int, ...]] = []
    diameters: list[int] = []
    odd_levels = 0
    odd = False
    best = INFINITE
    for s in range(n):
        first = comp_of[s] < 0
        if not first and first_of_row[masks[s]] != s:
            continue
        seen = level = 1 << s
        d = -1
        while level:
            d += 1
            once = twice = 0
            for u in members(level):
                twice |= once & masks[u]
                once |= masks[u]
            if once & level:
                best = min(best, 2 * d + 1)
                odd |= first
            elif twice & ~seen:
                best = min(best, 2 * d + 2)
            if first and d & 1:
                odd_levels |= level
            level = once & ~seen
            seen |= level
        if first:
            component = members(seen)
            for v in component:
                comp_of[v] = len(components)
            components.append(tuple(component))
            diameters.append(0)
        c = comp_of[s]
        diameters[c] = max(diameters[c], d)
    coloring = None if odd else tuple(odd_levels >> v & 1 for v in range(n))
    return _Structure(tuple(components), tuple(diameters), best, coloring)


def _adjacency(g) -> _Adjacency:
    """The adjacency every public invariant starts from.

    Built once from a CoprimeGraph, a SimpleGraph or a list of neighbour sets,
    with a graph's own ``masks`` as its rows: only a raw list's are derived
    here, once ``adjacency_sets`` has checked it.  An ``_Adjacency`` is
    returned unchanged, so ``analyze`` pays for it once however many
    invariants it computes.
    """
    if isinstance(g, _Adjacency):
        return g
    if isinstance(g, (list, tuple)):
        return _Adjacency(tuple(sum(1 << w for w in s) for s in adjacency_sets(g)))
    return _Adjacency(g.masks, g if isinstance(g, CoprimeGraph) else None)


def connected_components(g) -> list[list[int]]:
    """The components as sorted vertex lists, listed by least vertex."""
    return [list(c) for c in _adjacency(g).structure.components]


def girth(g) -> float:
    """Length of the shortest cycle, or INFINITE for forests."""
    return _adjacency(g).structure.girth


def is_bipartite(g) -> bool:
    return _adjacency(g).structure.coloring is not None


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
    """A maximum clique, as a vertex bitmask: branch and bound on greedy
    colour bounds, one ``_greedy_color_order`` per search node, branching on
    the last-coloured candidate first.  The search keeps its own stack of
    suspended nodes (clique size, clique, candidates left, colour order,
    bounds, next position), one per vertex of the current clique, so its
    depth is not bounded by Python's recursion limit."""
    best_mask = 0
    best = 0
    order, bounds = _greedy_color_order(masks, (1 << n) - 1)
    stack = [(0, 0, (1 << n) - 1, order, bounds, len(order) - 1)]
    while stack:
        size, current, candidates, order, bounds, i = stack.pop()
        while i >= 0 and size + bounds[i] > best:
            v = order[i]
            bit = 1 << v
            new_candidates = candidates & masks[v]
            candidates &= ~bit
            i -= 1
            if new_candidates:
                stack.append((size, current, candidates, order, bounds, i))
                size, current, candidates = size + 1, current | bit, new_candidates
                order, bounds = _greedy_color_order(masks, candidates)
                i = len(order) - 1
            elif size + 1 > best:
                best = size + 1
                best_mask = current | bit
    return best_mask


def maximum_clique(g, cap: int = DEFAULT_EXACT_CAP) -> list[int]:
    """An exact maximum clique, as a sorted vertex list."""
    adj = _adjacency(g)
    check_exact_cap(len(adj.masks), cap)
    return members(adj.clique)


def clique_number(g, cap: int = DEFAULT_EXACT_CAP) -> int:
    return len(maximum_clique(g, cap))


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
    B would be disjoint.  The search keeps its own stack, one entry per pick
    still to try, so a thousand pairs need no thousand-deep recursion.
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
    stack = [(0, (), weight[full])]
    while stack:
        i, family, total = stack.pop()
        if total + rest[i] <= best:
            continue
        if i == len(pairs):
            best, best_family = total, family
            continue
        # pushed in reverse, so the pair's first member is tried first
        for s in reversed(pairs[i]):
            if all(s & t for t in family):
                stack.append((i + 1, family + (s,), total + weight[s]))
    return best, tuple(s for s in (full, *best_family) if weight[s])


def independence_number(g, cap: int = DEFAULT_EXACT_CAP) -> int:
    """Exact independence number.

    In a coprime graph an independent set is a union of support classes
    whose supports pairwise meet, so ``_max_support_family`` finds alpha on
    the supports; the vertex set it covers is re-checked against the
    adjacency before its size is returned.  A graph without support
    classes gets maximum clique on the complement.
    """
    adj = _adjacency(g)
    masks = adj.masks
    n = len(masks)
    check_exact_cap(n, cap)
    classes = adj.classes
    if classes is None:
        full = (1 << n) - 1
        comp = [full & ~(1 << v) & ~m for v, m in enumerate(masks)]
        return _max_clique_masks(comp, n).bit_count()
    weight = Counter({s: m.bit_count() for s, m in classes.items()})
    alpha, family = _max_support_family(weight, len(adj.graph.primes))
    chosen = sum(classes[s] for s in family)
    if chosen.bit_count() != alpha or any(masks[v] & chosen for v in range(n) if chosen >> v & 1):
        raise CertificateError("support family does not give an independent set of its weight")
    return alpha


def _k_colorable(adj, k: int) -> bool:
    """Backtracking k-colouring in DSATUR order: the uncoloured vertex with the
    most distinct neighbour colours, then the highest degree, then the lowest
    index, takes the lowest free colour first.  So the first descent is the
    DSATUR greedy colouring, and it succeeds without backtracking whenever k
    is at least the greedy colour count.  The search keeps its own stack of
    (vertex, colours still to try, colours used before it), one per coloured
    vertex, so its depth is not bounded by Python's recursion limit.

    Each vertex keeps a count of its coloured neighbours per colour, updated
    when a neighbour is coloured or uncoloured, so its saturation is the size
    of that count.  ``key[v]`` is saturation * n + degree, or -1 once v is
    coloured, and the first maximal key is the vertex DSATUR picks."""
    n = len(adj)
    if n == 0:
        return True
    colors = [-1] * n
    colour_counts: list[dict[int, int]] = [{} for _ in range(n)]
    key = [len(nbrs) for nbrs in adj]

    def paint(v: int, c: int) -> None:
        colors[v] = c
        key[v] = -1
        for u in adj[v]:
            counts = colour_counts[u]
            if c in counts:
                counts[c] += 1
            else:
                counts[c] = 1
                if colors[u] < 0:
                    key[u] += n

    def erase(v: int) -> None:
        c = colors[v]
        colors[v] = -1
        key[v] = len(colour_counts[v]) * n + len(adj[v])
        for u in adj[v]:
            counts = colour_counts[u]
            if counts[c] > 1:
                counts[c] -= 1
            else:
                del counts[c]
                if colors[u] < 0:
                    key[u] -= n

    def frame(max_used: int) -> tuple[int, Iterator[int], int]:
        v = key.index(max(key))
        taken = colour_counts[v]
        # allowing at most one fresh color breaks color-permutation symmetry
        free = [c for c in range(min(max_used + 1, k - 1) + 1) if c not in taken]
        return v, iter(free), max_used

    stack = [frame(-1)]
    while stack:
        v, free, max_used = stack[-1]
        if colors[v] >= 0:
            erase(v)
        c = next(free, None)
        if c is None:
            stack.pop()
            continue
        paint(v, c)
        if len(stack) == n:
            return True
        stack.append(frame(max(max_used, c)))
    return False


def chromatic_number(g, cap: int = DEFAULT_EXACT_CAP) -> int:
    """Exact chromatic number: the first k >= omega for which the
    k-colourability search succeeds.  That search never passes the DSATUR
    greedy colour count, where its first descent already succeeds.

    Omega is the maximum clique of the full rows.  The search runs on the
    twin ``quotient``, one vertex per distinct row: a colouring of it gives
    each false twin its row's colour, so the k values tried are the same as
    on the whole graph."""
    adj = _adjacency(g)
    check_exact_cap(len(adj.masks), cap)
    k = adj.clique.bit_count()
    while not _k_colorable(adj.quotient, k):
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

    Components without edges count a single face.  No component's count
    exceeds 2, since a rotation system of genus g gives 2 - 2g, so the check
    is that the counts summed over the C components reach 2C.
    """
    adj = _adjacency(g)
    masks = adj.masks
    n = len(masks)
    if set(rotation) != set(range(n)):
        return False
    if any(sorted(rotation[v]) != row for v, row in enumerate(adj.lists)):
        return False
    edges = sum(m.bit_count() for m in masks) // 2
    isolated = masks.count(0)
    faces = _count_faces(rotation, [v for v in range(n) if masks[v]]) + isolated
    return n - edges + faces == 2 * _component_count(masks)


def _component_count(masks) -> int:
    """The number of components, by one search on the rows per component."""
    unseen = (1 << len(masks)) - 1
    count = 0
    while unseen:
        count += 1
        level = unseen & -unseen
        while level:
            unseen &= ~level
            reach = 0
            for v in members(level):
                reach |= masks[v]
            level = reach & unseen
    return count


def verify_kuratowski_witness(
    g, witness_edges: list[tuple[int, int]]
) -> tuple[str, tuple[int, ...]] | None:
    """Validate an edge set as a K5 or K33 subdivision inside the host graph.

    Every witness edge must join two host vertices and be a host edge.  The
    branch vertices, those of witness degree above 2, must number five (K5)
    or six (K33), and every other vertex must have degree 2.  The degree-2
    chains then contract to a list of branch pairs, which must equal K5's ten
    pairs, or K33's nine between the partners of the least branch vertex and
    the rest; that one comparison also fixes each branch degree at 4 or 3.
    Every witness edge must lie on a chain, so a disjoint cycle is refused.
    Returns (kind, branch vertices) or None.
    """
    host = _adjacency(g).masks
    wadj: dict[int, set[int]] = {}
    for u, v in witness_edges:
        # both ends checked before the shift, which a negative v would fail
        if not (0 <= u < len(host) and 0 <= v < len(host) and host[u] >> v & 1):
            return None
        wadj.setdefault(u, set()).add(v)
        wadj.setdefault(v, set()).add(u)
    branch = sorted(v for v, s in wadj.items() if len(s) > 2)
    if len(branch) not in (5, 6) or any(len(s) == 1 for s in wadj.values()):
        return None

    # contract each degree-2 chain, walked once from its first branch dart
    pairs, far_ends, walked = [], set(), 0
    for b in branch:
        for first in wadj[b]:
            if (b, first) in far_ends:
                continue
            prev, cur = b, first
            walked += 1
            while cur not in branch:
                prev, cur = cur, next(w for w in wadj[cur] if w != prev)
                walked += 1
            far_ends.add((cur, prev))
            pairs.append((min(b, cur), max(b, cur)))
    if len(branch) == 5:
        kind, want = "K5", list(combinations(branch, 2))
    else:
        other = {w for u, w in pairs if u == branch[0]}
        kind = "K33"
        want = sorted((min(u, w), max(u, w)) for u in branch if u not in other for w in other)
    whole = 2 * walked == sum(map(len, wadj.values()))
    return (kind, tuple(branch)) if whole and sorted(pairs) == want else None


def is_planar(g) -> PlanarityCertificate:
    """Planarity with a self-verified certificate either way.

    The first triple u < v < w with at least three common neighbours, joined
    to the lowest three of them, is a literal K33: it settles nonplanarity
    and is the witness.  Only a graph without such a triple goes to the
    left-right planarity test of ``planarity``, which sees each vertex's
    neighbours in ascending order, and, if nonplanar, to its Kuratowski
    search, which deletes edges one at a time and re-tests planarity after
    each.
    """
    adj = _adjacency(g)
    found = _k3b_triple(adj.masks, 3)
    if found is None:
        rotation = planarity.rotation_system(adj.lists)
        if rotation is not None:
            if not verify_rotation_system(adj, dict(enumerate(rotation))):
                raise CertificateError("planar embedding failed the Euler face check")
            return PlanarityCertificate(planar=True, rotation=tuple(map(tuple, rotation)))
        witness = planarity.kuratowski_edges(adj.lists)
    else:
        *left, common = found
        right = members(common)[:3]
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
        return any(m.bit_count() >= b for m in adj.masks)
    if a == 2:
        return any((mu & mv).bit_count() >= b for mu, mv in combinations(adj.masks, 2))
    return _k3b_triple(adj.masks, b) is not None


def _k3b_triple(masks, b: int) -> tuple[int, int, int, int] | None:
    """The first triple u < v < w, in lexicographic order, with at least b
    common neighbours, as (u, v, w, common-neighbour mask); None if none.

    Only vertices of degree at least b are tried, and a pair with fewer than
    b common neighbours is skipped before any third vertex is, since a third
    vertex only shrinks the common set.
    """
    heavy = [v for v, m in enumerate(masks) if m.bit_count() >= b]
    for i, u in enumerate(heavy):
        for j in range(i + 1, len(heavy)):
            v = heavy[j]
            pair = masks[u] & masks[v]
            if pair.bit_count() < b:
                continue
            for w in heavy[j + 1:]:
                common = pair & masks[w]
                if common.bit_count() >= b:
                    return u, v, w, common
    return None


@dataclass(frozen=True)
class ShapeDescriptor:
    """Most specific named pattern of the non-isolated core, plus the count of
    isolated vertices reported separately."""

    kind: str
    args: tuple[int, ...]
    isolated: int


def _patterns(degrees: list[int], n_components: int, coloring) -> dict[str, tuple[int, ...]]:
    """The named patterns matched by a graph with these vertex degrees,
    component count and 2-colouring (None on an odd cycle), as kind -> args
    in the precedence Complete > Star > Path > CompleteBipartite > Cycle."""
    n = len(degrees)
    if n < 2:
        return {}
    degs = sorted(degrees)
    connected = n_components == 1
    out = {}
    if degs[0] == n - 1:
        out["Complete"] = (n,)
    if degs[-1] == n - 1 and degs[:-1] == [1] * (n - 1):
        out["Star"] = (n - 1,)
    if connected and degs[:2] == [1, 1] and degs[2:] == [2] * (n - 2):
        out["Path"] = (n - 1,)
    if connected and coloring is not None:
        left = [d for d, c in zip(degrees, coloring) if c == 0]
        right = [d for d, c in zip(degrees, coloring) if c == 1]
        if all(d == len(right) for d in left) and all(d == len(left) for d in right):
            out["CompleteBipartite"] = tuple(sorted((len(left), len(right))))
    if connected and n >= 3 and degs == [2] * n:
        out["Cycle"] = (n,)
    return out


def _profile(adj: _Adjacency) -> tuple[list[int], int, tuple[int, ...] | None]:
    """The degrees, component count and 2-colouring, from the sweep."""
    structure = adj.structure
    return [m.bit_count() for m in adj.masks], len(structure.components), structure.coloring


def _shape(
    degrees: list[int], n_components: int, coloring
) -> tuple[ShapeDescriptor, dict[str, bool]]:
    """The core's shape and the whole graph's predicates, from the graph's
    degrees, component count and 2-colouring (None on an odd cycle).

    The core drops the isolated vertices, each a component of its own, and
    its patterns are matched once.  They are the whole graph's when no vertex
    is isolated; otherwise the graph matches none, as Complete needs minimum
    degree n - 1, Star every other degree 1, and Path, CompleteBipartite and
    Cycle a connected graph.
    """
    n, edges = len(degrees), sum(degrees) // 2
    keep = [v for v, d in enumerate(degrees) if d]
    isolated = n - len(keep)
    core_components = n_components - isolated
    colours = None if coloring is None else [coloring[v] for v in keep]
    patterns = _patterns([degrees[v] for v in keep], core_components, colours)
    if not keep:
        kind, args = "Null", ()
    elif patterns:
        kind, args = next(iter(patterns.items()))
    elif core_components == 1 and edges == len(keep) - 1:
        kind, args = "Tree", ()
    elif core_components == 1 and edges == len(keep):
        kind, args = "Unicyclic", ()
    else:
        kind, args = "Other", ()
    whole = {} if isolated else patterns
    connected = n_components == 1 and edges >= 1
    acyclic = edges - n + n_components == 0
    return ShapeDescriptor(kind, args, isolated), {
        "null": edges == 0,
        "complete": "Complete" in whole,
        "star": "Star" in whole,
        "path": "Path" in whole,
        "cycle": "Cycle" in whole,
        "complete_bipartite": "CompleteBipartite" in whole,
        "tree": connected and acyclic,
        "forest": acyclic,
        "unicyclic": edges - n + n_components == 1,
        "connected": connected,
    }


def classify_shape(g) -> ShapeDescriptor:
    """Classify the non-isolated core by the fixed precedence
    Null > Complete > Star > Path > CompleteBipartite > Cycle > Tree >
    Unicyclic > Other.

    CompleteBipartite is tested before Cycle so that a four-cycle core reads
    as K_{2,2}; it is the only graph matching both patterns.
    """
    return _shape(*_profile(_adjacency(g)))[0]


def shape_predicates(g) -> dict[str, bool]:
    """Whole-graph named-shape booleans, independent of the core precedence.

    A graph with vertices but no edges is the null graph and counts as
    disconnected, so the single-vertex graph is neither complete nor a tree.
    """
    return _shape(*_profile(_adjacency(g)))[1]


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


def _forbidden(omega: int, contains) -> dict[str, bool]:
    """The forbidden-subgraph flags: K5 from the clique number, each K_{a,b}
    from ``contains(a, b)``."""
    return {
        pattern: omega >= 5 if pattern == "K5" else contains(int(pattern[1]), int(pattern[2:]))
        for pattern in FORBIDDEN_PATTERNS
    }


def vertex_report(g, exact_cap: int = DEFAULT_EXACT_CAP) -> AnalysisReport:
    """Every invariant from the vertex-level solvers, for any graph.

    The adjacency and its structure sweep are built once and every invariant
    reads them; the exact-solver cap is checked before the sweep or any
    solver runs.  This is the report for graphs ``analyze`` cannot read off
    supports, the one ``verify`` checks the paper's theorems against, and
    the oracle for ``analyze``.
    """
    adj = _adjacency(g)
    n = len(adj.masks)
    check_exact_cap(n, exact_cap)
    structure = adj.structure
    edges = sum(m.bit_count() for m in adj.masks) // 2
    preds = shape_predicates(adj)
    connected = preds["connected"]
    diam = structure.diameters[0] if connected else INFINITE
    alpha = independence_number(adj, exact_cap)
    omega = clique_number(adj, exact_cap)
    chi = chromatic_number(adj, exact_cap)
    graph = adj.graph
    return AnalysisReport(
        source="graph" if graph is None else graph.source,
        n_vertices=n,
        n_edges=edges,
        vertex_orders=None if graph is None else list(graph.orders),
        components=connected_components(adj),
        is_connected=connected,
        diameter=diam,
        component_diameters=list(structure.diameters),
        girth=girth(adj),
        alpha=alpha,
        omega=omega,
        chi=chi,
        is_bipartite=is_bipartite(adj),
        planarity=is_planar(adj),
        forbidden=_forbidden(omega, lambda a, b: contains_complete_bipartite(adj, a, b)),
        shape=classify_shape(adj),
        predicates=preds,
    )


def _order_report(adj: _Adjacency, exact_cap: int) -> AnalysisReport:
    """The report of a coprime graph with a vertex of support {p} for each of
    its k primes, read off the support weights.

    w[S] counts the vertices of support S, the size of its class in
    ``adj.classes``, and W[X], their subset sums, those whose support lies
    in X, so a vertex of support S has W[~S] neighbours.
    - A full-support vertex is isolated.  Every other one is joined to the
      {p} vertices of the primes p it lacks, which are pairwise joined, so
      for k >= 2 they form one component.
    - Two distinct vertices of supports S and T are adjacent if S and T are
      disjoint, else at distance 2 through a {p} vertex with p outside both,
      else, when S and T meet and cover every prime, at distance 3.  So the
      component's diameter is 1 if it is a clique, 3 if such S and T are
      supports, and 2 otherwise.
    - The {p} vertices of three primes are a triangle.  For k = 2 the edges
      are those of K_{w[p], w[q]}, with a 4-cycle if both sides have two.
    - The {p} vertices are a clique of k, and colouring by the smallest prime
      of the support is proper with k colours, so omega = chi = k; both are
      re-checked on the adjacency.  The graph is bipartite iff k <= 2.
    - Vertices whose supports lie in X are joined to all W[~X] vertices
      whose supports lie in ~X, so K_{a,b} is a subgraph iff W[X] >= a and
      W[~X] >= b for some X, such as the union of the a supports.
    The shapes follow from the degrees, the component count and, for k <= 2,
    the colouring by distance parity.  Alpha and planarity are computed as
    for any graph.
    """
    masks, graph, classes = adj.masks, adj.graph, adj.classes
    n = len(masks)
    k = len(graph.primes)
    full = (1 << k) - 1
    support = graph.supports
    inside = subset_sums([classes.get(s, 0).bit_count() for s in range(full + 1)], k)
    degrees = [inside[full ^ s] for s in support]
    edges = sum(degrees) // 2

    clique = [members(classes[1 << i])[0] for i in range(k)]
    by_colour: dict[int, int] = {}
    for s, m in classes.items():
        by_colour[s & -s] = by_colour.get(s & -s, 0) | m
    if not all(masks[u] >> v & 1 for u, v in combinations(clique, 2)) or any(
        masks[v] & c for c in by_colour.values() for v in members(c)
    ):
        raise CertificateError("prime clique or smallest-prime colouring failed its re-check")

    isolated = classes.get(full, 0)
    core = [v for v in range(n) if not isolated >> v & 1]
    # far[S] counts the non-full supports T containing ~S: ~S itself, or a T
    # that meets S and with it covers every prime
    far = subset_sums([int(s != 0 and (full ^ s) in classes) for s in range(full + 1)], k)
    if 2 * edges == len(core) * (len(core) - 1):
        core_diameter = 1
    elif any(far[s] > ((full ^ s) in classes) for s in classes if s != full):
        core_diameter = 3
    else:
        core_diameter = 2
    components, diameters = [], []
    for v in range(n):
        if isolated >> v & 1:
            components.append([v])
            diameters.append(0)
        elif v == core[0]:
            components.append(core)
            diameters.append(core_diameter)
    first = support[core[0]] if core else full
    coloring = [int(s not in (full, first)) for s in support] if k <= 2 else None
    shape, preds = _shape(degrees, len(components), coloring)
    return AnalysisReport(
        source=graph.source,
        n_vertices=n,
        n_edges=edges,
        vertex_orders=list(graph.orders),
        components=components,
        is_connected=preds["connected"],
        diameter=diameters[0] if preds["connected"] else INFINITE,
        component_diameters=diameters,
        girth=3 if k >= 3 else 4 if k == 2 and min(inside[1], inside[2]) >= 2 else INFINITE,
        alpha=independence_number(adj, exact_cap),
        omega=k,
        chi=k,
        is_bipartite=k <= 2,
        planarity=is_planar(adj),
        forbidden=_forbidden(k, lambda a, b: any(
            inside[x] >= a and inside[full ^ x] >= b for x in range(full + 1)
        )),
        shape=shape,
        predicates=preds,
    )


def analyze(g, exact_cap: int = DEFAULT_EXACT_CAP) -> AnalysisReport:
    """Compute every invariant exactly; no heuristics, caps raise instead.

    The exact-solver cap is checked first.  A coprime graph with a vertex
    of support {p} for each of the k primes of its orders' lcm and at most
    4n subsets of them for n vertices gets ``_order_report``.  P(G) has the
    vertices of order p by Cauchy's theorem, and for a solvable G a Hall
    subgroup for every proper set of its primes, so n >= 2^k - 2.  Any other
    graph gets ``vertex_report``.
    """
    adj = _adjacency(g)
    n = len(adj.masks)
    check_exact_cap(n, exact_cap)
    classes = adj.classes
    if classes is None:
        return vertex_report(adj, exact_cap)
    k = len(adj.graph.primes)
    if 1 << k > 4 * n or any(1 << i not in classes for i in range(k)):
        return vertex_report(adj, exact_cap)
    return _order_report(adj, exact_cap)
