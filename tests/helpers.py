"""Independent oracles used to cross-check the library's exact algorithms,
and the test-only constructions and theorem drivers no command reaches.

The oracles recompute from first principles (subset enumeration, naive
closures, dynamic programming) without touching the code paths under test.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterator
from functools import reduce
from itertools import combinations, compress
from math import gcd, lcm
from operator import or_

from coprimegraph import analysis, groups, lattice
from coprimegraph.analysis import INFINITE, _adjacency, _Structure, vertex_report
from coprimegraph.coprime import (
    CoprimeGraph,
    _require_defined,
    build,
    build_cyclic,
)
from coprimegraph.embedding import EmbeddingCertificate, SimpleGraph, embed, verify_embedding
from coprimegraph.errors import (
    CertificateError,
    EdgeListError,
    ExactCapExceeded,
    GroupConstructionError,
    MisCapExceeded,
    OrderCapExceeded,
    SpecParseError,
    clip,
)
from coprimegraph.groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    _compose,
    _split_top_level,
    ascii_int,
    make_semidirect_cyclic,
)
from coprimegraph.lattice import (
    SubgroupList,
    all_subgroups,
    divisors,
    factorize,
    is_prime,
    members,
    pi,
    prime_supports,
)
from coprimegraph.theorems import (
    CheckRow,
    VerificationReport,
    _check_connectivity,
    _check_diameter_range,
)

# the groups of the benchmark's lattice-export workload
LATTICE_EXPORT_SPECS = [
    "D:64", "D:96", "D:105", "D:120", "D:128", "PERM:5:[0 1 2 3 4],[0 1]",
    "X(S4,Z:10)", "X(A4,A4)", "X(S3,S4)", "SD:63,6,2", "SD:31,10,2", "X(Q8,Z:15)",
]


# the moduli of the benchmark's cyclic-exact workload
CYCLIC_EXACT_MODULI = [
    2310, 4620, 9240, 13860, 30030, 39270, 43890, 46410,
    55440, 60060, 90090, 110880, 120120, 150150,
]


def naive_closure(table, base, new):
    """Extend a closed set (or seed) with one element and re-close by
    saturating products; in a finite group that already yields a subgroup."""
    elems = set(base)
    queue = [new] if new is not None else list(elems)
    elems.update(queue)
    while queue:
        a = queue.pop()
        row_a = table[a]
        for b in list(elems):
            for c in (row_a[b], table[b][a]):
                if c not in elems:
                    elems.add(c)
                    queue.append(c)
    return frozenset(elems)


def brute_force_subgroups(group) -> set[frozenset[int]]:
    """All subgroups, independently of the lattice module.

    For order <= 12 this literally scans every subset and keeps the ones
    closed under multiplication.  Above that it closes every generating set
    of size <= 4, which is exhaustive because a chain of strictly growing
    subgroups at least doubles the order at each step, so any subgroup of a
    group of order <= 24 is generated by at most 4 elements (2^5 > 24).
    Generators already inside the running closure are skipped: the resulting
    subgroup would repeat a branch without them.
    """
    n = group.order
    table = group.table
    if n <= 12:
        found = set()
        for bits in range(1, 1 << n):
            subset = [i for i in range(n) if bits >> i & 1]
            closed = True
            for a in subset:
                row = table[a]
                for b in subset:
                    if not (bits >> row[b] & 1):
                        closed = False
                        break
                if not closed:
                    break
            if closed:
                found.add(frozenset(subset))
        return found
    if n > 24:
        raise ValueError("brute-force subgroup oracle is limited to order <= 24")
    found = {frozenset([0])}

    def extend(closure, start, depth):
        for x in range(start, n):
            if x in closure:
                continue
            bigger = naive_closure(table, closure, x)
            found.add(bigger)
            if depth < 4:
                extend(bigger, x + 1, depth + 1)

    extend(frozenset([0]), 0, 1)
    return found


def alpha_oracle(adj) -> int:
    """Independence number by scanning all vertex subsets."""
    n = len(adj)
    best = 0
    masks = [sum(1 << w for w in adj[v]) for v in range(n)]
    for bits in range(1 << n):
        if bits.bit_count() <= best:
            continue
        if all(not (bits & masks[v]) for v in range(n) if bits >> v & 1):
            best = bits.bit_count()
    return best


def omega_oracle(adj) -> int:
    """Clique number by scanning all vertex subsets."""
    n = len(adj)
    best = 0
    for bits in range(1 << n):
        if bits.bit_count() <= best:
            continue
        members = [v for v in range(n) if bits >> v & 1]
        if all(w in adj[v] for v, w in combinations(members, 2)):
            best = len(members)
    return best


def chi_oracle(adj) -> int:
    """Chromatic number by cover-with-independent-sets DP over subsets."""
    n = len(adj)
    if n == 0:
        return 0
    masks = [sum(1 << w for w in adj[v]) for v in range(n)]
    full = (1 << n) - 1
    independent = [False] * (1 << n)
    independent[0] = True
    for bits in range(1, 1 << n):
        v = (bits & -bits).bit_length() - 1
        rest = bits & (bits - 1)
        independent[bits] = independent[rest] and not (masks[v] & rest)
    chi = [0] * (1 << n)
    for bits in range(1, 1 << n):
        v = (bits & -bits).bit_length() - 1
        best = n
        # enumerate subsets of bits containing v
        sub = bits
        while sub:
            if sub >> v & 1 and independent[sub]:
                best = min(best, 1 + chi[bits & ~sub])
            sub = (sub - 1) & bits
        chi[bits] = best
    return chi[full]


def dsatur_color_count(adj) -> int:
    """Colours used by the DSATUR greedy rule: colour next the uncoloured
    vertex with the most distinct neighbour colours, then the highest degree,
    then the lowest index, with the lowest colour free at it."""
    n = len(adj)
    colors = [-1] * n
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] < 0),
            key=lambda u: (len({colors[w] for w in adj[u]} - {-1}), len(adj[u]), -u),
        )
        used = {colors[w] for w in adj[v]}
        colors[v] = next(c for c in range(n) if c not in used)
    return max(colors, default=-1) + 1


def has_induced_claw(adj) -> bool:
    """Whether some vertex has three pairwise non-adjacent neighbors, i.e.
    whether the graph contains K_{1,3} as an induced subgraph."""
    return any(
        not (b in adj[a] or c in adj[a] or c in adj[b])
        for v in range(len(adj))
        for a, b, c in combinations(sorted(adj[v]), 3)
    )


def min_vertex_cover_oracle(adj) -> int:
    """Smallest vertex cover by scanning all subsets."""
    n = len(adj)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    best = n
    for bits in range(1 << n):
        if bits.bit_count() >= best:
            continue
        if all(bits >> u & 1 or bits >> v & 1 for u, v in edges):
            best = bits.bit_count()
    return best


def counted_degrees(graph) -> dict[int, int]:
    """Vertex order -> degree, recounted edge by edge from gcds."""
    orders = graph.orders
    out = {}
    for i, o in enumerate(orders):
        out[o] = sum(1 for j, p in enumerate(orders) if j != i and gcd(o, p) == 1)
    return out


# The builder the coprime module used before it built P(G) from prime-support
# masks: one gcd per pair of distinct orders.  Kept verbatim as the oracle for
# the adjacency; it returns each vertex's row and its neighbour set, which it
# fills edge by edge and never from rows.


def gcd_rows_from_orders(orders: list[int]) -> tuple[list[int], list[frozenset[int]]]:
    n = len(orders)
    # vertices of one order are twins: one gcd per pair of distinct orders
    classes: dict[int, list[int]] = {}
    for v, order in enumerate(orders):
        classes.setdefault(order, []).append(v)
    distinct, members = list(classes), list(classes.values())
    near: list[list[int]] = [[] for _ in distinct]
    for i, a in enumerate(distinct):
        mine, own = near[i], members[i]
        for j in [j for j in range(i, len(distinct)) if gcd(a, distinct[j]) == 1]:
            mine += members[j]
            near[j] += own
    adjacency: list[frozenset[int]] = [frozenset()] * n
    rows = [0] * n
    for ids, near_ids in zip(members, near):
        # through a set, so each frozenset iterates as one built edge by edge
        shared = frozenset(set(near_ids))
        row = sum(1 << w for w in shared)
        for v in ids:
            adjacency[v] = shared - {v} if v in shared else shared
            rows[v] = row & ~(1 << v)
    return rows, adjacency


# The neighbour sets as the coprime module built them eagerly before a graph
# kept rows: one frozenset per support, flagged by the digits of
# bin(inside[~S]) and filled through a set in id order.  Kept verbatim as the
# oracle for the rows.


def eager_support_adjacency(orders: list[int]) -> list[frozenset[int]]:
    n = len(orders)
    distinct = list(dict.fromkeys(orders))
    primes = tuple(sorted(pi(lcm(*distinct))))
    support_of = dict(zip(distinct, prime_supports(distinct, primes)))
    supports = [support_of[order] for order in orders]
    full = (1 << len(primes)) - 1
    inside = [0] * (full + 1)
    for v, s in enumerate(supports):
        inside[s] |= 1 << v
    inside = lattice.subset_sums(inside, len(primes))
    ids = list(range(n))
    flags = {s: bin(inside[full ^ s])[:1:-1].encode().replace(b"0", b"\0") for s in set(supports)}
    near = {s: frozenset(set(compress(ids, f))) for s, f in flags.items()}
    return [near[s] - {v} if s == 0 else near[s] for v, s in enumerate(supports)]


# The loop the analysis module used to list a bitmask's vertices, kept as the
# oracle for lattice.members.


def members_by_lowest_bit(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# What the theorem checks read of a coprime graph, on rows given by hand: a
# CoprimeGraph derives its rows from its orders, so a check that must refuse
# adjacency no coprime graph has is run on one of these.


class HandGraph:
    """Vertex orders under a parent order, and rows that need not agree with them."""

    def __init__(self, parent_order: int, orders: list[int], edges: list[tuple[int, int]]):
        self.parent_order = parent_order
        self.orders = tuple(orders)
        rows = [0] * len(orders)
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.masks = tuple(rows)

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def parent_primes(self) -> frozenset[int]:
        return pi(self.parent_order)


# A graph's only adjacency is its bitmask rows; the tests read them as sets.


def neighbour_sets(masks) -> tuple[frozenset[int], ...]:
    """One frozenset per bitmask row, built once per distinct row."""
    sets = {m: frozenset(members(m)) for m in dict.fromkeys(masks)}
    return tuple(map(sets.__getitem__, masks))


# The build the coprime module used before it read the lattice's counts by
# order: the orders of the proper nontrivial subgroups of the full list.
# Kept as the oracle for coprime.build.


def proper_nontrivial(subgroups: SubgroupList) -> list[tuple[int, ...]]:
    """The subgroups H with 1 < |H| < |G|, each as its sorted elements,
    sorted by (order, elements); G is the largest."""
    subs = sorted((len(fs), tuple(sorted(fs))) for fs in subgroups.all)
    parent_order = subs[-1][0]
    return [elements for order, elements in subs if 1 < order < parent_order]


def build_from_subgroup_list(
    group: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER
) -> CoprimeGraph:
    _require_defined(group.name, group.order)
    verts = proper_nontrivial(all_subgroups(group, max_order))
    return CoprimeGraph(group.name, group.order, list(map(len, verts)))


# The class finder analysis used before a coprime graph carried its supports:
# it derives them over the parent's primes and compares every row with
# support disjointness.  Kept as the oracle for ``_Adjacency.classes``;
# ``parent_support_classes`` hands it the parent's primes.


def _support_classes(orders, primes, masks) -> dict[int, int] | None:
    """The graph's vertices grouped by prime support, as support -> vertex
    bitmask, or None unless two vertices are adjacent exactly when their
    supports are disjoint.

    A vertex's support is the bitmask of the parent's primes dividing its
    order.  The vertices whose support misses S are those outside the
    classes of S's primes, so the comparison takes k unions per support.
    Every coprime graph passes it, as its rows are derived from its orders.
    """
    supports = prime_supports(orders, primes)
    classes: dict[int, int] = {}
    for v, s in enumerate(supports):
        classes[s] = classes.get(s, 0) | 1 << v
    divisible = [reduce(or_, (m for s, m in classes.items() if s >> i & 1), 0)
                 for i in range(len(primes))]
    everyone = (1 << len(supports)) - 1
    disjoint = {
        s: everyone & ~reduce(or_, (m for i, m in enumerate(divisible) if s >> i & 1), 0)
        for s in classes
    }
    if any(masks[v] != disjoint[s] for v, s in enumerate(supports)):
        return None
    return classes


def parent_support_classes(g: CoprimeGraph) -> dict[int, int] | None:
    """The previous class finder on g, over its parent's primes."""
    return _support_classes(g.orders, sorted(g.parent_primes()), g.masks)


def element_order_census(group) -> dict[int, int]:
    """Multiset of element orders computed by repeated multiplication."""
    census: dict[int, int] = {}
    for a in range(group.order):
        x = a
        k = 1
        while x != 0:
            x = group.table[x][a]
            k += 1
        census[k] = census.get(k, 0) + 1
    return census


def factorize_oracle(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division by every d up to sqrt(n)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def girth_oracle(adj) -> float:
    """Shortest cycle length as the minimum over edges uv of 1 + dist(u, v)
    with uv removed, each distance by its own BFS; inf for a forest."""
    best = float("inf")
    for u, v in ((u, v) for u in range(len(adj)) for v in adj[u] if u < v):
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist and {x, y} != {u, v}:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if v in dist:
            best = min(best, 1 + dist[v])
    return best


# The structure sweep the analysis module ran before it swept bitmask rows:
# one vertex-by-vertex BFS per root over the neighbour sets.  Kept verbatim,
# on the sets instead of the adjacency that held them, as the oracle for
# ``analysis._structure``.


def structure_by_sets(sets) -> _Structure:
    """Components, diameters, girth and 2-colouring from one sweep.

    A BFS from root s ends at a vertex of greatest distance, so that distance
    is s's eccentricity.  A non-tree edge (u, w), seen from u with w already
    found at the same or the next level, bounds the shortest cycle through s
    by dist(u) + dist(w) + 1, and the minimum over all roots is the girth;
    once it is 3 nothing shorter can follow.  The BFS from a component's
    least vertex also gives the component and its distance parities.
    """
    n = len(sets)
    comp_of = [-1] * n
    components: list[tuple[int, ...]] = []
    diameters: list[int] = []
    parity = [0] * n
    best = INFINITE
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        order = [s]
        for u in order:
            du = dist[u]
            for w in sets[u]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = du + 1
                    order.append(w)
                elif best > 3 and dw >= du and du + dw + 1 < best:
                    best = du + dw + 1
        if comp_of[s] < 0:
            for v in order:
                comp_of[v] = len(components)
                parity[v] = dist[v] & 1
            components.append(tuple(sorted(order)))
            diameters.append(0)
        c = comp_of[s]
        diameters[c] = max(diameters[c], dist[order[-1]])
    odd = any(parity[u] == parity[w] for u in range(n) for w in sets[u])
    return _Structure(tuple(components), tuple(diameters), best, None if odd else tuple(parity))


def kuratowski_witness_oracle(
    g, witness_edges: list[tuple[int, int]]
) -> tuple[str, tuple[int, ...]] | None:
    """The previous ``verify_kuratowski_witness``, check by check, for witnesses
    whose ends are all host vertices.

    Validate an edge set as a K5 or K33 subdivision inside the host graph.

    Checks: every witness edge exists in the host; branch vertices have degree
    4 (K5) or 3 (K33) in the witness with every other vertex of degree 2; the
    degree-2 chains contract to exactly the simple edge set of K5, or to a
    complete bipartite 3+3 graph.  Returns (kind, branch vertices) or None.
    """
    host = neighbour_sets(_adjacency(g).masks)
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


def is_closed_subgroup(group, elements: frozenset[int]) -> bool:
    """Predicate: contains the identity (id 0), closed under product and inverse."""
    if 0 not in elements:
        return False
    table = group.table
    for a in elements:
        row = table[a]
        if row.index(0) not in elements:
            return False
        for b in elements:
            if row[b] not in elements:
                return False
    return True


def counts_json(subgroups) -> dict[str, int]:
    """A SubgroupList's counts by order, keyed by the order as a string."""
    return {str(k): v for k, v in sorted(subgroups.counts_by_order.items())}


def _generate(table, identity: int, gens, order: int) -> frozenset[int] | None:
    """Right-multiplication closure of the identity; None means the whole group.

    Bails out early once the closure passes order/2: by Lagrange the only
    larger subgroup is the group itself.
    """
    elems = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in elems:
                    elems.add(y)
                    if 2 * len(elems) > order:
                        return None
                    new.append(y)
        frontier = new
    return frozenset(elems)


def power_lists(table) -> list[list[int]]:
    """powers[x] = [1, x, x^2, ..., x^(ord x - 1)] for each element x, each
    list built on its own by right multiplication: its length is ord(x) and
    its last entry x^-1."""
    powers = []
    for x in range(len(table)):
        x_pows = [0]
        y = x
        while y != 0:
            x_pows.append(y)
            y = table[y][x]
        powers.append(x_pows)
    return powers


def all_subgroups_oracle(group, max_order: int = DEFAULT_MAX_ORDER) -> SubgroupList:
    """Enumerate every subgroup of the group by join saturation.

    Seeds with all cyclic subgroups, then saturates by joining each known
    subgroup with each cyclic generator until nothing new appears.  Every
    subgroup is a join of cyclic subgroups, so the fixed point is the full
    lattice.  Generating sets are carried along so each join closure costs
    |result| * |gens| table lookups.
    """
    n = group.order
    if n > max_order:
        raise OrderCapExceeded(f"group order {n} exceeds the bound {max_order}")
    table = group.table
    identity = 0
    whole = frozenset(range(n))

    # cyclic subgroups, deduplicated, keyed by a generating element
    atoms: dict[frozenset[int], int] = {}
    for x in range(n):
        elems = {identity}
        y = x
        while y != identity:
            elems.add(y)
            y = table[y][x]
        fs = frozenset(elems)
        atoms.setdefault(fs, x)

    found: dict[frozenset[int], tuple[int, ...]] = {}
    worklist: list[frozenset[int]] = []
    for fs, gen in sorted(atoms.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        if fs not in found:
            found[fs] = (gen,)
            worklist.append(fs)

    idx = 0
    while idx < len(worklist):
        current = worklist[idx]
        idx += 1
        if current == whole:
            continue
        gens = found[current]
        for atom_fs, atom_gen in atoms.items():
            if atom_fs <= current:
                continue
            joined = _generate(table, identity, gens + (atom_gen,), n)
            fs = whole if joined is None else joined
            if fs not in found:
                found[fs] = gens + (atom_gen,)
                worklist.append(fs)
    if whole not in found:
        found[whole] = tuple(range(n))

    counts = Counter(map(len, found))
    return SubgroupList(dict(sorted(counts.items())), set(found))


# The enumerator the lattice module used before it searched one subgroup per
# conjugacy class: cyclic extension and the join loop run from every subgroup.


def all_subgroups_by_extension(
    group: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER
) -> SubgroupList:
    """Enumerate every subgroup of the group.

    Cyclic extension (Neubüser): every solvable H != 1 has a normal subgroup
    K of prime index p, and then H = K<x> = union of x^i K for i < p, for any
    x in H outside K.  So, from the trivial group up, each found K is
    extended by every x that normalises K and whose least power in K is a
    prime p; no closure is needed.  This reaches every solvable subgroup,
    and so G itself exactly when G is solvable.  Otherwise the join loop
    completes the lattice: each known subgroup is joined with each cyclic
    subgroup until nothing new appears, which adds the non-solvable ones.
    Each subgroup carries the generators that built it.
    """
    n = group.order
    if n > max_order:
        raise OrderCapExceeded(f"group order {n} exceeds the bound {max_order}")
    table = group.table
    identity = 0
    whole = frozenset(range(n))

    powers = power_lists(table)
    exponents = {o: [d for d in divisors(o) if d > 1] for o in {len(p) for p in powers}}

    trivial = frozenset([identity])
    found: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
    worklist = [trivial]
    for current in worklist:
        gens = found[current]
        done = set(current)
        for x in range(n):
            if x in done:
                continue
            row_x, x_pows = table[x], powers[x]
            inv_x = x_pows[-1]
            if all(table[row_x[g]][inv_x] in current for g in gens):
                # the least j with x^j in K divides the order of x
                j = next(d for d in exponents[len(x_pows)] if x_pows[d % len(x_pows)] in current)
                if is_prime(j):
                    bigger = frozenset(table[x_pows[i]][k] for i in range(j) for k in current)
                    done |= bigger
                    if bigger not in found:
                        found[bigger] = gens + (x,)
                        worklist.append(bigger)
                    continue
            # every element of the coset xK gets the same answer as x
            done.update(row_x[k] for k in current)

    if whole not in found:
        # cyclic subgroups, deduplicated, keyed by a generating element
        atoms: dict[frozenset[int], int] = {}
        for x, x_pows in enumerate(powers):
            atoms.setdefault(frozenset(x_pows), x)
        for current in worklist:
            if current == whole:
                continue
            gens = found[current]
            for atom_gen in atoms.values():
                if atom_gen in current:
                    continue
                joined = _generate(table, identity, gens + (atom_gen,), n)
                fs = whole if joined is None else joined
                if fs not in found:
                    found[fs] = gens + (atom_gen,)
                    worklist.append(fs)

    counts = Counter(map(len, found))
    return SubgroupList(dict(sorted(counts.items())), set(found))


# The enumerator the lattice module used before its join loop took one cyclic
# subgroup per normaliser orbit: each representative is joined with every
# cyclic subgroup.  Its closures go through lattice._generate, so a test can
# record them.


def all_subgroups_joining_every_atom(
    group: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER
) -> SubgroupList:
    """Enumerate every subgroup of the group, one conjugacy class at a time.

    Cyclic extension from one representative K per class, as in
    ``all_subgroups``; when that misses G, each representative is joined
    with each cyclic subgroup outside it until nothing new appears.
    """
    n = group.order
    if n > max_order:
        raise OrderCapExceeded(f"group order {n} exceeds the bound {max_order}")
    table = group.table
    whole = frozenset(range(n))

    powers = power_lists(table)
    order_primes = {o: [p for p, _ in factorize(o)] for o in {len(p) for p in powers}}

    seen: set[frozenset[int]] = set()
    # (K, generators of K, one x per coset xK in N_G(K)) per class
    reps: list[tuple[frozenset[int], tuple[int, ...], list[int]]] = []

    def add_class(rep: frozenset[int], gens: tuple[int, ...]) -> None:
        # x normalises K iff x g x^-1 is in K for each generator g of K
        normal = []
        done: set[int] = set()
        for x in range(n):
            if x in done:
                continue
            row_x = table[x]
            inv_x = powers[x][-1]
            if all(table[row_x[g]][inv_x] in rep for g in gens):
                normal.append(x)
            # every element of the coset xK gets the same answer as x
            done.update(map(row_x.__getitem__, rep))
        reps.append((rep, gens, normal))
        if len(normal) * len(rep) == n:
            seen.add(rep)
            return
        # one conjugate gKg^-1 per coset gN_G(K)
        normaliser = [table[x][k] for x in normal for k in rep]
        done = set()
        for g in range(n):
            if g in done:
                continue
            row_g = table[g]
            inv_g = powers[g][-1]
            seen.add(frozenset(table[y][inv_g] for y in map(row_g.__getitem__, rep)))
            done.update(map(row_g.__getitem__, normaliser))

    add_class(frozenset([0]), ())
    for current, gens, normal in reps:
        done = set(current)
        for x in normal:
            if x in done:
                continue
            x_pows = powers[x]
            # as x is not in K, at most one prime p of ord(x) has x^p in K
            o = len(x_pows)
            p = next((p for p in order_primes[o] if x_pows[p % o] in current), 0)
            if p:
                bigger = frozenset(table[x_pows[i]][k] for i in range(p) for k in current)
                done |= bigger
                if bigger not in seen:
                    add_class(bigger, gens + (x,))
            else:
                done.update(map(table[x].__getitem__, current))

    if whole not in seen:
        # cyclic subgroups, deduplicated, keyed by a generating element
        atoms: dict[frozenset[int], int] = {}
        for x, x_pows in enumerate(powers):
            atoms.setdefault(frozenset(x_pows), x)
        for current, gens, _ in reps:
            if current == whole:
                continue
            for atom_gen in atoms.values():
                if atom_gen in current:
                    continue
                joined = lattice._generate(table, gens + (atom_gen,), n)
                fs = whole if joined is None else joined
                if fs not in seen:
                    add_class(fs, gens + (atom_gen,))

    counts = Counter(map(len, seen))
    return SubgroupList(dict(sorted(counts.items())), seen)


# The enumerator the lattice module used before its join loop took only the
# cyclic subgroups of odd prime-power order: each class is written down by a
# walk over the cosets of its normaliser, and each representative is joined
# with one cyclic subgroup per normaliser orbit.  Its closures go through
# lattice._generate, so a test can record them.


def all_subgroups_per_orbit(
    group: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER
) -> SubgroupList:
    """Enumerate every subgroup of the group, one conjugacy class at a time.

    Only one representative K per class is searched from; the rest of its
    class is written down as gKg^-1, one g per coset of the normaliser
    N_G(K), and every member is recorded so that a later search landing on
    any conjugate is recognised.

    Cyclic extension (Neubüser): every solvable H != 1 has a normal subgroup
    K' of prime index p, and then H = K'<x> = union of x^i K' for i < p, for
    any x in H outside K'.  If K' = g^-1 K g for the representative K, then
    gHg^-1 extends K the same way.  So each representative K is extended by
    every x in N_G(K) whose least power in K is a prime p; no closure is
    needed.  That least exponent divides every d with x^d in K, so it is a
    prime p exactly when x^p is in K for a prime p dividing ord(x).  This
    reaches every solvable subgroup's class, and so G itself exactly when G
    is solvable.  Otherwise the join loop completes the lattice: each
    representative is joined with cyclic subgroups until nothing new
    appears.  That adds the non-solvable classes, since any
    H = <M, a> for a maximal subgroup M of H, so a conjugate of H is
    <rep(M), a conjugate of a>.  For n in N_G(K), <K, nan^-1> = n<K, a>n^-1,
    so K is joined with the first cyclic subgroup of each N_G(K)-orbit
    only: every later one would land on a class already seen.  Each
    representative carries the generators that built it.  S6 takes 1957
    closures (19,028 joining every cyclic subgroup), A7 2199 and S7 10,108.
    """
    n = group.order
    if n > max_order:
        raise OrderCapExceeded(f"group order {n} exceeds the bound {max_order}")
    table = group.table
    whole = frozenset(range(n))

    powers = power_lists(table)
    order_primes = {o: [p for p, _ in factorize(o)] for o in {len(p) for p in powers}}

    seen: set[frozenset[int]] = set()
    # (K, generators of K, one x per coset xK in N_G(K)) per class
    reps: list[tuple[frozenset[int], tuple[int, ...], list[int]]] = []

    def add_class(rep: frozenset[int], gens: tuple[int, ...]) -> None:
        """Record the class of a new representative K and queue K for search."""
        # x normalises K iff x g x^-1 is in K for each generator g of K
        normal = []
        done: set[int] = set()
        for x in range(n):
            if x in done:
                continue
            row_x = table[x]
            inv_x = powers[x][-1]
            if all(table[row_x[g]][inv_x] in rep for g in gens):
                normal.append(x)
            # every element of the coset xK gets the same answer as x
            done.update(map(row_x.__getitem__, rep))
        reps.append((rep, gens, normal))
        if len(normal) * len(rep) == n:
            seen.add(rep)
            return
        # one conjugate gKg^-1 per coset gN_G(K)
        normaliser = [table[x][k] for x in normal for k in rep]
        done = set()
        for g in range(n):
            if g in done:
                continue
            row_g = table[g]
            inv_g = powers[g][-1]
            seen.add(frozenset(table[y][inv_g] for y in map(row_g.__getitem__, rep)))
            done.update(map(row_g.__getitem__, normaliser))

    add_class(frozenset([0]), ())
    for current, gens, normal in reps:
        done = set(current)
        for x in normal:
            if x in done:
                continue
            x_pows = powers[x]
            # as x is not in K, at most one prime p of ord(x) has x^p in K
            o = len(x_pows)
            p = next((p for p in order_primes[o] if x_pows[p % o] in current), 0)
            if p:
                bigger = frozenset(table[x_pows[i]][k] for i in range(p) for k in current)
                done |= bigger
                if bigger not in seen:
                    add_class(bigger, gens + (x,))
            else:
                done.update(map(table[x].__getitem__, current))

    if whole not in seen:
        # cyclic subgroups, deduplicated, each with its first generator;
        # atom_of[x] is the index of <x> among them
        atom_ids: dict[frozenset[int], int] = {}
        atom_of = [atom_ids.setdefault(frozenset(x_pows), len(atom_ids)) for x_pows in powers]
        atom_gens = [0] * len(atom_ids)
        for x in reversed(range(n)):
            atom_gens[atom_of[x]] = x
        for current, gens, normal in reps:
            if current == whole:
                continue
            # (row of n, n^-1) for each n in N_G(K)
            conjugators = [
                (table[y], powers[y][-1]) for y in (table[x][k] for x in normal for k in current)
            ]
            tried = set()
            for atom, atom_gen in enumerate(atom_gens):
                if atom in tried or atom_gen in current:
                    continue
                # <K, n a n^-1> = n <K, a> n^-1 lands in the class of <K, a>
                tried.update([atom_of[table[row[atom_gen]][inv]] for row, inv in conjugators])
                joined = lattice._generate(table, gens + (atom_gen,), n)
                fs = whole if joined is None else joined
                if fs not in seen:
                    add_class(fs, gens + (atom_gen,))

    counts = Counter(map(len, seen))
    return SubgroupList(dict(sorted(counts.items())), seen)


def brute_force_maximal_independent_sets(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Every maximal independent set, by scanning all 2^n vertex subsets."""
    n = g.n_vertices
    if n > 12:
        raise ValueError("brute-force MIS oracle is limited to n <= 12")
    adj = g.masks
    independent = [
        bits
        for bits in range(1 << n)
        if all(not (bits >> v & 1) or not (adj[v] & bits) for v in range(n))
    ]
    found = []
    for bits in independent:
        outside = [v for v in range(n) if not bits >> v & 1]
        if all(adj[v] & bits for v in outside):
            found.append(tuple(v for v in range(n) if bits >> v & 1))
    return sorted(found)


# The recursive Bron-Kerbosch, trial-division primes and label loop the
# embedding module used before its explicit stack, kept as the kernel's oracle.


def trial_division_primes(k: int) -> list[int]:
    primes: list[int] = []
    cand = 2
    while len(primes) < k:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


def recursive_max_clique_masks(masks, n: int) -> int:
    """The maximum-clique search as it was before it kept its own stack, one
    Python frame per clique vertex: the oracle for its result and its visit
    order.  It calls ``analysis._greedy_color_order`` through the module, so
    a test can record the candidate sets of both searches."""
    best_mask = 0
    best = 0

    def expand(size: int, current: int, candidates: int) -> None:
        nonlocal best, best_mask
        order, bounds = analysis._greedy_color_order(masks, candidates)
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

    expand(0, 0, (1 << n) - 1)
    return best_mask


def recursive_maximal_independent_sets(g: SimpleGraph, cap: int = 20) -> list[tuple[int, ...]]:
    """All maximal independent sets, sorted lexicographically.

    Bron-Kerbosch with pivoting on the complement graph; the count can be
    exponential, hence the vertex cap.
    """
    n = g.n_vertices
    if n > cap:
        raise MisCapExceeded(f"{n} vertices exceed the enumeration cap {cap}")
    if n == 0:
        return []
    adj = neighbour_sets(g.masks)
    full = (1 << n) - 1
    # non-adjacency masks: cliques there are independent sets here
    non = [full & ~(1 << v) & ~sum(1 << w for w in adj[v]) for v in range(n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pool = p | x
        pivot = max(
            (v for v in range(n) if pool >> v & 1),
            key=lambda v: bin(p & non[v]).count("1"),
        )
        cand = p & ~non[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            bit = 1 << v
            expand(r | bit, p & non[v], x & non[v])
            p &= ~bit
            x |= bit
            cand &= cand - 1

    expand(0, full, 0)
    sets = [tuple(v for v in range(n) if m >> v & 1) for m in out]
    return sorted(sets)


# The listing as it was before its pivot scan stopped at a vertex whose
# count reaches that vertex's bound: every vertex of P | X is scanned.


def full_scan_maximal_independent_sets(
    g: SimpleGraph, cap: int = 20
) -> list[tuple[int, ...]]:
    """All maximal independent sets, sorted lexicographically.

    Bron-Kerbosch with pivoting on the complement graph; the count can be
    exponential, hence the vertex cap.
    """
    n = g.n_vertices
    if n > cap:
        raise MisCapExceeded(f"{clip(n)} vertices exceed the enumeration cap {cap}")
    if n == 0:
        return []
    full = (1 << n) - 1
    # non-adjacency masks: cliques there are independent sets here
    non = [full ^ row ^ 1 << v for v, row in enumerate(g.masks)]
    out: list[int] = []
    stack = [(0, full, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(r)
            continue
        # the first vertex of p | x with the most candidates among its
        # non-neighbours
        pool = p | x
        best = -1
        while pool:
            low = pool & -pool
            v = low.bit_length() - 1
            count = (p & non[v]).bit_count()
            if count > best:
                best, pivot = count, v
            pool ^= low
        cand = p & ~non[pivot]
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            stack.append((r | bit, p & non[v], x & non[v]))
            p &= ~bit
            x |= bit
            cand ^= bit
    return sorted(map(tuple, map(members, out)))


def embed_oracle(g: SimpleGraph, cap: int = 20) -> EmbeddingCertificate:
    """The certificate ``embed`` returned before its kernel was trimmed."""
    mis = recursive_maximal_independent_sets(g, cap)
    primes = trial_division_primes(len(mis))
    support: list[tuple[int, ...]] = []
    for v in range(g.n_vertices):
        sup = tuple(i for i, s in enumerate(mis) if v in s)
        if not sup:
            raise CertificateError(f"vertex {v} missed by all maximal independent sets")
        support.append(sup)
    rank: dict[tuple[int, ...], int] = {}
    labels = []
    for v in range(g.n_vertices):
        r = rank.get(support[v], 0)
        rank[support[v]] = r + 1
        label = 1
        for i in support[v]:
            label *= primes[i] ** (r + 1)
        labels.append(label)
    modulus = lcm(*labels)
    if max(labels) == modulus:
        modulus *= primes[0]
    return EmbeddingCertificate(
        mis=tuple(mis),
        prime_assignment=tuple(primes),
        labels=tuple(labels),
        modulus=modulus,
    )


# The edge-list parser and edge normalisation the embedding module used
# before it split each line once and normalised the pairs in one pass, kept
# verbatim as the oracle for the graph and for the error reported first.


def from_edges_oracle(n_vertices: int, edges) -> SimpleGraph:
    norm = set()
    for u, v in edges:
        if u == v:
            raise EdgeListError(f"loop at vertex {clip(u)} is not allowed")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise EdgeListError(
                f"edge ({clip(u)},{clip(v)}) out of range 0..{clip(n_vertices - 1)}"
            )
        norm.add((min(u, v), max(u, v)))
    return SimpleGraph(n_vertices=n_vertices, edges=frozenset(norm))


def parse_edge_list_oracle(text: str | bytes) -> SimpleGraph:
    """Parse the edge-list format: one "u v" pair per line, 0-indexed.

    Blank lines and '#' comments are ignored; an optional header "n <count>"
    fixes the vertex count, which otherwise is inferred as max id + 1.
    Counts and ids are ASCII digits, an id with an optional sign.  Bytes are
    read as UTF-8.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EdgeListError(f"not UTF-8 text: {exc}") from None
    edges = []
    declared = None
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdecimal()):
                raise EdgeListError(f"line {lineno}: header must be 'n <count>'")
            declared = int(parts[1])
            continue
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {clip(raw)!r}")
        try:
            u, v = ascii_int(parts[0]), ascii_int(parts[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: expected integers, got {clip(raw)!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: vertex ids must be nonnegative")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = declared if declared is not None else max_id + 1
    if n < 1:
        raise EdgeListError("edge list defines no vertices")
    return from_edges_oracle(n, edges)


# The cell-by-cell table builders the groups module used before it built
# each row from list slices, kept verbatim as the oracle for its tables.


def cell_by_cell_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: r^n = s^2 = 1, s r s = r^-1.

    Ids 0..n-1 are the rotations r^k, ids n..2n-1 are the reflections r^k s.
    """
    if n < 2:
        raise GroupConstructionError(f"dihedral parameter must be >= 2, got {n}")
    order = 2 * n
    table = []
    for x in range(order):
        i, e = x % n, x // n
        row = []
        for y in range(order):
            j, f = y % n, y // n
            k = (i + j) % n if e == 0 else (i - j) % n
            row.append(k + n * (e ^ f))
        table.append(tuple(row))
    return FiniteGroup(name=f"D{order}", table=tuple(table))


def cell_by_cell_semidirect_cyclic(m: int, k: int, i: int) -> FiniteGroup:
    """Z_m semidirect Z_k where the generator of Z_k acts by a -> a*i mod m.

    Pairs (a, b) are encoded as a*k + b, multiplied by
    (a1, b1)*(a2, b2) = (a1 + a2*i^b1 mod m, b1 + b2 mod k).
    Requires gcd(i, m) = 1 and i^k = 1 mod m, else the action is ill-defined.
    """
    if m < 2 or k < 2:
        raise GroupConstructionError(f"semidirect factors must be >= 2, got m={m}, k={k}")
    i %= m
    if gcd(i, m) != 1:
        raise GroupConstructionError(f"action parameter i={i} is not a unit mod {m}")
    if pow(i, k, m) != 1:
        raise GroupConstructionError(f"i^k = {pow(i, k, m)} != 1 mod {m}: action not well defined")
    powers = [pow(i, b, m) for b in range(k)]
    order = m * k
    table = []
    for x in range(order):
        a1, b1 = divmod(x, k)
        twist = powers[b1]
        row = []
        for y in range(order):
            a2, b2 = divmod(y, k)
            row.append(((a1 + a2 * twist) % m) * k + (b1 + b2) % k)
        table.append(tuple(row))
    return FiniteGroup(name=f"Z{m}:Z{k}(i={i})", table=tuple(table))


def cell_by_cell_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, encoded as a*|h| + b."""
    hn = h.order
    order = g.order * hn
    table = []
    for x in range(order):
        a1, b1 = divmod(x, hn)
        grow, hrow = g.table[a1], h.table[b1]
        row = []
        for y in range(order):
            a2, b2 = divmod(y, hn)
            row.append(grow[a2] * hn + hrow[b2])
        table.append(tuple(row))
    return FiniteGroup(name=f"{g.name}x{h.name}", table=tuple(table))


# The permutation-group builder the groups module used before it read each
# column off the closure's generator maps, kept verbatim as the oracle for
# its tables.


def cell_by_cell_permutation_group(
    degree: int,
    gens: list[tuple[int, ...]],
    max_order: int = DEFAULT_MAX_ORDER,
    name: str | None = None,
) -> FiniteGroup:
    """Closure of permutation generators under composition, as a table.

    Element 0 is the identity; the remaining elements appear in breadth-first
    discovery order, which makes the table deterministic for a fixed generator
    list.
    """
    identity = tuple(range(degree))
    norm_gens = []
    for g in gens:
        perm = tuple(g)
        if sorted(perm) != list(range(degree)):
            raise GroupConstructionError(f"{perm} is not a permutation of 0..{degree - 1}")
        norm_gens.append(perm)
    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for g in norm_gens:
                q = _compose(p, g)
                if q not in index:
                    index[q] = len(elements)
                    elements.append(q)
                    new.append(q)
                    if len(elements) > max_order:
                        raise OrderCapExceeded(
                            f"permutation closure exceeded {max_order} elements"
                        )
        frontier = new
    order = len(elements)
    table = tuple(
        tuple(index[_compose(elements[a], elements[b])] for b in range(order))
        for a in range(order)
    )
    return FiniteGroup(name=name or f"Perm{degree}<{order}>", table=table)


# The k-colourability search analysis used before it kept per-vertex colour
# counts: its pick() rebuilds every uncoloured vertex's neighbour-colour set
# at every step.  Kept verbatim as the oracle for the verdicts.


def rescanning_k_colorable(adj, k: int) -> bool:
    """Backtracking k-colouring in DSATUR order: the uncoloured vertex with the
    most distinct neighbour colours, then the highest degree, then the lowest
    index, takes the lowest free colour first.  So the first descent is the
    DSATUR greedy colouring, and it succeeds without backtracking whenever k
    is at least the greedy colour count.  The search keeps its own stack of
    (vertex, colours still to try, colours used before it), one per coloured
    vertex, so its depth is not bounded by Python's recursion limit."""
    n = len(adj)
    if n == 0:
        return True
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

    def frame(max_used: int) -> tuple[int, Iterator[int], int]:
        v = pick()
        taken = {colors[u] for u in adj[v] if colors[u] >= 0}
        # allowing at most one fresh color breaks color-permutation symmetry
        free = [c for c in range(min(max_used + 1, k - 1) + 1) if c not in taken]
        return v, iter(free), max_used

    stack = [frame(-1)]
    while stack:
        v, free, max_used = stack[-1]
        colors[v] = -1
        c = next(free, None)
        if c is None:
            stack.pop()
            continue
        colors[v] = c
        if len(stack) == n:
            return True
        stack.append(frame(max(max_used, c)))
    return False


# Test-only constructions and theorem drivers, moved verbatim out of the
# package: no command reaches them.


def check_group_axioms(group: FiniteGroup, assoc_limit: int = 256) -> None:
    """Raise GroupConstructionError unless the table satisfies the group axioms.

    Latin square, identity and inverse checks always run; the exhaustive
    associativity check runs only for order <= assoc_limit.
    """
    n = group.order
    t = group.table
    if len(t) != n or any(len(row) != n for row in t):
        raise GroupConstructionError(f"{group.name}: table is not {n}x{n}")
    ident = list(range(n))
    for a in range(n):
        if sorted(t[a]) != ident:
            raise GroupConstructionError(f"{group.name}: row {a} is not a permutation")
        if sorted(row[a] for row in t) != ident:
            raise GroupConstructionError(f"{group.name}: column {a} is not a permutation")
    e = 0  # every group is built with id 0 as its identity
    if list(t[e]) != ident or [row[e] for row in t] != ident:
        raise GroupConstructionError(f"{group.name}: element {e} is not an identity")
    for a in range(n):
        b = t[a].index(e)
        if t[b][a] != e:
            raise GroupConstructionError(f"{group.name}: element {a} has no two-sided inverse")
    if n <= assoc_limit:
        for a in range(n):
            row_a = t[a]
            # (a*b)*c == a*(b*c) for every b and c
            for b in range(n):
                if tuple(map(row_a.__getitem__, t[b])) != tuple(t[row_a[b]]):
                    raise GroupConstructionError(
                        f"{group.name}: associativity fails at element {a}"
                    )


def find_unit_of_order(m: int, k: int) -> int:
    """Smallest unit i >= 2 with multiplicative order exactly k mod m."""
    for i in range(2, m):
        if gcd(i, m) != 1:
            continue
        if pow(i, k, m) != 1:
            continue
        if all(pow(i, d, m) != 1 for d in range(1, k) if k % d == 0):
            return i
    raise GroupConstructionError(f"no unit of order {k} mod {m}")


def make_metacyclic(m: int, k: int, action_order: int) -> FiniteGroup:
    """Z_m : Z_k with the canonical action of a given multiplicative order.

    Picks the smallest unit i with ord_m(i) = action_order, which must divide
    k for the twist to be well defined.  This realizes the cyclic-by-cyclic
    families in one call: make_metacyclic(q, p, p) is the nonabelian group of
    order pq, make_metacyclic(q, p*p, p) and make_metacyclic(q, p*p, p*p) are
    the two order-p^2 twists over Z_q, make_metacyclic(p*p, q, q) is the
    prime-square-kernel group of order p^2 q.
    """
    if k % action_order != 0:
        raise GroupConstructionError(
            f"action order {action_order} does not divide the acting order {k}"
        )
    return make_semidirect_cyclic(m, k, find_unit_of_order(m, action_order))


def degree_formula(n: int, h_order: int) -> int:
    """Closed-form vertex degree in the coprime graph of Z_n.

    For n = prod p_j^(a_j) and a proper subgroup order h, the degree is
    prod over p_j not dividing h of (a_j + 1), minus 1 for the trivial
    subgroup.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not (1 < h_order < n):
        raise ValueError(f"subgroup order {h_order} is not proper nontrivial for n={n}")
    if n % h_order != 0:
        raise ValueError(f"{h_order} does not divide {n}")
    out = 1
    for p, a in factorize(n):
        if h_order % p != 0:
            out *= a + 1
    return out - 1


ISO_CAP = 16


def small_graph_isomorphic(g1, g2, cap: int = ISO_CAP) -> bool:
    """Exact isomorphism test by backtracking with degree pruning."""
    a1 = neighbour_sets(_adjacency(g1).masks)
    a2 = neighbour_sets(_adjacency(g2).masks)
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


def check_connectivity_criterion(group) -> bool:
    """Connectivity iff no proper nontrivial subgroup has the full prime set,
    with diameter in {1, 2, 3} whenever connected."""
    graph = build(group)
    rep = vertex_report(graph)
    return _check_connectivity(graph, rep) and _check_diameter_range(graph, rep)


def check_degree_theorem(n_max: int) -> VerificationReport:
    """Closed-form degrees against counted degrees for all composite n <= n_max."""
    rows = []
    for n in range(4, n_max + 1):
        if is_prime(n):
            continue
        graph = build_cyclic(n)
        mismatches = []
        for v, order in enumerate(graph.orders):
            got = graph.degree(v)
            want = degree_formula(n, order)
            if got != want:
                mismatches.append((order, want, got))
        rows.append(
            CheckRow(
                f"Z{n}",
                "degree-formula",
                "all-match",
                "all-match" if not mismatches else f"mismatches: {mismatches}",
                not mismatches,
            )
        )
    return VerificationReport(rows=rows)


def _all_labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield SimpleGraph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        )


def check_embedding_theorem(
    trials: int = 200,
    n_max_vertices: int = 12,
    seed: int = 987,
) -> VerificationReport:
    """Embed-and-verify over all graphs on <= 5 vertices plus random graphs."""
    rows = []
    for n in range(1, 6):
        bad = 0
        total = 0
        for g in _all_labeled_graphs(n):
            total += 1
            if not verify_embedding(g, embed(g)):
                bad += 1
        rows.append(
            CheckRow(
                f"all-{total}-graphs-on-{n}-vertices",
                "embed-verify",
                0,
                bad,
                bad == 0,
            )
        )
    rng = random.Random(seed)
    bad = 0
    for _ in range(trials):
        n = rng.randint(7, n_max_vertices)
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
        g = SimpleGraph.from_edges(n, edges)
        if not verify_embedding(g, embed(g)):
            bad += 1
    rows.append(
        CheckRow(
            f"{trials}-random-graphs-7-to-{n_max_vertices}",
            "embed-verify",
            0,
            bad,
            bad == 0,
        )
    )
    return VerificationReport(rows=rows)


def enumerated_intersecting_support_weight(orders: list[int]) -> int:
    """Largest total weight of a pairwise-intersecting family of prime supports.

    The alpha check's search before it became a maximum-weight clique, kept
    as its oracle.  It includes or excludes each support in turn, heaviest
    first, and cuts a branch once the weight still to come cannot beat the
    best family found; it recurses once per support and is exponential in the
    number of primes, so keep it to k <= 5.
    """
    weight = Counter(pi(order) for order in orders)
    supports = sorted(weight, key=lambda s: (-weight[s], sorted(s)))
    best = 0

    def extend(i: int, family: tuple, total: int, rest: int) -> None:
        nonlocal best
        best = max(best, total)
        if i == len(supports) or total + rest <= best:
            return
        s, w = supports[i], weight[supports[i]]
        if all(s & t for t in family):
            extend(i + 1, family + (s,), total + w, rest - w)
        extend(i + 1, family, total, rest - w)

    extend(0, (), 0, sum(weight.values()))
    return best


def nested_product(depth: int, leaf: str) -> str:
    """``depth`` products nested down the left, each with ``leaf`` on the right."""
    return "X(" * depth + leaf + f",{leaf})" * depth


# The product rule groups used before it cut at the first later factor that
# starts with a letter: it tries every top-level comma and parses both sides
# each time, so its time is quadratic in the commas.  Kept verbatim as the
# oracle for the single cut; patch it over groups._parse_product to parse a
# whole spec the old way.


def every_cut_parse_product(s: str):
    parts = _split_top_level(s[2:-1])
    # commas inside SD and PERM specs also appear at the top level, so try
    # each split point and take the first that parses on both sides
    for cut in range(1, len(parts)):
        try:
            left = groups._parse(",".join(parts[:cut]))
            right = groups._parse(",".join(parts[cut:]))
        except SpecParseError:
            continue
        break
    else:
        raise SpecParseError(f"X needs exactly two factors, got {clip(s)!r}")

    def make(max_order: int) -> FiniteGroup:
        g, h = left.build(max_order), right.build(max_order)
        groups._check_order(g.order * h.order, s, max_order)
        return groups.make_direct_product(g, h)

    known = left.order is not None and right.order is not None
    return groups._Spec(s, left.order * right.order if known else None, make)
