"""The coprime graph of subgroups: generic builder, cyclic fast path, exports.

Vertices are the nontrivial proper subgroups of a group; two vertices are
adjacent exactly when their orders are coprime: when their prime supports are
disjoint.  Adjacency depends only on the orders, which makes the divisor fast
path for cyclic groups possible, and the build takes no gcd.  A graph is
made from its ``orders`` alone and derives its ``masks`` from them, both
indexed by vertex: vertex i is position i, with order ``orders[i]`` and
bitmask row ``masks[i]``.  Its edges are listed from the rows.
"""

from __future__ import annotations

from collections import Counter
from math import lcm, prod

from .errors import UndefinedCoprimeGraphError, check_exact_cap, clip
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, cyclic_spec_order, parse_group_spec
from .lattice import all_subgroups, divisors, factorize, is_prime, pi, prime_supports
from .lattice import members, subset_sums


class CoprimeGraph:
    """Immutable graph on subgroup vertices with coprime-order adjacency:
    vertex i has order ``orders[i]`` and bitmask row ``masks[i]``.

    The rows are derived from the orders, never given.  A vertex of support
    S, the primes of lcm(orders) dividing its order, is joined to the other
    vertices supported in ~S.  The graph keeps ``primes``, each vertex's
    support over them and ``classes``, each support -> the bitmask of its
    vertices, in first-vertex order.
    """

    def __init__(self, source: str, parent_order: int, orders: list[int]):
        self.source = source
        self.parent_order = parent_order
        self.orders = tuple(orders)
        distinct = list(dict.fromkeys(self.orders))
        self.primes = primes = tuple(sorted(pi(lcm(*distinct))))
        support_of = dict(zip(distinct, prime_supports(distinct, primes)))
        self.supports = supports = [support_of[order] for order in self.orders]
        self.classes = classes = {}
        for v, s in enumerate(supports):
            classes[s] = classes.get(s, 0) | 1 << v
        full = (1 << len(primes)) - 1
        # inside[X]: the vertices whose support lies in X
        inside = subset_sums([classes.get(x, 0) for x in range(full + 1)], len(primes))
        masks = [inside[full ^ s] for s in supports]  # one row object per support
        for v in members(inside[0]):  # only a vertex of support 0 is in its own row
            masks[v] &= ~(1 << v)
        self.masks = tuple(masks)
        self.n_vertices = len(self.orders)
        self.n_edges = sum(m.bit_count() for m in self.masks) // 2

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once, as (u, v) with u < v, by u and then v: one
        ``members`` call per distinct row, then its members above u."""
        lists = {m: members(m) for m in dict.fromkeys(self.masks)}
        return [(u, v) for u, m in enumerate(self.masks) if m for v in lists[m] if v > u]

    def parent_primes(self) -> frozenset[int]:
        return pi(self.parent_order)


def _require_defined(name: str, order: int) -> None:
    """The graph needs a proper nontrivial subgroup: none for order 1 or a prime."""
    if order < 2 or is_prime(order):
        raise UndefinedCoprimeGraphError(
            f"{clip(name)}: the coprime graph is undefined for trivial and "
            f"prime-order groups (order {order})"
        )


def build(group: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER) -> CoprimeGraph:
    """Coprime graph of a group from its lattice's subgroup counts by order:
    one vertex per subgroup H with 1 < |H| < |G|, sorted by order.

    Rejects the trivial group and groups of prime order, whose graphs have no
    vertex set.
    """
    n = group.order
    _require_defined(group.name, n)
    counts = all_subgroups(group, max_order).counts_by_order
    orders = [order for order, count in counts.items() if 1 < order < n for _ in range(count)]
    return CoprimeGraph(group.name, n, orders)


def build_cyclic(n: int, exact_cap: int | None = None) -> CoprimeGraph:
    """Coprime graph of Z_n straight from the divisor lattice, no table.

    Z_n has exactly one subgroup per divisor, so the proper divisors
    1 < d < n, with coprimality adjacency, are the whole graph.  Their count
    is checked against ``exact_cap``, when given, before the divisors are
    listed: it is tau(n) - 2, with tau(n) the product of the exponents plus one.
    """
    _require_defined(f"Z{n}", n)
    if exact_cap is not None:
        check_exact_cap(prod(e + 1 for _, e in factorize(n)) - 2, exact_cap)
    labels = [d for d in divisors(n) if 1 < d < n]
    return CoprimeGraph(f"Z{n}", n, labels)


def graph_for_spec(spec: str, max_order: int, exact_cap: int | None = None) -> CoprimeGraph:
    """P(G) for a group spec, the one way every command and the catalog take.

    A plain "Z:n" takes the divisor path, which builds no table, is not bound
    by ``max_order`` and checks ``exact_cap`` against the divisor count before
    it lists the divisors; any other spec is built under ``max_order`` and its lattice
    enumerated.
    """
    n = cyclic_spec_order(spec)
    if n is not None:
        return build_cyclic(n, exact_cap)
    return build(parse_group_spec(spec, max_order), max_order)


def _vertex_labels(graph: CoprimeGraph) -> list[str]:
    """Order labels, suffixed with an index when several vertices share one."""
    counts = Counter(graph.orders)
    seen: Counter[int] = Counter()
    labels = []
    for order in graph.orders:
        if counts[order] == 1:
            labels.append(str(order))
        else:
            labels.append(f"{order}#{seen[order]}")
            seen[order] += 1
    return labels


def to_dot(graph: CoprimeGraph, comments: list[str] | None = None) -> str:
    """Deterministic DOT rendering with order labels."""
    lines = [f'graph "P({graph.source})" {{']
    for line in comments or []:
        lines.append(f"  // {line}")
    for v, label in enumerate(_vertex_labels(graph)):
        lines.append(f'  v{v} [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(graph: CoprimeGraph) -> dict:
    """JSON shape: {source, parent_order, vertices: [{id, order}], edges: [[u,v]]}:
    vertex i has id i, and the writer encodes ``edges()``'s tuples as arrays."""
    return {
        "source": graph.source,
        "parent_order": graph.parent_order,
        "vertices": [{"id": v, "order": order} for v, order in enumerate(graph.orders)],
        "edges": graph.edges(),
    }
