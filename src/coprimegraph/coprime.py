"""The coprime graph of subgroups: generic builder, cyclic fast path, exports.

Vertices are the nontrivial proper subgroups of a group; two vertices are
adjacent exactly when their subgroup orders are coprime.  Adjacency depends
only on the order labels, which is what makes the divisor-based fast path for
cyclic groups possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import UndefinedCoprimeGraphError, check_exact_cap
from .groups import DEFAULT_MAX_ORDER, FiniteGroup
from .lattice import (
    Subgroup,
    SubgroupList,
    all_subgroups,
    divisors,
    factorize,
    is_prime,
    pi,
    proper_nontrivial,
)


@dataclass(frozen=True)
class GraphVertex:
    vid: int
    order: int
    subgroup: Subgroup | None = None


class CoprimeGraph:
    """Immutable graph on subgroup vertices with coprime-order adjacency."""

    def __init__(
        self,
        source: str,
        parent_order: int,
        vertices: list[GraphVertex],
        adjacency: list[frozenset[int]],
    ):
        self.source = source
        self.parent_order = parent_order
        self.vertices = tuple(vertices)
        self.adj = tuple(adjacency)
        self.n_vertices = len(self.vertices)
        self.n_edges = sum(len(s) for s in self.adj) // 2

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n_vertices) for v in sorted(self.adj[u]) if u < v]

    def orders(self) -> list[int]:
        return [vx.order for vx in self.vertices]

    def parent_primes(self) -> frozenset[int]:
        return pi(self.parent_order)


def _graph_from_orders(
    source: str,
    parent_order: int,
    orders: list[int],
    subgroups: list[Subgroup] | None = None,
) -> CoprimeGraph:
    n = len(orders)
    vertices = [
        GraphVertex(vid=i, order=orders[i], subgroup=subgroups[i] if subgroups else None)
        for i in range(n)
    ]
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if gcd(orders[u], orders[v]) == 1:
                adjacency[u].add(v)
                adjacency[v].add(u)
    return CoprimeGraph(source, parent_order, vertices, [frozenset(s) for s in adjacency])


def _require_defined(name: str, order: int) -> None:
    """The graph needs a proper nontrivial subgroup: none for order 1 or a prime."""
    if order < 2 or is_prime(order):
        raise UndefinedCoprimeGraphError(
            f"{name}: the coprime graph is undefined for trivial and "
            f"prime-order groups (order {order})"
        )


def build(
    group: FiniteGroup,
    subgroups: SubgroupList | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> CoprimeGraph:
    """Coprime graph of a group from its full subgroup inventory.

    Rejects the trivial group and groups of prime order, whose graphs have no
    vertex set.
    """
    _require_defined(group.name, group.order)
    lattice = subgroups if subgroups is not None else all_subgroups(group, max_order)
    verts = proper_nontrivial(lattice)
    return _graph_from_orders(
        group.name, group.order, [s.order for s in verts], verts
    )


def build_cyclic(n: int, exact_cap: int | None = None) -> CoprimeGraph:
    """Coprime graph of Z_n straight from the divisor lattice, no table.

    Z_n has exactly one subgroup per divisor, so the proper divisors
    1 < d < n, with coprimality adjacency, are the whole graph.  Their count
    is checked against ``exact_cap``, when given, before the pairwise gcds.
    """
    _require_defined(f"Z{n}", n)
    labels = [d for d in divisors(n) if 1 < d < n]
    if exact_cap is not None:
        check_exact_cap(len(labels), exact_cap)
    return _graph_from_orders(f"Z{n}", n, labels)


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


def _vertex_labels(graph: CoprimeGraph) -> list[str]:
    """Order labels, suffixed with an index when several vertices share one."""
    counts: dict[int, int] = {}
    for vx in graph.vertices:
        counts[vx.order] = counts.get(vx.order, 0) + 1
    seen: dict[int, int] = {}
    labels = []
    for vx in graph.vertices:
        if counts[vx.order] == 1:
            labels.append(str(vx.order))
        else:
            k = seen.get(vx.order, 0)
            seen[vx.order] = k + 1
            labels.append(f"{vx.order}#{k}")
    return labels


def to_dot(graph: CoprimeGraph, comments: list[str] | None = None) -> str:
    """Deterministic DOT rendering with order labels."""
    lines = [f'graph "P({graph.source})" {{']
    for line in comments or []:
        lines.append(f"  // {line}")
    for vx, label in zip(graph.vertices, _vertex_labels(graph)):
        lines.append(f'  v{vx.vid} [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(graph: CoprimeGraph) -> dict:
    """JSON shape: {source, parent_order, vertices: [{id, order}], edges: [[u,v]]}."""
    return {
        "source": graph.source,
        "parent_order": graph.parent_order,
        "vertices": [{"id": vx.vid, "order": vx.order} for vx in graph.vertices],
        "edges": [[u, v] for u, v in graph.edges()],
    }
