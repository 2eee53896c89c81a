"""Realize any simple graph as an induced subgraph of a cyclic coprime graph.

The construction assigns one prime per maximal independent set, labels each
vertex with a product of powers of the primes of the sets containing it, and
takes the modulus to be the lcm of the labels.  Adjacency then matches
coprimality of labels exactly: two vertices are non-adjacent iff they share a
maximal independent set iff their labels share a prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .errors import CertificateError, EdgeListError, MisCapExceeded


@dataclass(frozen=True)
class SimpleGraph:
    """A simple undirected graph on ids 0..n-1 with normalized edge pairs."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(n_vertices: int, edges) -> "SimpleGraph":
        norm = set()
        for u, v in edges:
            if u == v:
                raise EdgeListError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise EdgeListError(f"edge ({u},{v}) out of range 0..{n_vertices - 1}")
            norm.add((min(u, v), max(u, v)))
        return SimpleGraph(n_vertices=n_vertices, edges=frozenset(norm))

    @cached_property
    def _adjacency(self) -> list[set[int]]:
        return self.adjacency_sets()

    def neighbors(self, v: int) -> set[int]:
        return set(self._adjacency[v])

    def adjacency_sets(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Vertex labels and modulus realizing a graph inside P(Z_modulus).

    Label supports equal the primes of the maximal independent sets containing
    the vertex, so gcd(label(u), label(v)) = 1 exactly on edges.
    """

    mis: tuple[tuple[int, ...], ...]
    prime_assignment: tuple[int, ...]
    labels: tuple[int, ...]
    modulus: int

    def to_json_dict(self) -> dict:
        return {
            "labels": {str(v): label for v, label in enumerate(self.labels)},
            "modulus": self.modulus,
            "mis": [list(s) for s in self.mis],
            "prime_assignment": {
                str(i): p for i, p in enumerate(self.prime_assignment)
            },
        }


def first_primes(k: int) -> list[int]:
    primes: list[int] = []
    cand = 2
    while len(primes) < k:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


DEFAULT_MIS_CAP = 20


def maximal_independent_sets(g: SimpleGraph, cap: int = DEFAULT_MIS_CAP) -> list[tuple[int, ...]]:
    """All maximal independent sets, sorted lexicographically.

    Bron-Kerbosch with pivoting on the complement graph; the count can be
    exponential, hence the vertex cap.
    """
    n = g.n_vertices
    if n > cap:
        raise MisCapExceeded(f"{n} vertices exceed the enumeration cap {cap}")
    if n == 0:
        return []
    adj = g.adjacency_sets()
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


def embed(g: SimpleGraph, cap: int = DEFAULT_MIS_CAP) -> EmbeddingCertificate:
    """Build and self-verify an embedding certificate for a simple graph.

    Vertices sharing the same set of maximal independent sets are told apart
    by exponents alone: the r-th such vertex (by id) raises every prime of its
    support to r+1.  Keeping supports intact is what preserves the
    adjacency-coprimality equivalence.  If the largest label equals the lcm,
    the modulus is multiplied by the first assigned prime so every label is a
    proper divisor.
    """
    if g.n_vertices < 1:
        raise ValueError("embedding needs at least one vertex")
    mis = maximal_independent_sets(g, cap)
    primes = first_primes(len(mis))
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
    cert = EmbeddingCertificate(
        mis=tuple(mis),
        prime_assignment=tuple(primes),
        labels=tuple(labels),
        modulus=modulus,
    )
    if not verify_embedding(g, cert):
        raise CertificateError(f"embedding certificate failed self-verification: {cert}")
    return cert


def verify_embedding(g: SimpleGraph, cert: EmbeddingCertificate) -> bool:
    """Check the certificate against the defining property of the graph.

    Labels must be pairwise distinct proper nontrivial divisors of the
    modulus (hence vertices of the cyclic coprime graph), with
    gcd(label(u), label(v)) = 1 exactly when (u, v) is an edge.
    """
    labels = cert.labels
    if len(labels) != g.n_vertices:
        return False
    if len(set(labels)) != len(labels):
        return False
    for label in labels:
        if not (1 < label < cert.modulus) or cert.modulus % label != 0:
            return False
    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            coprime = gcd(labels[u], labels[v]) == 1
            if coprime != g.has_edge(u, v):
                return False
    return True


def parse_edge_list(text: str | bytes) -> SimpleGraph:
    """Parse the edge-list format: one "u v" pair per line, 0-indexed.

    Blank lines and '#' comments are ignored; an optional header "n <count>"
    fixes the vertex count, which otherwise is inferred as max id + 1.
    Bytes are read as UTF-8.
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
            if len(parts) != 2 or not parts[1].isdecimal():
                raise EdgeListError(f"line {lineno}: header must be 'n <count>'")
            declared = int(parts[1])
            continue
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: expected integers, got {raw!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: vertex ids must be nonnegative")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = declared if declared is not None else max_id + 1
    if n < 1:
        raise EdgeListError("edge list defines no vertices")
    return SimpleGraph.from_edges(n, edges)
