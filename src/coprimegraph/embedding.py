"""Realize any simple graph as an induced subgraph of a cyclic coprime graph.

The construction assigns one prime per maximal independent set, labels each
vertex with a product of powers of the primes of the sets containing it, and
takes the modulus to be the lcm of the labels.  Adjacency then matches
coprimality of labels exactly: two vertices are non-adjacent iff they share a
maximal independent set iff their labels share a prime.

A ``SimpleGraph`` keeps one adjacency, its bitmask ``masks``, built from its
edges on first use: the independent-set listing and the certificate check
read those rows, and so does ``analysis``.  ``embed`` checks the vertex cap
before they are built, so a header of 10^9 vertices is refused without
allocating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import takewhile
from math import gcd, lcm
from operator import eq

from .errors import CertificateError, EdgeListError, MisCapExceeded, clip
from .groups import ascii_int


@dataclass(frozen=True)
class SimpleGraph:
    """A simple undirected graph on ids 0..n-1 with normalized edge pairs."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(n_vertices: int, edges) -> "SimpleGraph":
        """Each pair as (low, high), checked once over the whole set; the
        first loop or out-of-range pair in the given order is the one reported."""
        edges = list(edges)
        norm = {(u, v) if u < v else (v, u) for u, v in edges}
        if norm:
            low, high = zip(*norm)
            if min(low) < 0 or max(high) >= n_vertices or any(map(eq, low, high)):
                for u, v in edges:
                    if u == v:
                        raise EdgeListError(f"loop at vertex {clip(u)} is not allowed")
                    if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                        raise EdgeListError(
                            f"edge ({clip(u)},{clip(v)}) out of range 0..{clip(n_vertices - 1)}"
                        )
        return SimpleGraph(n_vertices=n_vertices, edges=frozenset(norm))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Each vertex's neighbours as a bitmask, built once per graph."""
        rows = [0] * self.n_vertices
        for a, b in self.edges:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return tuple(rows)


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


_PRIMES = [2, 3]


def first_primes(k: int) -> list[int]:
    """The first k primes, from one list that grows by trial division."""
    cand = _PRIMES[-1]
    while len(_PRIMES) < k:
        cand += 2
        if all(cand % p for p in takewhile(lambda p: p * p <= cand, _PRIMES)):
            _PRIMES.append(cand)
    return _PRIMES[:k]


DEFAULT_MIS_CAP = 20


def maximal_independent_sets(g: SimpleGraph, cap: int = DEFAULT_MIS_CAP) -> list[tuple[int, ...]]:
    """All maximal independent sets, sorted lexicographically.

    Bron-Kerbosch with pivoting on the complement graph; the count can be
    exponential, hence the vertex cap.  P and X are bitmasks, and R is the
    tuple of the vertices added on the way down, so a leaf is already its
    set's members.
    """
    n = g.n_vertices
    if n > cap:
        raise MisCapExceeded(f"{clip(n)} vertices exceed the enumeration cap {cap}")
    if n == 0:
        return []
    full = (1 << n) - 1
    # non-adjacency masks: cliques there are independent sets here
    non = [full ^ row ^ 1 << v for v, row in enumerate(g.masks)]
    out: list[tuple[int, ...]] = []
    stack = [((), full, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(tuple(sorted(r)))
            continue
        # the first vertex of p | x with the most candidates among its
        # non-neighbours, or the first whose count reaches its own bound:
        # |p| - 1 for a vertex of p, |p| for one of x.  Any pivot in p | x
        # lists the same sets, and the listing is sorted.
        pool = p | x
        size = p.bit_count()
        best = -1
        while pool:
            low = pool & -pool
            v = low.bit_length() - 1
            count = (p & non[v]).bit_count()
            if count > best:
                best, pivot = count, v
                if count == size - (p & low != 0):
                    break
            pool ^= low
        cand = p & ~non[pivot]
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            stack.append((r + (v,), p & non[v], x & non[v]))
            p &= ~bit
            x |= bit
            cand ^= bit
    out.sort()
    return out


def embed(g: SimpleGraph, cap: int = DEFAULT_MIS_CAP) -> EmbeddingCertificate:
    """Build and self-verify an embedding certificate for a simple graph.

    Each label starts as the product of the primes of the sets holding the
    vertex, multiplied out one set at a time.  The primes are distinct, so
    two vertices have the same support exactly when these products are equal.
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
    labels = [1] * g.n_vertices  # each vertex's square-free product of its sets' primes
    for p, s in zip(primes, mis):
        for v in s:
            labels[v] *= p
    rank: dict[int, int] = {}
    for v, label in enumerate(labels):
        if label == 1:
            raise CertificateError(f"vertex {v} missed by all maximal independent sets")
        r = rank.get(label, 0)
        rank[label] = r + 1
        if r:
            labels[v] = label ** (r + 1)
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
    for u, row in enumerate(g.masks):
        label = labels[u]
        for v in range(u + 1, g.n_vertices):
            if (gcd(label, labels[v]) == 1) != (row >> v & 1):
                return False
    return True


def parse_edge_list(text: str | bytes) -> SimpleGraph:
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
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
    n = declared if declared is not None else max(map(max, edges), default=-1) + 1
    if n < 1:
        raise EdgeListError("edge list defines no vertices")
    return SimpleGraph.from_edges(n, edges)
