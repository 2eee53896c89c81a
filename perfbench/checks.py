"""Output checks against references the benchmark computes itself.

Nothing here imports coprimegraph: every expected value comes from plain
integer arithmetic on the input, so a wrong answer from the package cannot
also make the reference wrong.  ``check(workload, item, rc, text)`` returns
None for a correct output and a short reason otherwise.
"""

from __future__ import annotations

import json
from math import gcd

from workloads import FROZEN_VERTEX_COUNTS, LATTICE_ORDERS


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def tau(n: int) -> int:
    out = 1
    for e in factorize(n).values():
        out *= e + 1
    return out


def sigma(n: int) -> int:
    out = 1
    for p, e in factorize(n).items():
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


# Closed forms for P(Z_n), whose vertices are the proper divisors 1 < d < n.


def cyclic_vertices(n: int) -> int:
    return tau(n) - 2


def cyclic_edges(n: int) -> int:
    """Unordered coprime pairs of proper divisors.

    Ordered coprime divisor pairs number prod(2e + 1): each prime goes to one
    side or neither.  Drop the 2 tau - 1 pairs that contain 1 (n pairs only
    with 1) and halve.
    """
    ordered = 1
    for e in factorize(n).values():
        ordered *= 2 * e + 1
    return (ordered - 2 * tau(n) + 1) // 2


def cyclic_alpha(n: int) -> int:
    """Largest prime class: max over p | n of #{d : 1 < d < n, p | d}."""
    t = tau(n)
    return max(t - t // (e + 1) - 1 for e in factorize(n).values())


def cyclic_omega(n: int) -> int:
    """Clique and chromatic number: the number of distinct primes of n."""
    return len(factorize(n))


def dihedral_vertices(n: int) -> int:
    """D_n of order 2n has tau(n) + sigma(n) subgroups, two of them trivial or whole."""
    return tau(n) + sigma(n) - 2


def _coprime_edges(orders: list[int]) -> set[tuple[int, int]]:
    return {
        (u, v)
        for u in range(len(orders))
        for v in range(u + 1, len(orders))
        if gcd(orders[u], orders[v]) == 1
    }


def _edge_set(raw) -> set[tuple[int, int]] | None:
    edges = set()
    for u, v in raw:
        if u == v:
            return None
        edges.add((min(u, v), max(u, v)))
    return edges if len(edges) == len(raw) else None


def check_cyclic(item, doc: dict) -> str | None:
    n = item.ref["n"]
    props = [d for d in divisors(n) if 1 < d < n]
    want = {
        "n_vertices": cyclic_vertices(n),
        "n_edges": cyclic_edges(n),
        "alpha": cyclic_alpha(n),
        "omega": cyclic_omega(n),
        "chi": cyclic_omega(n),
    }
    for key, value in want.items():
        if doc.get(key) != value:
            return f"{key} {doc.get(key)!r} != {value}"
    orders = doc.get("vertex_orders")
    if orders is None or sorted(orders) != props:
        return "vertex orders are not the proper divisors"
    planarity = doc.get("planarity", {})
    if planarity.get("planar") is not False:
        return "expected a nonplanar verdict"
    witness = planarity.get("witness") or {}
    kind = witness.get("kind")
    branch = witness.get("branch_vertices") or []
    if (kind, len(branch)) not in (("K5", 5), ("K33", 6)):
        return f"witness {kind!r} with {len(branch)} branch vertices"
    edges = witness.get("edges") or []
    if not edges or any(gcd(orders[u], orders[v]) != 1 for u, v in edges):
        return "witness edge is not an edge of P(Z_n)"
    return None


def check_lattice(item, doc: dict) -> str | None:
    spec = item.ref["spec"]
    order = LATTICE_ORDERS[spec]
    if doc.get("parent_order") != order:
        return f"parent order {doc.get('parent_order')!r} != {order}"
    vertices = doc.get("vertices") or []
    if spec.startswith("D:"):
        want_v = dihedral_vertices(int(spec[2:]))
    else:
        want_v = FROZEN_VERTEX_COUNTS[spec]
    if len(vertices) != want_v:
        return f"{len(vertices)} vertices != {want_v}"
    if [v.get("id") for v in vertices] != list(range(want_v)):
        return "vertex ids are not 0..V-1"
    orders = [v.get("order") for v in vertices]
    if any(not isinstance(o, int) or not 1 < o < order or order % o for o in orders):
        return "a vertex order is not a proper nontrivial divisor of |G|"
    if _edge_set(doc.get("edges") or []) != _coprime_edges(orders):
        return "edges are not exactly the coprime order pairs"
    return None


def check_catalog(item, doc: dict) -> str | None:
    summary = doc.get("summary", {})
    rows = doc.get("rows") or []
    want = 12 + item.ref["expect"]
    if summary.get("checks") != want or len(rows) != want:
        return f"{summary.get('checks')!r} checks != 12 auto + {item.ref['expect']} expected"
    if summary.get("failed") != 0 or summary.get("passed") != want:
        return f"{summary.get('failed')!r} checks failed"
    if summary.get("skipped_entries"):
        return "entry skipped"
    if any(r.get("group") != item.ref["spec"] or r.get("passed") is not True for r in rows):
        return "a row failed or names another group"
    return None


def check_embed(item, doc: dict) -> str | None:
    n = item.ref["n"]
    modulus = doc.get("modulus")
    labels_by_id = doc.get("labels") or {}
    labels = [labels_by_id.get(str(v)) for v in range(n)]
    if len(labels_by_id) != n or not isinstance(modulus, int):
        return "labels or modulus missing"
    if len(set(labels)) != n:
        return "labels are not distinct"
    if any(not isinstance(x, int) or not 1 < x < modulus or modulus % x for x in labels):
        return "a label is not a proper nontrivial divisor of the modulus"
    edges = set(map(tuple, item.ref["edges"]))
    for u in range(n):
        for v in range(u + 1, n):
            if (gcd(labels[u], labels[v]) == 1) != ((u, v) in edges):
                return f"coprimality of ({u},{v}) disagrees with the graph"
    return None


CHECKERS = {
    "catalog-verify": check_catalog,
    "lattice-export": check_lattice,
    "cyclic-exact": check_cyclic,
    "embed-roundtrip": check_embed,
}


def check(workload: str, item, rc, text: str) -> str | None:
    """Every item of every workload is expected to exit 0 with JSON on stdout."""
    if rc != 0:
        return f"exit code {rc!r}"
    try:
        doc = json.loads(text)
    except ValueError:
        return "output is not JSON"
    return CHECKERS[workload](item, doc)


def corrupt(workload: str, text: str) -> str:
    """One deliberately wrong copy of a correct output, for the vacuity probe."""
    doc = json.loads(text)
    if workload == "cyclic-exact":
        doc["alpha"] += 1
    elif workload == "lattice-export":
        edges = doc["edges"]
        doc["edges"] = edges[1:] if edges else [[0, 1]]
    elif workload == "catalog-verify":
        doc["rows"][0]["passed"] = False
        doc["summary"]["passed"] -= 1
        doc["summary"]["failed"] += 1
    elif workload == "embed-roundtrip":
        doc["labels"]["0"] = doc["modulus"] - 1
    return json.dumps(doc)
