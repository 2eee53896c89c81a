#!/usr/bin/env python3
"""Bootstrap helper for catalog maintenance.

Computes the full expectation block for each listed group spec and prints the
catalog JSON to stdout.  Values must be audited against the known
classifications before committing: this freezes current behaviour, it does not
certify it.
"""

from __future__ import annotations

import json
import sys

sys.path.insert(0, "src")

from coprimegraph.analysis import analyze
from coprimegraph.coprime import graph_for_spec
from coprimegraph.groups import DEFAULT_MAX_ORDER
from coprimegraph.theorems import expectation_values

# (spec, note) rows; ordering is the shipped catalog ordering
ENTRIES = [
    # prime-power orders: edgeless graphs
    ("Z:4", "cyclic p^2"),
    ("Z:8", "cyclic p^3"),
    ("Z:16", "cyclic p^4"),
    ("Z:27", "cyclic 3^3"),
    ("Z:32", "cyclic p^5"),
    ("Z:121", "cyclic 11^2"),
    ("Z:128", "cyclic 2^7"),
    ("D:4", "dihedral 2-group of order 8"),
    ("Q8", "quaternion group"),
    # two primes, squarefree
    ("Z:6", "cyclic pq"),
    ("Z:15", "cyclic pq"),
    ("Z:35", "cyclic pq"),
    ("S3", "nonabelian pq, star K_{1,3}"),
    ("D:5", "nonabelian pq, star K_{1,5}"),
    ("SD:7,3,2", "nonabelian pq, star K_{1,7}"),
    ("SD:11,5,3", "nonabelian pq, star K_{1,11}"),
    # order p^2 q
    ("Z:12", "cyclic p^2 q"),
    ("Z:18", "cyclic p^2 q"),
    ("X(Z:2,Z:6)", "noncyclic abelian p^2 q"),
    ("SD:3,4,2", "cyclic-by-cyclic, faithful quotient of order p"),
    ("SD:5,4,2", "cyclic-by-cyclic, faithful action of order p^2"),
    ("D12", "dihedral of order 12"),
    ("A4", "alternating group, complete bipartite K_{4,4}"),
    ("SD:25,2,24", "prime-square kernel, order 50"),
    ("SD:9,2,8", "dihedral of order 18"),
    ("X(SD:7,3,2,Z:3)", "pq-star with central prime factor, order 63"),
    ("X(D:5,Z:5)", "plane kernel, split action, order 50"),
    ("Z5Z5sZ2", "generalized dihedral over Z5xZ5"),
    ("Z5Z5sZ3", "plane kernel with irreducible action, order 75"),
    # order p^alpha q
    ("Z:24", "cyclic p^3 q"),
    ("Z:40", "cyclic p^3 q"),
    ("X(Z:5,Q8)", "prime times 2-group"),
    ("X(Z:3,D:4)", "prime times 2-group"),
    ("S4", "symmetric group on 4 points"),
    # order 36 = p^2 q^2
    ("Z:36", "cyclic p^2 q^2"),
    ("X(Z:12,Z:3)", "abelian Z_{p^2 q} x Z_q"),
    ("X(Z:6,Z:6)", "abelian Z_pq x Z_pq"),
    ("X(Z:2,Z:18)", "abelian Z_{q^2 p} x Z_p"),
    ("D:18", "dihedral of order 36"),
    ("S3xS3", "product of two S3"),
    ("Z3xA4", "prime times alternating"),
    ("Z6xS3", "Z6 times S3"),
    ("Z9sZ4", "Z9 inverted by Z4"),
    ("X(Z:3,SD:3,4,2)", "central prime times order-12 metacyclic"),
    ("Z3Z3sZ4", "plane with order-4 rotation"),
    ("Z2xZ3Z3sZ2", "Z2 times generalized dihedral of Z3xZ3"),
    ("Z2Z2sZ9", "Klein four twisted by Z9"),
    # order p^alpha q^2
    ("Z:72", "cyclic p^3 q^2"),
    ("SD:9,8,8", "Z9 inverted by Z8, order 72"),
    ("Z:144", "cyclic p^4 q^2"),
    ("X(Z:8,X(Z:3,Z:3))", "noncyclic Sylow square factor, order 72"),
    ("Z:100", "cyclic p^2 q^2"),
    ("SD:25,4,7", "Z25 twisted by Z4, order 100"),
    ("Z:216", "cyclic p^3 q^3"),
    # three and four primes
    ("Z:30", "cyclic pqr, unicyclic"),
    ("Z:105", "cyclic pqr, unicyclic"),
    ("Z:60", "cyclic p^2 qr"),
    ("Z:90", "cyclic p^2 qr"),
    ("Z:150", "cyclic p^2 qr"),
    ("D:15", "dihedral of order 30"),
    ("Z:210", "cyclic pqrs"),
    ("Z:420", "cyclic p^2 qrs"),
]


def main() -> None:
    out = []
    for spec, note in ENTRIES:
        graph = graph_for_spec(spec, DEFAULT_MAX_ORDER, exact_cap=96)
        rep = analyze(graph, exact_cap=96)
        expect = expectation_values(rep)
        out.append(
            {"spec": spec, "order": graph.parent_order, "note": note, "expect": expect}
        )
        print(f"{spec:18s} done", file=sys.stderr)
    print(json.dumps({"entries": out}, indent=1))


if __name__ == "__main__":
    main()
