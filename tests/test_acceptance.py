"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (tolerance zero), and the timing budget of every
criterion is enforced.

Two clauses of the original criteria were false as worded and are restated
here as true statements, each backed by a witness the test builds itself
from gcds rather than taken from the library's own verdict:

* criterion 8 originally read "P(Z_210) is planar" (the cyclic group on four
  distinct primes).  P(Z_210) contains a K33 subdivision: branch sets
  {3,5,7} and {6,10,14}, six direct edges 3-10, 3-14, 5-6, 5-14, 7-6, 7-10
  and three paths 3-35-6, 5-21-10, 7-15-14, every pair coprime.  Z:210 is
  now a nonplanar case, the gcd-built subdivision must pass
  verify_kuratowski_witness, and Z:30 (three distinct primes) takes its
  place among the planar cases;
* criterion 9 originally read "Z30 is K13-free".  Containment here is plain,
  not induced, and the order-2 vertex of P(Z_30) is adjacent to 3, 5 and 15
  (degree (1+1)(1+1)-1 = 3), which is a K13 subgraph.  The clause becomes
  three: "Z30 contains K13" (with the three neighbors recounted by gcd),
  "Z30 is K14-free", and "Z30 is induced-claw-free", the last checked by
  the has_induced_claw oracle in helpers.py.
"""

import time
from collections import Counter
from itertools import combinations
from math import gcd

import pytest

from coprimegraph.analysis import (
    INFINITE,
    analyze,
    chromatic_number,
    clique_number,
    contains_complete_bipartite,
    independence_number,
    is_planar,
    verify_kuratowski_witness,
    verify_rotation_system,
)
from coprimegraph.coprime import build, build_cyclic
from coprimegraph.embedding import SimpleGraph
from coprimegraph.groups import parse_group_spec
from coprimegraph.lattice import all_subgroups, pi
from coprimegraph.theorems import load_catalog
from helpers import (
    alpha_oracle,
    brute_force_subgroups,
    check_degree_theorem,
    check_embedding_theorem,
    chi_oracle,
    element_order_census,
    has_induced_claw,
    neighbour_sets,
    omega_oracle,
    small_graph_isomorphic,
)

BUDGETS = {1: 1, 2: 1, 3: 1, 4: 30, 5: 30, 6: 10, 7: 10, 8: 10, 9: 5, 10: 30, 11: 1, 12: 30}


def finish(number: int, label: str, started: float, failures: list[str]) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {number:2d} ({elapsed:6.2f}s < {BUDGETS[number]}s): {label}")
    assert elapsed < BUDGETS[number], f"criterion {number} exceeded its {BUDGETS[number]}s budget"
    assert not failures, f"criterion {number}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def catalog_reports():
    """Pipeline results for every shipped catalog entry of order <= 200."""
    out = {}
    for entry in load_catalog():
        if entry.order > 200:
            continue
        group = parse_group_spec(entry.spec)
        lattice = all_subgroups(group)
        graph = build(group)
        out[entry.spec] = (group, lattice, graph, analyze(graph, exact_cap=96))
    return out


def complete_bipartite_graph(m, n):
    return SimpleGraph.from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def test_criterion_01_a4_is_k44():
    t0 = time.perf_counter()
    failures = []
    graph = build(parse_group_spec("A4"))
    if not small_graph_isomorphic(graph, complete_bipartite_graph(4, 4)):
        failures.append("P(A4) is not isomorphic to K44")
    finish(1, "P(A4) isomorphic to K_{4,4}", t0, failures)


def test_criterion_02_d12_star_plus_three_isolated():
    t0 = time.perf_counter()
    failures = []
    rep = analyze(build(parse_group_spec("D12")))
    if (rep.shape.kind, rep.shape.args) != ("Star", (10,)):
        failures.append(f"core is {rep.shape.kind}{rep.shape.args}, wanted Star(10)")
    if rep.shape.isolated != 3:
        failures.append(f"isolated count {rep.shape.isolated} != 3")
    finish(2, "P(D12) = K_{1,10} plus 3 isolated vertices", t0, failures)


def test_criterion_03_z36_k22_plus_three_isolated_unicyclic():
    t0 = time.perf_counter()
    failures = []
    rep = analyze(build_cyclic(36))
    if (rep.shape.kind, rep.shape.args) != ("CompleteBipartite", (2, 2)):
        failures.append(f"core is {rep.shape.kind}{rep.shape.args}, wanted K_{{2,2}}")
    if rep.shape.isolated != 3:
        failures.append(f"isolated count {rep.shape.isolated} != 3")
    if not rep.predicates["unicyclic"]:
        failures.append("not unicyclic")
    finish(3, "P(Z36) = K_{2,2} plus 3 isolated, unicyclic", t0, failures)


def test_criterion_04_degree_formula_to_1000():
    t0 = time.perf_counter()
    report = check_degree_theorem(1000)
    failures = [f"{r.group}: {r.computed}" for r in report.failures()]
    finish(4, "degree formula matches counted degrees, composite n <= 1000", t0, failures)


def test_criterion_05_catalog_girth_and_shape(catalog_reports):
    t0 = time.perf_counter()
    failures = []
    if len(catalog_reports) < 30:
        failures.append(f"catalog has only {len(catalog_reports)} groups of order <= 200")
    for spec, (_, _, _, rep) in catalog_reports.items():
        if rep.girth not in (3, 4, INFINITE):
            failures.append(f"{spec}: girth {rep.girth}")
        if rep.predicates["cycle"] or rep.shape.kind == "Cycle":
            failures.append(f"{spec}: classified as a cycle")
    finish(5, "catalog-wide girth in {3,4,inf} and shape never a cycle", t0, failures)


def test_criterion_06_connectivity_criterion(catalog_reports):
    t0 = time.perf_counter()
    failures = []
    for spec, (group, lattice, graph, rep) in catalog_reports.items():
        full = [order for order in graph.orders if pi(order) == graph.parent_primes()]
        if rep.is_connected != (not full):
            failures.append(f"{spec}: connectivity mismatch")
        if rep.is_connected and rep.diameter not in (1, 2, 3):
            failures.append(f"{spec}: connected with diameter {rep.diameter}")
    for n, want in ((6, 1), (30, 3)):
        diam = analyze(build_cyclic(n)).diameter
        if diam != want:
            failures.append(f"diam(P(Z{n})) = {diam} != {want}")
    if analyze(build(parse_group_spec("A4"))).diameter != 2:
        failures.append("diam(P(A4)) != 2")
    finish(6, "connectivity criterion and diameter witnesses 1/2/3", t0, failures)


def test_criterion_07_clique_chromatic_prime_count(catalog_reports):
    t0 = time.perf_counter()
    failures = []
    for spec, (group, _, graph, rep) in catalog_reports.items():
        k = len(pi(group.order))
        if not (rep.omega == k == rep.chi):
            failures.append(f"{spec}: omega={rep.omega} chi={rep.chi} k={k}")
        if rep.is_bipartite != (k <= 2):
            failures.append(f"{spec}: bipartite={rep.is_bipartite} with k={k}")
    finish(7, "omega = prime count = chi, bipartite iff k <= 2", t0, failures)


# A K33 subdivision of P(Z_210), written as paths between the branch sets
# {3, 5, 7} and {6, 10, 14}; vertices are named by their subgroup order.
Z210_K33_PATHS = [
    (3, 10), (3, 14), (5, 6), (5, 14), (7, 6), (7, 10),
    (3, 35, 6), (5, 21, 10), (7, 15, 14),
]


def test_criterion_08_planarity_certificates():
    t0 = time.perf_counter()
    failures = []
    for n in (30, 60):
        graph = build_cyclic(n)
        cert = is_planar(graph)
        if not cert.planar:
            failures.append(
                f"P(Z{n}) expected planar, got a verified {cert.witness_kind} subdivision"
            )
        else:
            rotation = {v: list(r) for v, r in enumerate(cert.rotation)}
            if not verify_rotation_system(graph, rotation):
                failures.append(f"P(Z{n}): embedding failed the Euler check")
    z210 = build_cyclic(210)
    vid = {order: v for v, order in enumerate(z210.orders)}
    witness = []
    for path in Z210_K33_PATHS:
        for a, b in zip(path, path[1:]):
            if gcd(a, b) != 1:
                failures.append(f"Z210 witness edge {a}-{b} is not coprime")
            witness.append((vid[a], vid[b]))
    branch = tuple(sorted(vid[o] for o in (3, 5, 7, 6, 10, 14)))
    if verify_kuratowski_witness(z210, witness) != ("K33", branch):
        failures.append("P(Z210): gcd-built K33 subdivision was refused")
    nonplanar_cases = [
        ("Z:210", z210),
        ("Z:420", build_cyclic(420)),
        ("S3xS3", build(parse_group_spec("S3xS3"))),
        ("Z3xA4", build(parse_group_spec("Z3xA4"))),
        ("Z3Z3sZ4", build(parse_group_spec("Z3Z3sZ4"))),
    ]
    for name, graph in nonplanar_cases:
        cert = is_planar(graph)
        if cert.planar:
            failures.append(f"P({name}) expected nonplanar")
        elif verify_kuratowski_witness(graph, list(cert.witness_edges)) is None:
            failures.append(f"P({name}): witness failed subdivision validation")
    finish(8, "planarity verdicts with verified certificates", t0, failures)


def test_criterion_09_forbidden_subgraph_clauses():
    t0 = time.perf_counter()
    failures = []
    clauses = [
        ("D12 is K22-free", not contains_complete_bipartite(build(parse_group_spec("D12")), 2, 2)),
        ("D12 contains K14", contains_complete_bipartite(build(parse_group_spec("D12")), 1, 4)),
        ("S3 is K14-free", not contains_complete_bipartite(build(parse_group_spec("S3")), 1, 4)),
        ("Z6 is K12-free", not contains_complete_bipartite(build_cyclic(6), 1, 2)),
        ("Z30 is K22-free", not contains_complete_bipartite(build_cyclic(30), 2, 2)),
    ]
    z30 = build_cyclic(30)
    (two,) = [v for v, order in enumerate(z30.orders) if order == 2]
    coprime_to_two = [order for order in z30.orders if gcd(2, order) == 1]
    z30_sets = neighbour_sets(z30.masks)
    neighbors = sorted(z30.orders[v] for v in z30_sets[two])
    clauses += [
        ("Z30 contains K13", contains_complete_bipartite(z30, 1, 3)),
        ("Z30 order-2 vertex has neighbors 3, 5, 15",
         neighbors == coprime_to_two == [3, 5, 15]),
        ("Z30 is K14-free", not contains_complete_bipartite(z30, 1, 4)),
        ("Z30 is induced-claw-free", not has_induced_claw([set(s) for s in z30_sets])),
    ]
    for label, ok in clauses:
        if not ok:
            failures.append(label + " does not hold")
    finish(9, "forbidden-subgraph witnesses", t0, failures)


def test_criterion_10_embedding_theorem():
    t0 = time.perf_counter()
    report = check_embedding_theorem(trials=200, n_max_vertices=12)
    failures = [f"{r.group}: {r.computed} failures" for r in report.failures()]
    finish(10, "embed+verify on all graphs <= 5 vertices and 200 random", t0, failures)


def test_criterion_11_isomorphism_invariance_and_converse_failure():
    t0 = time.perf_counter()
    failures = []
    gz = build_cyclic(32)
    q8 = parse_group_spec("Q8")
    gq = build(q8)
    empty4 = SimpleGraph.from_edges(4, [])
    if not small_graph_isomorphic(gz, gq):
        failures.append("P(Z32) not isomorphic to P(Q8)")
    if not small_graph_isomorphic(gz, empty4):
        failures.append("P(Z32) not the edgeless graph on 4 vertices")
    z32 = parse_group_spec("Z:32")
    if element_order_census(z32) == element_order_census(q8):
        failures.append("Z32 and Q8 share an element-order census")
    finish(11, "P(Z32) = P(Q8) = empty 4-vertex graph, groups distinct", t0, failures)


def test_criterion_12_oracle_equivalence(catalog_reports):
    t0 = time.perf_counter()
    failures = []
    small = {
        spec: trip for spec, trip in catalog_reports.items() if trip[0].order <= 24
    }
    if len(small) < 10:
        failures.append("fewer than 10 catalog groups of order <= 24")
    for spec, (group, lattice, _, _) in small.items():
        want = brute_force_subgroups(group)
        if lattice.all != want or lattice.counts_by_order != Counter(map(len, want)):
            failures.append(f"{spec}: lattice differs from brute-force closure")
    graphs = []
    for n in (4, 8, 12, 16, 30, 36, 60):
        graphs.append([set(s) for s in neighbour_sets(build_cyclic(n).masks)])
    import random

    rng = random.Random(5150)
    for n in (6, 9, 12):
        for p in (0.3, 0.6):
            edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
            adj = [set() for _ in range(n)]
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            graphs.append(adj)
    for adj in graphs:
        assert len(adj) <= 12
        if independence_number(adj) != alpha_oracle(adj):
            failures.append("independence number mismatch")
        if clique_number(adj) != omega_oracle(adj):
            failures.append("clique number mismatch")
        if chromatic_number(adj) != chi_oracle(adj):
            failures.append("chromatic number mismatch")
    finish(12, "lattice and solver results match exhaustive oracles", t0, failures)
