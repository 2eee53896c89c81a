"""The verification suite: auto checks, catalog expectations, theorem drivers."""

import concurrent.futures
import json
from itertools import combinations
from math import gcd

import networkx as nx
import pytest

from coprimegraph import theorems
from coprimegraph.analysis import analyze
from coprimegraph.coprime import CoprimeGraph, GraphVertex, build
from coprimegraph.groups import make_cyclic, parse_group_spec
from coprimegraph.lattice import pi
from coprimegraph.theorems import (
    AUTO_CHECKS,
    CatalogEntry,
    EXPECTATION_KEYS,
    check_connectivity_criterion,
    check_degree_theorem,
    check_embedding_theorem,
    default_catalog_path,
    evaluate_entry,
    load_catalog,
    run_catalog,
)


def test_shipped_catalog_loads_and_is_wellformed():
    entries = load_catalog()
    assert len(entries) >= 30
    in_range = [e for e in entries if e.order is not None and e.order <= 200]
    assert len(in_range) >= 30
    for e in entries:
        assert e.order is not None
        for key in e.expect:
            assert key in EXPECTATION_KEYS, f"unknown expectation key {key}"


def test_catalog_spans_paper_families():
    specs = {e.spec for e in load_catalog()}
    required = {
        "Q8", "A4", "D12", "S3", "S3xS3", "Z3xA4", "Z6xS3", "Z9sZ4",
        "Z3Z3sZ4", "Z2Z2sZ9", "Z2xZ3Z3sZ2", "Z5Z5sZ3", "Z5Z5sZ2",
        "SD:7,3,2", "SD:3,4,2", "SD:5,4,2", "SD:25,2,24", "SD:9,2,8",
        "X(SD:7,3,2,Z:3)", "Z:30", "Z:36", "Z:60", "Z:210",
    }
    assert required <= specs


def test_full_catalog_passes():
    report = run_catalog(max_order=200)
    assert report.ok(), report.render_table()
    assert len(report.rows) > 1000


def test_catalog_above_200_also_passes():
    report = run_catalog(max_order=420)
    assert report.ok(), report.render_table()
    assert report.skipped == []


def test_entries_above_cap_are_skipped():
    report = run_catalog(max_order=50)
    assert "Z:210" in report.skipped
    assert report.ok()


def test_wrong_expectation_fails_and_names_the_row():
    entry = CatalogEntry(spec="Z:6", order=6, expect={"edges": 99})
    report = run_catalog(catalog=[entry])
    assert not report.ok()
    bad = report.failures()
    assert len(bad) == 1
    assert bad[0].group == "Z:6" and bad[0].check_id == "edges"
    assert bad[0].expected == 99 and bad[0].computed == 1


def test_unknown_expectation_key_fails():
    entry = CatalogEntry(spec="Z:6", order=6, expect={"no_such_key": 1})
    report = run_catalog(catalog=[entry])
    assert not report.ok()


def test_build_failure_is_a_row_not_an_abort():
    report = run_catalog(
        catalog=[CatalogEntry(spec="Z:7", order=7), CatalogEntry(spec="Z:6", order=6)]
    )
    rows_by_group = {}
    for r in report.rows:
        rows_by_group.setdefault(r.group, []).append(r)
    assert not any(r.passed for r in rows_by_group["Z:7"])
    assert all(r.passed for r in rows_by_group["Z:6"])


def test_auto_checks_cover_the_structural_statements():
    assert {
        "girth-in-3-4-inf",
        "whole-graph-not-a-cycle",
        "clique-eq-prime-count-eq-chromatic",
        "bipartite-iff-at-most-2-primes",
        "edgeless-iff-prime-power",
        "connected-iff-no-full-support-subgroup",
        "connected-diameter-in-1-2-3",
        "full-support-vertices-isolated",
        "independence-eq-max-intersecting-supports",
        "smallest-prime-coloring-proper",
    } <= set(AUTO_CHECKS)


def _rest_is_one_block(graph) -> bool:
    """The slow path: every full-support vertex is isolated and the induced
    subgraph on the other vertices has at most one component."""
    full = {v.vid for v in graph.vertices if pi(v.order) == graph.parent_primes()}
    if any(graph.degree(v) for v in full):
        return False
    rest = nx.Graph()
    rest.add_nodes_from(v for v in range(graph.n_vertices) if v not in full)
    rest.add_edges_from((u, v) for u, v in graph.edges() if u in rest and v in rest)
    return nx.number_connected_components(rest) <= 1


def _hand_graph(parent_order, orders, edges):
    adj = [set() for _ in orders]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    vertices = [GraphVertex(vid, order) for vid, order in enumerate(orders)]
    return CoprimeGraph("hand", parent_order, vertices, [frozenset(s) for s in adj])


def test_full_support_isolation_check_matches_induced_subgraph_oracle():
    graphs = [build(parse_group_spec(spec)) for spec in ("Z:60", "Z:30", "S3xS3", "D:6", "Z:8")]
    graphs += [
        _hand_graph(30, [30, 2, 3], []),  # rest {2, 3} is two blocks
        _hand_graph(30, [30, 2, 3], [(1, 2)]),
        _hand_graph(30, [30, 2, 3, 6, 5], [(1, 2), (3, 4)]),  # two edges, two blocks
        _hand_graph(30, [30, 5], [(0, 1)]),  # full-support vertex not isolated
        _hand_graph(30, [30, 30], []),  # nothing but full-support vertices
    ]
    verdicts = []
    for graph in graphs:
        got = AUTO_CHECKS["full-support-vertices-isolated"](graph, analyze(graph))
        assert got == _rest_is_one_block(graph), graph.source
        verdicts.append(got)
    assert verdicts == [True] * 5 + [False, True, False, False, True]


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that runs each call in process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_catalog_builds_entries_under_its_max_order(monkeypatch, jobs):
    seen = []
    monkeypatch.setattr(theorems, "evaluate_entry", lambda entry, *args: seen.append(args) or [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    entries = [CatalogEntry("D:1100", order=2200), CatalogEntry("Z:6", order=6)]
    report = run_catalog(max_order=4096, catalog=entries, exact_cap=80, jobs=jobs)
    assert report.skipped == []
    assert seen == [(4096, 80), (4096, 80)]
    seen.clear()
    run_catalog(max_order=200, catalog=entries[1:], jobs=jobs)
    assert seen == [(2048, 96)]


def test_parallel_jobs_match_serial():
    entries = load_catalog()[:8]
    serial = run_catalog(catalog=entries)
    parallel = run_catalog(catalog=entries, jobs=2)
    key = lambda rows: sorted((r.group, r.check_id, r.passed) for r in rows)
    assert key(serial.rows) == key(parallel.rows)


def test_planarity_matches_sylow_inspection_for_cube_times_square_orders():
    """For |G| = p^a q^2 (a >= 3), planarity coincides with the q-Sylow
    subgroup being unique and cyclic, read off the lattice counts."""
    from coprimegraph.analysis import analyze
    from coprimegraph.coprime import build
    from coprimegraph.lattice import all_subgroups, factorize

    cases = ["Z:72", "SD:9,8,8", "Z:144", "X(Z:8,X(Z:3,Z:3))"]
    for spec in cases:
        group = parse_group_spec(spec)
        fact = dict(factorize(group.order))
        q = next(p for p, e in fact.items() if e == 2)
        lattice = all_subgroups(group)
        unique_cyclic_sylow = (
            lattice.counts_by_order.get(q * q, 0) == 1
            and lattice.counts_by_order.get(q, 0) == 1
        )
        planar = analyze(build(group, lattice)).planarity.planar
        assert planar == unique_cyclic_sylow, spec


def test_connectivity_criterion_witnesses():
    # connected with no full-support subgroup
    assert check_connectivity_criterion(make_cyclic(30))
    # disconnected because the order-30 subgroup has the full prime set
    assert check_connectivity_criterion(make_cyclic(60))
    # totally disconnected prime power
    assert check_connectivity_criterion(make_cyclic(8))
    # single-vertex graph: the lone subgroup of Z_4 carries the full prime set
    assert check_connectivity_criterion(make_cyclic(4))
    assert check_connectivity_criterion(parse_group_spec("A4"))


def test_degree_theorem_driver():
    report = check_degree_theorem(100)
    assert report.ok()
    # 97 integers in 4..100 minus the 23 primes in that range
    assert len(report.rows) == 74


def test_degree_theorem_row_for_36():
    report = check_degree_theorem(40)
    row = next(r for r in report.rows if r.group == "Z36")
    assert row.passed


def test_embedding_theorem_driver_small():
    report = check_embedding_theorem(trials=20, n_max_vertices=9)
    assert report.ok()
    # exhaustive rows for 1..5 vertices plus one random batch row
    assert len(report.rows) == 6
    exhaustive = {r.group: r for r in report.rows[:5]}
    assert "all-1024-graphs-on-5-vertices" in exhaustive


@pytest.mark.parametrize(
    "bad,reason",
    [
        ({"note": "no spec"}, "'spec'"),
        ({"spec": 36}, "'spec'"),
        ({"spec": "Z:36", "order": True}, "'order'"),
        ({"spec": "Z:36", "note": 1}, "'note'"),
        ({"spec": "Z:36", "expect": []}, "'expect'"),
        ("Z:36", "not an object"),
    ],
)
def test_load_catalog_names_the_malformed_entry(tmp_path, bad, reason):
    path = tmp_path / "catalog.json"
    good = {"spec": "Z:6", "order": None, "note": "", "expect": {}}
    path.write_text(json.dumps({"entries": [good, good, bad]}))
    with pytest.raises(ValueError, match="catalog entry 2") as info:
        load_catalog(path)
    assert reason in str(info.value)


@pytest.mark.parametrize("payload", [{"entries": {}}, {"specs": []}, "Z:6", 3])
def test_load_catalog_rejects_a_file_without_an_entry_list(tmp_path, payload):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="'entries' list"):
        load_catalog(path)


def test_default_catalog_path_exists():
    assert default_catalog_path().exists()
    payload = json.loads(default_catalog_path().read_text())
    assert "entries" in payload


def test_evaluate_entry_row_shape():
    rows = evaluate_entry(CatalogEntry(spec="Z:36", order=36, expect={"girth": 4}))
    assert all(r.group == "Z:36" for r in rows)
    girth_row = next(r for r in rows if r.check_id == "girth")
    assert girth_row.passed and girth_row.computed == 4


@pytest.mark.parametrize("spec", ["Z:900", "X(Z:4,X(Z:9,Z:25))"])
def test_alpha_check_holds_where_alpha_exceeds_every_prime_class(spec):
    # the proper divisors of 900 divisible by at least two of 2, 3, 5 meet
    # pairwise in a prime, so they are an independent set of P(Z_900)
    divisors = [d for d in range(2, 900) if 900 % d == 0]
    witness = [d for d in divisors if sum(d % p == 0 for p in (2, 3, 5)) >= 2]
    assert len(witness) == 19
    assert all(gcd(a, b) > 1 for a, b in combinations(witness, 2))
    graph = build(parse_group_spec(spec))
    assert sorted(graph.orders()) == divisors
    assert max(sum(o % p == 0 for o in graph.orders()) for p in (2, 3, 5)) == 17
    rows = evaluate_entry(CatalogEntry(spec, 900, expect={"alpha": 19}))
    assert len(rows) == len(AUTO_CHECKS) + 1
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]
