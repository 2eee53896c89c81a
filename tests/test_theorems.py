"""The verification suite: auto checks, catalog expectations, theorem drivers."""

import concurrent.futures
import json
from itertools import combinations
from math import gcd, prod

import networkx as nx
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from coprimegraph import coprime, groups, theorems
from coprimegraph.analysis import FORBIDDEN_PATTERNS, analyze, vertex_report
from coprimegraph.coprime import CoprimeGraph, build, build_cyclic, graph_for_spec
from coprimegraph.groups import make_cyclic, parse_group_spec
from coprimegraph.errors import OrderCapExceeded
from coprimegraph.lattice import is_prime, members, pi
from coprimegraph.theorems import (
    AUTO_CHECKS,
    DEFAULT_CATALOG_EXACT_CAP,
    DEFAULT_CATALOG_MAX_ORDER,
    MAX_ALPHA_SUPPORTS,
    CatalogEntry,
    CheckRow,
    EXPECTATION_KEYS,
    VerificationReport,
    _checked_entry,
    _max_intersecting_support_weight,
    _max_weight_clique,
    default_catalog_path,
    evaluate_entry,
    load_catalog,
    run_catalog,
)
from helpers import (
    HandGraph,
    check_connectivity_criterion,
    check_degree_theorem,
    check_embedding_theorem,
    enumerated_intersecting_support_weight,
    neighbour_sets,
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
    full = {v for v, order in enumerate(graph.orders) if pi(order) == graph.parent_primes()}
    if any(graph.degree(v) for v in full):
        return False
    rest = [v for v in range(len(graph.orders)) if v not in full]
    induced = nx.Graph()
    induced.add_nodes_from(rest)
    induced.add_edges_from((u, v) for u in rest for v in members(graph.masks[u]) if v not in full)
    return nx.number_connected_components(induced) <= 1


def test_full_support_isolation_check_matches_induced_subgraph_oracle():
    built = [build(parse_group_spec(spec)) for spec in ("Z:60", "Z:30", "S3xS3", "D:6", "Z:8")]
    # rows no coprime graph has, analysed as plain neighbour sets
    hand = [
        HandGraph(30, [30, 2, 3], []),  # rest {2, 3} is two blocks
        HandGraph(30, [30, 2, 3], [(1, 2)]),
        HandGraph(30, [30, 2, 3, 6, 5], [(1, 2), (3, 4)]),  # two edges, two blocks
        HandGraph(30, [30, 5], [(0, 1)]),  # full-support vertex not isolated
        HandGraph(30, [30, 30], []),  # nothing but full-support vertices
    ]
    cases = [(g, analyze(g)) for g in built] + [(g, analyze(neighbour_sets(g.masks))) for g in hand]
    verdicts = []
    for i, (graph, rep) in enumerate(cases):
        got = AUTO_CHECKS["full-support-vertices-isolated"](graph, rep)
        assert got == _rest_is_one_block(graph), i
        verdicts.append(got)
    assert verdicts == [True] * 5 + [False, True, False, False, True]


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that runs each call in process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def _count_parses(monkeypatch):
    """The specs ``parse_group_spec`` is called with from now on, in
    ``theorems`` and in ``coprime``, in call order."""
    calls = []
    for module in (theorems, coprime):
        def counting(*args, parse=module.parse_group_spec):
            calls.append(args[0])
            return parse(*args)

        monkeypatch.setattr(module, "parse_group_spec", counting)
    return calls


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_catalog_builds_entries_under_its_max_order(monkeypatch, jobs):
    seen = []
    # the build bound and the exact cap; the serial path also hands over the
    # group it built to read an order, None for these declared entries
    monkeypatch.setattr(theorems, "evaluate_entry", lambda entry, *args: seen.append(args[:2]) or [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    entries = [CatalogEntry("D:1100", order=2200), CatalogEntry("Z:6", order=6)]
    report = run_catalog(max_order=4096, catalog=entries, exact_cap=80, jobs=jobs)
    assert report.skipped == []
    assert seen == [(4096, 80), (4096, 80)]
    seen.clear()
    run_catalog(max_order=200, catalog=entries[1:], jobs=jobs)
    assert seen == [(2048, 96)]


def test_run_catalog_builds_an_order_less_perm_entry_once(monkeypatch):
    # the group built to read the entry's order is the one its checks run on
    calls = _count_parses(monkeypatch)
    spec = "PERM:4:[0 1 2 3],[0 1]"
    report = run_catalog(max_order=24, catalog=[CatalogEntry(spec)])
    assert calls == [spec]
    assert report.skipped == []
    assert len(report.rows) == len(AUTO_CHECKS)
    assert all(r.passed for r in report.rows), [r for r in report.rows if not r.passed]


def test_run_catalog_with_jobs_builds_a_lone_order_less_entry_once(monkeypatch):
    # with one entry selected the check runs in this process, on the group
    # built to read its order
    calls = _count_parses(monkeypatch)
    spec = "PERM:4:[0 1 2 3],[0 1]"
    report = run_catalog(catalog=[CatalogEntry(spec)], jobs=2)
    assert calls == [spec]
    assert len(report.rows) == len(AUTO_CHECKS)
    assert all(r.passed for r in report.rows), [r for r in report.rows if not r.passed]


def test_run_catalog_with_jobs_builds_each_order_less_entry_once_in_its_worker(monkeypatch):
    # the worker builds the group, reads its order and checks it; the parent
    # builds nothing
    calls = _count_parses(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    spec = "PERM:4:[0 1 2 3],[0 1]"
    report = run_catalog(catalog=[CatalogEntry(spec), CatalogEntry("S3")], jobs=2)
    assert calls == [spec, "S3"]
    assert report.skipped == []
    assert len(report.rows) == 2 * len(AUTO_CHECKS)
    assert all(r.passed for r in report.rows), [r for r in report.rows if not r.passed]


def test_run_catalog_starts_at_most_one_worker_per_entry(monkeypatch):
    # a pool of 2**31 workers overflows the pool's semaphore, and a fork per
    # worker would start them all
    pools = []

    def pool(max_workers):
        pools.append(_InlinePool(max_workers))
        return pools[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    entries = [CatalogEntry("Z:6"), CatalogEntry("S3")]
    report = run_catalog(catalog=entries, jobs=2**31)
    assert [p.max_workers for p in pools] == [2]
    assert len(report.rows) == 2 * len(AUTO_CHECKS)
    assert all(r.passed for r in report.rows), [r for r in report.rows if not r.passed]
    run_catalog(catalog=entries[:1], jobs=2**31)
    assert len(pools) == 1


S7 = "PERM:7:[0 1 2 3 4 5 6],[0 1]"


@pytest.mark.parametrize("max_order", [DEFAULT_CATALOG_MAX_ORDER, 4096])
def test_an_undeclared_entry_whose_build_passes_the_bound_is_skipped(monkeypatch, max_order):
    # S7's closure passes the build bound, max(max_order, 2048), so its order
    # is above max_order: the entry is skipped after that one closure
    calls = _count_parses(monkeypatch)
    report = run_catalog(max_order=max_order, catalog=[CatalogEntry(S7)])
    assert report.skipped == [S7]
    assert report.rows == []
    assert calls == [S7]


def test_an_undeclared_entry_whose_build_passes_the_bound_is_skipped_in_its_worker(
    monkeypatch,
):
    calls = _count_parses(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    report = run_catalog(catalog=[CatalogEntry(S7), CatalogEntry("S3")], jobs=2)
    assert calls == [S7, "S3"]
    assert report.skipped == [S7]
    assert {r.group for r in report.rows} == {"S3"}
    assert len(report.rows) == len(AUTO_CHECKS)
    assert all(r.passed for r in report.rows), [r for r in report.rows if not r.passed]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_catalog_keeps_skipped_entries_and_rows_in_catalog_order(monkeypatch, jobs):
    # S4 is skipped by the order its build reads, D:1100 by its declared one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    entries = [
        CatalogEntry("Z:6"),
        CatalogEntry("PERM:4:[0 1 2 3],[0 1]"),
        CatalogEntry("S3"),
        CatalogEntry("D:1100", order=2200),
        CatalogEntry("Z:10"),
    ]
    report = run_catalog(max_order=10, catalog=entries, jobs=jobs)
    assert report.skipped == ["PERM:4:[0 1 2 3],[0 1]", "D:1100"]
    assert list(dict.fromkeys(r.group for r in report.rows)) == ["Z:6", "S3", "Z:10"]


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
        planar = analyze(build(group)).planarity.planar
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
    assert sorted(graph.orders) == divisors
    assert max(sum(o % p == 0 for o in graph.orders) for p in (2, 3, 5)) == 17
    rows = evaluate_entry(CatalogEntry(spec, 900, expect={"alpha": 19}))
    assert len(rows) == len(AUTO_CHECKS) + 1
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]


@pytest.mark.parametrize("spec,declared,built", [("A4", 13, 12), ("Z:7", 8, 7)])
def test_declared_order_mismatch_is_one_catalog_order_row(spec, declared, built):
    # Z:7 has prime order: the order is compared before the undefined-graph rule
    rows = evaluate_entry(CatalogEntry(spec, declared))
    assert [(r.check_id, r.expected, r.computed, r.passed) for r in rows] == [
        ("catalog-order", declared, built, False)
    ]


def test_cyclic_entry_builds_no_table_and_no_lattice(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Z:n left the divisor path")

    monkeypatch.setattr(groups, "make_cyclic", refuse)
    monkeypatch.setattr(coprime, "all_subgroups", refuse)
    shipped = next(e for e in load_catalog() if e.spec == "Z:420")
    rows = evaluate_entry(CatalogEntry("Z:420", 420, expect=shipped.expect))
    assert len(rows) == len(AUTO_CHECKS) + len(shipped.expect) == len(AUTO_CHECKS) + 28
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]


def test_alpha_check_matches_the_enumerator_on_the_catalog():
    entries = load_catalog()
    assert len(entries) == 62
    for entry in entries:
        orders = graph_for_spec(entry.spec, 420).orders
        want = enumerated_intersecting_support_weight(orders)
        assert _max_intersecting_support_weight(orders) == want, entry.spec


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.lists(st.sampled_from((2, 3, 5, 7, 11)), min_size=1, max_size=6).map(prod),
    min_size=1, max_size=40,
))
def test_alpha_check_matches_the_enumerator_on_order_lists(orders):
    assert _max_intersecting_support_weight(orders) == enumerated_intersecting_support_weight(
        orders
    )


def networkx_support_weight(orders):
    """The alpha check as it was computed before the in-repo search: NetworkX's
    ``max_weight_clique`` of the supports, two joined when they meet."""
    weight = {}
    for order in orders:
        weight[pi(order)] = weight.get(pi(order), 0) + 1
    meets = nx.Graph()
    meets.add_nodes_from((s, {"weight": w}) for s, w in weight.items())
    meets.add_edges_from((s, t) for s, t in combinations(weight, 2) if s & t)
    return nx.max_weight_clique(meets)[1]


def test_alpha_check_matches_networkx_on_the_catalog():
    entries = load_catalog()
    assert len(entries) == 62
    for entry in entries:
        orders = graph_for_spec(entry.spec, 420).orders
        assert _max_intersecting_support_weight(orders) == networkx_support_weight(orders)


def test_alpha_check_matches_networkx_on_every_support_of_z510510():
    orders = build_cyclic(510510).orders
    assert len({pi(order) for order in orders}) == 126
    assert _max_intersecting_support_weight(orders) == networkx_support_weight(orders) == 63


@st.composite
def weighted_graphs(draw, max_nodes=14):
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    weight = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return weight, {p for p, k in zip(pairs, keep) if k}


@settings(max_examples=300, deadline=None)
@given(weighted_graphs())
def test_weighted_clique_matches_networkx(graph):
    weight, edges = graph
    nodes = dict(enumerate(weight))
    got = _max_weight_clique(nodes, lambda s, t: (min(s, t), max(s, t)) in edges)
    oracle = nx.Graph()
    oracle.add_nodes_from((v, {"weight": w}) for v, w in nodes.items())
    oracle.add_edges_from(edges)
    assert got == nx.max_weight_clique(oracle)[1]


@pytest.mark.parametrize("k", range(2, 8))
def test_alpha_of_a_primorial_is_the_supports_through_one_prime(k):
    # the supports that hold 2, less the full one, meet pairwise; an
    # intersecting family holds at most one of each complementary pair
    graph = build_cyclic(prod((2, 3, 5, 7, 11, 13, 17)[:k]))
    assert _max_intersecting_support_weight(graph.orders) == 2 ** (k - 1) - 1


def test_more_supports_than_the_alpha_bound_is_one_build_row(monkeypatch):
    def refuse(*args):
        raise AssertionError("the report was computed")

    monkeypatch.setattr(theorems, "vertex_report", refuse)
    n = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19
    rows = evaluate_entry(CatalogEntry(f"Z:{n}"), n, 5000)
    assert [(r.check_id, r.computed, r.passed) for r in rows] == [(
        "build",
        "ExactCapExceeded: 254 prime supports exceed the alpha check's bound "
        f"{MAX_ALPHA_SUPPORTS}",
        False,
    )]


def test_every_support_of_seven_primes_is_within_the_alpha_bound():
    # 2 * 510510 has a proper subgroup of order 510510, so all 2^7 - 1
    # nonempty prime sets are supports
    n = 2 * 510510
    assert len({pi(order) for order in build_cyclic(n).orders}) == MAX_ALPHA_SUPPORTS
    rows = evaluate_entry(CatalogEntry(f"Z:{n}"), n, 5000)
    assert len(rows) == len(AUTO_CHECKS)
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]


def test_forbidden_pattern_keys_follow_the_analysis_patterns():
    keys = [k[len("contains_"):] for k in EXPECTATION_KEYS if k.startswith("contains_")]
    assert keys == list(FORBIDDEN_PATTERNS) == ["K12", "K13", "K14", "K22", "K23", "K33", "K5"]


def test_an_undeclared_entry_whose_spec_does_not_parse_is_one_build_row():
    entry = CatalogEntry("Y:30")
    [row] = _checked_entry(entry, DEFAULT_CATALOG_MAX_ORDER, DEFAULT_CATALOG_EXACT_CAP)
    assert (row.check_id, row.passed) == ("build", False)
    report = run_catalog(catalog=[entry])
    assert report.skipped == []
    [row] = report.rows
    assert (row.check_id, row.passed) == ("build", False)
    assert row.computed.startswith("SpecParseError: unrecognized group spec")


def test_render_table_prints_each_failing_check():
    report = VerificationReport(rows=[
        CheckRow("Z:30", "girth", 3, 4, False, "a note"),
        CheckRow("Z:30", "alpha", 5, 5, True),
    ])
    assert report.render_table() == (
        "Z:30    1/2   FAIL\n"
        "  FAIL girth: expected 3, computed 4 (a note)\n"
        "total: 1/2 checks passed, 0 entries skipped\n"
    )


def test_prime_coloring_check_refuses_a_colour_outside_the_group_primes():
    # a vertex of order 5 inside a group of order 6 takes colour 5
    graph = CoprimeGraph("fake", 6, [5, 2])
    assert AUTO_CHECKS["smallest-prime-coloring-proper"](graph, None) is False


# Generated valid specs of composite order at most GENERATED_MAX_ORDER: the
# theorems must hold on groups no catalog entry names.
GENERATED_MAX_ORDER = 240
# (spec, order) of the small groups X(a,b) takes its factors from
PRODUCT_FACTORS = (
    [(f"Z:{n}", n) for n in range(2, 13)]
    + [(f"D:{n}", 2 * n) for n in range(2, 9)]
    + [("A4", 12), ("S4", 24), ("Q8", 8), ("S3", 6), ("D12", 12)]
)


@st.composite
def semidirect_specs(draw):
    m = draw(st.integers(2, GENERATED_MAX_ORDER // 4))
    k = draw(st.integers(2, GENERATED_MAX_ORDER // m))
    i = draw(st.sampled_from([i for i in range(1, m) if gcd(i, m) == 1 and pow(i, k, m) == 1]))
    return f"SD:{m},{k},{i}"


@st.composite
def product_specs(draw):
    (a, _), (b, _) = draw(
        st.tuples(st.sampled_from(PRODUCT_FACTORS), st.sampled_from(PRODUCT_FACTORS)).filter(
            lambda pair: pair[0][1] * pair[1][1] <= GENERATED_MAX_ORDER
        )
    )
    return f"X({a},{b})"


def disjoint_cycles(perm) -> str:
    """A permutation of 0..d-1 as the spec grammar's disjoint cycles, "" for the identity."""
    seen, cycles = set(), []
    for start in range(len(perm)):
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        if start not in seen and len(cycle) > 1:
            cycles.append("[" + " ".join(map(str, cycle)) + "]")
        seen.update(cycle)
    return "x".join(cycles)


@st.composite
def permutation_specs(draw):
    degree = draw(st.integers(2, 6))
    perms = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    gens = [text for text in map(disjoint_cycles, perms) if text]
    assume(gens)
    return f"PERM:{degree}:" + ",".join(gens)


@settings(max_examples=120, deadline=None)
@given(st.one_of(semidirect_specs(), product_specs(), permutation_specs()))
def test_the_theorems_hold_on_generated_specs(spec):
    try:
        order = parse_group_spec(spec, GENERATED_MAX_ORDER).order
    except OrderCapExceeded:
        reject()
    assume(order > 1 and not is_prime(order))
    graph = graph_for_spec(spec, GENERATED_MAX_ORDER)
    cap = graph.n_vertices
    rows = evaluate_entry(CatalogEntry(spec), GENERATED_MAX_ORDER, cap)
    assert [row.check_id for row in rows] == list(AUTO_CHECKS)
    assert [row.check_id for row in rows if not row.passed] == []
    assert analyze(graph, cap).to_json_dict() == vertex_report(graph, cap).to_json_dict()
