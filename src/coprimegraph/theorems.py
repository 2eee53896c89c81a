"""Machine verification of the classification statements over a group catalog.

Two layers of checking run on every catalog entry:

* automatic structural checks, which assert the universally quantified
  statements (girth restriction, clique/chromatic identity, connectivity
  criterion, ...) directly from the computed report, and
* data-driven expectations from the catalog file, which pin the exact
  invariants of each named group.
"""

from __future__ import annotations

import concurrent.futures
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from importlib import resources
from operator import getitem
from pathlib import Path

from .analysis import FORBIDDEN_PATTERNS, INFINITE, AnalysisReport, vertex_report
from .coprime import CoprimeGraph, graph_for_spec
from .coprime import build
from .errors import CatalogError, CoprimeGraphError, ExactCapExceeded, OrderCapExceeded
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, parse_group_spec, spec_order
from .lattice import pi

DEFAULT_CATALOG_MAX_ORDER = 200
# one catalog graph has 76 vertices, above the analyze() default of 64
DEFAULT_CATALOG_EXACT_CAP = 96
# the most distinct prime supports the alpha check searches: every support of 7 primes
MAX_ALPHA_SUPPORTS = 127


@dataclass(frozen=True)
class CatalogEntry:
    spec: str
    order: int | None = None
    note: str = ""
    expect: dict = field(default_factory=dict)


@dataclass
class CheckRow:
    group: str
    check_id: str
    expected: object
    computed: object
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    rows: list[CheckRow]
    skipped: list[str] = field(default_factory=list)

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.rows if r.passed)

    @property
    def n_fail(self) -> int:
        return len(self.rows) - self.n_pass

    def failures(self) -> list[CheckRow]:
        return [r for r in self.rows if not r.passed]

    def ok(self) -> bool:
        return self.n_fail == 0

    def to_json_dict(self) -> dict:
        return {
            "summary": {
                "checks": len(self.rows),
                "passed": self.n_pass,
                "failed": self.n_fail,
                "skipped_entries": self.skipped,
            },
            "rows": [
                {
                    "group": r.group,
                    "check": r.check_id,
                    "expected": r.expected,
                    "computed": r.computed,
                    "passed": r.passed,
                    "note": r.note,
                }
                for r in self.rows
            ],
        }

    def render_table(self) -> str:
        lines = []
        groups: dict[str, list[CheckRow]] = {}
        for r in self.rows:
            groups.setdefault(r.group, []).append(r)
        width = max((len(g) for g in groups), default=5)
        for g, rows in groups.items():
            bad = [r for r in rows if not r.passed]
            status = "ok" if not bad else "FAIL"
            lines.append(f"{g:<{width}}  {len(rows) - len(bad):>3}/{len(rows):<3} {status}")
            for r in bad:
                lines.append(
                    f"  FAIL {r.check_id}: expected {r.expected!r}, computed {r.computed!r}"
                    + (f" ({r.note})" if r.note else "")
                )
        for s in self.skipped:
            lines.append(f"{s:<{width}}  skipped (order above cap)")
        lines.append(
            f"total: {self.n_pass}/{len(self.rows)} checks passed, "
            f"{len(self.skipped)} entries skipped"
        )
        return "\n".join(lines) + "\n"


# Data-driven expectation keys, each with the path of its value in the
# report's JSON encoding (``analyze --format json``), so an unknown key in a
# catalog file is a hard error.  The order is the shipped catalog's.

EXPECTATION_KEYS = {
    "vertices": ("n_vertices",),
    "edges": ("n_edges",),
    "connected": ("connected",),
    "diameter": ("diameter",),
    "girth": ("girth",),
    "alpha": ("alpha",),
    "omega": ("omega",),
    "chi": ("chi",),
    "bipartite": ("bipartite",),
    "planar": ("planarity", "planar"),
    "unicyclic": ("predicates", "unicyclic"),
    "core_shape": ("shape", "core"),
    "core_args": ("shape", "args"),
    "isolated": ("shape", "isolated"),
    **{f"contains_{k}": ("forbidden", k) for k in FORBIDDEN_PATTERNS},
    **{
        name: ("predicates", name)
        for name in ("null", "complete", "star", "path", "cycle", "tree", "complete_bipartite")
    },
}


def expectation_values(rep: AnalysisReport) -> dict:
    """Every expectation key's value, read from one JSON encoding of the report."""
    doc = rep.to_json_dict()
    return {key: reduce(getitem, path, doc) for key, path in EXPECTATION_KEYS.items()}


def _full_support_vertices(graph: CoprimeGraph) -> list[int]:
    target = graph.parent_primes()
    return [v for v, order in enumerate(graph.orders) if pi(order) == target]


def _check_connectivity(graph: CoprimeGraph, rep: AnalysisReport) -> bool:
    return rep.is_connected == (not _full_support_vertices(graph))


def _check_diameter_range(graph: CoprimeGraph, rep: AnalysisReport) -> bool:
    return (not rep.is_connected) or rep.diameter in (1, 2, 3)


def _check_full_support_isolated(graph: CoprimeGraph, rep: AnalysisReport) -> bool:
    """Disconnected shape: every full-support vertex is isolated and the rest
    is a single connected block (or empty).

    With the full-support vertices isolated, removing them splits no
    component, so the rest is one block exactly when at most one component
    of the report holds a vertex that is not full-support.
    """
    full = set(_full_support_vertices(graph))
    if any(graph.degree(v) > 0 for v in full):
        return False
    return sum(1 for comp in rep.components if not full.issuperset(comp)) <= 1


def _max_intersecting_support_weight(orders: tuple[int, ...]) -> int:
    """Largest total weight of a pairwise-intersecting family of prime supports.

    A vertex's support is the prime set of its order, and a support's weight
    is the number of vertices whose order has exactly that support.  The
    family is a maximum-weight clique of the graph on supports, two supports
    adjacent when they meet.  ``evaluate_entry`` refuses a graph with more
    than MAX_ALPHA_SUPPORTS supports before this search, which takes about
    0.06 s at that bound (the 126 supports of Z_510510, 7 primes, on a 2-vCPU
    VM) and about eight times as long for each further prime.
    """
    return _max_weight_clique(Counter(pi(order) for order in orders), lambda s, t: bool(s & t))


def _max_weight_clique(weight: dict, adjacent) -> int:
    """The largest total weight of a clique, for positive node weights and
    ``adjacent(s, t)`` telling whether two distinct nodes are joined.

    This is NetworkX's ``max_weight_clique`` (after Tavares et al. 2015 and
    Warren and Hicks 2006) on bitmasks, with the nodes numbered by falling
    degree.  At each search node it covers the candidates by greedy
    independent sets, lowest number first, each charged its least residual
    weight, and branches, highest number first, only on the candidates still
    uncovered once the charges pass what the best clique still needs.
    """
    nodes = sorted(weight, key=lambda s: -sum(adjacent(s, t) for t in weight if t != s))
    weights = [weight[s] for s in nodes]
    # rows[v]: the nodes joined to v, as a bitmask
    rows = [sum(1 << j for j, t in enumerate(nodes) if t != s and adjacent(s, t)) for s in nodes]
    best = 0

    def expand(c_weight: int, candidates: int) -> None:
        nonlocal best
        best = max(best, c_weight)
        residual = weights.copy()
        branching, charged = candidates, 0
        while branching:
            independent, free = [], branching
            while free:
                v = (free & -free).bit_length() - 1
                independent.append(v)
                free &= ~rows[v] & ~(1 << v)
            least = min(residual[v] for v in independent)
            charged += least
            if charged > best - c_weight:
                break
            for v in independent:
                residual[v] -= least
                if not residual[v]:
                    branching &= ~(1 << v)
        while branching:
            v = branching.bit_length() - 1
            branching &= ~(1 << v)
            candidates &= ~(1 << v)
            expand(c_weight + weights[v], candidates & rows[v])

    expand(0, (1 << len(nodes)) - 1)
    return best


def _check_alpha_supports(graph: CoprimeGraph, rep: AnalysisReport) -> bool:
    """Every prime class is independent, and alpha is the heaviest
    intersecting family of supports.

    Two vertices are non-adjacent exactly when their supports meet, and
    vertices with the same support are pairwise non-adjacent, so a maximum
    independent set is a union of whole support classes whose supports
    pairwise intersect.  The class of a prime p (every vertex whose order p
    divides) is one such family, so alpha is at least the largest class.
    Equality is not a theorem: on Z_900 the 19 proper divisors divisible by
    two of 2, 3 and 5 are pairwise non-coprime, while each prime class has 17.
    """
    largest_class = max(
        sum(1 for order in graph.orders if order % p == 0) for p in graph.parent_primes()
    )
    return largest_class <= rep.alpha == _max_intersecting_support_weight(graph.orders)


def _check_prime_coloring(graph: CoprimeGraph, rep: AnalysisReport) -> bool:
    """Coloring by the smallest prime dividing the order must be proper and
    use at most one color per prime of the group order."""
    color = [min(pi(order)) for order in graph.orders]
    if set(color) - graph.parent_primes():
        return False
    same: dict[int, int] = {}  # colour -> the bitmask of its vertices
    for v, c in enumerate(color):
        same[c] = same.get(c, 0) | 1 << v
    return not any(row & same[c] for row, c in zip(graph.masks, color))


def _check_core_not_cycle(graph: CoprimeGraph, rep: AnalysisReport) -> bool:
    """The core (the graph less its isolated vertices) is never labelled a cycle.

    ``classify_shape`` tries complete bipartite before cycle, so a C_4 core,
    as on Z_36, reads as CompleteBipartite(2,2).  The check holds there by
    that label precedence, not because the core is not a 4-cycle.
    """
    return rep.shape.kind != "Cycle"


AUTO_CHECKS = {
    "k33-subgraph-implies-nonplanar": lambda graph, rep: not rep.forbidden["K33"]
    or not rep.planarity.planar,
    "girth-in-3-4-inf": lambda graph, rep: rep.girth in (3, 4, INFINITE),
    "whole-graph-not-a-cycle": lambda graph, rep: not rep.predicates["cycle"],
    "core-shape-not-cycle": _check_core_not_cycle,
    "clique-eq-prime-count-eq-chromatic": lambda graph, rep: rep.omega
    == len(graph.parent_primes())
    == rep.chi,
    "bipartite-iff-at-most-2-primes": lambda graph, rep: rep.is_bipartite
    == (len(graph.parent_primes()) <= 2),
    "edgeless-iff-prime-power": lambda graph, rep: (rep.n_edges == 0)
    == (len(graph.parent_primes()) == 1),
    "connected-iff-no-full-support-subgroup": _check_connectivity,
    "connected-diameter-in-1-2-3": _check_diameter_range,
    "full-support-vertices-isolated": _check_full_support_isolated,
    "independence-eq-max-intersecting-supports": _check_alpha_supports,
    "smallest-prime-coloring-proper": _check_prime_coloring,
}


def evaluate_entry(
    entry: CatalogEntry,
    max_order: int = DEFAULT_MAX_ORDER,
    exact_cap: int = DEFAULT_CATALOG_EXACT_CAP,
    group: FiniteGroup | None = None,
) -> list[CheckRow]:
    """All automatic and data-driven checks for one catalog entry.

    The report is ``vertex_report``'s, from the vertex-level solvers, so the
    checks test the paper's theorems rather than the closed forms
    ``analyze`` reads off prime supports.  ``group`` is the entry's group
    when the caller has already built it from the spec under ``max_order``.
    The package's own errors (a bad spec, a cap, an undefined graph, a
    failed certificate) become a single failing row instead of aborting the
    suite; any other exception is a bug and propagates.
    """
    name = entry.spec
    try:
        # an order the text fixes is compared after the order cap and before
        # the undefined-graph rule; any other order is read off the graph
        order = spec_order(entry.spec)
        if order is None or order > max_order or entry.order in (None, order):
            if group is None:
                graph = graph_for_spec(entry.spec, max_order, exact_cap)
            else:
                graph = build(group, max_order)
            order = graph.parent_order
        if entry.order not in (None, order):
            return [
                CheckRow(
                    name,
                    "catalog-order",
                    entry.order,
                    order,
                    False,
                    "declared order mismatch",
                )
            ]
        supports = len(graph.classes)
        if supports > MAX_ALPHA_SUPPORTS:
            raise ExactCapExceeded(
                f"{supports} prime supports exceed the alpha check's bound {MAX_ALPHA_SUPPORTS}"
            )
        rep = vertex_report(graph, exact_cap)
    except CoprimeGraphError as exc:
        return [CheckRow(name, "build", "ok", f"{type(exc).__name__}: {exc}", False)]
    rows = []
    for check_id, fn in AUTO_CHECKS.items():
        got = bool(fn(graph, rep))
        rows.append(CheckRow(name, check_id, True, got, got))
    values = expectation_values(rep)
    for key, want in entry.expect.items():
        if key not in values:
            rows.append(CheckRow(name, key, want, None, False, "unknown expectation key"))
            continue
        rows.append(CheckRow(name, key, want, values[key], values[key] == want))
    return rows


def default_catalog_path() -> Path:
    return Path(str(resources.files("coprimegraph").joinpath("data/catalog.json")))


def load_catalog(path: str | Path | None = None) -> list[CatalogEntry]:
    """Load catalog entries from a JSON file (the shipped one by default).

    The file is a list of entries or an object whose ``entries`` is one.  An
    entry is an object with a string ``spec`` and optionally an integer or
    null ``order``, a string ``note`` and an object ``expect``.  A file that
    is not UTF-8 JSON, or any other shape, raises CatalogError (a ValueError)
    naming the file and, for a bad entry, its index.
    """
    p = Path(path) if path is not None else default_catalog_path()
    try:
        data = json.loads(p.read_bytes().decode("utf-8"))
    except ValueError as exc:
        raise CatalogError(f"{p}: not a UTF-8 JSON file: {exc}") from None
    entries = data.get("entries") if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise CatalogError(f"{p}: expected a list of entries or an object with an 'entries' list")
    out = []
    for i, raw in enumerate(entries):
        if not isinstance(raw, dict):
            raise CatalogError(f"{p}: catalog entry {i} is not an object")
        entry = CatalogEntry(
            spec=raw.get("spec"),
            order=raw.get("order"),
            note=raw.get("note", ""),
            expect=raw.get("expect", {}),
        )
        if not isinstance(entry.spec, str):
            raise CatalogError(f"{p}: catalog entry {i} needs a string 'spec'")
        if entry.order is not None and type(entry.order) is not int:
            raise CatalogError(f"{p}: catalog entry {i}: 'order' must be an integer or null")
        if not isinstance(entry.note, str):
            raise CatalogError(f"{p}: catalog entry {i}: 'note' must be a string")
        if not isinstance(entry.expect, dict):
            raise CatalogError(f"{p}: catalog entry {i}: 'expect' must be an object")
        out.append(entry)
    return out


def _checked_entry(
    entry: CatalogEntry, max_order: int, exact_cap: int
) -> list[CheckRow] | None:
    """The entry's check rows, or None if its order is above ``max_order``.

    The order is the declared one, else the one the spec's text fixes, else
    that of the group built under the larger of ``max_order`` and the
    package's default bound; that group is the one the checks run on.  A
    build that passes the bound counts as above ``max_order``.  An entry that
    cannot be built otherwise is left to ``evaluate_entry`` to report.
    """
    build_order = max(max_order, DEFAULT_MAX_ORDER)
    order, group = entry.order, None
    try:
        if order is None:
            order = spec_order(entry.spec)
        if order is None:
            group = parse_group_spec(entry.spec, build_order)
            order = group.order
    except OrderCapExceeded:
        return None
    except CoprimeGraphError:
        pass
    if order is not None and order > max_order:
        return None
    return evaluate_entry(entry, build_order, exact_cap, group)


def run_catalog(
    max_order: int = DEFAULT_CATALOG_MAX_ORDER,
    catalog: list[CatalogEntry] | None = None,
    exact_cap: int = DEFAULT_CATALOG_EXACT_CAP,
    jobs: int = 1,
) -> VerificationReport:
    """Verify every entry of ``catalog`` (the shipped one if None) of order
    <= max_order.

    Each entry is built once, where ``_checked_entry`` decides it: in this
    process, or in one of min(jobs, entries) workers when that is above 1,
    so no worker starts without an entry.  A worker returns the entry's
    rows, or None when it is skipped; no table is sent to a worker.
    """
    entries = load_catalog() if catalog is None else list(catalog)
    args = (max_order, exact_cap)
    workers = min(jobs, len(entries))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_checked_entry, entry, *args) for entry in entries]
            checked = [fut.result() for fut in futures]
    else:
        checked = (_checked_entry(entry, *args) for entry in entries)
    skipped: list[str] = []
    rows: list[CheckRow] = []
    for entry, entry_rows in zip(entries, checked):
        if entry_rows is None:
            skipped.append(entry.spec)
        else:
            rows.extend(entry_rows)
    return VerificationReport(rows=rows, skipped=skipped)
