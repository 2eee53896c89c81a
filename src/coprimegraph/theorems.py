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
import random
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations
from pathlib import Path

from .analysis import INFINITE, AnalysisReport, analyze
from .coprime import CoprimeGraph, build, build_cyclic, degree_formula
from .embedding import SimpleGraph, embed, verify_embedding
from .errors import CatalogError, CoprimeGraphError
from .groups import DEFAULT_MAX_ORDER, parse_group_spec, spec_order
from .lattice import all_subgroups, is_prime, pi

DEFAULT_CATALOG_MAX_ORDER = 200
# one catalog graph has 76 vertices, above the analyze() default of 64
DEFAULT_CATALOG_EXACT_CAP = 96


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


def _enc(value):
    return "inf" if value == INFINITE else value


# Data-driven expectation keys: catalog values are compared against these
# extractors, so an unknown key in a catalog file is a hard error.

EXPECTATION_KEYS = {
    "vertices": lambda rep: rep.n_vertices,
    "edges": lambda rep: rep.n_edges,
    "connected": lambda rep: rep.is_connected,
    "diameter": lambda rep: _enc(rep.diameter),
    "girth": lambda rep: _enc(rep.girth),
    "alpha": lambda rep: rep.alpha,
    "omega": lambda rep: rep.omega,
    "chi": lambda rep: rep.chi,
    "bipartite": lambda rep: rep.is_bipartite,
    "planar": lambda rep: rep.planarity.planar,
    "unicyclic": lambda rep: rep.predicates["unicyclic"],
    "core_shape": lambda rep: rep.shape.kind,
    "core_args": lambda rep: list(rep.shape.args),
    "isolated": lambda rep: rep.shape.isolated,
    "contains_K12": lambda rep: rep.forbidden["K12"],
    "contains_K13": lambda rep: rep.forbidden["K13"],
    "contains_K14": lambda rep: rep.forbidden["K14"],
    "contains_K22": lambda rep: rep.forbidden["K22"],
    "contains_K23": lambda rep: rep.forbidden["K23"],
    "contains_K33": lambda rep: rep.forbidden["K33"],
    "contains_K5": lambda rep: rep.forbidden["K5"],
    "null": lambda rep: rep.predicates["null"],
    "complete": lambda rep: rep.predicates["complete"],
    "star": lambda rep: rep.predicates["star"],
    "path": lambda rep: rep.predicates["path"],
    "cycle": lambda rep: rep.predicates["cycle"],
    "tree": lambda rep: rep.predicates["tree"],
    "complete_bipartite": lambda rep: rep.predicates["complete_bipartite"],
}


def _full_support_vertices(graph: CoprimeGraph) -> list[int]:
    target = graph.parent_primes()
    return [v.vid for v in graph.vertices if pi(v.order) == target]


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


def _max_intersecting_support_weight(orders: list[int]) -> int:
    """Largest total weight of a pairwise-intersecting family of prime supports.

    A vertex's support is the prime set of its order, and a support's weight
    is the number of vertices whose order has exactly that support.  The
    search includes or excludes each support in turn, heaviest first, and
    cuts a branch once the weight still to come cannot beat the best family
    found.  It is exponential in the number k of primes, since there are up
    to 2^k - 1 supports: about 1.9 s at k = 5 (Z_2310, on a 2-vCPU VM).
    ``verify`` builds groups of order at most max(--max-order, 2048); at the
    default, 2048 < 2*3*5*7*11, so k <= 4 there.
    """
    weight = Counter(pi(order) for order in orders)
    supports = sorted(weight, key=lambda s: (-weight[s], sorted(s)))
    best = 0

    def extend(i: int, family: tuple, total: int, rest: int) -> None:
        nonlocal best
        best = max(best, total)
        if i == len(supports) or total + rest <= best:
            return
        s, w = supports[i], weight[supports[i]]
        if all(s & t for t in family):
            extend(i + 1, family + (s,), total + w, rest - w)
        extend(i + 1, family, total, rest - w)

    extend(0, (), 0, sum(weight.values()))
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
        sum(1 for order in graph.orders() if order % p == 0) for p in graph.parent_primes()
    )
    return largest_class <= rep.alpha == _max_intersecting_support_weight(graph.orders())


def _check_prime_coloring(graph: CoprimeGraph, rep: AnalysisReport) -> bool:
    """Coloring by the smallest prime dividing the order must be proper and
    use at most one color per prime of the group order."""
    color = {}
    for v in graph.vertices:
        color[v.vid] = min(pi(v.order))
    if set(color.values()) - set(graph.parent_primes()):
        return False
    return all(
        color[u] != color[v]
        for u in range(graph.n_vertices)
        for v in graph.neighbors(u)
        if u < v
    )


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
) -> list[CheckRow]:
    """All automatic and data-driven checks for one catalog entry.

    The package's own errors (a bad spec, a cap, an undefined graph, a
    failed certificate) become a single failing row instead of aborting the
    suite; any other exception is a bug and propagates.
    """
    name = entry.spec
    try:
        group = parse_group_spec(entry.spec, max_order)
        if entry.order is not None and group.order != entry.order:
            return [
                CheckRow(
                    name,
                    "catalog-order",
                    entry.order,
                    group.order,
                    False,
                    "declared order mismatch",
                )
            ]
        lattice = all_subgroups(group, max_order)
        graph = build(group, lattice)
        rep = analyze(graph, exact_cap)
    except CoprimeGraphError as exc:
        return [CheckRow(name, "build", "ok", f"{type(exc).__name__}: {exc}", False)]
    rows = []
    for check_id, fn in AUTO_CHECKS.items():
        got = bool(fn(graph, rep))
        rows.append(CheckRow(name, check_id, True, got, got))
    for key, want in entry.expect.items():
        if key not in EXPECTATION_KEYS:
            rows.append(CheckRow(name, key, want, None, False, "unknown expectation key"))
            continue
        got = EXPECTATION_KEYS[key](rep)
        rows.append(CheckRow(name, key, want, got, got == want))
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


def _entry_order(entry: CatalogEntry, max_order: int) -> int | None:
    """The declared order, else the one the spec fixes, else the built one.

    Only a spec whose order its text does not fix (a named group or a PERM
    closure) is built, under ``max_order``; an entry that cannot be built
    gives None and is left to ``evaluate_entry`` to report.
    """
    if entry.order is not None:
        return entry.order
    try:
        order = spec_order(entry.spec)
        return order if order is not None else parse_group_spec(entry.spec, max_order).order
    except CoprimeGraphError:
        return None


def run_catalog(
    max_order: int = DEFAULT_CATALOG_MAX_ORDER,
    catalog: list[CatalogEntry] | str | Path | None = None,
    exact_cap: int = DEFAULT_CATALOG_EXACT_CAP,
    jobs: int = 1,
) -> VerificationReport:
    """Verify every catalog entry of order <= max_order.

    Entries are built under the larger of ``max_order`` and the package's
    default order bound, the same bound ``_entry_order`` reads orders under.
    """
    if catalog is None or isinstance(catalog, (str, Path)):
        entries = load_catalog(catalog)
    else:
        entries = list(catalog)
    build_order = max(max_order, DEFAULT_MAX_ORDER)
    selected: list[CatalogEntry] = []
    skipped: list[str] = []
    for entry in entries:
        order = _entry_order(entry, build_order)
        if order is not None and order > max_order:
            skipped.append(entry.spec)
        else:
            selected.append(entry)
    rows: list[CheckRow] = []
    if jobs > 1 and len(selected) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(evaluate_entry, entry, build_order, exact_cap)
                for entry in selected
            ]
            for fut in futures:
                rows.extend(fut.result())
    else:
        for entry in selected:
            rows.extend(evaluate_entry(entry, build_order, exact_cap))
    return VerificationReport(rows=rows, skipped=skipped)


def check_connectivity_criterion(group) -> bool:
    """Connectivity iff no proper nontrivial subgroup has the full prime set,
    with diameter in {1, 2, 3} whenever connected."""
    graph = build(group)
    rep = analyze(graph)
    return _check_connectivity(graph, rep) and _check_diameter_range(graph, rep)


def check_degree_theorem(n_max: int) -> VerificationReport:
    """Closed-form degrees against counted degrees for all composite n <= n_max."""
    rows = []
    for n in range(4, n_max + 1):
        if is_prime(n):
            continue
        graph = build_cyclic(n)
        mismatches = []
        for v in graph.vertices:
            got = graph.degree(v.vid)
            want = degree_formula(n, v.order)
            if got != want:
                mismatches.append((v.order, want, got))
        rows.append(
            CheckRow(
                f"Z{n}",
                "degree-formula",
                "all-match",
                "all-match" if not mismatches else f"mismatches: {mismatches}",
                not mismatches,
            )
        )
    return VerificationReport(rows=rows)


def _all_labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield SimpleGraph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        )


def check_embedding_theorem(
    trials: int = 200,
    n_max_vertices: int = 12,
    seed: int = 987,
) -> VerificationReport:
    """Embed-and-verify over all graphs on <= 5 vertices plus random graphs."""
    rows = []
    for n in range(1, 6):
        bad = 0
        total = 0
        for g in _all_labeled_graphs(n):
            total += 1
            if not verify_embedding(g, embed(g)):
                bad += 1
        rows.append(
            CheckRow(
                f"all-{total}-graphs-on-{n}-vertices",
                "embed-verify",
                0,
                bad,
                bad == 0,
            )
        )
    rng = random.Random(seed)
    bad = 0
    for _ in range(trials):
        n = rng.randint(7, n_max_vertices)
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
        g = SimpleGraph.from_edges(n, edges)
        if not verify_embedding(g, embed(g)):
            bad += 1
    rows.append(
        CheckRow(
            f"{trials}-random-graphs-7-to-{n_max_vertices}",
            "embed-verify",
            0,
            bad,
            bad == 0,
        )
    )
    return VerificationReport(rows=rows)
