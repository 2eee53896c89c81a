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
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations
from pathlib import Path

from .analysis import INFINITE, AnalysisReport, analyze
from .coprime import CoprimeGraph, build, build_cyclic, degree_formula
from .embedding import SimpleGraph, embed, verify_embedding
from .groups import DEFAULT_MAX_ORDER, parse_group_spec
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


def _check_alpha_prime_class(graph: CoprimeGraph, rep: AnalysisReport) -> bool:
    classes = {
        p: sum(1 for v in graph.vertices if v.order % p == 0)
        for p in graph.parent_primes()
    }
    return rep.alpha == max(classes.values())


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


AUTO_CHECKS = {
    "k33-subgraph-implies-nonplanar": lambda graph, rep: not rep.forbidden["K33"]
    or not rep.planarity.planar,
    "girth-in-3-4-inf": lambda graph, rep: rep.girth in (3, 4, INFINITE),
    "whole-graph-not-a-cycle": lambda graph, rep: not rep.predicates["cycle"],
    "core-shape-not-cycle": lambda graph, rep: rep.shape.kind != "Cycle",
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
    "independence-eq-max-prime-class": _check_alpha_prime_class,
    "smallest-prime-coloring-proper": _check_prime_coloring,
}


def evaluate_entry(
    entry: CatalogEntry,
    max_order: int = DEFAULT_MAX_ORDER,
    exact_cap: int = DEFAULT_CATALOG_EXACT_CAP,
) -> list[CheckRow]:
    """All automatic and data-driven checks for one catalog entry.

    Constructor and cap failures become a single failing row instead of
    aborting the suite.
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
    except Exception as exc:
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
    null ``order``, a string ``note`` and an object ``expect``.  Any other
    shape raises ValueError naming the entry index.
    """
    p = Path(path) if path is not None else default_catalog_path()
    data = json.loads(p.read_text())
    entries = data.get("entries") if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise ValueError(f"{p}: expected a list of entries or an object with an 'entries' list")
    out = []
    for i, raw in enumerate(entries):
        if not isinstance(raw, dict):
            raise ValueError(f"{p}: catalog entry {i} is not an object")
        entry = CatalogEntry(
            spec=raw.get("spec"),
            order=raw.get("order"),
            note=raw.get("note", ""),
            expect=raw.get("expect", {}),
        )
        if not isinstance(entry.spec, str):
            raise ValueError(f"{p}: catalog entry {i} needs a string 'spec'")
        if entry.order is not None and type(entry.order) is not int:
            raise ValueError(f"{p}: catalog entry {i}: 'order' must be an integer or null")
        if not isinstance(entry.note, str):
            raise ValueError(f"{p}: catalog entry {i}: 'note' must be a string")
        if not isinstance(entry.expect, dict):
            raise ValueError(f"{p}: catalog entry {i}: 'expect' must be an object")
        out.append(entry)
    return out


def _entry_order(entry: CatalogEntry, max_order: int) -> int | None:
    if entry.order is not None:
        return entry.order
    try:
        return parse_group_spec(entry.spec, max_order).order
    except Exception:
        return None


def run_catalog(
    max_order: int = DEFAULT_CATALOG_MAX_ORDER,
    catalog: list[CatalogEntry] | str | Path | None = None,
    exact_cap: int = DEFAULT_CATALOG_EXACT_CAP,
    jobs: int = 1,
) -> VerificationReport:
    """Verify every catalog entry of order <= max_order."""
    if catalog is None or isinstance(catalog, (str, Path)):
        entries = load_catalog(catalog)
    else:
        entries = list(catalog)
    selected: list[CatalogEntry] = []
    skipped: list[str] = []
    for entry in entries:
        order = _entry_order(entry, max(max_order, DEFAULT_MAX_ORDER))
        if order is not None and order > max_order:
            skipped.append(entry.spec)
        else:
            selected.append(entry)
    rows: list[CheckRow] = []
    if jobs > 1 and len(selected) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(evaluate_entry, entry, DEFAULT_MAX_ORDER, exact_cap)
                for entry in selected
            ]
            for fut in futures:
                rows.extend(fut.result())
    else:
        for entry in selected:
            rows.extend(evaluate_entry(entry, DEFAULT_MAX_ORDER, exact_cap))
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
