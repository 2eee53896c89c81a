"""Layer spans for the traced run, recorded from outside the package.

Each hook replaces a function at the name its caller looks it up by (for
example ``cli.analyze`` and ``theorems.analyze`` are separate names for
``analysis.analyze``), so nothing under ``src/`` changes.  Spans live in memory
as [name, item, parent, start, end] and are written out when the pass ends;
a span's layer is the first part of its name.  A hook whose target is missing
is skipped, and every metric that needs it reads null.
"""

from __future__ import annotations

import functools
import json
import time
from importlib import import_module

ROOT_SPAN = "cli.main"

# (owner, attribute, span name).  Several names can feed one span name.
SPANS = [
    ("coprimegraph.cli", "parse_group_spec", "groups.parse_group_spec"),
    ("coprimegraph.theorems", "parse_group_spec", "groups.parse_group_spec"),
    ("coprimegraph.coprime", "all_subgroups", "lattice.all_subgroups"),
    ("coprimegraph.theorems", "all_subgroups", "lattice.all_subgroups"),
    ("coprimegraph.cli", "build", "coprime.build"),
    ("coprimegraph.cli", "build_cyclic", "coprime.build"),
    ("coprimegraph.theorems", "build", "coprime.build"),
    ("coprimegraph.cli", "analyze", "analysis.analyze"),
    ("coprimegraph.theorems", "analyze", "analysis.analyze"),
    ("coprimegraph.analysis", "independence_number", "analysis.independence_number"),
    ("coprimegraph.analysis", "clique_number", "analysis.clique_number"),
    ("coprimegraph.analysis", "chromatic_number", "analysis.chromatic_number"),
    ("coprimegraph.analysis", "girth", "analysis.girth"),
    ("coprimegraph.analysis", "contains_complete_bipartite", "analysis.kab"),
    ("coprimegraph.analysis", "classify_shape", "analysis.shape"),
    ("coprimegraph.analysis", "shape_predicates", "analysis.shape"),
    ("coprimegraph.analysis", "is_planar", "analysis.is_planar"),
    ("coprimegraph.analysis", "verify_rotation_system", "analysis.planarity_verify"),
    ("coprimegraph.analysis", "verify_kuratowski_witness", "analysis.planarity_verify"),
    ("networkx", "check_planarity", "networkx.check_planarity"),
    ("networkx.algorithms.planarity", "get_counterexample", "networkx.get_counterexample"),
    ("coprimegraph.theorems", "load_catalog", "theorems.load_catalog"),
    ("coprimegraph.theorems", "run_catalog", "theorems.run_catalog"),
    ("coprimegraph.theorems", "evaluate_entry", "theorems.evaluate_entry"),
    ("coprimegraph.cli", "parse_edge_list", "embedding.parse_edge_list"),
    ("coprimegraph.cli", "embed", "embedding.embed"),
    ("coprimegraph.embedding", "maximal_independent_sets", "embedding.mis"),
    ("coprimegraph.embedding", "verify_embedding", "embedding.verify_embedding"),
    ("coprimegraph.cli", "graph_json", "cli.serialize"),
    ("coprimegraph.cli", "to_dot", "cli.serialize"),
    ("coprimegraph.analysis.AnalysisReport", "to_json_dict", "cli.serialize"),
    ("coprimegraph.theorems.VerificationReport", "to_json_dict", "cli.serialize"),
    ("coprimegraph.embedding.EmbeddingCertificate", "to_json_dict", "cli.serialize"),
]

# (owner, attribute, metric): call counts only, as these run too often for a
# span each.  The last three are private helpers, so their counts are
# diagnostic and read null once a helper is gone.
COUNTS = [
    ("coprimegraph.analysis", "adjacency_sets", "analysis.adjacency_calls"),
    ("coprimegraph.lattice", "_generate", "lattice.closures"),
    ("coprimegraph.analysis", "_greedy_color_order", "analysis.bnb_nodes"),
    ("coprimegraph.analysis", "_k_colorable", "analysis.kcolor_calls"),
]

# Counts read off return values: span name -> [(metric, function of result)].
RESULT_COUNTS = {
    "groups.parse_group_spec": [("groups.table_cells", lambda g: g.order**2)],
    "lattice.all_subgroups": [("lattice.subgroups", lambda lat: len(lat.all))],
    "coprime.build": [
        ("coprime.vertices", lambda g: g.n_vertices),
        ("coprime.edges", lambda g: g.n_edges),
    ],
    "analysis.is_planar": [("analysis.planarity.nonplanar", lambda cert: int(not cert.planar))],
    "theorems.evaluate_entry": [("theorems.checks", len)],
    "embedding.mis": [("embedding.mis_sets", len)],
}

# Timed metrics: name -> ("total" | "self", span names).  "total" sums the
# spans' durations, "self" their self time.
TIMES = {
    "analysis.planarity_s": ("total", ["analysis.is_planar"]),
    "analysis.planarity.test_s": ("total", ["networkx.check_planarity"]),
    "analysis.planarity.witness_s": ("total", ["networkx.get_counterexample"]),
    "analysis.planarity.verify_s": ("total", ["analysis.planarity_verify"]),
    "analysis.independence_s": ("total", ["analysis.independence_number"]),
    "analysis.clique_s": ("total", ["analysis.clique_number"]),
    "analysis.chromatic_s": ("total", ["analysis.chromatic_number"]),
    "analysis.girth_s": ("total", ["analysis.girth"]),
    "analysis.kab_s": ("total", ["analysis.kab"]),
    "analysis.shape_s": ("total", ["analysis.shape"]),
    "analysis.self_s": ("self", ["analysis.analyze"]),
    "lattice.all_subgroups_s": ("total", ["lattice.all_subgroups"]),
    "groups.parse_s": ("total", ["groups.parse_group_spec"]),
    "coprime.build_s": ("self", ["coprime.build"]),
    "theorems.self_s": ("self", ["theorems.load_catalog", "theorems.run_catalog", "theorems.evaluate_entry"]),
    "embedding.parse_s": ("total", ["embedding.parse_edge_list"]),
    "embedding.mis_s": ("total", ["embedding.mis"]),
    "embedding.verify_s": ("total", ["embedding.verify_embedding"]),
    "embedding.self_s": ("self", ["embedding.embed"]),
    "cli.self_s": ("self", [ROOT_SPAN]),
    "cli.serialize_s": ("total", ["cli.serialize"]),
}

# The span or counter each count metric is read from.
COUNT_SOURCES = {
    **{metric: span for span, pairs in RESULT_COUNTS.items() for metric, _ in pairs},
    **{metric: metric for _, _, metric in COUNTS},
}

# Every per-layer metric of a traced run with its unit.  run.py finishes the
# trace.* ones other than covered_s, since it also has the untraced passes.
UNITS = {
    **{metric: "s" for metric in TIMES},
    **{metric: "count" for metric in COUNT_SOURCES},
    "cli.output_bytes": "bytes",
    "lattice.new_per_closure": "ratio",
    "trace.wall_s": "s",
    "trace.covered_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(path: str):
    """Module or class object for a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
        return obj
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.installed: set[str] = {ROOT_SPAN}
        self.item = -1

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        rec = [name, self.item, parent, time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self.stack.pop()

    def install(self) -> None:
        for owner_path, attr, name in SPANS:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None)
            if fn is not None:
                setattr(owner, attr, self._span_wrapper(fn, name))
                self.installed.add(name)
        for owner_path, attr, metric in COUNTS:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None)
            if fn is not None:
                setattr(owner, attr, self._count_wrapper(fn, metric))
                self.installed.add(metric)

    def _span_wrapper(self, fn, name: str):
        tracer = self
        on_result = RESULT_COUNTS.get(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            for metric, amount in on_result:
                tracer.counts[metric] = tracer.counts.get(metric, 0) + amount(result)
            return result

        return wrapper

    def _count_wrapper(self, fn, metric: str):
        counts = self.counts
        counts[metric] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, item: int) -> list:
        """Open the root span of the item with this index; the harness closes
        it with ``end_root``."""
        self.item = item
        return self._open(ROOT_SPAN)

    def end_root(self, rec: list) -> None:
        self._close(rec)
        self.stack.clear()

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span."""
        out = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def metrics(self, output_bytes: int, scales: list[float]) -> dict[str, float | int | None]:
        """Per-layer metrics; span times are rescaled by their item's factor."""
        sums: dict[str, dict[str, float]] = {"total": {}, "self": {}}
        for (name, item, _, start, end), own in zip(self.spans, self.self_times()):
            sums["total"][name] = sums["total"].get(name, 0.0) + (end - start) * scales[item]
            sums["self"][name] = sums["self"].get(name, 0.0) + own * scales[item]
        out: dict[str, float | int | None] = {}
        for metric, (kind, names) in TIMES.items():
            measured = all(n in self.installed for n in names)
            out[metric] = sum(sums[kind].get(n, 0.0) for n in names) if measured else None
        for metric, source in COUNT_SOURCES.items():
            out[metric] = self.counts.get(metric, 0) if source in self.installed else None
        out["cli.output_bytes"] = output_bytes
        subs, closures = out["lattice.subgroups"], out["lattice.closures"]
        if subs is None or closures is None:
            out["lattice.new_per_closure"] = None
        else:
            out["lattice.new_per_closure"] = subs / closures if closures else 0.0
        out["trace.covered_s"] = sums["total"].get(ROOT_SPAN, 0.0)
        return out

    def dump(self, path, workload: str) -> None:
        with open(path, "w") as fh:
            for i, ((name, item, parent, start, end), own) in enumerate(
                zip(self.spans, self.self_times())
            ):
                record = {
                    "workload": workload,
                    "id": i,
                    "parent": parent,
                    "item": item,
                    "name": name,
                    "layer": name.split(".")[0],
                    "start": start,
                    "end": end,
                    "self": own,
                }
                fh.write(json.dumps(record) + "\n")
