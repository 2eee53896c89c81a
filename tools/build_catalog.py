#!/usr/bin/env python3
"""Recompute the shipped catalog and print it to stdout.

The entries, with their specs and notes, are read from
``src/coprimegraph/data/catalog.json``; each entry's ``order`` and ``expect``
block are recomputed from its spec.  To add a group, add
``{"spec": ..., "note": ...}`` to the file, write this tool's output to a
temporary file and move it into place.  Audit the new values against the known
classifications first: this freezes current behaviour, it does not certify it.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coprimegraph.analysis import analyze
from coprimegraph.coprime import graph_for_spec
from coprimegraph.groups import DEFAULT_MAX_ORDER
from coprimegraph.theorems import DEFAULT_CATALOG_EXACT_CAP, expectation_values, load_catalog


def main() -> None:
    out = []
    for entry in load_catalog():
        graph = graph_for_spec(entry.spec, DEFAULT_MAX_ORDER, DEFAULT_CATALOG_EXACT_CAP)
        expect = expectation_values(analyze(graph, exact_cap=DEFAULT_CATALOG_EXACT_CAP))
        out.append(
            {"spec": entry.spec, "order": graph.parent_order, "note": entry.note, "expect": expect}
        )
        print(f"{entry.spec:18s} done", file=sys.stderr)
    print(json.dumps({"entries": out}, indent=1))


if __name__ == "__main__":
    main()
