"""The benchmark's four workloads: fixed item lists and seeded input files.

An item is one call of ``coprimegraph.cli.main(argv)``.  Each workload says
why it is in the benchmark; the same one-line reasons appear in
``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CATALOG = ROOT / "src" / "coprimegraph" / "data" / "catalog.json"

WHY = {
    "catalog-verify": "the primary end-to-end path: 62 catalog entries through lattice, "
    "P(G), every invariant, the planarity witness search and the theorem checks",
    "lattice-export": "12 non-cyclic groups of order 120-384 whose time is subgroup "
    "enumeration and JSON export; analysis does no work, so analysis changes predict no change",
    "cyclic-exact": "14 large cyclic moduli on the divisor fast path: deep planarity and "
    "exact-alpha searches with no table or lattice, so lattice changes predict no change",
    "embed-roundtrip": "1000 seeded random graphs through embed, the only path into the "
    "embedding module; ~3 ms items make CLI parsing and JSON output visible",
}

LATTICE_SPECS = [
    "D:64",
    "D:96",
    "D:105",
    "D:120",
    "D:128",
    "PERM:5:[0 1 2 3 4],[0 1]",
    "X(S4,Z:10)",
    "X(A4,A4)",
    "X(S3,S4)",
    "SD:63,6,2",
    "SD:31,10,2",
    "X(Q8,Z:15)",
]

# |G| for each lattice-export spec, from the group's definition.
LATTICE_ORDERS = {
    "D:64": 128,
    "D:96": 192,
    "D:105": 210,
    "D:120": 240,
    "D:128": 256,
    "PERM:5:[0 1 2 3 4],[0 1]": 120,
    "X(S4,Z:10)": 240,
    "X(A4,A4)": 144,
    "X(S3,S4)": 144,
    "SD:63,6,2": 378,
    "SD:31,10,2": 310,
    "X(Q8,Z:15)": 120,
}

# Vertex counts (proper nontrivial subgroups) of the non-dihedral groups; the
# dihedral ones follow from tau(n) + sigma(n) - 2.  Frozen from the subgroup
# enumerator of coprimegraph 0.1.0 (commit e104659).  Three of them also have
# an independent derivation:
#   S5 has 156 subgroups (OEIS A005432);
#   Q8 x Z15 has coprime factors, so 6 * 4 = 24 subgroups;
#   Z31:Z10 with i=2 is (Z31:Z5) x Z2 with Z31:Z5 Frobenius (1 + 1 + 31 + 1
#   subgroups), so 34 * 2 = 68 subgroups.
FROZEN_VERTEX_COUNTS = {
    "PERM:5:[0 1 2 3 4],[0 1]": 154,
    "X(S4,Z:10)": 194,
    "X(A4,A4)": 214,
    "X(S3,S4)": 370,
    "SD:63,6,2": 190,
    "SD:31,10,2": 66,
    "X(Q8,Z:15)": 22,
}

CYCLIC_MODULI = [
    2310, 4620, 9240, 13860, 30030, 39270, 43890, 46410,
    55440, 60060, 90090, 110880, 120120, 150150,
]

EMBED_GRAPHS = 1000
EMBED_VERTICES = (8, 20)
EMBED_DENSITIES = (0.3, 0.5, 0.7)


@dataclass
class Item:
    """One CLI call.  ``ref`` is what the checker needs to judge its output;
    ``inputs`` maps each input file the call reads to its text."""

    name: str
    argv: list[str]
    ref: dict = field(default_factory=dict)
    inputs: dict[Path, str] = field(default_factory=dict)


def catalog_items(workdir: Path) -> list[Item]:
    """One single-entry catalog file per shipped entry, verified one at a time."""
    entries = json.loads(SHIPPED_CATALOG.read_text())["entries"]
    items = []
    for i, entry in enumerate(entries):
        path = workdir / f"catalog-{i:02d}.json"
        argv = ["verify", "--catalog", str(path), "--max-order", "420"]
        ref = {"spec": entry["spec"], "expect": len(entry["expect"])}
        items.append(Item(entry["spec"], argv, ref, {path: json.dumps({"entries": [entry]})}))
    return items


def lattice_items() -> list[Item]:
    return [
        Item(s, ["export", s, "--format", "json", "--max-order", "4096"], {"spec": s})
        for s in LATTICE_SPECS
    ]


def cyclic_items() -> list[Item]:
    return [
        Item(f"Z:{n}", ["analyze", f"Z:{n}", "--format", "json", "--exact-cap", "256"], {"n": n})
        for n in CYCLIC_MODULI
    ]


def random_graphs(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """EMBED_GRAPHS distinct graphs as (vertex count, edge list)."""
    rng = random.Random(seed)
    seen = set()
    graphs = []
    while len(graphs) < EMBED_GRAPHS:
        n = rng.randint(*EMBED_VERTICES)
        p = rng.choice(EMBED_DENSITIES)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        key = (n, tuple(edges))
        if key not in seen:
            seen.add(key)
            graphs.append((n, edges))
    return graphs


def embed_items(workdir: Path, seed: int) -> list[Item]:
    items = []
    for i, (n, edges) in enumerate(random_graphs(seed)):
        path = workdir / f"graph-{i:04d}.txt"
        text = f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        items.append(Item(f"graph-{i:04d}", ["embed", str(path)], {"n": n, "edges": edges}, {path: text}))
    return items


def write_inputs(items: list[Item]) -> None:
    for item in items:
        for path, text in item.inputs.items():
            path.write_text(text)


def make_items(workload: str, seed: int, workdir: Path) -> list[Item]:
    """The workload's items, with input files placed in workdir.

    Only embed-roundtrip depends on the seed; the others are fixed lists.
    Nothing is written here: see write_inputs.
    """
    if workload == "catalog-verify":
        return catalog_items(workdir)
    if workload == "lattice-export":
        return lattice_items()
    if workload == "cyclic-exact":
        return cyclic_items()
    if workload == "embed-roundtrip":
        return embed_items(workdir, seed)
    raise ValueError(f"unknown workload {workload!r}")
