"""Self-test of the benchmark's output checkers.

    python3 perfbench/selftest.py

1. The closed forms in checks.py agree with brute force on small inputs.
2. For every workload, a real output of the package passes its checker and a
   deliberately corrupted copy (a wrong alpha, a wrong edge, a failed catalog
   row, a non-divisor label) does not, so the correctness gate cannot pass
   vacuously.  A bad exit code and non-JSON output fail too.

Exits 1 if any of these does not hold.
"""

from __future__ import annotations

import shutil
import sys
from itertools import combinations, permutations
from math import gcd

import checks
from workloads import FROZEN_VERTEX_COUNTS, ROOT, make_items, write_inputs

FAILURES: list[str] = []
CHECKED = [0]


def expect(ok: bool, what: str) -> None:
    CHECKED[0] += 1
    if not ok:
        FAILURES.append(what)
        print(f"FAIL {what}")


def proper_divisors(n: int) -> list[int]:
    return [d for d in range(2, n) if n % d == 0]


def coprime_masks(labels: list[int]) -> list[int]:
    return [
        sum(1 << j for j, b in enumerate(labels) if gcd(a, b) == 1)
        for a in labels
    ]


def max_clique(masks: list[int], cand: int) -> int:
    """Exhaustive maximum clique size over the candidate bitmask."""
    if not cand:
        return 0
    v = cand.bit_length() - 1
    bit = 1 << v
    return max(1 + max_clique(masks, cand & masks[v]), max_clique(masks, cand & ~bit))


def chromatic(masks: list[int]) -> int:
    n = len(masks)
    for k in range(1, n + 1):
        colors = [-1] * n

        def place(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in range(v) if masks[v] >> u & 1):
                    colors[v] = c
                    if place(v + 1):
                        return True
            colors[v] = -1
            return False

        if place(0):
            return k
    return 0


def check_cyclic_closed_forms() -> None:
    for n in range(4, 400):
        labels = proper_divisors(n)
        if not labels:
            continue
        expect(checks.cyclic_vertices(n) == len(labels), f"V of P(Z_{n})")
        pairs = sum(1 for a, b in combinations(labels, 2) if gcd(a, b) == 1)
        expect(checks.cyclic_edges(n) == pairs, f"E of P(Z_{n})")
        if len(labels) > 16:
            continue
        masks = coprime_masks(labels)
        full = (1 << len(labels)) - 1
        non_adjacent = [full & ~m & ~(1 << v) for v, m in enumerate(masks)]
        expect(checks.cyclic_alpha(n) == max_clique(non_adjacent, full), f"alpha of P(Z_{n})")
        expect(checks.cyclic_omega(n) == max_clique(masks, full), f"omega of P(Z_{n})")
        expect(checks.cyclic_omega(n) == chromatic(masks), f"chi of P(Z_{n})")


def subgroups_two_generated(elements: list[tuple[int, ...]]) -> int:
    """Number of distinct subgroups <a, b>; all subgroups when every one is
    2-generated, as in dihedral groups and S5."""
    index = {g: i for i, g in enumerate(elements)}
    table = [[index[tuple(a[x] for x in b)] for b in elements] for a in elements]
    found = set()
    for a in range(len(elements)):
        for b in range(a, len(elements)):
            group = {a, b}
            frontier = [a, b]
            while frontier:
                new = []
                for x in frontier:
                    for g in (a, b):
                        y = table[x][g]
                        if y not in group:
                            group.add(y)
                            new.append(y)
                frontier = new
            found.add(frozenset(group))
    return len(found)


def dihedral_elements(n: int) -> list[tuple[int, ...]]:
    rotations = [tuple((i + k) % n for i in range(n)) for k in range(n)]
    reflections = [tuple((k - i) % n for i in range(n)) for k in range(n)]
    return rotations + reflections


def check_lattice_counts() -> None:
    for n in range(3, 13):
        count = subgroups_two_generated(dihedral_elements(n))
        expect(checks.dihedral_vertices(n) == count - 2, f"subgroups of D_{n}")
    s5 = subgroups_two_generated(list(permutations(range(5))))
    expect(FROZEN_VERTEX_COUNTS["PERM:5:[0 1 2 3 4],[0 1]"] == s5 - 2, "subgroups of S5")


def check_probes(cli) -> None:
    from worker import run_item

    workdir = ROOT / ".perfbench" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in checks.CHECKERS:
            item = make_items(workload, 1, workdir)[0]
            write_inputs([item])
            rc, text = run_item(cli, item.argv)
            expect(checks.check(workload, item, rc, text) is None, f"{workload}: real output passes")
            bad = checks.corrupt(workload, text)
            expect(checks.check(workload, item, rc, bad) is not None, f"{workload}: corrupted output fails")
            expect(checks.check(workload, item, 1, text) is not None, f"{workload}: exit 1 fails")
            expect(checks.check(workload, item, 0, "{") is not None, f"{workload}: non-JSON fails")
    finally:
        shutil.rmtree(workdir)


def main() -> int:
    from worker import import_cli

    check_cyclic_closed_forms()
    check_lattice_counts()
    check_probes(import_cli())
    print(f"selftest: {CHECKED[0]} checks, {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
