"""Subgroup lattice enumeration and prime-divisor helpers."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import OrderCapExceeded
from .groups import DEFAULT_MAX_ORDER, FiniteGroup


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as sorted (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"factorize needs a positive integer, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def pi(n: int) -> frozenset[int]:
    """Set of distinct prime divisors of n (empty for n = 1)."""
    return frozenset(p for p, _ in factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a sorted tuple of element ids of the parent group."""

    elements: tuple[int, ...]
    order: int
    parent_order: int

    def is_proper_nontrivial(self) -> bool:
        return 1 < self.order < self.parent_order


@dataclass
class SubgroupList:
    """All subgroups of a group, sorted by (order, elements)."""

    parent_name: str
    parent_order: int
    all: list[Subgroup]
    counts_by_order: dict[int, int]


def _generate(table, identity: int, gens, order: int) -> frozenset[int] | None:
    """Right-multiplication closure of the identity; None means the whole group.

    Bails out early once the closure passes order/2: by Lagrange the only
    larger subgroup is the group itself.
    """
    elems = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in elems:
                    elems.add(y)
                    if 2 * len(elems) > order:
                        return None
                    new.append(y)
        frontier = new
    return frozenset(elems)


def all_subgroups(group: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER) -> SubgroupList:
    """Enumerate every subgroup of the group.

    Seeds with all cyclic subgroups, then saturates by joining each known
    subgroup with each cyclic generator until nothing new appears.  Every
    subgroup is a join of cyclic subgroups, so the fixed point is the full
    lattice.  Generating sets are carried along so each join closure costs
    |result| * |gens| table lookups.
    """
    n = group.order
    if n > max_order:
        raise OrderCapExceeded(f"group order {n} exceeds the bound {max_order}")
    table = group.table
    identity = group.identity
    whole = frozenset(range(n))

    # cyclic subgroups, deduplicated, keyed by a generating element
    atoms: dict[frozenset[int], int] = {}
    for x in range(n):
        elems = {identity}
        y = x
        while y != identity:
            elems.add(y)
            y = table[y][x]
        fs = frozenset(elems)
        atoms.setdefault(fs, x)

    found: dict[frozenset[int], tuple[int, ...]] = {}
    worklist: list[frozenset[int]] = []
    for fs, gen in sorted(atoms.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        if fs not in found:
            found[fs] = (gen,)
            worklist.append(fs)

    idx = 0
    while idx < len(worklist):
        current = worklist[idx]
        idx += 1
        if current == whole:
            continue
        gens = found[current]
        for atom_fs, atom_gen in atoms.items():
            if atom_fs <= current:
                continue
            joined = _generate(table, identity, gens + (atom_gen,), n)
            fs = whole if joined is None else joined
            if fs not in found:
                found[fs] = gens + (atom_gen,)
                worklist.append(fs)
    if whole not in found:
        found[whole] = tuple(range(n))

    subs = [
        Subgroup(elements=tuple(sorted(fs)), order=len(fs), parent_order=n)
        for fs in found
    ]
    subs.sort(key=lambda s: (s.order, s.elements))
    counts = Counter(s.order for s in subs)
    return SubgroupList(
        parent_name=group.name,
        parent_order=n,
        all=subs,
        counts_by_order=dict(sorted(counts.items())),
    )


def proper_nontrivial(subgroups: SubgroupList) -> list[Subgroup]:
    """Subgroups H with 1 < |H| < |G|, in the list's deterministic order."""
    return [s for s in subgroups.all if s.is_proper_nontrivial()]
