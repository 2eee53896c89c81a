"""Finite groups as explicit multiplication tables, plus family constructors.

Every group lives on dense element ids 0..order-1 with id 0 as the identity.
Constructors are pure and deterministic, so downstream snapshots (subgroup
lists, graph exports) are reproducible.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import accumulate
from math import gcd

from .errors import GroupConstructionError, OrderCapExceeded, SpecParseError

DEFAULT_MAX_ORDER = 2048
# the deepest X( nesting a spec may have: parsing and building recurse once a level
MAX_PRODUCT_DEPTH = 100

@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on ids 0..order-1 with a full multiplication table.

    ``table[a][b]`` is the product a*b.  Instances are immutable and safe to
    share across workers.
    """

    name: str
    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int = 0

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))


def make_cyclic(n: int) -> FiniteGroup:
    """Additive group of integers mod n."""
    if n < 1:
        raise GroupConstructionError(f"cyclic order must be positive, got {n}")
    base = list(range(n))
    table = tuple(tuple(base[a:] + base[:a]) for a in range(n))
    return FiniteGroup(name=f"Z{n}", order=n, table=table)


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: r^n = s^2 = 1, s r s = r^-1.

    Ids 0..n-1 are the rotations r^k, ids n..2n-1 are the reflections r^k s.
    """
    if n < 2:
        raise GroupConstructionError(f"dihedral parameter must be >= 2, got {n}")
    order = 2 * n
    rot, refl = list(range(n)), list(range(n, order))
    # r^i * r^j s^f = r^(i+j) s^f and r^i s * r^j s^f = r^(i-j) s^(1-f)
    table = [tuple(rot[i:] + rot[:i] + refl[i:] + refl[:i]) for i in range(n)]
    table += [tuple(refl[i::-1] + refl[:i:-1] + rot[i::-1] + rot[:i:-1]) for i in range(n)]
    return FiniteGroup(name=f"D{order}", order=order, table=tuple(table))


def make_semidirect_cyclic(m: int, k: int, i: int) -> FiniteGroup:
    """Z_m semidirect Z_k where the generator of Z_k acts by a -> a*i mod m.

    Pairs (a, b) are encoded as a*k + b, multiplied by
    (a1, b1)*(a2, b2) = (a1 + a2*i^b1 mod m, b1 + b2 mod k).
    Requires gcd(i, m) = 1 and i^k = 1 mod m, else the action is ill-defined.
    """
    if m < 2 or k < 2:
        raise GroupConstructionError(f"semidirect factors must be >= 2, got m={m}, k={k}")
    i %= m
    if gcd(i, m) != 1:
        raise GroupConstructionError(f"action parameter i={i} is not a unit mod {m}")
    if pow(i, k, m) != 1:
        raise GroupConstructionError(f"i^k = {pow(i, k, m)} != 1 mod {m}: action not well defined")
    powers = [pow(i, b, m) for b in range(k)]
    order = m * k
    cyc = list(range(k))
    table = []
    for x in range(order):
        a1, b1 = divmod(x, k)
        twist = powers[b1]
        b_row = cyc[b1:] + cyc[:b1]
        table.append(tuple(
            a + b for a in [(a1 + a2 * twist) % m * k for a2 in range(m)] for b in b_row
        ))
    return FiniteGroup(name=f"Z{m}:Z{k}(i={i})", order=order, table=tuple(table))


def make_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, encoded as a*|h| + b."""
    hn = h.order
    order = g.order * hn
    scaled = [[c * hn for c in grow] for grow in g.table]
    table = tuple(
        tuple(a + b for a in g_row for b in h_row) for g_row in scaled for h_row in h.table
    )
    return FiniteGroup(name=f"{g.name}x{h.name}", order=order, table=table)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p o q)(x) = p(q(x))
    return tuple(p[v] for v in q)


def make_permutation_group(
    degree: int,
    gens: list[tuple[int, ...]],
    max_order: int = DEFAULT_MAX_ORDER,
    name: str | None = None,
) -> FiniteGroup:
    """Closure of permutation generators under composition, as a table.

    Element 0 is the identity; the remaining elements appear in breadth-first
    discovery order, which makes the table deterministic for a fixed generator
    list.  The closure records ``right[i][x]``, the id of element x composed
    with generator i, and the element and generator that first reached each
    element.  If b was first reached as p o g, then a o b = (a o p) o g, so
    the column of b is the column of p mapped through ``right[g]``.
    """
    identity = tuple(range(degree))
    norm_gens = []
    for g in gens:
        perm = tuple(g)
        if sorted(perm) != list(range(degree)):
            raise GroupConstructionError(f"{perm} is not a permutation of 0..{degree - 1}")
        norm_gens.append(perm)
    elements = [identity]
    index = {identity: 0}
    right: list[list[int]] = [[] for _ in norm_gens]
    parent = [0]
    via = [0]
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            p = elements[x]
            for i, g in enumerate(norm_gens):
                q = _compose(p, g)
                y = index.get(q)
                if y is None:
                    y = index[q] = len(elements)
                    elements.append(q)
                    parent.append(x)
                    via.append(i)
                    new.append(y)
                    if len(elements) > max_order:
                        raise OrderCapExceeded(
                            f"permutation closure exceeded {max_order} elements"
                        )
                # the frontiers visit the ids in order, so this is right[i][x]
                right[i].append(y)
        frontier = new
    order = len(elements)
    cols = [list(range(order))]
    for y in range(1, order):
        cols.append(list(map(right[via[y]].__getitem__, cols[parent[y]])))
    table = tuple(zip(*cols))
    return FiniteGroup(name=name or f"Perm{degree}<{order}>", order=order, table=table)


# Permutation helpers for the named constructions below.  Points of the
# affine plane over F_p are encoded as p*x + y.


def _plane_translation(p: int, dx: int, dy: int) -> tuple[int, ...]:
    return tuple(
        p * ((pt // p + dx) % p) + (pt % p + dy) % p for pt in range(p * p)
    )


def _plane_linear(p: int, a: int, b: int, c: int, d: int) -> tuple[int, ...]:
    out = []
    for pt in range(p * p):
        x, y = divmod(pt, p)
        out.append(p * ((a * x + b * y) % p) + (c * x + d * y) % p)
    return tuple(out)


def quaternion_group() -> FiniteGroup:
    """Quaternion group of order 8 via its left regular permutation action."""
    li = (2, 3, 1, 0, 6, 7, 5, 4)
    lj = (4, 5, 7, 6, 1, 0, 2, 3)
    return make_permutation_group(8, [li, lj], name="Q8")


def alternating_4() -> FiniteGroup:
    return make_permutation_group(4, [(1, 2, 0, 3), (1, 0, 3, 2)], name="A4")


def symmetric_4() -> FiniteGroup:
    return make_permutation_group(4, [(1, 2, 3, 0), (1, 0, 2, 3)], name="S4")


def plane_rtimes_cyclic(p: int, mat: tuple[int, int, int, int], order_hint: str) -> FiniteGroup:
    """(Z_p x Z_p) semidirect a cyclic matrix action on the affine plane."""
    a, b, c, d = mat
    gens = [
        _plane_translation(p, 1, 0),
        _plane_translation(p, 0, 1),
        _plane_linear(p, a, b, c, d),
    ]
    return make_permutation_group(p * p, gens, name=order_hint)


def klein_rtimes_z9() -> FiniteGroup:
    """(Z_2 x Z_2) semidirect Z_9, the Z_9 acting through its order-3 quotient.

    Realized on 13 points: the four plane points carry the translations and an
    order-3 linear map, a disjoint 9-cycle stretches that map to order 9.
    """
    def pad(perm4: tuple[int, ...], cycle9: bool) -> tuple[int, ...]:
        tail = tuple(4 + ((i + 1) % 9) for i in range(9)) if cycle9 else tuple(range(4, 13))
        return perm4 + tail

    t1 = pad(tuple(x ^ 2 for x in range(4)), False)
    t2 = pad(tuple(x ^ 1 for x in range(4)), False)
    # (x, y) -> (y, x + y) has order 3 on F_2^2 and fixes only the origin
    lin = tuple((x & 1) * 2 + (((x >> 1) + (x & 1)) % 2) for x in range(4))
    c = pad(lin, True)
    return make_permutation_group(13, [t1, t2, c], name="(Z2xZ2):Z9")


def double_plane_diag(p: int, t: int) -> FiniteGroup:
    """(Z_p x Z_p) semidirect Z_2 with inversion twisted by exponent t.

    Two disjoint p-cycles carry the Z_p factors; the involution negates the
    first block and raises the second to the power (-1)^t, so t=1 is the
    generalized dihedral action and t=0 fixes the second factor.
    """
    a = tuple((i + 1) % p for i in range(p)) + tuple(range(p, 2 * p))
    b = tuple(range(p)) + tuple(p + ((i + 1) % p) for i in range(p))
    second = (lambda i: p + (-i % p)) if t % 2 == 1 else (lambda i: p + i)
    c = tuple(-i % p for i in range(p)) + tuple(second(i) for i in range(p))
    return make_permutation_group(2 * p, [a, b, c], name=f"(Z{p}xZ{p}):Z2(t={t % 2})")


def _named_builders() -> dict[str, object]:
    return {
        "A4": alternating_4,
        "S4": symmetric_4,
        "S3": lambda: make_dihedral(3),
        "Q8": quaternion_group,
        "D12": lambda: make_dihedral(6),
        "S3xS3": lambda: make_direct_product(make_dihedral(3), make_dihedral(3)),
        "Z3xA4": lambda: make_direct_product(make_cyclic(3), alternating_4()),
        "Z6xS3": lambda: make_direct_product(make_cyclic(6), make_dihedral(3)),
        # Z_9 : Z_4 with the order-4 generator inverting Z_9
        "Z9sZ4": lambda: make_semidirect_cyclic(9, 4, 8),
        # (Z_3 x Z_3) : Z_4, rotation matrix [[0,-1],[1,0]] of order 4 in GL_2(3)
        "Z3Z3sZ4": lambda: plane_rtimes_cyclic(3, (0, 2, 1, 0), "(Z3xZ3):Z4"),
        # (Z_5 x Z_5) : Z_3, companion matrix of x^2+x+1 (irreducible mod 5)
        "Z5Z5sZ3": lambda: plane_rtimes_cyclic(5, (0, 4, 1, 4), "(Z5xZ5):Z3"),
        # generalized dihedral over Z_5 x Z_5
        "Z5Z5sZ2": lambda: double_plane_diag(5, 1),
        # (Z_5 : Z_2) x Z_5, the untwisted-second-factor companion of the above
        "D10xZ5": lambda: make_direct_product(make_dihedral(5), make_cyclic(5)),
        "Z2Z2sZ9": klein_rtimes_z9,
        # Z_2 x ((Z_3 x Z_3) : Z_2), inversion action on the plane
        "Z2xZ3Z3sZ2": lambda: make_direct_product(
            make_cyclic(2), plane_rtimes_cyclic(3, (2, 0, 0, 2), "(Z3xZ3):Z2")
        ),
    }


NAMED_GROUPS = _named_builders()


def _split_top_level(s: str, sep: str = ",") -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecParseError(f"expected integer for {what}, got {text!r}") from None


def _parse_perm_cycles(text: str, degree: int) -> list[list[int]]:
    """One generator's cycles, each point checked against the declared degree."""
    body = text.strip()
    if not body:
        raise SpecParseError("empty permutation generator")
    cycles = []
    for cyc in body.split("x"):
        cyc = cyc.strip()
        if not (cyc.startswith("[") and cyc.endswith("]")):
            raise SpecParseError(f"cycle must be bracketed, got {cyc!r}")
        pts = [_parse_int(p, "cycle point") for p in cyc[1:-1].split()]
        if len(pts) < 2:
            raise SpecParseError(f"cycle needs at least two points, got {cyc!r}")
        if any(p < 0 or p >= degree for p in pts):
            raise SpecParseError(f"cycle point out of range 0..{degree - 1}: {cyc!r}")
        if len(set(pts)) != len(pts):
            raise SpecParseError(f"repeated point in cycle {cyc!r}")
        cycles.append(pts)
    return cycles


def _perm_from_cycles(cycles: list[list[int]], points: int) -> tuple[int, ...]:
    perm = list(range(points))
    for pts in cycles:
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a] = b
    return tuple(perm)


def cyclic_spec_order(text: str) -> int | None:
    """n for a "Z:n" spec, None for any other spec.

    The parser and the cyclic fast path, which builds P(Z_n) from the
    divisors of n without a table, both read "Z:n" here.
    """
    s = text.strip()
    if not s.startswith("Z:"):
        return None
    n = _parse_int(s[2:], "cyclic order")
    if n < 1:
        raise SpecParseError(f"cyclic order must be positive, got {n}")
    return n


def _check_order(order: int | None, text: str, max_order: int) -> None:
    if order is not None and order > max_order:
        raise OrderCapExceeded(f"{text}: group order {order} exceeds the bound {max_order}")


@dataclass(frozen=True)
class _Spec:
    """A parsed spec: the order its text fixes, and how to build its table.

    ``order`` is None where only the construction can tell: named groups,
    PERM closures and products with one of those as a factor.  ``make``
    takes the order cap, which a PERM closure enforces as it grows.
    """

    text: str
    order: int | None
    make: Callable[[int], FiniteGroup]

    def build(self, max_order: int) -> FiniteGroup:
        _check_order(self.order, self.text, max_order)
        return self.make(max_order)


def _parse_product(s: str) -> _Spec:
    parts = _split_top_level(s[2:-1])
    # commas inside SD and PERM specs also appear at the top level, but their
    # later parts are integers or start with "[", and every spec starts with a
    # letter: the first later part that does is the only cut that can parse
    try:
        cut = next(i for i in range(1, len(parts)) if parts[i].lstrip()[:1].isalpha())
        left = _parse(",".join(parts[:cut]))
        right = _parse(",".join(parts[cut:]))
    except (StopIteration, SpecParseError):
        raise SpecParseError(f"X needs exactly two factors, got {s!r}") from None

    def make(max_order: int) -> FiniteGroup:
        g, h = left.build(max_order), right.build(max_order)
        _check_order(g.order * h.order, s, max_order)
        return make_direct_product(g, h)

    known = left.order is not None and right.order is not None
    return _Spec(s, left.order * right.order if known else None, make)


def _parse_spec(text: str) -> _Spec:
    """``_parse`` of a whole spec, refused first if its "X(" nest deeper than
    MAX_PRODUCT_DEPTH (each ")" closes one): a product parses and builds its
    factors one call deeper per level."""
    steps = (1 if token == "X(" else -1 for token in re.findall(r"X\(|\)", text))
    if max(accumulate(steps), default=0) > MAX_PRODUCT_DEPTH:
        raise SpecParseError(f"products nest more than {MAX_PRODUCT_DEPTH} levels deep")
    return _parse(text)


def _parse(text: str) -> _Spec:
    """The grammar, without building anything."""
    s = text.strip()
    if not s:
        raise SpecParseError("empty group spec")
    if s in NAMED_GROUPS:
        return _Spec(s, None, lambda _cap: NAMED_GROUPS[s]())
    n = cyclic_spec_order(s)
    if n is not None:
        return _Spec(s, n, lambda _cap: make_cyclic(n))
    if s.startswith("D:"):
        n = _parse_int(s[2:], "dihedral parameter")
        return _Spec(s, 2 * n, lambda _cap: make_dihedral(n))
    if s.startswith("SD:"):
        args = s[3:].split(",")
        if len(args) != 3:
            raise SpecParseError(f"SD needs m,k,i, got {s!r}")
        m, k, i = (_parse_int(a, "semidirect parameter") for a in args)
        return _Spec(s, m * k, lambda _cap: make_semidirect_cyclic(m, k, i))
    if s.startswith("X(") and s.endswith(")"):
        return _parse_product(s)
    if s.startswith("PERM:"):
        head, sep, gen_text = s[5:].partition(":")
        if not sep:
            raise SpecParseError(f"PERM needs PERM:degree:gens, got {s!r}")
        degree = _parse_int(head, "permutation degree")
        if degree < 1:
            raise SpecParseError(f"degree must be positive, got {degree}")
        gens = [_parse_perm_cycles(g, degree) for g in _split_top_level(gen_text)]
        # every generator fixes the points above the largest moved one, so the
        # closure on 0..that point finds the same elements in the same order
        points = 1 + max(p for cycles in gens for pts in cycles for p in pts)
        perms = [_perm_from_cycles(cycles, points) for cycles in gens]

        def make(cap: int) -> FiniteGroup:
            group = make_permutation_group(points, perms, max_order=cap)
            return replace(group, name=f"Perm{degree}<{group.order}>")

        return _Spec(s, None, make)
    raise SpecParseError(f"unrecognized group spec {text!r}")


def parse_group_spec(text: str, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Parse the group spec grammar used by the CLI and the catalog.

    Grammar:
        spec  := NAME | "Z:" n | "D:" n | "SD:" m "," k "," i
               | "X(" spec "," spec ")" | "PERM:" degree ":" gen ("," gen)*
        gen   := cycle ("x" cycle)*     e.g.  [0 1 2]  or  [0 1]x[2 3]
    NAME is one of the registered named groups (A4, Q8, S3xS3, ...).
    "D:n" builds the dihedral group of order 2n.  Products nest at most
    MAX_PRODUCT_DEPTH (100) levels deep; a deeper spec raises SpecParseError.

    A group above ``max_order`` raises OrderCapExceeded before its table is
    built whenever the text fixes the order (see ``spec_order``); a PERM
    closure stops as soon as it passes the cap.
    """
    spec = _parse_spec(text)
    try:
        return spec.build(max_order)
    except GroupConstructionError as exc:
        raise SpecParseError(str(exc)) from exc


def spec_order(text: str) -> int | None:
    """The order of the group a spec names, read from the text alone.

    "Z:n" gives n, "D:n" 2n, "SD:m,k,i" mk and "X(a,b)" |a||b|; None where
    only the construction can tell (named groups and PERM closures).
    """
    return _parse_spec(text).order
