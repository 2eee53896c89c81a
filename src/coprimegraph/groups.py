"""Finite groups as explicit multiplication tables, plus family constructors.

Every group lives on dense element ids 0..order-1 with id 0 as the identity.
Constructors are pure and deterministic, so downstream snapshots (subgroup
lists, graph exports) are reproducible.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import accumulate, chain
from math import gcd

from .errors import GroupConstructionError, OrderCapExceeded, SpecParseError, clip

DEFAULT_MAX_ORDER = 2048
# the deepest X( nesting a spec may have: parsing and building recurse once a level
MAX_PRODUCT_DEPTH = 100

@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on ids 0..order-1 with a full multiplication table.

    ``table[a][b]`` is the product a*b, and id 0 is the identity.  The order
    is the table's length, so the two cannot disagree.  Instances are
    immutable and safe to share across workers.
    """

    name: str
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.table)


def make_cyclic(n: int) -> FiniteGroup:
    """Additive group of integers mod n."""
    if n < 1:
        raise GroupConstructionError(f"cyclic order must be positive, got {n}")
    base = list(range(n))
    table = tuple(tuple(base[a:] + base[:a]) for a in range(n))
    return FiniteGroup(name=f"Z{n}", table=table)


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: r^n = s^2 = 1, s r s = r^-1.

    Ids 0..n-1 are the rotations r^k, ids n..2n-1 are the reflections r^k s.
    """
    if n < 2:
        raise GroupConstructionError(f"dihedral parameter must be >= 2, got {clip(n)}")
    order = 2 * n
    rot, refl = list(range(n)), list(range(n, order))
    # r^i * r^j s^f = r^(i+j) s^f and r^i s * r^j s^f = r^(i-j) s^(1-f)
    table = [tuple(rot[i:] + rot[:i] + refl[i:] + refl[:i]) for i in range(n)]
    table += [tuple(refl[i::-1] + refl[:i:-1] + rot[i::-1] + rot[:i:-1]) for i in range(n)]
    return FiniteGroup(name=f"D{order}", table=tuple(table))


def make_semidirect_cyclic(m: int, k: int, i: int) -> FiniteGroup:
    """Z_m semidirect Z_k where the generator of Z_k acts by a -> a*i mod m.

    Pairs (a, b) are encoded as a*k + b, multiplied by
    (a1, b1)*(a2, b2) = (a1 + a2*i^b1 mod m, b1 + b2 mod k).
    Requires gcd(i, m) = 1 and i^k = 1 mod m, else the action is ill-defined.

    Row (0, b1) is m blocks of k entries, one per a2: block a2 is the
    segment a*k + (b1 + b2 mod k) over b2 for a = a2*i^b1 mod m.  Row
    (a1, b1) takes at a2 the block row (0, b1) has at a2 + s, for
    s = a1*i^-b1 mod m, so it is row (0, b1) rotated left by s*k entries:
    one slice and concatenation in C per row, and the rows share row
    (0, b1)'s int objects.
    """
    if m < 2 or k < 2:
        raise GroupConstructionError(
            f"semidirect factors must be >= 2, got m={clip(m)}, k={clip(k)}"
        )
    i %= m
    if gcd(i, m) != 1:
        raise GroupConstructionError(f"action parameter i={i} is not a unit mod {m}")
    if pow(i, k, m) != 1:
        raise GroupConstructionError(f"i^k = {pow(i, k, m)} != 1 mod {m}: action not well defined")
    cyc = list(range(k))
    bases = []  # bases[b1] is row (0, b1)
    for b1 in range(k):
        segment, unit = cyc[b1:] + cyc[:b1], pow(i, b1, m)
        blocks = (map((a2 * unit % m * k).__add__, segment) for a2 in range(m))
        bases.append(tuple(chain.from_iterable(blocks)))
    # i^-b1 = i^(k - b1), as i^k = 1 mod m
    units = [pow(i, k - b1, m) for b1 in range(k)]
    table = []
    for a1 in range(m):
        for base, unit in zip(bases, units):
            s = a1 * unit % m * k
            table.append(base[s:] + base[:s])
    return FiniteGroup(name=f"Z{m}:Z{k}(i={i})", table=tuple(table))


def make_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, encoded as a*|h| + b.

    Row (a1, b1) is |g| blocks of |h| entries, and block a2 is the segment
    c*|h| + h[b1][b2] over b2 for c = g[a1][a2].  So the |g|*|h| blocks are
    built once, and each row is joined from the b1 blocks in C; the rows
    share the blocks' int objects.
    """
    hn = h.order
    blocks = [[tuple(map((c * hn).__add__, h_row)) for c in range(g.order)] for h_row in h.table]
    table = tuple(
        tuple(chain.from_iterable(map(h_blocks.__getitem__, g_row)))
        for g_row in g.table for h_blocks in blocks
    )
    return FiniteGroup(name=f"{g.name}x{h.name}", table=table)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p o q)(x) = p(q(x))
    return tuple(p[v] for v in q)


def make_permutation_group(
    degree: int,
    gens: list[tuple[int, ...]],
    max_order: int = DEFAULT_MAX_ORDER,
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
    return FiniteGroup(name=f"Perm{degree}<{order}>", table=table)


# Each named group is a spec of the grammar and the name it is shown under.
# PERM specs on p*p points encode the point (x, y) of the plane F_p^2 as p*x + y.
NAMED_GROUPS: dict[str, tuple[str, str]] = {
    "A4": ("PERM:4:[0 1 2],[0 1]x[2 3]", "A4"),
    "S4": ("PERM:4:[0 1 2 3],[0 1]", "S4"),
    "S3": ("D:3", "D6"),
    # i and j acting on the eight quaternion units by left multiplication
    "Q8": ("PERM:8:[0 2 1 3]x[4 6 5 7],[0 4 1 5]x[2 7 3 6]", "Q8"),
    "D12": ("D:6", "D12"),
    "S3xS3": ("X(D:3,D:3)", "D6xD6"),
    "Z3xA4": ("X(Z:3,A4)", "Z3xA4"),
    "Z6xS3": ("X(Z:6,D:3)", "Z6xD6"),
    # Z_9 : Z_4 with the order-4 generator inverting Z_9
    "Z9sZ4": ("SD:9,4,8", "Z9:Z4(i=8)"),
    # the translations of F_3^2 and (x, y) -> (-y, x), of order 4 in GL_2(3)
    "Z3Z3sZ4": (
        "PERM:9:[0 3 6]x[1 4 7]x[2 5 8],[0 1 2]x[3 4 5]x[6 7 8],[1 6 2 3]x[4 7 8 5]",
        "(Z3xZ3):Z4",
    ),
    # the translations of F_5^2 and the companion matrix of x^2+x+1, irreducible mod 5
    "Z5Z5sZ3": (
        "PERM:25:[0 5 10 15 20]x[1 6 11 16 21]x[2 7 12 17 22]x[3 8 13 18 23]x[4 9 14 19 24],"
        "[0 1 2 3 4]x[5 6 7 8 9]x[10 11 12 13 14]x[15 16 17 18 19]x[20 21 22 23 24],"
        "[1 24 5]x[2 18 10]x[3 12 15]x[4 6 20]x[7 19 9]x[8 13 14]x[11 21 23]x[16 22 17]",
        "(Z5xZ5):Z3",
    ),
    # generalized dihedral over Z_5 x Z_5: one involution inverts both 5-cycles
    "Z5Z5sZ2": ("PERM:10:[0 1 2 3 4],[5 6 7 8 9],[1 4]x[2 3]x[6 9]x[7 8]", "(Z5xZ5):Z2(t=1)"),
    # (Z_5 : Z_2) x Z_5, the involution of the above fixing the second factor
    "D10xZ5": ("X(D:5,Z:5)", "D10xZ5"),
    # the translations of F_2^2 and (x, y) -> (y, x + y), an order-3 map
    # stretched to order 9 by a disjoint 9-cycle
    "Z2Z2sZ9": (
        "PERM:13:[0 2]x[1 3],[0 1]x[2 3],[1 3 2]x[4 5 6 7 8 9 10 11 12]", "(Z2xZ2):Z9"
    ),
    # Z_2 x ((Z_3 x Z_3) : Z_2): the translations of F_3^2 and the inversion
    "Z2xZ3Z3sZ2": (
        "X(Z:2,PERM:9:[0 3 6]x[1 4 7]x[2 5 8],[0 1 2]x[3 4 5]x[6 7 8],[1 2]x[3 6]x[4 8]x[5 7])",
        "Z2x(Z3xZ3):Z2",
    ),
}


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


def ascii_int(text: str) -> int:
    """An optional sign and ASCII digits, with surrounding whitespace, else ValueError.

    The one integer rule of specs, edge-list ids and cap flags.  int() also
    reads other scripts' digits and "_" between digits; on the rest of ASCII
    it takes exactly [+-]?[0-9]+.
    """
    digits = text.strip()
    if not digits.isascii() or "_" in digits:
        raise ValueError(f"not an ASCII integer: {clip(text)!r}")
    return int(digits)


def _parse_int(text: str, what: str) -> int:
    try:
        return ascii_int(text)
    except ValueError:
        raise SpecParseError(f"expected integer for {what}, got {clip(text)!r}") from None


def _parse_perm_cycles(text: str, degree: int) -> list[list[int]]:
    """One generator's disjoint cycles, each point checked against the declared degree."""
    body = text.strip()
    if not body:
        raise SpecParseError("empty permutation generator")
    cycles = []
    for cyc in body.split("x"):
        cyc = cyc.strip()
        if not (cyc.startswith("[") and cyc.endswith("]")):
            raise SpecParseError(f"cycle must be bracketed, got {clip(cyc)!r}")
        pts = [_parse_int(p, "cycle point") for p in cyc[1:-1].split()]
        if len(pts) < 2:
            raise SpecParseError(f"cycle needs at least two points, got {clip(cyc)!r}")
        if any(p < 0 or p >= degree for p in pts):
            raise SpecParseError(f"cycle point out of range 0..{degree - 1}: {clip(cyc)!r}")
        if len(set(pts)) != len(pts):
            raise SpecParseError(f"repeated point in cycle {clip(cyc)!r}")
        cycles.append(pts)
    if sum(map(len, cycles)) != len(set().union(*cycles)):
        raise SpecParseError(f"cycles share a point in generator {clip(body)!r}")
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
        raise SpecParseError(f"cyclic order must be positive, got {clip(n)}")
    return n


def _check_order(order: int | None, text: str, max_order: int) -> None:
    if order is not None and order > max_order:
        raise OrderCapExceeded(
            f"{clip(text)}: group order {clip(order)} exceeds the bound {max_order}"
        )


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
    # letter: exactly one later part does, and the product is cut there; a
    # factor that does not parse then reports its own error
    cuts = [i for i in range(1, len(parts)) if parts[i].lstrip()[:1].isalpha()]
    if len(cuts) != 1:
        raise SpecParseError(f"X needs exactly two factors, got {clip(s)!r}")
    [cut] = cuts
    left = _parse(",".join(parts[:cut]))
    right = _parse(",".join(parts[cut:]))

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
        spec, shown = NAMED_GROUPS[s]
        # a named group is built under the default cap, whatever the caller's
        return _Spec(s, None, lambda _cap: replace(parse_group_spec(spec), name=shown))
    n = cyclic_spec_order(s)
    if n is not None:
        return _Spec(s, n, lambda _cap: make_cyclic(n))
    if s.startswith("D:"):
        n = _parse_int(s[2:], "dihedral parameter")
        return _Spec(s, 2 * n, lambda _cap: make_dihedral(n))
    if s.startswith("SD:"):
        args = s[3:].split(",")
        if len(args) != 3:
            raise SpecParseError(f"SD needs m,k,i, got {clip(s)!r}")
        m, k, i = (_parse_int(a, "semidirect parameter") for a in args)
        return _Spec(s, m * k, lambda _cap: make_semidirect_cyclic(m, k, i))
    if s.startswith("X(") and s.endswith(")"):
        return _parse_product(s)
    if s.startswith("PERM:"):
        head, sep, gen_text = s[5:].partition(":")
        if not sep:
            raise SpecParseError(f"PERM needs PERM:degree:gens, got {clip(s)!r}")
        degree = _parse_int(head, "permutation degree")
        if degree < 1:
            raise SpecParseError(f"degree must be positive, got {clip(degree)}")
        gens = [_parse_perm_cycles(g, degree) for g in _split_top_level(gen_text)]
        # every generator fixes the points above the largest moved one, so the
        # closure on 0..that point finds the same elements in the same order
        points = 1 + max(p for cycles in gens for pts in cycles for p in pts)
        perms = [_perm_from_cycles(cycles, points) for cycles in gens]

        def make(cap: int) -> FiniteGroup:
            try:
                group = make_permutation_group(points, perms, max_order=cap)
            except OrderCapExceeded as exc:
                raise OrderCapExceeded(f"{clip(s)}: {exc}") from None
            return replace(group, name=f"Perm{degree}<{group.order}>")

        return _Spec(s, None, make)
    raise SpecParseError(f"unrecognized group spec {clip(text)!r}")


def parse_group_spec(text: str, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Parse the group spec grammar used by the CLI and the catalog.

    Grammar:
        spec  := NAME | "Z:" n | "D:" n | "SD:" m "," k "," i
               | "X(" spec "," spec ")" | "PERM:" degree ":" gen ("," gen)*
        gen   := cycle ("x" cycle)*     e.g.  [0 1 2]  or  [0 1]x[2 3]
    The cycles of one generator are disjoint; a shared point raises SpecParseError.
    NAME is a key of NAMED_GROUPS (A4, Q8, S3xS3, ...), which gives its spec.
    Integers are ASCII digits with an optional sign.  "D:n" builds the
    dihedral group of order 2n.  Products nest at most
    MAX_PRODUCT_DEPTH (100) levels deep; a deeper spec raises SpecParseError.

    A group above ``max_order`` raises OrderCapExceeded before its table is
    built whenever the text fixes the order (see ``spec_order``); a PERM
    closure stops as soon as it passes the cap, and the refusal names the spec.
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
