"""Subgroup lattice enumeration, prime-divisor helpers, and the bitmask
helpers that build a graph's rows and list their members."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from math import gcd

from .errors import OrderCapExceeded, clip
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, _check_order


# Trial division stops here, so a cofactor it leaves below TRIAL_BOUND**2
# is prime.  A larger cofactor is tested by Miller-Rabin on the primes up to
# 41, which no composite below MILLER_RABIN_EXACT_BELOW passes.
TRIAL_BOUND = 10**7
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def _passes_miller_rabin(n: int) -> bool:
    """True if odd n > 41 is a strong probable prime to every base above."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as sorted (prime, exponent) pairs.

    Trial division by 2 and the odd numbers up to TRIAL_BOUND; the cofactor
    it leaves must then be 1 or a prime it can prove, else OrderCapExceeded
    names that cofactor.  Results are cached, since the cyclic fast path
    factors one n for its prime test, its divisors and its primes.
    """
    if n < 1:
        raise ValueError(f"factorize needs a positive integer, got {n}")
    return list(_factorize(n))


@lru_cache(maxsize=1024)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    d = 2
    while d * d <= n and d <= TRIAL_BOUND:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if d * d <= n and not (n < MILLER_RABIN_EXACT_BELOW and _passes_miller_rabin(n)):
        raise OrderCapExceeded(
            f"cannot factor {clip(n)}: it has no prime factor up to {TRIAL_BOUND} and is "
            f"{'composite' if n < MILLER_RABIN_EXACT_BELOW else 'not provably prime'}"
        )
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=1024)  # verify asks it of every vertex's order in several checks
def pi(n: int) -> frozenset[int]:
    """Set of distinct prime divisors of n (empty for n = 1)."""
    return frozenset(p for p, _ in factorize(n))


def prime_supports(orders: list[int], primes) -> list[int]:
    """Each order's prime support, as the bitmask of the indices i for
    which primes[i] divides it: one pass over the orders per prime."""
    supports = [0] * len(orders)
    for i, p in enumerate(primes):
        supports = [s | 1 << i if order % p == 0 else s for s, order in zip(supports, orders)]
    return supports


def subset_sums(values: list[int], k: int) -> list[int]:
    """The zeta transform over subsets of k primes: entry X becomes the sum
    of the entries of every subset of X, k passes over the 2^k entries.  On
    bitmasks of disjoint vertex sets that sum is their union."""
    sums = list(values)
    for i in range(k):
        bit = 1 << i
        for x in range(len(sums)):
            if x & bit:
                sums[x] += sums[x ^ bit]
    return sums


@lru_cache(maxsize=None)  # 0..n-1 for n a power of two, shared so members() makes no ints
def _ids(n: int) -> list[int]:
    return list(range(n))


def members(mask: int) -> list[int]:
    """The set bits of a non-negative bitmask, lowest first."""
    # the digits of bin(mask), lowest first and "0" made falsy, flag the members
    flags = bin(mask)[:1:-1].encode().replace(b"0", b"\0")
    return list(compress(_ids(1 << len(flags).bit_length()), flags))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


@dataclass(frozen=True)
class SubgroupList:
    """How many subgroups a group has of each order, sorted by order, and
    ``all``, the set of their element sets.  The graph reads only the counts.
    """

    counts_by_order: dict[int, int]
    all: set[frozenset[int]]


def _generate(table, gens, order: int) -> frozenset[int] | None:
    """Right-multiplication closure of the identity, id 0; None means the
    whole group.

    Bails out early once the closure passes order/2: by Lagrange the only
    larger subgroup is the group itself.
    """
    elems = {0}
    frontier = [0]
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


def _orders_and_inverses(table) -> tuple[list[int], list[int]]:
    """Each element's order and inverse, from one walk x, x^2, ... along row
    x for each x that no earlier walk reached: for o = ord(x), x^k has order
    o / gcd(k, o) and inverse x^(o-k)."""
    n = len(table)
    order = [1] + [0] * (n - 1)  # 0 until a walk reaches the element
    inverse = [0] * n
    for x in range(1, n):
        if order[x]:
            continue
        row = table[x]
        walk = [x]  # walk[k - 1] = x^k
        y = row[x]
        while y:
            walk.append(y)
            y = row[y]
        o = len(walk) + 1
        for k, y, y_inv in zip(range(1, o), walk, reversed(walk)):
            order[y] = o // gcd(k, o)
            inverse[y] = y_inv
    return order, inverse


def all_subgroups(group: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER) -> SubgroupList:
    """Enumerate every subgroup of the group, one conjugacy class at a time.

    Only one representative K per class is searched from.  The rest of its
    class is K's orbit under conjugation by a few generators of G, each the
    least id outside the subgroup the earlier ones generate: products of
    them reach every conjugate, so a breadth-first orbit writes the class
    down with no walk over G.  Every member is recorded so that a later
    search landing on any conjugate is recognised, and |N_G(K)| is
    n / |class|, so the scan for N_G(K), one generator test per coset xK,
    stops at its |N_G(K)|/|K|-th coset.  A class of one is normal, so it is
    not scanned: extension walks the cosets of K in G itself.  Orders and
    inverses come from one walk per cyclic subgroup (``_orders_and_inverses``),
    and extension by x reads x^i for i <= p along row x.

    Cyclic extension (Neubüser): every solvable H != 1 has a normal subgroup
    K' of prime index p, and then H = K'<x> = union of x^i K' for i < p, for
    any x in H outside K'.  If K' = g^-1 K g for the representative K, then
    gHg^-1 extends K the same way.  So each representative K is extended by
    every x in N_G(K) whose least power in K is a prime p; no closure is
    needed.  That least exponent divides every d with x^d in K, so it is a
    prime p exactly when x^p is in K for a prime p dividing ord(x).  This
    reaches every solvable subgroup's class, and so G itself exactly when G
    is solvable.  Otherwise the join loop completes the lattice: each
    representative is joined with the cyclic subgroups of odd prime-power
    order, and every class the joins find is extended too, until nothing
    new appears.  A perfect group P is generated by its elements of odd
    prime-power order (those of odd order generate a normal subgroup whose
    quotient is a perfect 2-group, so trivial), so P = <M, a> for any
    maximal M < P and some such a outside M, and a conjugate of P is
    <rep(M), a conjugate of a>.  Every non-solvable H climbs from its
    perfect residue by prime-index normal steps, which extension follows.
    For n in N_G(K), <K, nan^-1> = n<K, a>n^-1, so K is joined with the
    first cyclic subgroup of each N_G(K)-orbit only: every later one would
    land on a class already seen.  Each representative carries the
    generators that built it.  S6 takes 413 closures (1957 joining every
    cyclic subgroup per normaliser orbit, 19,028 joining every one), A7 1023
    (2199) and S7 1971 (10,108).
    """
    n = group.order
    _check_order(n, group.name, max_order)
    table = group.table
    whole = frozenset(range(n))

    order, inverse = _orders_and_inverses(table)
    order_primes = {o: [p for p, _ in factorize(o)] for o in set(order)}

    # conjugations[i][x] = s x s^-1 for the i-th generator s of G, each the
    # least id outside the subgroup the earlier ones generate
    conjugations = []
    span = {0}
    gens_of_g: list[int] = []
    for s in range(n):
        if len(span) == n:
            break
        if s in span:
            continue
        gens_of_g.append(s)
        row_s, inv_s = table[s], inverse[s]
        conjugations.append([table[y][inv_s] for y in row_s])
        frontier = list(span)
        while frontier:
            new = []
            for x in frontier:
                row = table[x]
                for g in gens_of_g:
                    y = row[g]
                    if y not in span:
                        span.add(y)
                        new.append(y)
            frontier = new

    seen: set[frozenset[int]] = set()
    counts: Counter[int] = Counter()
    # (K, generators of K, one x per coset xK in N_G(K) or None if K is
    # normal) per class
    reps: list[tuple[frozenset[int], tuple[int, ...], list[int] | None]] = []

    def add_class(rep: frozenset[int], gens: tuple[int, ...]) -> None:
        """Record the class of a new representative K and queue K for search."""
        # no member of K's class is in seen yet: classes are disjoint
        orbit = [rep]
        seen.add(rep)
        for k in orbit:
            for conj in conjugations:
                conjugate = frozenset(map(conj.__getitem__, k))
                if conjugate not in seen:
                    seen.add(conjugate)
                    orbit.append(conjugate)
        counts[len(rep)] += len(orbit)
        if len(orbit) == 1:
            # K is normal: N_G(K) = G, whose cosets extend walks itself
            reps.append((rep, gens, None))
            return
        # x normalises K iff x g x^-1 is in K for each generator g of K;
        # N_G(K) is the union of n / (|class| |K|) cosets xK
        cosets = n // (len(orbit) * len(rep))
        normal: list[int] = []
        done: set[int] = set()
        for x in range(n):
            if x in done:
                continue
            row_x = table[x]
            inv_x = inverse[x]
            if all(table[row_x[g]][inv_x] in rep for g in gens):
                normal.append(x)
                if len(normal) == cosets:
                    break
            # every element of the coset xK gets the same answer as x
            done.update(map(row_x.__getitem__, rep))
        reps.append((rep, gens, normal))

    def extend(current: frozenset[int], gens: tuple[int, ...], normal: list[int] | None) -> None:
        """Add the class of each K<x> with x in N_G(K) of prime index over K."""
        done = set(current)
        for x in range(n) if normal is None else normal:
            if x in done:
                continue
            row_x = table[x]
            # x_pows = [x^0, ..., x^(p-1)] and y = x^p; as x is not in K, at
            # most one prime p of ord(x) has x^p in K
            x_pows: list[int] = []
            y = 0
            for p in order_primes[order[x]]:
                for _ in range(len(x_pows), p):
                    x_pows.append(y)
                    y = row_x[y]
                if y in current:
                    bigger = frozenset(
                        chain.from_iterable(map(table[xi].__getitem__, current) for xi in x_pows)
                    )
                    done |= bigger
                    if bigger not in seen:
                        add_class(bigger, gens + (x,))
                    break
            else:
                done.update(map(row_x.__getitem__, current))

    add_class(frozenset([0]), ())
    for current, gens, normal in reps:
        extend(current, gens, normal)

    if whole not in seen:
        # the cyclic subgroups of odd prime-power order p^a, the only ones
        # joined, each named by its least generator: atom_of[x] for every x
        # of such an order, from one walk of <x> per subgroup, which meets
        # its generators at the exponents prime to p
        odd_prime_powers = {o: ps[0] for o, ps in order_primes.items() if len(ps) == 1 and o % 2}
        atom_of: dict[int, int] = {}
        for x in range(n):
            p = odd_prime_powers.get(order[x])
            if p is None or x in atom_of:
                continue
            row_x = table[x]
            y, k = x, 1
            while y:
                if k % p:
                    atom_of[y] = x
                y, k = row_x[y], k + 1
        odd_atoms = sorted(set(atom_of.values()))
        extended = len(reps)
        for i, (current, gens, normal) in enumerate(reps):
            if i >= extended:
                extend(current, gens, normal)
            if current == whole:
                continue
            # (row of y, y^-1) for each y in N_G(K)
            normaliser = (
                range(n) if normal is None else (table[x][k] for x in normal for k in current)
            )
            conjugators = [(table[y], inverse[y]) for y in normaliser]
            tried = set()
            for atom_gen in odd_atoms:
                if atom_gen in tried or atom_gen in current:
                    continue
                # <K, n a n^-1> = n <K, a> n^-1 lands in the class of <K, a>
                tried.update([atom_of[table[row[atom_gen]][inv]] for row, inv in conjugators])
                joined = _generate(table, gens + (atom_gen,), n)
                fs = whole if joined is None else joined
                if fs not in seen:
                    add_class(fs, gens + (atom_gen,))

    return SubgroupList(dict(sorted(counts.items())), seen)
