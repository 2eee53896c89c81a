"""Subgroup enumeration against brute-force oracles and divisor structure."""

import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coprimegraph import lattice
from coprimegraph.errors import clip
from coprimegraph.groups import (
    DEFAULT_MAX_ORDER,
    OrderCapExceeded,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_permutation_group,
    make_semidirect_cyclic,
    parse_group_spec,
)
from coprimegraph.lattice import (
    _passes_miller_rabin,
    divisors,
    factorize,
    pi,
)
from coprimegraph.theorems import load_catalog
from helpers import (
    LATTICE_EXPORT_SPECS,
    all_subgroups_by_extension,
    all_subgroups_joining_every_atom,
    all_subgroups_oracle,
    all_subgroups_per_orbit,
    brute_force_subgroups,
    counts_json,
    factorize_oracle,
    is_closed_subgroup,
    power_lists,
    proper_nontrivial,
)


def all_subgroups(group, max_order: int = DEFAULT_MAX_ORDER):
    """``lattice.all_subgroups``, checked on every group these tests
    enumerate: its counts by order tally its element sets."""
    sl = lattice.all_subgroups(group, max_order)
    assert Counter(map(len, sl.all)) == sl.counts_by_order
    return sl


def test_pi_examples():
    assert pi(1) == frozenset()
    assert pi(12) == {2, 3}
    assert pi(210) == {2, 3, 5, 7}


def test_factorize_and_divisors():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_factorize_matches_trial_division_to_the_square_root():
    for n in range(1, 10**5 + 1):
        assert factorize(n) == factorize_oracle(n), n
    rng = random.Random(7)
    for n in [rng.randrange(10**5, 10**14) for _ in range(20)] + [10**14 - 1]:
        assert factorize(n) == factorize_oracle(n), n


def test_miller_rabin_agrees_with_trial_division():
    for n in range(43, 20000, 2):
        assert _passes_miller_rabin(n) == (factorize_oracle(n) == [(n, 1)]), n


def test_factorize_proves_a_large_prime_cofactor():
    # 3^2 times the repunit R23, which is prime
    assert factorize(99999999999999999999999) == [(3, 2), (11111111111111111111111, 1)]


@pytest.mark.parametrize(
    "n",
    [
        10000019 * 10000079,  # both primes above the trial bound
        399165290221 * 798330580441,  # passes the bases up to 37; 41 refutes it
        1287836182261 * 2575672364521,  # passes all 13 bases: the exactness bound
    ],
)
def test_factorize_refuses_a_cofactor_it_cannot_prove_prime(n):
    with pytest.raises(OrderCapExceeded, match=f"cannot factor {n}:"):
        factorize(n)


@pytest.mark.parametrize("n", [0, -6])
def test_factorize_needs_a_positive_integer(n):
    with pytest.raises(ValueError, match="positive integer"):
        factorize(n)


def test_a_cofactor_it_cannot_factor_is_quoted_clipped(monkeypatch):
    monkeypatch.setattr(lattice, "TRIAL_BOUND", 100)
    n = 101**150
    with pytest.raises(OrderCapExceeded) as info:
        factorize(n)
    assert str(info.value) == (
        f"cannot factor {clip(str(n))}: it has no prime factor up to 100 and is not provably prime"
    )


def test_a_lattice_over_the_cap_names_its_group():
    with pytest.raises(OrderCapExceeded, match="^A4: group order 12 exceeds the bound 10$"):
        all_subgroups(parse_group_spec("A4"), 10)


def test_cyclic_12_one_subgroup_per_divisor():
    sl = all_subgroups(make_cyclic(12))
    assert len(sl.all) == 6
    assert sl.counts_by_order == {1: 1, 2: 1, 3: 1, 4: 1, 6: 1, 12: 1}


@pytest.mark.parametrize("n", [4, 6, 8, 9, 10, 15, 16, 18, 20, 24, 30, 36, 60, 100])
def test_cyclic_subgroups_match_divisors(n):
    sl = all_subgroups(make_cyclic(n))
    assert sorted(sl.counts_by_order) == divisors(n)
    assert all(c == 1 for c in sl.counts_by_order.values())


def test_quaternion_proper_subgroup_orders():
    sl = all_subgroups(parse_group_spec("Q8"))
    assert sorted(map(len, proper_nontrivial(sl))) == [2, 4, 4, 4]


def test_a4_has_ten_subgroups():
    sl = all_subgroups(parse_group_spec("A4"))
    assert len(sl.all) == 10
    assert sl.counts_by_order == {1: 1, 2: 3, 3: 4, 4: 1, 12: 1}


def test_proper_nontrivial_examples():
    assert len(proper_nontrivial(all_subgroups(make_cyclic(6)))) == 2
    assert list(map(len, proper_nontrivial(all_subgroups(make_cyclic(32))))) == [
        2,
        4,
        8,
        16,
    ]
    assert len(proper_nontrivial(all_subgroups(make_cyclic(4)))) == 1


def test_trivial_group_lattice():
    sl = all_subgroups(make_cyclic(1))
    assert len(sl.all) == 1
    assert sl.counts_by_order == {1: 1}
    assert proper_nontrivial(sl) == []


def test_subgroups_are_closed_and_divide_the_order():
    g = make_dihedral(6)
    sl = all_subgroups(g)
    assert all(is_closed_subgroup(g, fs) for fs in sl.all)
    assert all(g.order % len(fs) == 0 for fs in sl.all)


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        all_subgroups(make_cyclic(50), max_order=49)


BRUTE_SPECS = [
    "Z:4", "Z:6", "Z:8", "Z:12", "Z:15", "Z:16", "Z:24",
    "S3", "D:4", "D:6", "A4", "S4", "Q8", "SD:3,4,2", "SD:7,3,2",
]


@pytest.mark.parametrize("spec", BRUTE_SPECS)
def test_join_saturation_matches_brute_force(spec):
    g = parse_group_spec(spec)
    assert g.order <= 24
    got = all_subgroups(g)
    want = brute_force_subgroups(g)
    assert got.all == want
    assert got.counts_by_order == Counter(map(len, want))


@pytest.mark.parametrize(
    "spec",
    ["Z:36", "Z:72", "D:18", "S3xS3", "Z9sZ4", "Z5Z5sZ3", "Z2Z2sZ9", "SD:25,2,24"],
)
def test_sylow_counts(spec):
    g = parse_group_spec(spec)
    sl = all_subgroups(g)
    for p, e in factorize(g.order):
        n_p = sl.counts_by_order.get(p**e, 0)
        assert n_p >= 1
        assert n_p % p == 1


def test_counts_json_snapshot():
    assert counts_json(all_subgroups(parse_group_spec("A4"))) == {
        "1": 1,
        "2": 3,
        "3": 4,
        "4": 1,
        "12": 1,
    }
    assert json.dumps(counts_json(all_subgroups(make_cyclic(12))), sort_keys=True) == (
        '{"1": 1, "12": 1, "2": 1, "3": 1, "4": 1, "6": 1}'
    )


@given(st.integers(min_value=2, max_value=120))
@settings(max_examples=40, deadline=None)
def test_cyclic_lattice_matches_divisors_property(n):
    sl = all_subgroups(make_cyclic(n))
    assert sorted(sl.counts_by_order) == divisors(n)
    assert all(c == 1 for c in sl.counts_by_order.values())


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=2, max_value=6))
@settings(max_examples=25, deadline=None)
def test_semidirect_lattice_orders_divide(m, k):
    # build any valid twist for (m, k); skip pairs with none besides i=1
    from math import gcd

    i = next(
        (c for c in range(2, m) if gcd(c, m) == 1 and pow(c, k, m) == 1),
        1,
    )
    g = make_semidirect_cyclic(m, k, i)
    sl = all_subgroups(g)
    assert all(g.order % len(fs) == 0 for fs in sl.all)
    assert sl.counts_by_order[1] == 1
    assert sl.counts_by_order[g.order] == 1


CATALOG_SPECS = [entry.spec for entry in load_catalog()]
# A5, S5 and A5 x Z2: not solvable, so the join loop completes their lattices
NON_SOLVABLE_SPECS = [
    "PERM:5:[0 1 2],[2 3 4]",
    "PERM:5:[0 1 2 3 4],[0 1]",
    "X(PERM:5:[0 1 2],[2 3 4],Z:2)",
]


@pytest.fixture
def closures(monkeypatch):
    """Every join closure the enumerator runs, in order."""
    calls = []
    real = lattice._generate

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(lattice, "_generate", counting)
    return calls


@pytest.mark.parametrize(
    "spec", sorted(set(CATALOG_SPECS + LATTICE_EXPORT_SPECS + NON_SOLVABLE_SPECS))
)
def test_cyclic_extension_matches_the_join_saturation_oracle(closures, spec):
    g = parse_group_spec(spec, 4096)
    got = all_subgroups(g, 4096)
    want = all_subgroups_oracle(g, 4096)
    assert got.all == want.all
    assert got.counts_by_order == want.counts_by_order
    # the join loop runs exactly when cyclic extension misses G itself
    assert bool(closures) == (spec in NON_SOLVABLE_SPECS)


@pytest.mark.parametrize(
    "spec", sorted(set(CATALOG_SPECS + LATTICE_EXPORT_SPECS + NON_SOLVABLE_SPECS + ["D:256"]))
)
def test_class_expansion_matches_the_per_subgroup_enumerator(closures, spec):
    g = parse_group_spec(spec, 4096)
    got = all_subgroups(g, 4096)
    want = all_subgroups_by_extension(g, 4096)
    assert got.all == want.all
    assert got.counts_by_order == want.counts_by_order
    assert bool(closures) == (spec in NON_SOLVABLE_SPECS)


def test_s5_joins_one_representative_per_class(closures):
    # S5 has 156 subgroups in 19 conjugacy classes; joining each subgroup with
    # each cyclic subgroup ran 9561 closures, one representative per class with
    # each cyclic subgroup 1079, with one per normaliser orbit 205, and with
    # one odd prime-power cyclic subgroup per normaliser orbit 54
    sl = all_subgroups(parse_group_spec("PERM:5:[0 1 2 3 4],[0 1]"))
    assert len(sl.all) == 156
    assert len(closures) == 54


A5 = "PERM:5:[0 1 2],[2 3 4]"
S5 = "PERM:5:[0 1 2 3 4],[0 1]"
A6 = "PERM:6:[0 1 2],[1 2 3 4 5]"
S6 = "PERM:6:[0 1 2 3 4 5],[0 1]"
# PSL(2,7) = GL(3,2), of order 168, with 179 subgroups
PSL27 = "PERM:7:[0 1 2 3 4 5 6],[2 4]x[5 6]"
A7 = "PERM:7:[0 1 2],[0 1 2 3 4 5 6]"
S7 = "PERM:7:[0 1 2 3 4 5 6],[0 1]"


def has_odd_prime_power_order(group, x: int) -> bool:
    k, y = 1, x
    while y != 0:
        y = group.table[y][x]
        k += 1
    return k % 2 == 1 and len(factorize_oracle(k)) == 1


# the closures of the join loop that takes only the cyclic subgroups of odd
# prime-power order and extends every class the joins find
ODD_PRIME_POWER_JOINS = {A5: 28, S5: 54, PSL27: 64, A6: 210, S6: 413}


@pytest.mark.parametrize(
    "spec, joining_every_atom, per_orbit",
    [(A5, 225, 48), (S5, 1079, 205), (PSL27, 1017, 148), (A6, 3307, 403), (S6, 19028, 1957)],
)
def test_join_loop_runs_one_closure_per_normaliser_orbit(
    closures, spec, joining_every_atom, per_orbit
):
    g = parse_group_spec(spec)
    want = all_subgroups_joining_every_atom(g)
    oracle_closures = list(closures)
    closures.clear()
    per_orbit_lattice = all_subgroups_per_orbit(g)
    per_orbit_closures = list(closures)
    closures.clear()
    got = all_subgroups(g)
    assert got.all == want.all == per_orbit_lattice.all
    assert got.counts_by_order == want.counts_by_order == per_orbit_lattice.counts_by_order
    assert (len(oracle_closures), len(per_orbit_closures), len(closures)) == (
        joining_every_atom,
        per_orbit,
        ODD_PRIME_POWER_JOINS[spec],
    )
    # the per-orbit loop's closures are some of the oracle's, in its order,
    # and each representative is joined from the same generators
    remaining = iter(oracle_closures)
    assert all(gens in remaining for gens in per_orbit_closures)
    assert list(dict.fromkeys(gens[:-1] for gens in per_orbit_closures)) == list(
        dict.fromkeys(gens[:-1] for gens in oracle_closures)
    )
    # every join is with a cyclic subgroup of odd prime-power order
    assert all(has_odd_prime_power_order(g, gens[-1]) for gens in closures)


def test_s6_has_1455_subgroups():
    # OEIS A005432; the counts agree with the join-saturation oracle
    sl = all_subgroups(parse_group_spec(S6))
    assert len(sl.all) == 1455
    assert sl.counts_by_order == {
        1: 1, 2: 75, 3: 40, 4: 255, 5: 36, 6: 280, 8: 255, 9: 10, 10: 36, 12: 150,
        16: 45, 18: 50, 20: 36, 24: 90, 36: 30, 48: 30, 60: 12, 72: 10, 120: 12,
        360: 1, 720: 1,
    }


def test_a5_has_59_subgroups():
    sl = all_subgroups(parse_group_spec(A5))
    assert len(sl.all) == 59
    assert sl.counts_by_order == {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6, 12: 5, 60: 1}


def test_a7_has_3786_subgroups(closures):
    # OEIS A029725
    sl = all_subgroups(parse_group_spec(A7, 2520), 2520)
    assert len(sl.all) == 3786
    assert sl.counts_by_order == {
        1: 1, 2: 105, 3: 175, 4: 455, 5: 126, 6: 735, 7: 120, 8: 315, 9: 70, 10: 126,
        12: 455, 18: 70, 20: 126, 21: 120, 24: 525, 36: 105, 60: 63, 72: 35, 120: 21,
        168: 30, 360: 7, 2520: 1,
    }
    assert list(sl.counts_by_order.items()) == order_tally(sl)
    assert len(closures) == 1023


def test_s7_has_11300_subgroups(closures):
    # OEIS A005432
    sl = all_subgroups(parse_group_spec(S7, 5040), 5040)
    assert len(sl.all) == 11300
    assert sl.counts_by_order == {
        1: 1, 2: 231, 3: 175, 4: 1295, 5: 126, 6: 1645, 7: 120, 8: 1575, 9: 70, 10: 378,
        12: 1715, 14: 120, 16: 315, 18: 350, 20: 378, 21: 120, 24: 1435, 36: 245, 40: 126,
        42: 120, 48: 315, 60: 63, 72: 175, 120: 105, 144: 35, 168: 30, 240: 21, 360: 7,
        720: 7, 2520: 1, 5040: 1,
    }
    assert list(sl.counts_by_order.items()) == order_tally(sl)
    assert len(closures) == 1971


def order_tally(sl) -> list[tuple[int, int]]:
    """How many of ``sl.all`` have each order, sorted by order."""
    return sorted(Counter(map(len, sl.all)).items())


@pytest.mark.parametrize(
    "spec",
    sorted(
        set(CATALOG_SPECS + LATTICE_EXPORT_SPECS + NON_SOLVABLE_SPECS)
        | {"D:60", "D:128", "D:210", "D:256", "D:1000", A6, S6, PSL27}
    ),
)
def test_counts_by_order_tally_the_subgroups(spec):
    sl = all_subgroups(parse_group_spec(spec, 4096), 4096)
    assert list(sl.counts_by_order.items()) == order_tally(sl)


@pytest.mark.parametrize(
    "spec", sorted(set(CATALOG_SPECS + LATTICE_EXPORT_SPECS) | {"D:1000", S6, A7})
)
def test_orders_and_inverses_match_the_power_lists(spec):
    table = parse_group_spec(spec, 4096).table
    powers = power_lists(table)
    order, inverse = lattice._orders_and_inverses(table)
    assert order == [len(x_pows) for x_pows in powers]
    assert inverse == [x_pows[-1] for x_pows in powers]


@st.composite
def small_permutation_groups(draw):
    degree = draw(st.integers(min_value=1, max_value=5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    return make_permutation_group(degree, [tuple(p) for p in gens])


def test_random_permutation_groups_match_the_oracle(closures):
    completed = []

    @settings(max_examples=60, deadline=None)
    @given(small_permutation_groups())
    @example(make_permutation_group(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]))
    def check(group):
        joining_every_atom = all_subgroups_joining_every_atom(group)
        per_orbit = all_subgroups_per_orbit(group)
        closures.clear()
        got = all_subgroups(group)
        assert got.all == per_orbit.all
        assert got.counts_by_order == per_orbit.counts_by_order
        oracle = all_subgroups_oracle(group)
        assert got.all == oracle.all
        assert got.counts_by_order == oracle.counts_by_order
        by_extension = all_subgroups_by_extension(group)
        assert got.all == by_extension.all
        assert got.counts_by_order == by_extension.counts_by_order
        assert got.all == joining_every_atom.all
        assert got.counts_by_order == joining_every_atom.counts_by_order
        # A5 and S5, of order 60 and 120, are the only subgroups of S5 that
        # are not solvable; only they need the join loop
        assert bool(closures) == (group.order >= 60)
        completed.append(bool(closures))

    check()
    assert any(completed)


@st.composite
def products_with_small_cyclic_or_dihedral_groups(draw):
    degree = draw(st.integers(min_value=1, max_value=4))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    factor = draw(
        st.one_of(
            st.integers(min_value=1, max_value=6).map(make_cyclic),
            st.integers(min_value=2, max_value=4).map(make_dihedral),
        )
    )
    return make_direct_product(make_permutation_group(degree, [tuple(p) for p in gens]), factor)


@settings(max_examples=25, deadline=None)
@given(products_with_small_cyclic_or_dihedral_groups())
@example(make_direct_product(make_permutation_group(4, [(1, 2, 3, 0), (1, 0, 2, 3)]), make_dihedral(4)))
def test_products_of_small_groups_match_every_oracle(group):
    got = all_subgroups(group)
    for oracle in (
        all_subgroups_oracle,
        all_subgroups_by_extension,
        all_subgroups_joining_every_atom,
        all_subgroups_per_orbit,
    ):
        want = oracle(group)
        assert got.all == want.all, oracle.__name__
        assert got.counts_by_order == want.counts_by_order, oracle.__name__


@pytest.mark.parametrize("n", [60, 128, 210, 256, 1000])
def test_dihedral_subgroup_count_closed_form(n):
    # D_n has one cyclic subgroup per divisor of n and, for each divisor d,
    # n/d dihedral subgroups <r^d, r^i s>: tau(n) + sigma(n) subgroups
    sl = all_subgroups(make_dihedral(n))
    assert len(proper_nontrivial(sl)) == len(divisors(n)) + sum(divisors(n)) - 2
