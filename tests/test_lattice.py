"""Subgroup enumeration against brute-force oracles and divisor structure."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimegraph.groups import (
    NAMED_GROUPS,
    OrderCapExceeded,
    make_cyclic,
    make_dihedral,
    make_semidirect_cyclic,
    parse_group_spec,
)
from coprimegraph.lattice import (
    all_subgroups,
    divisors,
    factorize,
    pi,
    proper_nontrivial,
)
from helpers import brute_force_subgroups, counts_json, is_closed_subgroup


def test_pi_examples():
    assert pi(1) == frozenset()
    assert pi(12) == {2, 3}
    assert pi(210) == {2, 3, 5, 7}


def test_factorize_and_divisors():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


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
    sl = all_subgroups(NAMED_GROUPS["Q8"]())
    assert sorted(s.order for s in proper_nontrivial(sl)) == [2, 4, 4, 4]


def test_a4_has_ten_subgroups():
    sl = all_subgroups(NAMED_GROUPS["A4"]())
    assert len(sl.all) == 10
    assert sl.counts_by_order == {1: 1, 2: 3, 3: 4, 4: 1, 12: 1}


def test_proper_nontrivial_examples():
    assert len(proper_nontrivial(all_subgroups(make_cyclic(6)))) == 2
    assert [s.order for s in proper_nontrivial(all_subgroups(make_cyclic(32)))] == [
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


def test_subgroups_are_closed_and_sorted():
    g = make_dihedral(6)
    sl = all_subgroups(g)
    assert all(is_closed_subgroup(g, frozenset(s.elements)) for s in sl.all)
    keys = [(s.order, s.elements) for s in sl.all]
    assert keys == sorted(keys)
    assert all(g.order % s.order == 0 for s in sl.all)


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
    got = {frozenset(s.elements) for s in all_subgroups(g).all}
    assert got == brute_force_subgroups(g)


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
    assert counts_json(all_subgroups(NAMED_GROUPS["A4"]())) == {
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
    assert all(g.order % s.order == 0 for s in sl.all)
    assert sl.counts_by_order[1] == 1
    assert sl.counts_by_order[g.order] == 1
