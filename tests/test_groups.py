"""Constructor tests: tables are groups, censuses match direct computation."""

import pytest

from coprimegraph.groups import (
    FiniteGroup,
    GroupConstructionError,
    NAMED_GROUPS,
    OrderCapExceeded,
    SpecParseError,
    check_group_axioms,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_permutation_group,
    make_semidirect_cyclic,
    parse_group_spec,
    spec_order,
)
from helpers import element_order_census


def test_cyclic_identity_case():
    g = make_cyclic(1)
    assert g.order == 1
    assert g.table == ((0,),)


def test_cyclic_six_element_orders():
    # additive orders mod 6: one element each of order 1 and 2, two of 3 and 6
    census = element_order_census(make_cyclic(6))
    assert census == {1: 1, 2: 1, 3: 2, 6: 2}


def test_cyclic_rejects_nonpositive():
    with pytest.raises(GroupConstructionError):
        make_cyclic(0)


def test_dihedral_s3_census():
    census = element_order_census(make_dihedral(3))
    assert census == {1: 1, 2: 3, 3: 2}


def test_dihedral_order12_has_seven_involutions():
    census = element_order_census(make_dihedral(6))
    assert census[2] == 7
    assert sum(census.values()) == 12


def test_dihedral_two_is_klein_four():
    census = element_order_census(make_dihedral(2))
    assert census == {1: 1, 2: 3}


def test_dihedral_rejects_small():
    with pytest.raises(GroupConstructionError):
        make_dihedral(1)


def test_semidirect_is_s3():
    g = make_semidirect_cyclic(3, 2, 2)
    assert g.order == 6
    assert not g.is_abelian()
    assert element_order_census(g) == element_order_census(make_dihedral(3))


def test_semidirect_order21_no_order21_element():
    g = make_semidirect_cyclic(7, 3, 2)
    census = element_order_census(g)
    assert g.order == 21
    assert 21 not in census
    assert census == {1: 1, 3: 14, 7: 6}


def test_semidirect_trivial_action_equals_direct_product():
    sd = make_semidirect_cyclic(5, 2, 1)
    dp = make_direct_product(make_cyclic(5), make_cyclic(2))
    assert sd.table == dp.table
    # and it is cyclic of order 10
    assert 10 in element_order_census(sd)


def test_semidirect_rejects_bad_action():
    with pytest.raises(GroupConstructionError):
        make_semidirect_cyclic(7, 3, 3)  # 3^3 = 27 != 1 mod 7
    with pytest.raises(GroupConstructionError):
        make_semidirect_cyclic(6, 2, 3)  # gcd(3, 6) != 1


def test_metacyclic_family_instances():
    from coprimegraph.groups import make_metacyclic

    assert make_metacyclic(7, 3, 3).table == make_semidirect_cyclic(7, 3, 2).table
    assert make_metacyclic(3, 4, 2).table == make_semidirect_cyclic(3, 4, 2).table
    assert make_metacyclic(5, 4, 4).table == make_semidirect_cyclic(5, 4, 2).table
    assert make_metacyclic(25, 2, 2).table == make_semidirect_cyclic(25, 2, 24).table
    with pytest.raises(GroupConstructionError):
        make_metacyclic(7, 3, 2)  # 2 does not divide 3
    with pytest.raises(GroupConstructionError):
        make_metacyclic(7, 7, 7)  # no unit of order 7 mod 7


def test_direct_product_coprime_factors_cyclic():
    g = make_direct_product(make_cyclic(2), make_cyclic(3))
    assert 6 in element_order_census(g)


def test_direct_product_klein_has_no_order_four():
    g = make_direct_product(make_cyclic(2), make_cyclic(2))
    assert 4 not in element_order_census(g)


def test_direct_product_s3_s3_center_trivial():
    g = make_direct_product(make_dihedral(3), make_dihedral(3))
    assert g.order == 36
    center = [
        a
        for a in range(g.order)
        if all(g.mul(a, b) == g.mul(b, a) for b in range(g.order))
    ]
    assert center == [g.identity]


def test_permutation_single_cycle_is_cyclic():
    g = make_permutation_group(3, [(1, 2, 0)])
    assert g.order == 3
    assert element_order_census(g) == {1: 1, 3: 2}


def test_permutation_a4_closure():
    g = make_permutation_group(4, [(1, 2, 0, 3), (1, 0, 3, 2)])
    assert g.order == 12


def test_permutation_s4_closure():
    g = make_permutation_group(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
    assert g.order == 24


def test_permutation_identity_is_element_zero():
    g = make_permutation_group(4, [(1, 2, 3, 0)])
    assert g.identity == 0
    assert all(g.mul(0, a) == a for a in range(g.order))


def test_permutation_rejects_non_permutation():
    with pytest.raises(GroupConstructionError):
        make_permutation_group(3, [(0, 0, 1)])


def test_permutation_closure_cap():
    with pytest.raises(OrderCapExceeded):
        make_permutation_group(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], max_order=30)


@pytest.mark.parametrize("tag", sorted(NAMED_GROUPS))
def test_named_groups_are_groups(tag):
    g = NAMED_GROUPS[tag]()
    check_group_axioms(g)


@pytest.mark.parametrize(
    "tag,order",
    [("A4", 12), ("S4", 24), ("Q8", 8), ("S3xS3", 36), ("Z9sZ4", 36),
     ("Z3Z3sZ4", 36), ("Z5Z5sZ3", 75), ("Z5Z5sZ2", 50), ("Z2Z2sZ9", 36),
     ("Z2xZ3Z3sZ2", 36)],
)
def test_named_group_orders(tag, order):
    assert NAMED_GROUPS[tag]().order == order


def test_quaternion_census():
    census = element_order_census(NAMED_GROUPS["Q8"]())
    assert census == {1: 1, 2: 1, 4: 6}


@pytest.mark.parametrize(
    "builder",
    [
        lambda: make_cyclic(12),
        lambda: make_cyclic(144),
        lambda: make_dihedral(9),
        lambda: make_semidirect_cyclic(25, 4, 7),
        lambda: make_direct_product(make_cyclic(3), make_dihedral(4)),
    ],
)
def test_constructed_tables_satisfy_axioms(builder):
    check_group_axioms(builder())


def test_axiom_checker_rejects_broken_table():
    broken = FiniteGroup(name="bad", order=2, table=((0, 1), (1, 1)))
    with pytest.raises(GroupConstructionError):
        check_group_axioms(broken)


def test_axiom_checker_rejects_nonassociative_latin_square():
    # a Latin square with identity that is not a group (order 5 loop)
    table = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    loop = FiniteGroup(name="loop", order=5, table=table)
    with pytest.raises(GroupConstructionError):
        check_group_axioms(loop)


# spec string grammar


@pytest.mark.parametrize(
    "text,order",
    [
        ("Z:36", 36),
        ("D:6", 12),
        ("SD:7,3,2", 21),
        ("X(Z:3,A4)", 36),
        ("X(SD:7,3,2,Z:3)", 63),
        ("PERM:4:[0 1 2],[0 1]x[2 3]", 12),
        ("PERM:4:[0 1 2 3],[0 1]", 24),
        ("A4", 12),
        ("Q8", 8),
    ],
)
def test_parse_group_spec(text, order):
    assert parse_group_spec(text).order == order


@pytest.mark.parametrize(
    "text",
    ["", "Y:3", "Z:abc", "SD:7,3", "SD:7,3,3", "X(Z:3)", "PERM:3:[0 1 2",
     "PERM:3:[0 5]", "PERM:3:[1 1]"],
)
def test_parse_group_spec_rejects(text):
    with pytest.raises(SpecParseError):
        parse_group_spec(text)


def test_parse_perm_matches_named_a4():
    a = parse_group_spec("PERM:4:[0 1 2],[0 1]x[2 3]")
    b = NAMED_GROUPS["A4"]()
    assert element_order_census(a) == element_order_census(b)


@pytest.mark.parametrize(
    "text, order",
    [("Z:12", 12), ("D:5", 10), ("SD:7,3,2", 21), ("X(D:40,D:40)", 6400),
     ("X(SD:7,3,2,Z:3)", 63), ("A4", None), ("PERM:3:[0 1 2]", None), ("X(A4,Z:2)", None)],
)
def test_spec_order_reads_the_text(text, order):
    assert spec_order(text) == order


def test_product_with_a_closure_factor_is_capped_before_its_table(monkeypatch):
    # a PERM factor's order is known only from its closure, so the product's
    # cap fires after the factors are built but before the product table
    def refuse(*_args):
        raise AssertionError("the product table was built")

    monkeypatch.setattr("coprimegraph.groups.make_direct_product", refuse)
    with pytest.raises(OrderCapExceeded, match="order 240 exceeds the bound 200"):
        parse_group_spec("X(PERM:5:[0 1 2 3 4],[0 1],Z:2)", max_order=200)
