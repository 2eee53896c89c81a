"""Constructor tests: tables are groups, censuses match direct computation."""

import hashlib
import re
import tracemalloc
from dataclasses import fields
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coprimegraph import groups
from coprimegraph.errors import QUOTE_LIMIT, clip
from coprimegraph.groups import (
    FiniteGroup,
    GroupConstructionError,
    NAMED_GROUPS,
    OrderCapExceeded,
    SpecParseError,
    ascii_int,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_permutation_group,
    make_semidirect_cyclic,
    parse_group_spec,
    spec_order,
)
from coprimegraph.lattice import all_subgroups
from coprimegraph.theorems import load_catalog
from helpers import (
    LATTICE_EXPORT_SPECS,
    cell_by_cell_dihedral,
    cell_by_cell_direct_product,
    cell_by_cell_permutation_group,
    cell_by_cell_semidirect_cyclic,
    check_group_axioms,
    element_order_census,
    every_cut_parse_product,
    make_metacyclic,
    nested_product,
)


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
    # not abelian: the table is not symmetric
    assert tuple(zip(*g.table)) != g.table
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
        if all(g.table[a][b] == g.table[b][a] for b in range(g.order))
    ]
    # the center is the identity alone, and id 0 is the identity
    assert center == [0]
    assert list(g.table[0]) == [row[0] for row in g.table] == list(range(g.order))


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
    assert all(g.table[0][a] == a for a in range(g.order))
    assert all(row[0] == a for a, row in enumerate(g.table))


def test_permutation_rejects_non_permutation():
    with pytest.raises(GroupConstructionError):
        make_permutation_group(3, [(0, 0, 1)])


def test_permutation_closure_cap():
    with pytest.raises(OrderCapExceeded):
        make_permutation_group(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], max_order=30)


@pytest.mark.parametrize("tag", sorted(NAMED_GROUPS))
def test_named_groups_are_groups(tag):
    g = parse_group_spec(tag)
    check_group_axioms(g)


@pytest.mark.parametrize(
    "tag,order",
    [("A4", 12), ("S4", 24), ("Q8", 8), ("S3xS3", 36), ("Z9sZ4", 36),
     ("Z3Z3sZ4", 36), ("Z5Z5sZ3", 75), ("Z5Z5sZ2", 50), ("Z2Z2sZ9", 36),
     ("Z2xZ3Z3sZ2", 36)],
)
def test_named_group_orders(tag, order):
    assert parse_group_spec(tag).order == order


def test_quaternion_census():
    census = element_order_census(parse_group_spec("Q8"))
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


def test_a_groups_order_is_its_tables_length():
    # the Klein four-group: no order is stored beside the table to disagree with it
    table = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    group = FiniteGroup(name="V4", table=table)
    assert group.order == len(table) == 4
    assert [f.name for f in fields(FiniteGroup)] == ["name", "table"]
    with pytest.raises(TypeError):
        FiniteGroup("bad", 3, table)
    assert all_subgroups(group).counts_by_order == {1: 1, 2: 3, 4: 1}


def test_axiom_checker_rejects_broken_table():
    broken = FiniteGroup(name="bad", table=((0, 1), (1, 1)))
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
    loop = FiniteGroup(name="loop", table=table)
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


@pytest.mark.parametrize(
    "text", ["Z:3_0", "Z:\u0663\u0660", "D:\u0665", "SD:7,3,2_0", "PERM:3:[0 \u0661]", "Z:+-3"]
)
def test_spec_integers_are_ascii_digits(text):
    with pytest.raises(SpecParseError, match="expected integer"):
        parse_group_spec(text)


@settings(max_examples=300)
@given(st.text(st.sampled_from("0123456789+-_ \u0663\u00b9") | st.characters(), max_size=5))
def test_a_spec_integer_is_read_exactly_when_it_is_a_signed_ascii_integer(token):
    try:
        spec_order(f"Z:{token}")
        read = True
    except SpecParseError as exc:
        read = "expected integer" not in str(exc)
    assert read == bool(re.fullmatch("[+-]?[0-9]+", token.strip()))


@settings(max_examples=300)
@given(st.text(st.sampled_from("0123456789+-_ \u0663\u00b9") | st.characters(), max_size=5))
def test_ascii_int_reads_exactly_the_signed_ascii_integers(token):
    try:
        value = ascii_int(token)
    except ValueError:
        value = None
    match = re.fullmatch("[+-]?[0-9]+", token.strip())
    assert value == (int(match.group()) if match else None)


@pytest.mark.parametrize(
    "text,message",
    [
        ("SD:1,2,1", "semidirect factors must be >= 2"),
        ("PERM:4", "PERM needs PERM:degree:gens"),
        ("PERM:0:[0 1]", "degree must be positive"),
        ("PERM:3:[0 1],", "empty permutation generator"),
        ("PERM:3:[0 1], ,[1 2]", "empty permutation generator"),
        ("PERM:4:[0 1 2]x[0 2 1],[0 1]x[2 3]", "cycles share a point in generator '[0 1 2]x[0 2 1]'"),
        ("PERM:4:[0 1 2 3]x[0 1]", "cycles share a point in generator '[0 1 2 3]x[0 1]'"),
    ],
)
def test_parse_group_spec_names_what_is_wrong(text, message):
    with pytest.raises(SpecParseError, match=re.escape(message)):
        parse_group_spec(text)


LONG_PRODUCT = "X(PERM:3:" + ",".join(["[0 1]"] * 10_000) + ",)"


@pytest.mark.parametrize(
    "text",
    [LONG_PRODUCT, "Y:" + "3" * 200, "PERM:3:[0 1" + " 2" * 200, "Z:" + "١" * 200, "SD:" + "7," * 200,
     "PERM:3:" + "x".join(["[0 1]"] * 100)],
    ids=["product", "unrecognized", "cycle", "integer", "semidirect", "shared-point"],
)
def test_a_spec_error_quotes_at_most_the_clip_limit(text):
    with pytest.raises(SpecParseError) as info:
        parse_group_spec(text)
    quoted = re.search(r"'(.*)'", str(info.value)).group(1)
    assert len(quoted) == QUOTE_LIMIT and quoted.endswith("...")
    assert quoted[:-3] in text


def test_an_order_cap_names_a_long_spec_clipped():
    text = nested_product(groups.MAX_PRODUCT_DEPTH, "Z:2")
    with pytest.raises(OrderCapExceeded) as info:
        parse_group_spec(text)
    assert str(info.value) == f"{clip(text)}: group order {2 ** 101} exceeds the bound 2048"


def test_a_permutation_closure_cap_names_its_spec_clipped():
    text = "PERM:6:" + ",".join(["[0 1 2 3 4 5]", "[0 1]"] * 20)
    with pytest.raises(OrderCapExceeded) as info:
        parse_group_spec(text, max_order=100)
    assert str(info.value) == f"{clip(text)}: permutation closure exceeded 100 elements"


@pytest.mark.parametrize("text,order", [("Z: 30", 30), ("D:+5", 10), ("SD: 7, 3, +2", 21)])
def test_spec_integers_may_carry_whitespace_and_a_sign(text, order):
    assert parse_group_spec(text).order == order


# sha256 of repr((name, order, table)), from the hand-written constructions
# the named specs replaced
NAMED_DIGESTS = {
    "A4": "9fde790e67617e7a", "D10xZ5": "961e14324977d324", "D12": "d37c12cf7d5a54ea",
    "Q8": "0574548e780a7d94", "S3": "4366061ae77f5a27", "S3xS3": "e9895c827781f89c",
    "S4": "153599a3c2ccc0ce", "Z2Z2sZ9": "1bdf8334b1e975ac", "Z2xZ3Z3sZ2": "3339375f56e4a931",
    "Z3Z3sZ4": "783980611111520a", "Z3xA4": "0402e23eace31e57", "Z5Z5sZ2": "5a8e36246b0f7a96",
    "Z5Z5sZ3": "72b6cd47bbd2c210", "Z6xS3": "9deaa93c55c3f1b9", "Z9sZ4": "17f4a1fa1cd3ba92",
}


def test_every_named_group_is_pinned():
    assert sorted(NAMED_GROUPS) == sorted(NAMED_DIGESTS)


@pytest.mark.parametrize("name", sorted(NAMED_DIGESTS))
def test_named_group_is_its_pinned_table(name):
    g = parse_group_spec(name)
    assert hashlib.sha256(repr((g.name, g.order, g.table)).encode()).hexdigest()[:16] == (
        NAMED_DIGESTS[name]
    )
    # the text fixes no order, and the caller's cap does not apply
    assert spec_order(name) is None
    assert parse_group_spec(name, max_order=1) == g


def test_parse_perm_matches_named_a4():
    a = parse_group_spec("PERM:4:[0 1 2],[0 1]x[2 3]")
    b = parse_group_spec("A4")
    assert element_order_census(a) == element_order_census(b)


def test_perm_closure_works_on_the_moved_points_only():
    tracemalloc.start()
    try:
        big = parse_group_spec("PERM:10000000:[0 1 2 3]")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert big.table == parse_group_spec("PERM:4:[0 1 2 3]").table
    assert big.name == "Perm10000000<4>"
    assert parse_group_spec("PERM:5:[0 1 2 3 4],[0 1]").name == "Perm5<120>"


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


TABLE_SPECS = sorted(
    spec
    for spec in {entry.spec for entry in load_catalog()} | set(LATTICE_EXPORT_SPECS)
    if spec.startswith(("D:", "SD:", "X("))
)


@pytest.mark.parametrize("spec", TABLE_SPECS + ["D:2", "SD:3,2,2", "X(Z:1,S3)", "X(S3,Z:1)"])
def test_row_builders_match_the_cell_by_cell_tables(monkeypatch, spec):
    fast = parse_group_spec(spec, 4096)
    monkeypatch.setattr(groups, "make_dihedral", cell_by_cell_dihedral)
    monkeypatch.setattr(groups, "make_semidirect_cyclic", cell_by_cell_semidirect_cyclic)
    monkeypatch.setattr(groups, "make_direct_product", cell_by_cell_direct_product)
    assert parse_group_spec(spec, 4096) == fast


@st.composite
def semidirect_triples(draw):
    """A valid m, k, i for SD: i is any unit with i^k = 1 mod m, shifted by
    a multiple of m, which the builder reduces."""
    m = draw(st.integers(min_value=2, max_value=40))
    k = draw(st.integers(min_value=2, max_value=8))
    i = draw(st.sampled_from([i for i in range(m) if gcd(i, m) == 1 and pow(i, k, m) == 1]))
    return m, k, i + m * draw(st.integers(min_value=-2, max_value=2))


@settings(max_examples=80, deadline=None)
@given(semidirect_triples())
def test_semidirect_blocks_match_the_cell_by_cell_table(triple):
    assert make_semidirect_cyclic(*triple) == cell_by_cell_semidirect_cyclic(*triple)


PRODUCT_FACTORS = ["Z:1", "Z:2", "Z:5", "D:3", "D:4", "Q8", "A4", "SD:7,3,2", "X(Z:2,Z:2)"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRODUCT_FACTORS), st.sampled_from(PRODUCT_FACTORS))
@example("Z:1", "D:3")
@example("D:3", "Z:1")
@example("Z:1", "Z:1")
def test_product_blocks_match_the_cell_by_cell_table(left, right):
    g, h = parse_group_spec(left), parse_group_spec(right)
    assert make_direct_product(g, h) == cell_by_cell_direct_product(g, h)


# the named groups built from permutations, alone or as a factor
PERMUTATION_NAMES = ("Q8", "A4", "S4", "Z3Z3sZ4", "Z5Z5sZ3", "Z5Z5sZ2", "Z2Z2sZ9", "Z2xZ3Z3sZ2")
PERMUTATION_SPECS = sorted(
    spec
    for spec in {e.spec for e in load_catalog()} | set(LATTICE_EXPORT_SPECS) | set(NAMED_GROUPS)
    if spec.startswith("PERM:") or any(name in spec for name in PERMUTATION_NAMES)
)


@pytest.mark.parametrize("spec", PERMUTATION_SPECS + ["PERM:6:[0 1 2 3 4 5],[0 1]"])
def test_permutation_tables_match_the_cell_by_cell_builder(monkeypatch, spec):
    fast = parse_group_spec(spec, 4096)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return cell_by_cell_permutation_group(*args, **kwargs)

    monkeypatch.setattr(groups, "make_permutation_group", recording)
    assert parse_group_spec(spec, 4096) == fast
    assert calls


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda degree: st.lists(st.permutations(range(degree)), min_size=1, max_size=3)
))
def test_random_permutation_tables_match_the_cell_by_cell_builder(gens):
    gens = [tuple(p) for p in gens]
    degree = len(gens[0])
    assert make_permutation_group(degree, gens, 720) == cell_by_cell_permutation_group(
        degree, gens, 720
    )


# Product specs: the single cut against the every-cut oracle, and the depth bound

# (text, order, whether the text fixes the order); SD and PERM leaves carry
# the top-level commas a product's cut has to see past
PRODUCT_LEAVES = [
    ("Z:1", 1, True), ("Z:2", 2, True), ("Z:3", 3, True), ("D:2", 4, True),
    ("SD:3,2,2", 6, True), ("SD:3, 2 ,2", 6, True), ("SD:5,4,2", 20, True),
    ("PERM:3:[0 1]", 2, False), ("PERM:3:[0 1 2], [0 1]", 6, False),
    ("PERM:4:[0 1]x[2 3],[0 2]x[1 3]", 4, False), ("S3", 6, False), ("Q8", 8, False),
]
SPACES = st.sampled_from(["", " "])


def _join(pair):
    (a, b), (pad_a, pad_b) = pair
    return (f"X({pad_a}{a[0]},{pad_b}{b[0]})", a[1] * b[1], a[2] and b[2])


PRODUCT_TREES = st.recursive(
    st.sampled_from(PRODUCT_LEAVES),
    lambda inner: st.tuples(st.tuples(inner, inner), st.tuples(SPACES, SPACES)).map(_join),
    max_leaves=5,
)


@settings(max_examples=120, deadline=None)
@given(PRODUCT_TREES)
def test_nested_product_order_is_the_product_of_its_leaves(tree):
    text, order, fixed = tree
    assert spec_order(text) == (order if fixed else None)
    if order <= 1024:
        assert parse_group_spec(text, 1024).order == order
    else:
        with pytest.raises(OrderCapExceeded):
            parse_group_spec(text, 1024)


@st.composite
def product_texts(draw):
    """A nested product spec, or one with a few characters inserted or deleted."""
    text = list(draw(PRODUCT_TREES)[0])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()) and i < len(text):
            del text[i]
        else:
            text.insert(i, draw(st.sampled_from(list(",()[]X:Z2 "))))
    return "".join(text)


def _parse_outcome(text):
    try:
        spec = groups._parse_spec(text)
        return spec.text, spec.order, spec.build(256)
    except (SpecParseError, GroupConstructionError, OrderCapExceeded) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(product_texts())
@example("X(PERM:3:[0 1],[0 1],Z:2)")
@example("X(Z:2,PERM:3:[0 1],[0 1])")
@example("X(SD:7,3,2,SD:3,2,2)")
@example("X(Z:2,Z:3,Z:5)")
@example("X(Z:2,,Z:3)")
@example("X(,Z:3)")
@example("X(Z:2,[0 1],Z:3)")
@example("X(X(Z:2),Z:3),Z:5)")
@example("X(Z:2,é)")
@example("X( Z:2 , Q8 )")
@example("X(Z:abc,Z:2)")
@example("X(Z:2,PERM:5:[0 1],[1 2]x[2 3 4])")
@example("X(X(Z:2,Z:3,Z:5),Z:7)")
def test_single_cut_matches_every_cut(text):
    single = _parse_outcome(text)
    with mock.patch.object(groups, "_parse_product", every_cut_parse_product):
        every = _parse_outcome(text)
    # the later top-level parts of a product that start with a letter
    s = text.strip()
    parts = groups._split_top_level(s[2:-1]) if s.startswith("X(") and s.endswith(")") else []
    cuts = [i for i in range(1, len(parts)) if parts[i].lstrip()[:1].isalpha()]
    if every[0] != "SpecParseError" or len(cuts) != 1:
        assert single == every
    else:
        # one cut, and a factor there fails: the first failing factor's error
        factors = ",".join(parts[: cuts[0]]), ",".join(parts[cuts[0] :])
        assert single == next(e for e in map(_parse_error, factors) if e is not None)


def _parse_error(text):
    try:
        groups._parse(text)
    except SpecParseError as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize(
    "text, message",
    [
        ("X(Z:abc,Z:2)", "expected integer for cyclic order, got 'abc'"),
        ("X(Z:2,PERM:5:[0 1],[1 2]x[2 3 4])", "cycles share a point in generator '[1 2]x[2 3 4]'"),
        ("X(Z:2,Z:3,Z:5)", "X needs exactly two factors, got 'X(Z:2,Z:3,Z:5)'"),
        ("X(Z:2)", "X needs exactly two factors, got 'X(Z:2)'"),
    ],
)
def test_a_product_reports_its_factor_error(text, message):
    with pytest.raises(SpecParseError) as info:
        parse_group_spec(text)
    assert str(info.value) == message


def test_product_nesting_is_bounded_before_any_recursion():
    assert parse_group_spec(nested_product(groups.MAX_PRODUCT_DEPTH, "Z:1")).order == 1
    assert spec_order(nested_product(groups.MAX_PRODUCT_DEPTH, "PERM:3:[0 1]")) is None
    too_deep = [
        nested_product(groups.MAX_PRODUCT_DEPTH + 1, "Z:1"),
        nested_product(600, "Z:2"),
        "X(Z:1," * 600 + "Z:1" + ")" * 600,
    ]
    for text in too_deep:
        with mock.patch.object(groups, "_parse", side_effect=AssertionError("parsed")):
            with pytest.raises(SpecParseError, match="more than 100 levels"):
                parse_group_spec(text)
            with pytest.raises(SpecParseError, match="more than 100 levels"):
                spec_order(text)
