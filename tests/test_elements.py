"""Core algebra: twisted product, inverses, powers, orders, orientation."""

import itertools

import pytest
from hypothesis import given

from planegroups import (
    GroupElement,
    GroupId,
    defining_relations,
    identity,
    parse_element,
    translation,
)
from planegroups.elements import mat_det, mat_inv, mat_mul, mat_vec
from planegroups.oracle import AffineIsometry, affine_image

from conftest import ALL_GROUPS, group_and_elements

SPAN_VECTORS = [(0, 0), (1, 0), (0, 1), (-1, 2), (2, -1), (-2, -2)]


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_twist_tables_are_coherent(gid):
    # group laws of the point tables plus the cocycle identity
    gid.twist.validate()


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_point_group_sizes(gid):
    expected = {"G0": 1, "G1": 2, "G2": 2, "G3": 3, "G4": 4, "G5": 6, "G6": 4}
    assert gid.point_order == expected[gid.name]


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_defining_relations_hold(gid):
    for relator in defining_relations(gid):
        assert parse_element(relator, gid).is_identity(), relator


def test_nonsplit_cocycles_are_nontrivial():
    # G1 and G6 do not split: a has no lift of order 2
    for gid in (GroupId.G1, GroupId.G6):
        a = GroupElement(gid, (0, 0), 1)
        assert (a * a) == translation(gid, 1, 0)
    ac = GroupElement(GroupId.G6, (0, 0), 3)
    assert ac * ac == translation(GroupId.G6, 0, -1)


@pytest.mark.parametrize("gid", [GroupId.G1, GroupId.G2])
def test_associativity_exhaustive_small_box(gid):
    box = [
        GroupElement(gid, (n1, n2), w)
        for n1 in range(-2, 3)
        for n2 in range(-2, 3)
        for w in range(gid.point_order)
    ]
    for x in box:
        for y in box:
            xy = x * y
            for z in box:
                assert (xy * z) == x * (y * z)


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_associativity_spanning_vectors(gid):
    # multiplication is affine in each translation argument, so checking a
    # spanning set of vectors against all point-part triples is complete
    els = [
        GroupElement(gid, v, w)
        for v in SPAN_VECTORS
        for w in range(gid.point_order)
    ]
    for x, y, z in itertools.product(els, repeat=3):
        assert (x * y) * z == x * (y * z)


@given(group_and_elements(3, span=10))
def test_associativity_random(data):
    _, x, y, z = data
    assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_inverse_law_exhaustive(gid):
    e = identity(gid)
    for n1 in range(-2, 3):
        for n2 in range(-2, 3):
            for w in range(gid.point_order):
                x = GroupElement(gid, (n1, n2), w)
                assert x * x.inverse() == e
                assert x.inverse() * x == e


@given(group_and_elements(2))
def test_product_inverse_law(data):
    _, x, y = data
    assert (x * y).inverse() == y.inverse() * x.inverse()


@given(group_and_elements(1))
def test_power_laws(data):
    _, x = data
    assert x ** 0 == identity(x.group)
    assert x ** 1 == x
    assert x ** -3 == (x ** 3).inverse()
    assert x ** 5 == x ** 2 * x ** 3


def test_multiply_examples():
    a = GroupElement(GroupId.G1, (0, 0), 1)
    assert a * a == translation(GroupId.G1, 1, 0)
    c = GroupElement(GroupId.G4, (0, 0), 1)
    assert c * translation(GroupId.G4, 1, 0) == GroupElement(GroupId.G4, (0, 1), 1)
    c6 = GroupElement(GroupId.G6, (0, 0), 2)
    a6 = GroupElement(GroupId.G6, (0, 0), 1)
    assert c6 * a6 == GroupElement(GroupId.G6, (-1, 1), 3)


def test_inverse_examples():
    a = GroupElement(GroupId.G1, (0, 0), 1)
    assert a.inverse() == GroupElement(GroupId.G1, (-1, 0), 1)
    assert GroupElement(GroupId.G4, (2, 0), 1).inverse() == GroupElement(GroupId.G4, (0, 2), 3)


def test_power_examples():
    assert (GroupElement(GroupId.G3, (1, 1), 1) ** 3).is_identity()
    a = GroupElement(GroupId.G1, (0, 0), 1)
    assert a ** 4 == translation(GroupId.G1, 2, 0)


def _affine_power(f: AffineIsometry, k: int) -> AffineIsometry:
    """f^k by square-and-multiply on exact affine maps."""
    if k < 0:
        f, k = f.inverse(), -k
    result = AffineIsometry.identity_map()
    while k:
        if k & 1:
            result = result * f
        f = f * f
        k >>= 1
    return result


def _linear_order(m) -> int:
    j, p = 1, m
    while p != ((1, 0), (0, 1)):
        j, p = j + 1, mat_mul(p, m)
    return j


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_powers_and_orders_match_affine_maps(gid):
    # x^k is affine in v, so (0, 0), (1, 0), (0, 1) already pin down the
    # power table row; (-2, 5) is a spot check.  The expected values come
    # from composing the isometries of oracle.affine_image, and m from the
    # linear part alone, so no table of the elements module is consulted.
    for w in range(gid.point_order):
        for v in [(0, 0), (1, 0), (0, 1), (-2, 5)]:
            x = GroupElement(gid, v, w)
            img = affine_image(x)
            m = _linear_order(img.linear)
            exponents = {0, 10**30, -(10**30)}
            exponents.update(range(-(2 * m + 1), 2 * m + 2))
            exponents.update(s * (q * m + e) for q in (1, 2, 3) for e in (-1, 1) for s in (-1, 1))
            for k in exponents:
                assert affine_image(x ** k) == _affine_power(img, k), (x, k)
            trivial = [j for j in range(1, m + 1) if _affine_power(img, j).is_identity()]
            expected = trivial[0] if trivial else None
            assert x.order() == expected, x


TORSION_PART_ORDERS = {
    # cosets with torsion: every element of the coset has exactly this order
    GroupId.G2: {1: 2},
    GroupId.G3: {1: 3, 2: 3},
    GroupId.G4: {1: 4, 2: 2, 3: 4},
    GroupId.G5: {1: 6, 2: 3, 3: 2, 4: 3, 5: 6},
    GroupId.G6: {2: 2},
}


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_orders_exhaustive(gid):
    torsion = TORSION_PART_ORDERS.get(gid, {})
    for n1 in range(-3, 4):
        for n2 in range(-3, 4):
            for w in range(gid.point_order):
                x = GroupElement(gid, (n1, n2), w)
                expected = torsion.get(w)
                if w == 0:
                    expected = 1 if (n1, n2) == (0, 0) else None
                assert x.order() == expected, x


def test_order_examples():
    assert GroupElement(GroupId.G5, (2, 0), 1).order() == 6
    assert GroupElement(GroupId.G6, (3, 5), 2).order() == 2
    assert GroupElement(GroupId.G1, (0, 3), 1).order() is None
    assert identity(GroupId.G0).order() == 1


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_orientation_character(gid):
    reversing = {GroupId.G1: {1}, GroupId.G6: {1, 3}}.get(gid, set())
    for w in range(gid.point_order):
        x = GroupElement(gid, (2, -1), w)
        assert x.orientation_character() == (-1 if w in reversing else 1)


@given(group_and_elements(2))
def test_orientation_character_multiplicative(data):
    _, x, y = data
    assert (x * y).orientation_character() == x.orientation_character() * y.orientation_character()


def test_group_mismatch_rejected():
    with pytest.raises(ValueError):
        translation(GroupId.G1, 1, 0) * translation(GroupId.G2, 1, 0)


def test_invalid_point_part_rejected():
    with pytest.raises(ValueError):
        GroupElement(GroupId.G2, (0, 0), 2)
    with pytest.raises(ValueError):
        GroupElement(GroupId.G0, (0, 0), -1)


def test_non_integer_exponents_rejected():
    with pytest.raises(TypeError):
        GroupElement(GroupId.G0, (0.5, 0), 0)
    # bool is an int subclass but no exponent or point part; nor is a float
    bad = [((0, 0), 1.0), ((True, False), True), ((True, 0), 0), ((0, 0), True), ((0, 0), "1")]
    for v, w in bad:
        with pytest.raises(TypeError):
            GroupElement(GroupId.G4, v, w)


def test_matrix_helpers():
    m = ((0, -1), (1, -1))
    assert mat_det(m) == 1
    assert mat_mul(m, mat_inv(m)) == ((1, 0), (0, 1))
    assert mat_vec(m, (1, 0)) == (0, 1)
    with pytest.raises(ValueError):
        mat_inv(((2, 0), (0, 1)))
