import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigsurf import DomainError
from bigsurf.enumeration import negative_classes
from bigsurf.picard import DivisorClass, blowup_p2
from bigsurf.serialize import class_table_to_dict
from oracles import (arithmetic_genus, cauchy_schwarz_negative_classes, raw,
                     widened_box_negative_classes)

MINUS_ONE_COUNTS = {0: 0, 1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
ROOT_COUNTS = {0: 0, 1: 0, 2: 2, 3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}


def test_rejects_out_of_range():
    with pytest.raises(DomainError, match="0 <= r <= 8"):
        negative_classes(9)
    with pytest.raises(DomainError):
        negative_classes(-1)


@pytest.mark.parametrize("r, message", [(1.5, "r must be an int, not 1.5"),
                                        ("3", "r must be an int, not '3'")])
def test_rejects_non_integral_r(r, message):
    with pytest.raises(DomainError, match=message):
        negative_classes(r)


def test_r_by_operator_index():
    # a bool counts as its int value, so the table's r serializes as 1
    table = negative_classes(True)
    assert type(table.r) is int and table == negative_classes(1)
    assert class_table_to_dict(table)["r"] == 1


def test_no_points():
    table = negative_classes(0)
    assert table.minus_one_classes == ()
    assert table.minus_two_roots == ()


def test_one_point():
    table = negative_classes(1)
    assert table.minus_one_classes == (DivisorClass((0, 1)),)
    assert table.minus_two_roots == ()


def test_two_points_listing():
    table = negative_classes(2)
    assert table.minus_one_classes == (
        DivisorClass((0, 1, 0)),
        DivisorClass((0, 0, 1)),
        DivisorClass((1, -1, -1)),
    )
    assert table.minus_two_roots == (
        DivisorClass((0, 1, -1)),
        DivisorClass((0, -1, 1)),
    )


@pytest.mark.parametrize("r", range(9))
def test_counts(r):
    table = negative_classes(r)
    assert len(table.minus_one_classes) == MINUS_ONE_COUNTS[r]
    assert len(table.minus_two_roots) == ROOT_COUNTS[r]
    assert len(set(table.minus_one_classes)) == len(table.minus_one_classes)
    assert len(set(table.minus_two_roots)) == len(table.minus_two_roots)


@pytest.mark.parametrize("r", range(5))
def test_box_oracle_agreement(r):
    table = negative_classes(r)
    oracle_m1, oracle_roots = widened_box_negative_classes(r, max_d=7)
    assert {raw(c) for c in table.minus_one_classes} == oracle_m1
    assert {raw(c) for c in table.minus_two_roots} == oracle_roots


@pytest.mark.parametrize("r", range(9))
def test_cauchy_schwarz_oracle_agreement(r):
    # the same classes in the same (d, m) order as the Diophantine search
    table = negative_classes(r)
    oracle_m1, oracle_roots = cauchy_schwarz_negative_classes(r)
    assert [raw(c) for c in table.minus_one_classes] == oracle_m1
    assert [raw(c) for c in table.minus_two_roots] == oracle_roots


@pytest.mark.parametrize("r", range(1, 9))
def test_lattice_identities(r):
    lattice = blowup_p2(r)
    k = lattice.anticanonical
    table = negative_classes(r)
    for c in table.minus_one_classes:
        assert lattice.pair(c, c) == -1
        assert lattice.pair(c, k) == 1
        assert arithmetic_genus(lattice, c) == 0
    for a in table.minus_two_roots:
        assert lattice.pair(a, a) == -2
        assert lattice.pair(a, k) == 0


@pytest.mark.parametrize("r", range(9))
def test_roots_closed_under_negation(r):
    roots = set(negative_classes(r).minus_two_roots)
    assert {-a for a in roots} == roots


def test_lex_order():
    for r in (3, 6, 8):
        table = negative_classes(r)
        for group in (table.minus_one_classes, table.minus_two_roots):
            keys = [raw(c) for c in group]
            assert keys == sorted(keys)


@pytest.mark.parametrize("r", [4, 6, 7])
def test_reflections_permute_minus_one_classes(r):
    lattice = blowup_p2(r)
    table = negative_classes(r)
    minus_one = set(table.minus_one_classes)
    for alpha in table.minus_two_roots:
        image = {c + int(lattice.pair(c, alpha)) * alpha for c in minus_one}
        assert image == minus_one


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.data())
def test_nef_samples_meet_anticanonical_positively(r, data):
    # For r <= 8 the minus-one classes generate the effective cone, so a
    # class pairing >= 0 with all of them is nef; any nonzero such class
    # must then meet -K strictly positively.
    lattice = blowup_p2(r)
    table = negative_classes(r)
    coeffs = data.draw(st.lists(st.integers(-3, 6), min_size=r + 1, max_size=r + 1))
    n = DivisorClass(coeffs)
    if all(lattice.pair(n, c) >= 0 for c in table.minus_one_classes) and any(n.nums):
        assert lattice.pair(lattice.anticanonical, n) > 0


def test_canonical_seeds_are_nef():
    for r in range(2, 9):
        lattice = blowup_p2(r)
        table = negative_classes(r)
        line = DivisorClass([1] + [0] * r)
        seeds = [line, lattice.anticanonical, line + lattice.anticanonical]
        for n in seeds:
            assert all(lattice.pair(n, c) >= 0 for c in table.minus_one_classes)
            assert lattice.pair(lattice.anticanonical, n) > 0
