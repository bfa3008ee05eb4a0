from fractions import Fraction

from oracles import (box_short_vectors, cauchy_schwarz_negative_classes,
                     determinant, dot, invert_rational, solve_rational,
                     widened_box_negative_classes)


def test_solve_rational_unique():
    x = solve_rational([[2, 0], [0, 3], [1, 1]], [4, 6, 4])
    assert x == [Fraction(2), Fraction(2)]


def test_solve_rational_inconsistent():
    assert solve_rational([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) is None


def test_invert_rational_roundtrip():
    a = [[2, 1], [1, 1]]
    inv = invert_rational(a)
    prod = [[sum(a[i][k] * inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert prod == [[1, 0], [0, 1]]


def test_dot_exact_on_fraction_gram():
    g = [[-1, Fraction(1, 2)], [Fraction(1, 2), -1]]
    assert dot(g, (1, 1), (1, 1)) == -1
    assert dot(g, (1, 0), (0, 1)) == Fraction(1, 2)
    assert dot(g, (0, 0), (1, 1)) == 0


def test_box_short_vectors_small_forms():
    assert box_short_vectors([], 3) == []
    assert box_short_vectors([[-1]], 3) == [(-1,), (1,)]
    a2 = [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]
    assert box_short_vectors([[-2, 1], [1, -2]], 2) == a2
    # the same form scaled to norm 1: the Fraction Gram is scaled back
    assert box_short_vectors([[-1, Fraction(1, 2)], [Fraction(1, 2), -1]], 1) == a2


def test_cauchy_schwarz_negative_classes_two_points():
    # (d, m1, m2): e1, e2 and l - e1 - e2; the roots e1 - e2 and e2 - e1
    minus_one, roots = cauchy_schwarz_negative_classes(2)
    assert minus_one == [(0, -1, 0), (0, 0, -1), (1, 1, 1)]
    assert roots == [(0, -1, 1), (0, 1, -1)]


def test_widened_box_negative_classes_small_r():
    assert widened_box_negative_classes(0, max_d=3) == (set(), set())
    assert widened_box_negative_classes(1, max_d=3) == ({(0, -1)}, set())
    assert widened_box_negative_classes(2, max_d=3) == (
        {(0, -1, 0), (0, 0, -1), (1, 1, 1)}, {(0, -1, 1), (0, 1, -1)})


def test_determinant():
    assert determinant([]) == 1
    assert determinant([[0, 1], [1, -1]]) == -1
    assert determinant([[-2, 1, 0], [1, -2, 1], [0, 1, -2]]) == -4
    assert determinant([[1, 2], [2, 4]]) == 0
