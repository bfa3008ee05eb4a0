import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bigsurf.errors import DomainError, NotNegativeDefiniteError
from bigsurf.linalg import (
    _bareiss_pivots,
    gram_restrict,
    integer_kernel,
    is_negative_definite,
    short_vectors,
)
from oracles import (Inertia, box_short_vectors, determinant, eager_bareiss_pivots, inertia,
                     solve_rational)


def apply_congruence(g, u):
    """u^T g u for integer matrices, as lists of lists."""
    n = len(g)
    gu = [[sum(g[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * gu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def minor_gcd(rows):
    """gcd of all maximal minors of a k x n matrix (k <= n)."""
    k = len(rows)
    n = len(rows[0])
    g = 0
    for cols in itertools.combinations(range(n), k):
        g = math.gcd(g, determinant([[row[c] for c in cols] for row in rows]))
        if g == 1:
            return 1
    return g


# strategies -----------------------------------------------------------------

small_ints = st.integers(-4, 4)


@st.composite
def int_matrix(draw, max_rows=4, max_cols=4):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    return [[draw(small_ints) for _ in range(c)] for _ in range(r)]


@st.composite
def symmetric_matrix(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(small_ints)
    return m


@st.composite
def sparse_symmetric_matrix(draw, max_dim=6):
    """Symmetric matrices with many zeros, so that some leading principal
    minor often vanishes (always the first one under a zero diagonal) and
    the elimination stops early."""
    n = draw(st.integers(1, max_dim))
    zero_diagonal = draw(st.booleans())
    entries = st.sampled_from([0, 0, 0, -2, -1, 1, 2])
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                m[i][j] = m[j][i] = draw(entries)
    return m


@st.composite
def unimodular_matrix(draw, n):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 2))
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if kind == 0 and i != j:
            f = draw(st.integers(-2, 2))
            for t in range(n):
                u[i][t] += f * u[j][t]
        elif kind == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return u


@st.composite
def negative_definite_matrix(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    b = [[draw(small_ints) for _ in range(n)] for _ in range(n)]
    a = [[sum(b[k][i] * b[k][j] for k in range(n)) + int(i == j)
          for j in range(n)] for i in range(n)]
    return [[-x for x in row] for row in a]


# integer_kernel --------------------------------------------------------------


def test_kernel_of_identity_is_empty():
    assert integer_kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []


def test_kernel_of_zero_matrix_is_standard_basis():
    basis = integer_kernel([[0, 0], [0, 0]])
    assert sorted(basis) == [(0, 1), (1, 0)]


def test_kernel_single_row():
    assert integer_kernel([[1, 1]]) == [(1, -1)]


def test_kernel_contains_stated_vectors():
    basis = integer_kernel([[3, -1, -1, -1]])
    assert len(basis) == 3
    for target in [(0, 1, -1, 0), (1, 1, 1, 1)]:
        coords = solve_rational([[b[i] for b in basis] for i in range(4)], target)
        assert coords is not None
        assert all(c.denominator == 1 for c in coords), f"{target} not an integer combination"


def test_kernel_rejects_empty():
    with pytest.raises(ValueError):
        integer_kernel([])


@given(int_matrix())
def test_kernel_vectors_annihilate(m):
    for v in integer_kernel(m):
        assert all(sum(row[j] * v[j] for j in range(len(v))) == 0 for row in m)


@given(int_matrix())
def test_kernel_is_saturated(m):
    basis = integer_kernel(m)
    if basis:
        assert minor_gcd([list(v) for v in basis]) == 1


@given(int_matrix())
def test_kernel_rank_complements_row_rank(m):
    n = len(m[0])
    rows = [[Fraction(x) for x in r] for r in m]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    assert len(integer_kernel(m)) == n - rank


@st.composite
def low_rank_matrix(draw, max_rows=6, max_cols=8):
    """A product A B with inner dimension t, so the rank is at most t and
    the kernel is often larger than the column count minus the rows."""
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    t = draw(st.integers(1, max(r, c)))
    a = [[draw(small_ints) for _ in range(t)] for _ in range(r)]
    b = [[draw(small_ints) for _ in range(c)] for _ in range(t)]
    return [[sum(a[i][k] * b[k][j] for k in range(t)) for j in range(c)] for i in range(r)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(int_matrix(max_rows=6, max_cols=8), low_rank_matrix()))
def test_kernel_against_sympy_nullspace(m):
    """Same dimension as sympy's rational nullspace, every vector in its
    span and in the kernel, and saturated: the maximal minors of the basis
    have gcd 1, so no integer kernel vector is missed."""
    sympy = pytest.importorskip("sympy")
    matrix = sympy.Matrix(m)
    basis = integer_kernel(m)
    nullspace = matrix.nullspace()
    assert len(basis) == len(nullspace)
    if not basis:
        return
    b = sympy.Matrix([list(v) for v in basis])
    assert (matrix * b.T).is_zero_matrix
    assert sympy.Matrix.vstack(b, *(v.T for v in nullspace)).rank() == len(basis)
    k, n = b.shape
    minors = [b.extract(list(range(k)), list(cols)).det()
              for cols in itertools.combinations(range(n), k)]
    assert math.gcd(*(int(x) for x in minors)) == 1


# inertia (the Fraction oracle) and the Gram input contract -------------------


def test_inertia_examples():
    assert inertia([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]) == Inertia(1, 3, 0)
    assert inertia([[-2, 1], [1, -2]]) == Inertia(0, 2, 0)
    assert inertia([[0]]) == Inertia(0, 0, 1)
    assert inertia([]) == Inertia(0, 0, 0)


def test_inertia_hyperbolic_plane():
    assert inertia([[0, 1], [1, 0]]) == Inertia(1, 1, 0)


def test_inertia_rational_entries():
    g = [[Fraction(-1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(-1, 2)]]
    assert inertia(g) == Inertia(0, 2, 0)


def test_inertia_rejects_asymmetric():
    with pytest.raises(ValueError):
        inertia([[1, 2], [3, 4]])


@pytest.mark.parametrize("g, message", [
    ([[1, 2]], "gram matrix must be square"),
    ([[1, 2], [3]], "gram matrix must be square"),
    ([[1, 2], [3, 4]], "gram matrix is not symmetric at (0, 1)"),
    ([[1, 0, 0], [0, 1, 2], [0, 5, 1]], "gram matrix is not symmetric at (1, 2)"),
    ([[1, 0, 7], [0, 1, 2], [0, 5, 1]], "gram matrix is not symmetric at (0, 2)"),
])
@pytest.mark.parametrize("entry", [int, Fraction])
def test_malformed_gram_messages(g, message, entry):
    # shape and symmetry are checked before the entry type, so a malformed
    # Gram names its defect whatever its entries are
    g = [[entry(x) for x in row] for row in g]
    for routine in (is_negative_definite, lambda m: short_vectors(m, 2)):
        with pytest.raises(ValueError) as err:
            routine(g)
        assert str(err.value) == message
        assert type(err.value) is ValueError


def outcome(routine, g):
    try:
        return routine(g)
    except ValueError as err:
        return (type(err), str(err))


@given(st.one_of(symmetric_matrix(max_dim=5), int_matrix(max_rows=4, max_cols=4)))
def test_int_entries_match_fraction_entries(g):
    # a malformed Gram fails alike whatever its entries; a well-formed one is
    # answered with int entries and refused with Fraction entries
    as_fractions = [[Fraction(x) for x in row] for row in g]
    for routine in (is_negative_definite, lambda m: short_vectors(m, 2)):
        with_ints, with_fractions = outcome(routine, g), outcome(routine, as_fractions)
        if with_fractions == (DomainError, "gram matrix entries must all be int"):
            assert type(with_ints) is not tuple or with_ints[0] is NotNegativeDefiniteError
        else:
            assert with_ints == with_fractions
            assert with_ints[0] is ValueError


NON_INT_ENTRIES = {"Fraction": Fraction, "bool": bool, "numpy.int64": np.int64}


@given(symmetric_matrix(max_dim=5), st.sampled_from(sorted(NON_INT_ENTRIES)), st.data())
def test_non_int_entries_raise_domain_error(g, kind, data):
    # one symmetric pair of entries of another type, even of integral value,
    # puts the whole Gram outside the domain
    i = data.draw(st.integers(0, len(g) - 1))
    j = data.draw(st.integers(0, len(g) - 1))
    g[i][j] = g[j][i] = NON_INT_ENTRIES[kind](g[i][j])
    for routine in (is_negative_definite, lambda m: short_vectors(m, 2)):
        with pytest.raises(DomainError, match="gram matrix entries must all be int"):
            routine(g)


@given(st.data())
def test_inertia_constructed_signature(data):
    n = data.draw(st.integers(1, 4))
    diag = [data.draw(st.sampled_from([-3, -1, 0, 1, 2])) for _ in range(n)]
    u = data.draw(unimodular_matrix(n))
    g = apply_congruence([[diag[i] * int(i == j) for j in range(n)] for i in range(n)], u)
    expect = Inertia(sum(1 for x in diag if x > 0),
                     sum(1 for x in diag if x < 0),
                     sum(1 for x in diag if x == 0))
    assert inertia(g) == expect


@given(st.data())
def test_inertia_congruence_invariant(data):
    g = data.draw(symmetric_matrix())
    u = data.draw(unimodular_matrix(len(g)))
    assert inertia(g) == inertia(apply_congruence(g, u))


@given(symmetric_matrix())
def test_is_negative_definite_matches_inertia(g):
    assert is_negative_definite(g) == inertia(g).is_negative_definite


@settings(max_examples=300, deadline=None)
@given(sparse_symmetric_matrix())
@example([[0, 1], [1, -1]])
@example([[-1, 1], [1, -1]])
@example([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
@example([[-2, 0, 1], [0, -3, 1], [1, 1, -2]])
def test_bareiss_pivots_are_the_leading_minors(g):
    # Sylvester's criterion needs the k-th pivot to be the k-th leading
    # principal minor, with the previous minor beside it, up to the first
    # zero minor, where the elimination stops
    minors = [determinant([row[:k] for row in g[:k]]) for k in range(1, len(g) + 1)]
    stop = minors.index(0) if 0 in minors else len(minors)
    steps = [(prev, p) for prev, p, _ in _bareiss_pivots([list(r) for r in g])]
    assert steps == list(zip([1] + minors, minors))[:stop]


@settings(max_examples=300, deadline=None)
@given(sparse_symmetric_matrix())
@example([[0, 1], [1, -1]])
@example([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
@example([[2, 3, -1, 4], [3, -1, 2, 0], [-1, 2, 5, 1], [4, 0, 1, -3]])
@example([[-2, 0, 1], [0, -3, 1], [1, 1, -2]])
@example([[-2, 0, 1, 0], [0, -2, 0, 1], [1, 0, -2, 1], [0, 1, 1, -3]])
def test_bareiss_pivot_rows_are_the_bordered_minors(g):
    # short_vectors reads entry j > k of the k-th pivot row; only the upper
    # triangle is eliminated, and each such entry must be the leading k x k
    # block bordered by row k and column j: det(g[0..k; 0..k-1, j]).  The
    # rows are read after the elimination ends, so none may be written
    # after it is yielded
    rows = [row for _, _, row in _bareiss_pivots([list(r) for r in g])]
    for k, row in enumerate(rows):
        for j in range(k + 1, len(g)):
            bordered = [[g[i][c] for c in [*range(k), j]] for i in range(k + 1)]
            assert row[j] == determinant(bordered), (k, j)


def _eliminated(core, g):
    """(previous pivot, pivot, pivot row) of each step of core on g, the
    rows copied after the elimination ends."""
    return [(prev, p, list(row)) for prev, p, row in core([list(r) for r in g])]


# Stale rows: row 1 is skipped at step 0 and is the next pivot; row 3 is
# skipped at step 0 and meets a nonzero multiplier at step 1; row 2 is
# skipped at steps 0 and 1 and is the pivot of step 2; the last has a zero
# pivot in a skipped row, where both cores stop.
@settings(max_examples=400, deadline=None)
@given(sparse_symmetric_matrix(max_dim=8))
@example([[-2, 0, 1], [0, -3, 1], [1, 1, -2]])
@example([[-2, 0, 1, 0], [0, -2, 0, 1], [1, 0, -2, 1], [0, 1, 1, -3]])
@example([[-2, 0, 0, 1], [0, -2, 0, 1], [0, 0, 5, 1], [1, 1, 1, -4]])
@example([[1, 0, 1], [0, 0, 1], [1, 1, 1]])
def test_bareiss_pivots_match_the_eager_oracle(g):
    # rows with a zero multiplier are brought up to date when next touched;
    # the pivots and the pivot rows are those of the eager elimination
    assert _eliminated(_bareiss_pivots, g) == _eliminated(eager_bareiss_pivots, g)


class CountingRow(list):
    """A matrix row that counts the entries written into it."""

    writes = 0

    def __setitem__(self, index, value):
        CountingRow.writes += len(value) if isinstance(index, slice) else 1
        super().__setitem__(index, value)


def _arrowhead_writes(core, k):
    """Entries core writes eliminating k pairwise orthogonal -3 rows that
    each meet a last -k row once: the shape of a Zariski support with the
    section last."""
    g = [[-3 * (i == j) for j in range(k)] + [1] for i in range(k)]
    g.append([1] * k + [-k])
    CountingRow.writes = 0
    steps = list(core([CountingRow(r) for r in g]))
    assert len(steps) == k + 1
    return CountingRow.writes


def test_an_arrowhead_with_its_arrow_last_costs_quadratic_writes():
    k = 40
    assert _arrowhead_writes(_bareiss_pivots, k) <= k * k
    # the eager elimination writes every row below every pivot
    assert _arrowhead_writes(eager_bareiss_pivots, k) >= k ** 3 // 8


def charpoly_inertia(sympy, g):
    """Signature from the characteristic polynomial, exactly: its roots are
    real, so Descartes' rule of signs counts the positive eigenvalues, and
    the trailing zero coefficients count the zero ones."""
    coeffs = sympy.Matrix(g).charpoly().all_coeffs()
    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    signs = [c > 0 for c in coeffs if c != 0]
    pos = sum(1 for s, t in zip(signs, signs[1:]) if s != t)
    return Inertia(pos, len(g) - pos - zero, zero)


@settings(max_examples=150, deadline=None)
@given(sparse_symmetric_matrix())
def test_inertia_and_definiteness_against_sympy_charpoly(g):
    sympy = pytest.importorskip("sympy")
    expect = charpoly_inertia(sympy, g)
    assert inertia(g) == expect
    assert is_negative_definite(g) == expect.is_negative_definite


# gram_restrict ---------------------------------------------------------------


def test_gram_restrict_frozen_example():
    g = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    b = [(1, 1, 1, 1), (0, 1, -1, 0)]
    assert gram_restrict(g, b) == [[-2, 0], [0, -2]]


def test_gram_restrict_empty_basis():
    assert gram_restrict([[2]], []) == []


# short_vectors ---------------------------------------------------------------


def test_short_vectors_a2():
    g = [[-2, 1], [1, -2]]
    assert short_vectors(g, 2) == [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]


def test_short_vectors_unit_form():
    # diag(-1, -1): four pairs, norms 1 and 2
    assert short_vectors([[-1, 0], [0, -1]], 2) == [
        (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def test_short_vectors_norm_filter():
    assert short_vectors([[-1, 0], [0, -1]], 1) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_short_vectors_rejects_indefinite():
    with pytest.raises(ValueError):
        short_vectors([[1, 0], [0, -1]], 2)


@pytest.mark.parametrize("g", [
    [[-1, 1], [1, -1]],
    [[0]],
    [[-2, 0], [0, 0]],
    [[-1, 0, 0], [0, 0, 0], [0, 0, -1]],
])
def test_short_vectors_rejects_semidefinite(g):
    # a singular form ends the elimination in fewer than len(g) steps
    with pytest.raises(NotNegativeDefiniteError):
        short_vectors(g, 2)


def test_short_vectors_degenerate_input():
    assert short_vectors([], 2) == []
    assert short_vectors([[-2]], 0) == []


@pytest.mark.parametrize("bound", [2.5, 0.0, 2.0, Fraction(2), "2", None],
                         ids=["float", "zero-float", "integral-float", "Fraction", "str", "None"])
@pytest.mark.parametrize("g", [[[-2]], [[1]]], ids=["definite", "indefinite"])
def test_short_vectors_refuses_a_bound_that_is_not_an_int(g, bound):
    # the bound is read by operator.index before the elimination runs, so no
    # float reaches math.isqrt and an indefinite form is refused for its bound
    with pytest.raises(DomainError, match=f"bound must be an int, not {type(bound).__name__}"):
        short_vectors(g, bound)


def test_short_vectors_reads_the_bound_by_index():
    assert short_vectors([[-2]], np.int64(2)) == short_vectors([[-2]], 2) == [(-1,), (1,)]


def test_short_vectors_reads_a_bool_bound_as_its_int():
    # the bound is a count, read by operator.index as every count in the
    # package is (negative_classes, blowup_hirzebruch and verify_witness
    # take True for 1 too), so True bounds the squares by 1
    assert short_vectors([[-1]], True) == short_vectors([[-1]], 1) == [(-1,), (1,)]


@pytest.mark.parametrize("g", [[[1]], [[0, 1], [1, 0]]])
@pytest.mark.parametrize("bound", [0, -1])
def test_short_vectors_checks_definiteness_before_empty_bound(g, bound):
    # the elimination runs before a bound <= 0 returns []
    with pytest.raises(NotNegativeDefiniteError):
        short_vectors(g, bound)


def frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_short_vectors_deeper_than_the_recursion_limit():
    # one stack frame per coordinate would need 200 frames; 50 are allowed
    n = 200
    g = [[-int(i == j) for j in range(n)] for i in range(n)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 50)
    try:
        vecs = short_vectors(g, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert vecs == sorted(tuple(s * int(i == j) for j in range(n))
                          for i in range(n) for s in (1, -1))


@settings(max_examples=60)
@given(negative_definite_matrix(), st.integers(1, 6))
def test_short_vectors_against_box_search(g, bound):
    assert short_vectors(g, bound) == box_short_vectors(g, bound)


FIXED_NEGATIVE_DEFINITE = [
    [[-2, 1, 0], [1, -2, 1], [0, 1, -2]],
    [[-2, 0, 1, 0], [0, -2, 1, 0], [1, 1, -2, 1], [0, 0, 1, -2]],
    [[-2, 0, 1], [0, -2, 1], [1, 1, -4]],
    [[-3, 1, 1], [1, -5, 2], [1, 2, -7]],
    [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    [[-6, 2, 1, 0], [2, -3, 1, 1], [1, 1, -4, 1], [0, 1, 1, -5]],
    # odd forms: Fincke-Pohst needs no evenness
    [[-3, 1], [1, -3]],
    [[-5, 2], [2, -3]],
    [[-9, 0, 3], [0, -6, 2], [3, 2, -13]],
]


@pytest.mark.parametrize("reversed_basis", [False, True])
@pytest.mark.parametrize("bound", [1, 2, 4])
@pytest.mark.parametrize("g", FIXED_NEGATIVE_DEFINITE)
def test_short_vectors_against_box_search_fixed(g, bound, reversed_basis):
    # grams whose L D L^T factors carry nontrivial denominators, eliminated
    # in the given and in the reversed coordinate order
    if reversed_basis:
        g = [row[::-1] for row in g[::-1]]
    assert short_vectors(g, bound) == box_short_vectors(g, bound)


def test_short_vectors_scales_bound_with_fraction_gram():
    # the A2 form scaled to norm 1 is refused; the caller scales the Gram and
    # the bound by its denominator and gets three vectors of square -1 up to sign
    g = [[-1, Fraction(1, 2)], [Fraction(1, 2), -1]]
    with pytest.raises(DomainError, match="gram matrix entries must all be int"):
        short_vectors(g, 1)
    assert short_vectors([[-2, 1], [1, -2]], 2) == [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]


@settings(max_examples=40)
@given(negative_definite_matrix(max_dim=3), st.integers(1, 4), st.integers(1, 4))
def test_short_vectors_against_box_search_fraction(g, den, bound):
    # x^T (g/den) x >= -bound exactly when x^T g x >= -bound*den
    scaled = [[Fraction(x, den) for x in row] for row in g]
    assert short_vectors(g, bound * den) == box_short_vectors(scaled, bound)


@settings(max_examples=40)
@given(negative_definite_matrix(), st.integers(1, 6))
def test_short_vectors_closed_under_negation(g, bound):
    vecs = short_vectors(g, bound)
    assert vecs == sorted(set(vecs))
    assert sorted(tuple(-c for c in v) for v in vecs) == vecs
