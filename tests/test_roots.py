import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bigsurf.bigness import classify_anticanonical
from bigsurf.errors import DomainError, InvariantError, NotNegativeDefiniteError
from bigsurf.linalg import is_negative_definite
from bigsurf.picard import Generic, LineConic, ThreeLines
from bigsurf.roots import (
    _t_type,
    classify,
    coxeter_dot,
    expected_root_count,
    extract_roots,
    predicted_type,
    root_lattice_of_config,
    type_string,
)
from oracles import (basis_class, box_short_vectors, config_labels, determinant, dot,
                     reference_predicted_type, reference_sweep_groups, solve_rational)

A2 = [[-2, 1], [1, -2]]


def frac_pair(gram, u, v):
    return sum(Fraction(gram[i][j]) * u[i] * v[j]
               for i in range(len(u)) for j in range(len(v)))


def weyl_closure(gram, simples):
    """Generate a full root system from simple roots by reflection closure."""
    simples = [tuple(s) for s in simples]
    roots = set(simples) | {tuple(-x for x in s) for s in simples}
    grew = True
    while grew:
        grew = False
        for beta in list(roots):
            for i, alpha in enumerate(simples):
                c = 2 * frac_pair(gram, beta, alpha) / frac_pair(gram, alpha, alpha)
                assert c.denominator == 1
                image = tuple(b - c.numerator * a for b, a in zip(beta, alpha))
                if image not in roots:
                    roots.add(image)
                    grew = True
    return sorted(roots)


def coords_in(basis, vec):
    """Coordinates of a lattice vector with respect to a sublattice basis."""
    n = len(vec)
    a = [[basis[k][i] for k in range(len(basis))] for i in range(n)]
    sol = solve_rational(a, list(vec))
    assert sol is not None and all(c.denominator == 1 for c in sol)
    return tuple(c.numerator for c in sol)


def test_extract_roots_a1():
    assert extract_roots([[-2]]) == [(-1,), (1,)]


def test_extract_roots_a2():
    roots = extract_roots(A2)
    assert len(roots) == 6
    assert all(tuple(-x for x in r) in set(roots) for r in roots)
    assert all(dot(A2, r, r) == -2 for r in roots)


def test_extract_roots_rejects_indefinite():
    with pytest.raises(NotNegativeDefiniteError):
        extract_roots([[1, 0], [0, -1]])


def test_extract_roots_agrees_with_box_search():
    for gram in (A2, [[-1, 0], [0, -1]], [[-2, 0, 1], [0, -2, 1], [1, 1, -4]]):
        assert extract_roots(gram) == box_short_vectors(gram, 2)


def test_classify_empty():
    report = classify([], [[-4]])
    assert report.components == ()
    assert len(report.roots) == 0
    assert type_string(report.components) == "0"


def test_classify_a2():
    report = classify(extract_roots(A2), A2)
    assert report.components == (("A", 2),)
    assert report.simple_roots == ((0, 1), (1, 0))
    assert report.cartan == ((2, -1), (-1, 2))
    assert report.graph == ((0, 1, 1),)


def test_classify_orthogonal_sum():
    gram = [[-2, 0], [0, -2]]
    report = classify(extract_roots(gram), gram)
    assert report.components == (("A", 1), ("A", 1))
    assert report.graph == ()


# The forms below carry the root systems B_n, G2, C3 and F4, which are not
# simply laced: a simple root has square -1 or -6 (or the Gram is not
# integral), and classify rejects them.


def test_classify_unit_forms_are_type_b():
    # the vectors of square -1 and -2 of the odd unit form make up B_n, whose
    # short simple root has square -1
    for n in (2, 3, 4):
        gram = [[-(i == j) for j in range(n)] for i in range(n)]
        roots = extract_roots(gram)
        assert len(roots) == 2 * n * n
        with pytest.raises(DomainError, match="square other than -2"):
            classify(roots, gram)


def test_classify_g2():
    gram = [[-2, 3], [3, -6]]
    roots = weyl_closure(gram, [(1, 0), (0, 1)])
    assert len(roots) == 12
    with pytest.raises(DomainError, match="square other than -2"):
        classify(roots, gram)


def test_classify_c3():
    gram = [[-1, Fraction(1, 2), 0],
            [Fraction(1, 2), -1, 1],
            [0, 1, -2]]
    roots = weyl_closure(gram, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(roots) == 18
    with pytest.raises(DomainError, match="entries must all be int"):
        classify(roots, gram)
    with pytest.raises(DomainError, match="square other than -2"):
        classify(roots, [[int(2 * x) for x in row] for row in gram])


def test_classify_f4():
    gram = [[-2, 1, 0, 0],
            [1, -2, 1, 0],
            [0, 1, -1, Fraction(1, 2)],
            [0, 0, Fraction(1, 2), -1]]
    roots = weyl_closure(gram, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert len(roots) == 48
    with pytest.raises(DomainError, match="entries must all be int"):
        classify(roots, gram)
    with pytest.raises(DomainError, match="square other than -2"):
        classify(roots, [[int(2 * x) for x in row] for row in gram])


def pairwise_sum_simple_roots(roots):
    """Reference simple-root rule: the lex-positive roots that are not a sum
    of two lex-positive roots (quadratic in the number of roots)."""
    positives = sorted(r for r in map(tuple, roots) if r > (0,) * len(r))
    sums = {tuple(a + b for a, b in zip(p, q))
            for i, p in enumerate(positives) for q in positives[i:]}
    return tuple(p for p in positives if p not in sums)


# int Grams carrying the non-simply-laced systems (C3 and F4 scaled by 2 to
# clear their half-integral entries) and the ratio of their two root lengths
NONSIMPLY_LACED = {
    "B3": ([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], None, 2),
    "G2": ([[-2, 3], [3, -6]], [(1, 0), (0, 1)], 3),
    "C3": ([[-2, 1, 0], [1, -2, 2], [0, 2, -4]], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2),
    "F4": ([[-4, 2, 0, 0], [2, -4, 2, 0], [0, 2, -2, 1], [0, 0, 1, -2]],
           [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 2),
}


@pytest.mark.parametrize("name", sorted(NONSIMPLY_LACED))
def test_simple_roots_match_pairwise_sum_oracle_non_simply_laced(name):
    # the oracle's simple roots come in two lengths, so one of them has a
    # square other than -2 and classify rejects the form
    gram, simples, ratio = NONSIMPLY_LACED[name]
    roots = extract_roots(gram) if simples is None else weyl_closure(gram, simples)
    oracle = pairwise_sum_simple_roots(roots)
    assert len(oracle) == int(name[1:])
    short, long = sorted({-dot(gram, s, s) for s in oracle})
    assert long == ratio * short
    with pytest.raises(DomainError, match="square other than -2"):
        classify(roots, gram)


@pytest.mark.parametrize("config", [
    LineConic(6, 0), LineConic(0, 7, 2), LineConic(3, 2), LineConic(4, 3, 1),
    LineConic(2, 4), LineConic(1, 6), LineConic(2, 5), LineConic(3, 5),
    LineConic(4, 5), LineConic(2, 7, 2), ThreeLines(4, 2, 2),
    ThreeLines(4, 0, 3), ThreeLines(3, 3, 2, p12=True, p13=True, p23=True),
    ThreeLines(5, 3, 2), Generic(8),
])
def test_simple_roots_match_pairwise_sum_oracle_on_config_lattices(config):
    _, gram = root_lattice_of_config(config)
    roots = extract_roots(gram)
    assert classify(roots, gram).simple_roots == pairwise_sum_simple_roots(roots)


ENUMERATED_GRAMS = {
    **{f"D{n}": root_lattice_of_config(LineConic(1, n))[1] for n in (4, 5, 6, 8, 12)},
    **{f"E{r}": root_lattice_of_config(Generic(r))[1] for r in (6, 7, 8)},
}
# gram and its complete root list
BASIS_CHANGE_CASES = {name: (gram, extract_roots(gram)) for name, gram in ENUMERATED_GRAMS.items()}


@st.composite
def basis_change(draw, n):
    """A unimodular U, as a product of elementary matrices I + f e_ij with
    |f| <= 3, and its inverse."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(draw(st.integers(1, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        f = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        if i == j:
            continue
        for row in u:  # U E: column j += f * column i
            row[j] += f * row[i]
        u_inv[i] = [a - f * b for a, b in zip(u_inv[i], u_inv[j])]  # E^-1 U^-1
    return u, u_inv


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BASIS_CHANGE_CASES)), st.data())
def test_classify_is_invariant_under_basis_change(name, data):
    gram, roots = BASIS_CHANGE_CASES[name]
    n = len(gram)
    u, u_inv = data.draw(basis_change(n))
    # the same lattice in the basis given by the columns of U, where the
    # old coordinates r of a vector become U^-1 r
    moved = [[sum(u[a][i] * gram[a][b] * u[b][j] for a in range(n) for b in range(n))
              for j in range(n)] for i in range(n)]
    moved_roots = [tuple(sum(row[k] * r[k] for k in range(n)) for row in u_inv)
                   for r in roots]
    if n <= 8:
        # enumeration on the skewed form finds exactly the moved roots
        assert extract_roots(moved) == sorted(moved_roots)
    report = classify(moved_roots, moved)
    assert report.components == classify(roots, gram).components
    assert report.simple_roots == pairwise_sum_simple_roots(moved_roots)


@pytest.mark.parametrize("n", [32, 40])
def test_d_ladder_from_line_conic(n):
    _, gram = root_lattice_of_config(LineConic(1, n))
    roots = extract_roots(gram)
    assert len(roots) == 2 * n * (n - 1)
    report = classify(roots, gram)
    assert report.components == (("D", n),)
    assert report.rank == n


@pytest.mark.parametrize("config", [
    *(LineConic(1, n) for n in (12, 16, 20, 24, 28)),
    LineConic(2, 5), LineConic(3, 5), LineConic(2, 6), LineConic(4, 5), LineConic(2, 7),
    ThreeLines(3, 3, 2), ThreeLines(4, 3, 2), ThreeLines(5, 3, 2),
], ids=repr)
def test_cartan_is_minus_the_simple_root_gram(config):
    # classify pairs over each simple root's nonzero coordinates; the dense
    # pairing of the oracle must give the same ints
    _, gram = root_lattice_of_config(config)
    report = classify(extract_roots(gram), gram)
    simple = report.simple_roots
    assert report.cartan == tuple(tuple(-dot(gram, s, t) for t in simple) for s in simple)
    assert all(type(x) is int for row in report.cartan for x in row)


def test_classify_rejects_incomplete_list():
    roots = [r for r in extract_roots(A2) if abs(r[0]) + abs(r[1]) != 2]
    with pytest.raises(InvariantError):
        classify(roots, A2)


def diagram_gram(k, edges):
    """Minus the Cartan matrix of a simply-laced diagram on k nodes: the Gram
    whose unit vectors have that diagram as their Dynkin diagram."""
    gram = [[-2 if i == j else 0 for j in range(k)] for i in range(k)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    return gram


NON_FINITE_DIAGRAMS = {
    "A~2 triangle": (3, [(0, 1), (1, 2), (0, 2)],
                     "component graph is not a tree; lattice cannot be finite type"),
    "D~4 star": (5, [(0, 1), (0, 2), (0, 3), (0, 4)],
                 "branching beyond a single degree-3 node; not a finite type"),
    "D~5 two hubs": (6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)],
                     "branching beyond a single degree-3 node; not a finite type"),
    "E~8 = T_{2,3,6}": (9, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8)],
                        "branched diagram with arms [1, 2, 5]; not a finite type"),
}


@pytest.mark.parametrize("name", NON_FINITE_DIAGRAMS)
def test_classify_rejects_non_finite_diagrams(name):
    # the unit vectors are the simple roots, so the diagram reaches the
    # recognizer as given; the form is not negative definite, which
    # classify does not check
    k, edges, message = NON_FINITE_DIAGRAMS[name]
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    roots = units + [tuple(-x for x in u) for u in units]
    with pytest.raises(InvariantError) as raised:
        classify(roots, diagram_gram(k, edges))
    assert str(raised.value) == message


def test_classify_rejects_unbalanced_signs():
    with pytest.raises(ValueError):
        classify([(1, 0), (0, 1), (-1, 0)], A2)


@pytest.mark.parametrize("coordinate", [Fraction(3, 2), 1.7, Fraction(1), 1.0])
def test_classify_rejects_non_integer_coordinates(coordinate):
    # truncating to an int would silently classify different vectors, and
    # an integral Fraction or float is no int either
    with pytest.raises(TypeError):
        classify([(coordinate,), (-coordinate,)], [[-2]])


def test_classify_accepts_numpy_integer_coordinates():
    roots = extract_roots(A2)
    as_numpy = [tuple(np.int64(x) for x in r) for r in roots]
    assert classify(as_numpy, A2) == classify(roots, A2)


def test_classify_keeps_int_tuples_and_converts_the_rest():
    roots = extract_roots(A2)
    report = classify(roots, A2)
    # int-tuple roots come back as the very objects given, not copies
    given = {id(r) for r in roots}
    assert {id(r) for r in report.roots} == given
    assert {id(r) for r in report.simple_roots} <= given
    # bool and numpy coordinates, and roots given as lists, come back as
    # int tuples
    for converted in ([tuple(np.int64(x) for x in r) for r in roots],
                      [list(r) for r in roots]):
        other = classify(converted, A2)
        assert other == report
        assert all(type(r) is tuple and all(type(x) is int for x in r)
                   for r in other.roots + other.simple_roots)
    by_bool = classify([(True, False), (-1, 0)], [[-2, 0], [0, -2]])
    assert by_bool.roots == ((-1, 0), (1, 0))
    assert all(type(x) is int for r in by_bool.roots for x in r)


def test_classify_rejects_the_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        classify([(0, 0), *extract_roots(A2)], A2)


@pytest.mark.parametrize("roots", [
    [(1,), (-1,)],                  # shorter than the Gram
    [(1, 0, 0), (-1, 0, 0)],        # longer than the Gram
    [(1, 0), (-1, 0), (0, 1, 0)],   # one root of the wrong length
])
def test_classify_rejects_roots_of_the_wrong_dimension(roots):
    with pytest.raises(ValueError, match="Gram's dimension 2"):
        classify(roots, [[-2, 0], [0, -2]])


def test_expected_root_counts():
    assert expected_root_count("A", 2) == 6
    assert expected_root_count("D", 5) == 40
    assert expected_root_count("E", 7) == 126
    # only the simply-laced types occur
    for family, rank in (("B", 3), ("C", 3), ("F", 4), ("G", 2), ("E", 9)):
        with pytest.raises(ValueError, match=f"unknown root-system type {family}{rank}"):
            expected_root_count(family, rank)


# configuration lattices ---------------------------------------------------


@st.composite
def big_configuration(draw, max_rank=14):
    """A Generic(r <= 8), or a LineConic or ThreeLines of rank <= max_rank
    whose anticanonical class is big."""
    kind = draw(st.sampled_from(["generic", "line_conic", "three_lines"]))
    if kind == "generic":
        return Generic(draw(st.integers(0, 8)))
    if kind == "line_conic":
        both = draw(st.integers(0, 2))
        a = draw(st.integers(0, max_rank - 1 - both))
        config = LineConic(a, draw(st.integers(0, max_rank - 1 - both - a)), both)
    else:
        flags = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        room = max_rank - 1 - sum(flags)
        a1 = draw(st.integers(0, room))
        a2 = draw(st.integers(0, room - a1))
        config = ThreeLines(a1, a2, draw(st.integers(0, room - a1 - a2)), *flags)
    assume(classify_anticanonical(config).big)
    return config


@settings(max_examples=150, deadline=None)
@given(big_configuration())
def test_complements_are_even_lattices(config):
    """The premise of the simply-laced root pipeline.  The complement of the
    anticanonical components has K.x = 0, so adjunction, x^2 + K.x =
    2 p_a(x) - 2, makes x^2 even: an int Gram with an even diagonal, since
    x^2 = sum_i g_ii x_i^2 + 2 sum_{i<j} g_ij x_i x_j."""
    _, gram = root_lattice_of_config(config)
    assert all(type(x) is int for row in gram for x in row)
    assert all(gram[i][i] % 2 == 0 for i in range(len(gram)))


def test_root_lattice_e6():
    basis, gram = root_lattice_of_config(LineConic(2, 5, 0))
    assert len(basis) == 6
    assert all(gram[i][i] % 2 == 0 and gram[i][i] < 0 for i in range(6))
    roots = extract_roots(gram)
    assert len(roots) == 72
    assert classify(roots, gram).components == (("E", 6),)


def test_root_lattice_rejects_non_big():
    """The complement is built for every configuration; the elimination
    inside extract_roots rejects a non-big one."""
    for config in (LineConic(3, 7), ThreeLines(2, 3, 6)):
        with pytest.raises(NotNegativeDefiniteError):
            extract_roots(root_lattice_of_config(config)[1])
    _, gram = root_lattice_of_config(Generic(3))
    assert classify(extract_roots(gram), gram).components == (("A", 2), ("A", 1))


@pytest.mark.parametrize("config,expected", [
    (LineConic(6, 0), (("A", 5),)),
    (LineConic(0, 7, 2), (("A", 6),)),
    (LineConic(3, 2), (("A", 3), ("A", 1))),
    (LineConic(4, 3, 1), (("A", 6),)),
    (LineConic(2, 4), (("D", 5),)),
    (LineConic(1, 6), (("D", 6),)),
    (LineConic(2, 5), (("E", 6),)),
    (ThreeLines(4, 2, 2), (("D", 6),)),
    (ThreeLines(2, 3, 1, p12=True), (("A", 4),)),
    (ThreeLines(4, 0, 3), (("A", 3), ("A", 2))),
    (ThreeLines(3, 3, 2, p12=True, p13=True, p23=True), (("E", 6),)),
])
def test_computed_type_matches_table(config, expected):
    assert predicted_type(config) == expected
    basis, gram = root_lattice_of_config(config)
    report = classify(extract_roots(gram), gram)
    assert report.components == expected


@pytest.mark.parametrize("config,expected", [
    (LineConic(3, 5), (("E", 7),)),
    (LineConic(2, 6, 1), (("E", 7),)),
    (LineConic(4, 5), (("E", 8),)),
    (LineConic(2, 7, 2), (("E", 8),)),
    (ThreeLines(4, 3, 2), (("E", 7),)),
    (ThreeLines(5, 3, 2), (("E", 8),)),
])
def test_exceptional_types(config, expected):
    assert predicted_type(config) == expected
    basis, gram = root_lattice_of_config(config)
    roots = extract_roots(gram)
    report = classify(roots, gram)
    assert report.components == expected


def test_predicted_type_is_the_per_model_rule():
    """One T_{p,q,r} at config.arms gives the type the isinstance chain gave,
    on every configuration of agreement_sweep(12, 12, 10) and on Generic(0..20)."""
    configs = [Generic(r) for r in range(21)] + [
        config for _, members in reference_sweep_groups(12, 12, 10) for _, config in members]
    assert len(configs) == 21 + 3 * 13 * 13 + 8 * 11 ** 3
    assert [predicted_type(c) for c in configs] == [reference_predicted_type(c) for c in configs]


def test_predicted_type_outside_table():
    assert predicted_type(LineConic(2, 1)) is None
    assert predicted_type(LineConic(5, 5)) is None
    assert predicted_type(LineConic(2, 8)) is None
    assert predicted_type(ThreeLines(4, 4, 2)) is None
    assert predicted_type(ThreeLines(3, 3, 3)) is None
    assert predicted_type(ThreeLines(6, 3, 2)) is None
    assert predicted_type(Generic(9)) is None


def test_predicted_type_sorts_three_lines_counts():
    assert predicted_type(ThreeLines(2, 5, 3)) == (("E", 8),)
    assert predicted_type(ThreeLines(2, 2, 4)) == (("D", 6),)


def test_predicted_type_degenerate_ranks_drop():
    assert predicted_type(LineConic(0, 1)) == ()
    assert predicted_type(LineConic(1, 0, 2)) == ()
    assert predicted_type(ThreeLines(1, 1, 0)) == ()
    assert predicted_type(ThreeLines(3, 1, 0)) == (("A", 2),)


def t_diagram_gram(p, q, r):
    """Gram of the Dynkin diagram T_{p,q,r}, p <= q <= r: -2 on the
    diagonal, 1 between neighbours, and chains of p - 1, q - 1 and r - 1
    nodes off a centre node 0, which p = 0 leaves out."""
    edges, n = [], int(p > 0)
    for arm in (p, q, r):
        prev = 0 if p > 0 else None
        for _ in range(arm - 1):
            if prev is not None:
                edges.append((prev, n))
            prev, n = n, n + 1
    gram = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    return gram


def test_t_type_names_the_root_system_of_its_diagram():
    """_t_type(p, q, r) is None exactly when T_{p,q,r} is not negative
    definite, and is otherwise the type classify finds in its lattice."""
    for p, q, r in itertools.combinations_with_replacement(range(9), 3):
        gram = t_diagram_gram(p, q, r)
        found = _t_type(p, q, r)
        assert (found is None) == (not is_negative_definite(gram)), (p, q, r)
        if found is not None:
            assert found == classify(extract_roots(gram), gram).components, (p, q, r)
        assert _t_type(r, p, q) == found


def test_predicted_type_is_none_exactly_where_the_roots_do_not_span():
    """On every big configuration without shared points, a, b <= 12 and
    counts <= 6, no type is predicted exactly when the simple roots fail
    to span the complement: fewer of them than its rank, or |det Cartan|
    other than |det Gram|.  Generic(1) and Generic(2) are the exceptions
    the docstring names."""
    configs = [LineConic(a, b) for a, b in itertools.product(range(13), repeat=2)]
    configs += [ThreeLines(*counts) for counts in itertools.product(range(7), repeat=3)]
    configs += [Generic(r) for r in range(9)]
    big = unspanned = 0
    for config in configs:
        _, gram = root_lattice_of_config(config)
        try:
            roots = extract_roots(gram)
        except NotNegativeDefiniteError:
            continue
        report = classify(roots, gram)
        spans = (report.rank == len(gram)
                 and abs(determinant(report.cartan)) == abs(determinant(gram)))
        if config in (Generic(1), Generic(2)):
            assert not spans and predicted_type(config) == report.components
            continue
        assert (predicted_type(config) is None) == (not spans), config
        big, unspanned = big + 1, unspanned + (not spans)
    assert (big, unspanned) == (339, 12)


def test_config_roots_all_have_square_minus_two():
    for config in (LineConic(2, 5), LineConic(3, 2, 1), ThreeLines(2, 2, 2)):
        _, gram = root_lattice_of_config(config)
        assert all(dot(gram, r, r) == -2 for r in extract_roots(gram))


def test_reflection_closure_of_extracted_systems():
    for config in (LineConic(2, 4), ThreeLines(3, 3, 2)):
        _, gram = root_lattice_of_config(config)
        roots = extract_roots(gram)
        root_set = set(roots)
        report = classify(roots, gram)
        for alpha in report.simple_roots:
            na = dot(gram, alpha, alpha)
            for beta in roots:
                c = 2 * dot(gram, beta, alpha)
                assert c % na == 0
                image = tuple(b - (c // na) * a for b, a in zip(beta, alpha))
                assert image in root_set


def test_listed_roots_are_members_line_conic():
    config = LineConic(3, 4)
    labels = config_labels(config)
    basis, gram = root_lattice_of_config(config)
    roots = set(extract_roots(gram))
    listed = []
    for i in (1, 2):
        listed.append(basis_class(labels, f"e{i}") - basis_class(labels, f"e{i + 1}"))
    for j in (1, 2, 3):
        listed.append(basis_class(labels, f"f{j}") - basis_class(labels, f"f{j + 1}"))
    listed.append(basis_class(labels, "l") - basis_class(labels, "e3")
                  - basis_class(labels, "f1") - basis_class(labels, "f2"))
    for cls in listed:
        assert coords_in(basis, cls.integral_coeffs()) in roots


def test_listed_roots_are_members_three_lines():
    config = ThreeLines(2, 2, 2, p12=True)
    labels = config_labels(config)
    basis, gram = root_lattice_of_config(config)
    roots = set(extract_roots(gram))
    listed = [basis_class(labels, f"e{i}_1") - basis_class(labels, f"e{i}_2") for i in (1, 2, 3)]
    listed.append(basis_class(labels, "l") - basis_class(labels, "e1_2")
                  - basis_class(labels, "e2_2") - basis_class(labels, "e3_2"))
    for cls in listed:
        assert coords_in(basis, cls.integral_coeffs()) in roots


def test_box_search_agrees_on_config_lattices():
    for config in (LineConic(2, 4), LineConic(3, 2), ThreeLines(2, 2, 2)):
        _, gram = root_lattice_of_config(config)
        assert extract_roots(gram) == box_short_vectors(gram, 2)


# DOT output ----------------------------------------------------------------


def test_coxeter_dot_a2():
    report = classify(extract_roots(A2), A2)
    assert coxeter_dot(report) == (
        'graph coxeter {\n'
        '  "eps1";\n'
        '  "eps2";\n'
        '  "eps1" -- "eps2";\n'
        '}\n'
    )


def test_coxeter_dot_isolated_nodes():
    gram = [[-2, 0], [0, -2]]
    report = classify(extract_roots(gram), gram)
    text = coxeter_dot(report)
    assert '"eps1";' in text and '"eps2";' in text
    assert "--" not in text


def test_coxeter_dot_e6_shape():
    _, gram = root_lattice_of_config(LineConic(2, 5))
    report = classify(extract_roots(gram), gram)
    text = coxeter_dot(report)
    assert text.count("--") == 5
    assert "label" not in text
    degree = {}
    for i, j, _ in report.graph:
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    assert sorted(degree.values()) == [1, 1, 1, 2, 2, 3]
