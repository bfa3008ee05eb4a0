import math
import pickle
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bigsurf import picard
from bigsurf.errors import DomainError
from bigsurf.linalg import gram_restrict
from bigsurf.picard import (
    DivisorClass,
    FamilyParams,
    Generic,
    LineConic,
    PicardLattice,
    ThreeLines,
    WitnessReport,
    anticanonical_components,
    blowup_p2,
    config_lattice,
    hirzebruch_model,
    incidence_class,
    verify_witness,
)
from oracles import (FractionClass, arithmetic_genus, basis_class, blowup_hirzebruch,
                     blowup_p2_labels, coeffs, rational_class,
                     castravet_witness_labels, config_labels, conic_witness_labels,
                     dense_gram, dot, fiber_strict, hirzebruch_labels, incidence_terms,
                     is_canonical, k_squared, labelled_class, labelled_components,
                     riemann_roch_nef, sigma_strict)


def test_divisor_class_arithmetic():
    a = DivisorClass([1, 2, 3])
    b = DivisorClass([0, -1, 1])
    assert coeffs(a + b) == (1, 1, 4)
    assert coeffs(a - b) == (1, 3, 2)
    assert coeffs(-a) == (-1, -2, -3)
    assert coeffs(2 * a) == (2, 4, 6)
    assert coeffs(a * Fraction(1, 2)) == (Fraction(1, 2), 1, Fraction(3, 2))
    assert any(a.nums)
    assert not any((a - a).nums)


def test_divisor_class_integrality():
    a = rational_class([1, Fraction(4, 2)])
    assert a.den == 1
    assert a.integral_coeffs() == (1, 2)
    half = DivisorClass((1,), 2)
    assert half.den != 1
    with pytest.raises(ValueError):
        half.integral_coeffs()


def test_divisor_class_representation():
    """Int numerators over one denominator, in lowest terms."""
    a = rational_class([Fraction(1, 3), Fraction(2, 3), 1])
    assert (a.nums, a.den) == ((1, 2, 3), 3)
    assert DivisorClass((2, 4, 6), 6) == a
    assert DivisorClass((2, 4, 6), 6).nums == (1, 2, 3)
    assert DivisorClass([2, 4]).den == 1
    assert (a * 3).den == 1 and (a * 3).nums == (1, 2, 3)
    assert (a * 0).nums == (0, 0, 0) and (a * 0).den == 1
    assert hash(rational_class([Fraction(4, 2), 1])) == hash(DivisorClass([2, 1]))
    with pytest.raises(ValueError):
        DivisorClass((1, 2), 0)
    with pytest.raises(TypeError):
        DivisorClass((1, Fraction(1, 2)))


@pytest.mark.parametrize("values", [[0.1, 2], [1, 2.0], [float("nan")], ["1/2"]])
def test_divisor_class_rejects_non_int_numerators(values):
    with pytest.raises(TypeError):
        DivisorClass(values)


@st.composite
def lattice_and_values(draw):
    """A plane or Hirzebruch lattice of rank 1..40 and the coefficient lists
    of two classes on it: ints and Fractions of mixed denominators, each
    list of the full rank or shorter, the two of equal or unequal length,
    the second sometimes the first again with every entry a Fraction."""
    rank = draw(st.integers(1, 40))
    if rank >= 2 and draw(st.booleans()):
        on_fiber = draw(st.integers(0, rank - 2))
        meets_sigma = on_fiber > 0 and draw(st.booleans())
        lat = blowup_hirzebruch(draw(st.integers(1, 6)),
                                [(on_fiber - meets_sigma, meets_sigma)],
                                extra_on_sigma=rank - 2 - on_fiber)
    else:
        lat = blowup_p2(rank - 1)
    assert lat.rank == rank
    coeff = st.one_of(st.just(0), st.integers(-9, 9),
                      st.fractions(min_value=-9, max_value=9, max_denominator=12))
    if draw(st.booleans()):
        coeff = st.one_of(st.just(0), st.integers(-9, 9))
    size = rank if draw(st.booleans()) else draw(st.integers(0, rank))
    xs = draw(st.lists(coeff, min_size=size, max_size=size))
    if draw(st.integers(0, 4)) == 0:
        return lat, xs, [Fraction(x) for x in xs]
    if draw(st.integers(0, 4)):
        other = size
    else:
        other = draw(st.integers(0, rank))
    return lat, xs, draw(st.lists(coeff, min_size=other, max_size=other))


def assert_matches_oracle(c, f):
    assert coeffs(c) == f.coeffs
    assert c.den >= 1 and math.gcd(c.den, *c.nums) == 1
    assert all(type(x) is int for x in c.nums)
    assert f.is_integral == (c.den == 1)
    assert (not any(c.nums)) == (not any(f.coeffs))
    if f.is_integral:
        assert c.integral_coeffs() == f.integral_coeffs()
    else:
        with pytest.raises(ValueError):
            c.integral_coeffs()


@settings(max_examples=300, deadline=None)
@given(lattice_and_values(),
       st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=8)))
def test_divisor_class_matches_fraction_oracle(case, scalar):
    """The arithmetic of the oracle; the pairing on the same cases is
    checked against the dense Gram by test_structured_pair_matches_dense_gram."""
    _, xs, ys = case
    a, b = rational_class(xs), rational_class(ys)
    fa, fb = FractionClass.of(xs), FractionClass.of(ys)
    assert_matches_oracle(a, fa)
    assert_matches_oracle(b, fb)
    assert_matches_oracle(-a, -fa)
    assert_matches_oracle(a * scalar, fa * scalar)
    assert_matches_oracle(scalar * b, scalar * fb)
    if len(xs) == len(ys):
        assert_matches_oracle(a + b, fa + fb)
        assert_matches_oracle(a - b, fa - fb)
    else:
        for op in (DivisorClass.__add__, DivisorClass.__sub__):
            with pytest.raises(ValueError):
                op(a, b)
        for op in (FractionClass.__add__, FractionClass.__sub__):
            with pytest.raises(ValueError):
                op(fa, fb)
    assert (a == b) == (fa == fb)
    if a == b:
        assert hash(a) == hash(b)
    same = rational_class(fa.coeffs)
    assert same == a and hash(same) == hash(a)


def test_plane_blowup_shape():
    lat = blowup_p2(6)
    assert lat.rank == 7
    assert type(lat.rank) is int
    assert lat == PicardLattice(((1,),), 7, DivisorClass([-3] + [1] * 6))
    gram = dense_gram(lat)
    assert gram[0][0] == 1
    assert all(gram[i][i] == -1 for i in range(1, 7))
    assert all(gram[i][j] == 0 for i in range(7) for j in range(7) if i != j)
    assert k_squared(lat) == 3


def test_plane_blowup_degenerate_cases():
    assert k_squared(blowup_p2(0)) == 9
    with pytest.raises(DomainError):
        blowup_p2(-1)


def test_rank_plus_k_squared_is_ten():
    for r in range(0, 11):
        lat = blowup_p2(r)
        assert lat.rank + k_squared(lat) == 10
    lat = blowup_hirzebruch(3, [(2, False), (1, True)], extra_on_sigma=1)
    assert lat.rank + k_squared(lat) == 10


def test_hirzebruch_blowup_shape():
    lat = blowup_hirzebruch(4, [(2, False), (3, False), (7, False)])
    assert lat.rank == 14
    assert k_squared(lat) == 8 - 12
    labels = hirzebruch_labels([(2, False), (3, False), (7, False)])
    sigma = basis_class(labels, "sigma")
    fiber = basis_class(labels, "F")
    assert lat.pair(sigma, sigma) == -4
    assert lat.pair(sigma, fiber) == 1
    assert lat.pair(fiber, fiber) == 0
    assert type(lat.rank) is int
    assert lat == PicardLattice(((-4, 1), (1, 0)), 14, DivisorClass([-2, -6] + [1] * 12))


def test_hirzebruch_labels_with_section_points():
    labels = hirzebruch_labels([(1, True), (0, True)], extra_on_sigma=2)
    assert labels == ("sigma", "F", "e1_1", "e1_s", "e2_s", "s1", "s2")
    lat = blowup_hirzebruch(2, [(1, True), (0, True)], extra_on_sigma=2)
    assert lat.rank == len(labels)
    # sigma loses e1_s, e2_s, s1 and s2
    assert lat.pair(sigma_strict(labels), sigma_strict(labels)) == -2 - 4


def test_hirzebruch_validation():
    with pytest.raises(DomainError):
        blowup_hirzebruch(0, [])
    with pytest.raises(DomainError):
        blowup_hirzebruch(2, [(-1, False)])
    with pytest.raises(DomainError):
        blowup_hirzebruch(2, [], extra_on_sigma=-1)


def test_strict_transforms_on_hirzebruch():
    lat = blowup_hirzebruch(3, [(2, False), (1, True)], extra_on_sigma=1)
    labels = hirzebruch_labels([(2, False), (1, True)], extra_on_sigma=1)
    f1 = fiber_strict(labels, 1)
    assert lat.pair(f1, f1) == -2
    f2 = fiber_strict(labels, 2)
    assert lat.pair(f2, f2) == -2  # one point off sigma, one on it
    sig = sigma_strict(labels)
    # sigma loses the fiber-2 section point and the extra point
    assert lat.pair(sig, sig) == -3 - 2
    assert lat.pair(sig, f1) == 1
    assert lat.pair(sig, f2) == 0  # they now meet only in the blown-up point


def test_pairing_is_symmetric_and_bilinear():
    lat = blowup_hirzebruch(2, [(2, True)], extra_on_sigma=1)
    a = DivisorClass([1, 2, -1, 3, 0, 1])
    b = DivisorClass([0, 1, 1, -2, 5, -3])
    c = DivisorClass([2, 0, 0, 1, 1, 1])
    assert lat.pair(a, b) == lat.pair(b, a)
    assert lat.pair(a + c, b) == lat.pair(a, b) + lat.pair(c, b)
    assert lat.pair(3 * a, b) == 3 * lat.pair(a, b)


def test_arithmetic_genus_examples():
    lat = blowup_p2(3)
    line = basis_class(blowup_p2_labels(3), "l")
    assert arithmetic_genus(lat, line) == 0
    assert arithmetic_genus(lat, basis_class(blowup_p2_labels(3), "e1")) == 0
    assert arithmetic_genus(lat, 2 * line) == 0
    assert arithmetic_genus(lat, 3 * line) == 1
    assert arithmetic_genus(blowup_p2(0), blowup_p2(0).anticanonical) == 1
    with pytest.raises(ValueError):
        arithmetic_genus(lat, DivisorClass((1, 0, 0, 0), 2))


def test_riemann_roch_on_nef_classes():
    p2 = blowup_p2(0)
    assert riemann_roch_nef(p2, DivisorClass((0,) * p2.rank)) == 1
    line = basis_class(blowup_p2_labels(0), "l")
    assert riemann_roch_nef(p2, line) == 3
    assert riemann_roch_nef(p2, 2 * line) == 6
    assert riemann_roch_nef(p2, p2.anticanonical) == 10


@given(st.integers(0, 8), st.data())
def test_parity_of_square_and_canonical_degree(r, data):
    lat = blowup_p2(r)
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=r + 1, max_size=r + 1))
    cls = DivisorClass(coeffs)
    assert (lat.pair(cls, cls) - lat.pair(cls, lat.canonical)) % 2 == 0


@settings(max_examples=200, deadline=None)
@given(lattice_and_values())
def test_structured_pair_matches_dense_gram(case):
    """On classes of the full rank the pairing is the dense Gram's; any
    other length, of either class, raises ValueError."""
    lat, xs, ys = case
    a, b = rational_class(xs), rational_class(ys)
    if not len(xs) == len(ys) == lat.rank:
        with pytest.raises(ValueError):
            lat.pair(a, b)
        with pytest.raises(ValueError):
            lat.pair(b, a)
        return
    value = lat.pair(a, b)
    assert type(value) is Fraction
    assert value == dot(dense_gram(lat), coeffs(a), coeffs(b))
    assert value == lat.pair(b, a)


@settings(max_examples=200, deadline=None)
@given(lattice_and_values())
def test_row_is_the_dense_gram_times_the_class(case):
    """row(x) is G.x over the full rank, dense in and dense out; any other
    length raises ValueError."""
    lat, xs, _ = case
    if len(xs) != lat.rank:
        with pytest.raises(ValueError, match="^class length does not match the lattice rank$"):
            lat.row(xs)
        return
    assert lat.row(xs) == [sum(g * x for g, x in zip(row, xs)) for row in dense_gram(lat)]


def test_structured_lattice_head_blocks():
    assert blowup_p2(4).head == ((1,),)
    assert blowup_hirzebruch(3, [(2, True)]).head == ((-3, 1), (1, 0))
    lat = blowup_hirzebruch(3, [(1, False)])
    assert dense_gram(lat) == [[-3, 1, 0], [1, 0, 0], [0, 0, -1]]


def test_a_lattice_keeps_no_dense_form():
    # the form is the head and the rank; the dense Gram is built on demand
    for lat in [blowup_p2(r) for r in range(9)] + [
            blowup_hirzebruch(1, []), blowup_hirzebruch(3, [(2, True), (0, False)], 2)]:
        assert not hasattr(lat, "__dict__")
        assert lat.gram_of([[(i, 1)] for i in range(lat.rank)]) == dense_gram(lat)


@st.composite
def lattice_and_sparse_classes(draw):
    """A plane or Hirzebruch lattice of rank 1..30 and up to six sparse int
    classes on it.  Indices come from a small pool as often as not, so the
    classes share tail indices, and a class may repeat an index."""
    rank = draw(st.integers(1, 30))
    if rank >= 2 and draw(st.booleans()):
        on_fiber = draw(st.integers(0, rank - 2))
        meets_sigma = on_fiber > 0 and draw(st.booleans())
        lat = blowup_hirzebruch(draw(st.integers(1, 6)),
                                [(on_fiber - meets_sigma, meets_sigma)],
                                extra_on_sigma=rank - 2 - on_fiber)
    else:
        lat = blowup_p2(rank - 1)
    pool = draw(st.lists(st.integers(0, rank - 1), min_size=1, max_size=4))
    index = st.one_of(st.sampled_from(pool), st.integers(0, rank - 1))
    terms = st.lists(st.tuples(index, st.integers(-9, 9)), max_size=8)
    return lat, draw(st.lists(terms, max_size=6))


@settings(max_examples=300, deadline=None)
@given(lattice_and_sparse_classes())
def test_gram_of_matches_the_dense_restriction(lat_and_classes):
    lat, classes = lat_and_classes
    dense = []
    for terms in classes:
        v = [0] * lat.rank
        for i, c in terms:
            v[i] += c
        dense.append(v)
    gram = lat.gram_of(classes)
    assert gram == gram_restrict(dense_gram(lat), dense)
    assert all(type(x) is int for row in gram for x in row)


def test_gram_of_hirzebruch_strict_transforms():
    # sigma, F~_1 = F - e1_1 - e1_2 and F~_2 = F - e2_1 - e2_s share only
    # head classes; F and e2_s twice over meet through the tail
    lat = blowup_hirzebruch(3, [(2, False), (1, True)])
    index = {label: i for i, label in enumerate(hirzebruch_labels([(2, False), (1, True)]))}
    sigma = [(index["sigma"], 1)]
    f1 = [(index["F"], 1), (index["e1_1"], -1), (index["e1_2"], -1)]
    f2 = [(index["F"], 1), (index["e2_1"], -1), (index["e2_s"], -1)]
    twice = [(index["e2_s"], 1), (index["F"], 2), (index["e2_s"], 1)]
    assert lat.gram_of([sigma, f1, f2, twice]) == [
        [-3, 1, 1, 2], [1, -2, 0, 0], [1, 0, -2, 2], [2, 0, 2, -4]]
    assert lat.gram_of([]) == []


@pytest.mark.parametrize("classes", [
    [[(0, 1)], [(-1, 1)]], [[(7, 1)]], [[(3, 1)]], [[(1, 1), (-4, 2)]]],
    ids=["minus_one", "seven", "rank", "minus_rank_minus_one"])
def test_gram_of_rejects_a_term_index_outside_the_basis(classes):
    # blowup_p2(2) has rank 3: index -1 would read as the line class, the
    # head's last, and an index from the rank on would still add -c^2
    with pytest.raises(ValueError, match="term index"):
        blowup_p2(2).gram_of(classes)


class _Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("fibers, message", [
    ([(1.7, "no"), (1, False)], "points per fiber must be an int, not 1.7"),
    ([("2", False), (1, False)], "points per fiber must be an int, not '2'"),
    ([(Fraction(2), False), (1, False)], "points per fiber must be an int"),
    ([(1, False), (1, "no")], "on-section flag must be a bool, not 'no'"),
    ([(1, 0), (1, False)], "on-section flag must be a bool, not 0"),
    ([(1, False), (1, None)], "on-section flag must be a bool, not None"),
    ([(1, False), (-1, False)], "points per fiber must be non-negative"),
])
def test_fiber_specs_are_validated_not_coerced(fibers, message):
    with pytest.raises(DomainError, match=message):
        blowup_hirzebruch(1, fibers)
    with pytest.raises(DomainError, match=message):
        verify_witness("hirzebruch_b", n=1, fibers=fibers)


def test_fiber_count_by_operator_index():
    lat = blowup_hirzebruch(1, [(_Index(2), True), (0, False)])
    assert type(lat.rank) is int
    assert lat == blowup_hirzebruch(1, [(2, True), (0, False)])
    assert verify_witness("hirzebruch_b", n=1, fibers=[(_Index(1), False), (1, False)]).holds


@pytest.mark.parametrize("build, message", [
    (lambda: Generic(2.0), "r must be an int, not 2.0"),
    (lambda: Generic("3"), "r must be an int, not '3'"),
    (lambda: LineConic(1.5, 2), "a must be an int, not 1.5"),
    (lambda: LineConic(1, Fraction(2)), "b must be an int, not Fraction"),
    (lambda: LineConic(1, 2, 1.0), "both must be an int, not 1.0"),
    (lambda: ThreeLines(2, 3.0, 2), "a2 must be an int, not 3.0"),
    (lambda: ThreeLines(2, 3, 2, p12="no"), "p12 must be a bool, not 'no'"),
    (lambda: ThreeLines(2, 3, 2, p23=1), "p23 must be a bool, not 1"),
    (lambda: FamilyParams(2.0, 3, (2, 3, 7)), "n must be an int, not 2.0"),
    (lambda: FamilyParams(2, 3, (2, 3, 7.0)), "a_j must be an int, not 7.0"),
])
def test_constructors_reject_non_integral_counts_and_non_bool_flags(build, message):
    with pytest.raises(DomainError, match=message):
        build()


def test_sweep_models_keep_effective_off_the_instance():
    # a configuration stores its counts and flags and nothing else: its
    # incidence data and `effective` are read from them, never stored
    for cls in (Generic, LineConic, ThreeLines):
        assert cls.__slots__ == cls._fields
    assert LineConic(1, 2).effective is ThreeLines(1, 2, 3).effective is True
    assert Generic(8).effective is True and Generic(9).effective is None


def test_constructors_store_counts_by_operator_index():
    assert Generic(_Index(3)) == Generic(3)
    config = LineConic(_Index(2), _Index(5), _Index(1))
    assert config == LineConic(2, 5, 1) and type(config.a) is int
    assert ThreeLines(_Index(2), 3, 2, p12=True).counts == (2, 3, 2)
    assert FamilyParams(_Index(2), 3, (2, _Index(3), 7)).a == (2, 3, 7)
    # the lattice constructors take their counts the same way
    assert blowup_p2(_Index(2)) == blowup_p2(2)
    assert type(blowup_p2(True).rank) is int and blowup_p2(True) == blowup_p2(1)
    lat = blowup_hirzebruch(True, [(1, False)], _Index(1))
    assert type(lat.rank) is int and lat == blowup_hirzebruch(1, [(1, False)], 1)
    assert all(type(x) is int for x in lat.canonical.nums)
    for build, message in [
            (lambda: blowup_p2(2.0), "r must be an int, not 2.0"),
            (lambda: blowup_hirzebruch(2.0, [(1, False)]), "n must be an int, not 2.0"),
            (lambda: blowup_hirzebruch(2, [(1, False)], 1.0),
             "extra_on_sigma must be an int, not 1.0")]:
        with pytest.raises(DomainError, match=message):
            build()


FIBER_SPECS = st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=7)


def _assert_model_matches_the_labels(n, specs, extra):
    """The builder's positional strict transforms are the label-built
    incidences, and its lattice is blowup_hirzebruch's."""
    lat, positional_sigma, positional_fibers = hirzebruch_model(n, specs, extra)
    assert lat == blowup_hirzebruch(n, specs, extra)
    labels = hirzebruch_labels(specs, extra)
    assert lat.rank == len(labels)
    fibers = [incidence_terms(labels, [("F", 1)], [f"e{i}_{j}" for j in range(1, off + 1)]
                              + ([f"e{i}_s"] if on else []))
              for i, (off, on) in enumerate(specs, start=1)]
    sigma = incidence_terms(labels, [("sigma", 1)],
                            [f"e{i}_s" for i, (_, on) in enumerate(specs, start=1) if on]
                            + [f"s{j}" for j in range(1, extra + 1)])
    assert (positional_sigma, positional_fibers) == (sigma, fibers)
    assert [fiber_strict(labels, i) for i in range(1, len(specs) + 1)] == [
        labelled_class(labels, terms) for terms in positional_fibers]
    assert sigma_strict(labels) == labelled_class(labels, positional_sigma)


@pytest.mark.parametrize("specs, extra", [
    ([], 0), ([(0, False)], 2), ([(2, False), (1, True)], 1),
    ([(3, True), (0, True), (0, False), (2, False)], 0), ([(1, False)] * 5, 3),
])
def test_strict_terms_match_the_labelled_incidences(specs, extra):
    _assert_model_matches_the_labels(2, specs, extra)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), specs=FIBER_SPECS, extra=st.integers(0, 4))
def test_hirzebruch_model_matches_the_labelled_incidences(n, specs, extra):
    _assert_model_matches_the_labels(n, specs, extra)


BAD_SPECS = [((-1, False), "points per fiber must be non-negative"),
             ((1.0, False), "points per fiber must be an int, not 1.0"),
             ((1, 1), "a fiber's on-section flag must be a bool, not 1"),
             ((0, None), "a fiber's on-section flag must be a bool, not None")]


@settings(max_examples=100, deadline=None)
@given(specs=FIBER_SPECS, bad=st.sampled_from(BAD_SPECS), data=st.data())
def test_hirzebruch_model_rejects_a_bad_spec_wherever_it_sits(specs, bad, data):
    spec, message = bad
    specs.insert(data.draw(st.integers(0, len(specs))), spec)
    for build in (hirzebruch_model, blowup_hirzebruch):
        with pytest.raises(DomainError) as info:
            build(2, specs, 1)
        assert str(info.value) == message


def test_pair_rejects_coordinates_beyond_the_rank():
    lat = blowup_p2(1)
    with pytest.raises(ValueError):
        lat.pair(DivisorClass([0, 0, 1]), DivisorClass([1, 0]))
    with pytest.raises(ValueError):
        lat.pair(DivisorClass([1, 0]), DivisorClass([0, 0, 1]))
    # a zero class is no exception, whichever class has the wrong length
    with pytest.raises(ValueError):
        lat.pair(DivisorClass([0, 0, 0]), DivisorClass([0, 0, 1]))
    with pytest.raises(ValueError):
        blowup_p2(2).pair(DivisorClass([0, 0, 0]), DivisorClass([1, 0, 0, 5]))
    # nor is a class shorter than the rank
    with pytest.raises(ValueError):
        lat.pair(DivisorClass([1]), DivisorClass([1, 0]))


def test_basis_class_unknown_label():
    with pytest.raises(ValueError):
        basis_class(blowup_p2_labels(2), "e3")


# point configurations ---------------------------------------------------


def test_configuration_validation():
    with pytest.raises(DomainError):
        Generic(-1)
    with pytest.raises(DomainError):
        LineConic(1, 2, both=3)
    with pytest.raises(DomainError):
        LineConic(-1, 2)
    with pytest.raises(DomainError):
        ThreeLines(1, -1, 0)


def test_config_lattice_labels():
    for config, labels in [
            (LineConic(2, 3, both=1), ("l", "e1", "e2", "f1", "f2", "f3", "g1")),
            (ThreeLines(2, 1, 0, p12=True, p23=True), ("l", "e1_1", "e1_2", "e2_1", "g12", "g23")),
            (Generic(4), ("l", "e1", "e2", "e3", "e4"))]:
        assert config_labels(config) == labels
        assert config_lattice(config).rank == len(labels)


def test_line_conic_components():
    config = LineConic(2, 8, both=2)
    lat = config_lattice(config)
    parts = anticanonical_components(config)
    assert len(parts) == 4
    line, conic, g1, g2 = parts
    assert lat.pair(line, line) == 1 - 2 - 2
    assert lat.pair(conic, conic) == 4 - 8 - 2
    assert lat.pair(line, conic) == 2 - 2
    assert lat.pair(line, g1) == 1
    assert lat.pair(conic, g2) == 1
    assert lat.pair(g1, g2) == 0
    total = line + conic + g1 + g2
    assert total == lat.anticanonical


def test_line_conic_components_without_shared_points():
    config = LineConic(3, 4)
    lat = config_lattice(config)
    line, conic = anticanonical_components(config)
    assert lat.pair(line, conic) == 2
    assert line + conic == lat.anticanonical


def test_three_lines_components():
    config = ThreeLines(2, 3, 4, p12=True, p13=False, p23=True)
    lat = config_lattice(config)
    parts = anticanonical_components(config)
    assert len(parts) == 5
    l1, l2, l3, g12, g23 = parts
    assert lat.pair(l1, l1) == 1 - 2 - 1       # two free points and g12
    assert lat.pair(l2, l2) == 1 - 3 - 2       # g12 and g23
    assert lat.pair(l3, l3) == 1 - 4 - 1       # g23 blown up, g13 not
    assert lat.pair(l1, l2) == 0               # intersection was blown up
    assert lat.pair(l1, l3) == 1               # still meet at the plane point
    assert lat.pair(l1, g12) == 1
    assert lat.pair(l3, g12) == 0
    assert sum(parts[1:], parts[0]) == lat.anticanonical


def test_generic_has_no_distinguished_member():
    # r general points lie on no named line or conic: the one smooth cubic
    # through them is the whole anticanonical cycle, its class -K itself
    for r in (0, 5, 9, 12):
        config = Generic(r)
        assert config.curves == ((3, r),)
        assert config.shared == ()
        assert anticanonical_components(config) == (config_lattice(config).anticanonical,)


# witness decompositions --------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hirzebruch_witness_holds(n):
    report = verify_witness("hirzebruch_b", n=n)
    assert report.holds
    assert not any(report.residual.nums)
    assert report.n == n
    assert report.lhs == report.big_part + report.effective_part


def test_hirzebruch_witness_custom_fibers():
    report = verify_witness("hirzebruch_b", n=2, fibers=[(3, False), (1, False), (2, False)])
    assert report.holds


def test_hirzebruch_witness_breaks_on_section_point():
    # a point at the meeting of section and fiber enters the effective part
    # twice, so the identity acquires a residual of n times that class
    report = verify_witness("hirzebruch_b", n=2, fibers=[(1, False), (1, False), (0, True)])
    assert not report.holds
    expected = 2 * basis_class(hirzebruch_labels([(1, False), (1, False), (0, True)]), "e3_s")
    assert report.residual == expected


# the fiber placements with a point where sigma meets a named fiber
ON_SECTION = [
    (2, [(0, True), (1, False), (2, True)], 0),
    (3, [(2, True), (1, False), (0, True), (3, True)], 2),
    (4, [(1, False)] * 4 + [(1, True)], 1),
]


@pytest.mark.parametrize("n, fibers, extra", ON_SECTION)
def test_hirzebruch_witness_residual_on_section_points(n, fibers, extra):
    # each blown-up meeting point of sigma and a named fiber enters the
    # effective part once through sigma and once through the fiber, so the
    # residual is n times the sum of those exceptional classes; extra points
    # on sigma alone cancel
    report = verify_witness("hirzebruch_b", n=n, fibers=fibers, extra_on_sigma=extra)
    assert not report.holds
    labels = hirzebruch_labels(fibers, extra)
    expected = DivisorClass((0,) * len(labels))
    for i, (_, on) in enumerate(fibers, start=1):
        if on:
            expected = expected + n * basis_class(labels, f"e{i}_s")
    assert report.residual == expected
    assert report.lhs == report.big_part + report.effective_part + report.residual


@pytest.mark.parametrize("example, rank", [("hirzebruch_b", 5003), ("conic_c", 5002)])
def test_witness_holds_at_n_5000(example, rank):
    # linear in the rank; a dense rank x rank form would not fit here
    report = verify_witness(example, n=5000)
    assert report.holds
    assert len(report.lhs.nums) == rank
    assert not any(report.residual.nums)


def test_hirzebruch_witness_fiber_count_enforced():
    with pytest.raises(DomainError):
        verify_witness("hirzebruch_b", n=3, fibers=[(1, False)] * 3)
    with pytest.raises(DomainError):
        verify_witness("hirzebruch_b")


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_conic_witness_holds(n):
    report = verify_witness("conic_c", n=n)
    assert report.holds
    assert report.lhs == report.big_part + report.effective_part
    assert len(report.lhs.nums) == n + 2


def test_castravet_witness():
    report = verify_witness("castravet_d")
    assert report.holds
    assert len(report.lhs.nums) == 11
    assert coeffs(report.big_part)[0] == 1
    # the effective part is the union of the five lines: 5l - 2 sum(e)
    assert coeffs(report.effective_part) == (5,) + (-2,) * 10


@pytest.mark.parametrize("example", ["pentagon", ["x"], {"n": 1}, None, 3])
def test_unknown_witness_rejected(example):
    # an example is looked up only when it is a str, so an unhashable one is refused too
    with pytest.raises(DomainError, match=f"^unknown witness example {re.escape(repr(example))}$"):
        verify_witness(example)


@pytest.mark.parametrize("example, kwargs, field", [
    ("conic_c", {"n": 2, "fibers": [(1, False)]}, "fibers"),
    ("conic_c", {"n": 2, "extra_on_sigma": 1}, "extra_on_sigma"),
    ("castravet_d", {"n": 3}, "n"),
    ("castravet_d", {"fibers": []}, "fibers"),
    ("castravet_d", {"extra_on_sigma": -1}, "extra_on_sigma"),
], ids=["conic_c.fibers", "conic_c.extra_on_sigma", "castravet_d.n",
        "castravet_d.fibers", "castravet_d.extra_on_sigma"])
def test_witness_rejects_a_field_its_example_does_not_read(example, kwargs, field):
    with pytest.raises(DomainError,
                       match=f"^field witness.{field} does not apply to {example}$"):
        verify_witness(example, **kwargs)


def test_witness_extra_on_sigma_zero_is_the_default():
    # extra_on_sigma = 0 is the default, so it reads as not given
    assert verify_witness("conic_c", n=2, extra_on_sigma=0).holds
    assert verify_witness("castravet_d", extra_on_sigma=0).holds


@pytest.mark.parametrize("example, n, message", [
    ("conic_c", 2.0, "n must be an int, not 2.0"),
    ("hirzebruch_b", 2.0, "n must be an int, not 2.0"),
    ("conic_c", "3", "n must be an int, not '3'"),
    ("conic_c", 0.5, "n must be an int, not 0.5"),
    # a missing n comes first, n < 1 after the int check, and an n the
    # example does not read is reported as such, whatever its type
    ("conic_c", None, "conic_c requires n"),
    ("conic_c", 0, "n must satisfy n >= 1"),
    ("hirzebruch_b", False, "n must satisfy n >= 1"),
    ("castravet_d", 2.0, "field witness.n does not apply to castravet_d"),
])
def test_witness_n_errors(example, n, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        verify_witness(example, n)


def test_witness_stores_n_by_operator_index():
    for example in ("conic_c", "hirzebruch_b"):
        report = verify_witness(example, True)
        assert type(report.n) is int and report.n == 1
        assert report == verify_witness(example, 1)


def _labelled_witness(example: str, lattice: PicardLattice, labels: tuple[str, ...],
                      multiple: int, big: list[tuple[str, int]],
                      curves: list[tuple[list[tuple[str, int]], list[str], int]],
                      n: int | None = None) -> WitnessReport:
    """multiple * (-K) = big + sum of times * (curve through the named
    points): each curve a class of its own, built from the label-built
    incidences over the lattice's reference labels, and the classes summed
    with DivisorClass arithmetic."""
    eff = DivisorClass([0] * len(labels))
    for curve, points, times in curves:
        eff = eff + times * labelled_class(labels, incidence_terms(labels, curve, points))
    lhs = multiple * lattice.anticanonical
    big_class = labelled_class(labels, incidence_terms(labels, big, []))
    residual = lhs - big_class - eff
    return WitnessReport(example, not any(residual.nums), lhs, big_class, eff, residual, n)


def _plane(labels: tuple[str, ...]) -> PicardLattice:
    rank = len(labels)
    return PicardLattice(((1,),), rank, DivisorClass([-3] + [1] * (rank - 1)))


def _labelled_hirzebruch(n: int, fibers: list[tuple[int, bool]],
                         extra: int) -> WitnessReport:
    # n(-K) = (sigma + nF) + ((n - 1) sigma + n sigma~ + n sum F~_i)
    lattice, labels = blowup_hirzebruch(n, fibers, extra), hirzebruch_labels(fibers, extra)
    on_sigma = ([f"e{i}_s" for i, (_, on) in enumerate(fibers, start=1) if on]
                + [f"s{j}" for j in range(1, extra + 1)])
    curves = [([("sigma", 1)], [], n - 1), ([("sigma", 1)], on_sigma, n)]
    curves += [([("F", 1)], [f"e{i}_{j}" for j in range(1, off + 1)]
                + ([f"e{i}_s"] if on else []), n)
               for i, (off, on) in enumerate(fibers, start=1)]
    return _labelled_witness("hirzebruch_b", lattice, labels, n, [("sigma", 1), ("F", n)],
                             curves, n)


@pytest.mark.parametrize("n", [*range(1, 41), 500])
def test_conic_witness_matches_the_labelled_incidences(n):
    on_conic = [f"e{i}" for i in range(1, n + 1)]
    curves = [([("l", 2)], on_conic, n - 1)] + [([("l", 1)], ["e0", p], 1) for p in on_conic]
    labels = conic_witness_labels(n)
    expected = _labelled_witness("conic_c", _plane(labels), labels, n, [("l", 2)], curves, n)
    assert verify_witness("conic_c", n) == expected
    assert expected.holds


def test_castravet_witness_matches_the_labelled_incidences():
    labels = castravet_witness_labels()
    curves = [([("l", 1)], [p for p in labels[1:] if str(k) in p], 1) for k in range(1, 6)]
    expected = _labelled_witness("castravet_d", _plane(labels), labels, 2, [("l", 1)], curves)
    assert verify_witness("castravet_d") == expected
    assert expected.holds


@pytest.mark.parametrize("n, fibers, extra",
                         [(n, None, 0) for n in range(1, 7)] + ON_SECTION)
def test_hirzebruch_witness_matches_the_labelled_incidences(n, fibers, extra):
    # fibers None: the default, n + 1 fibers with one point each, off sigma
    expected = _labelled_hirzebruch(n, fibers or [(1, False)] * (n + 1), extra)
    assert verify_witness("hirzebruch_b", n, fibers, extra) == expected
    assert expected.holds == (fibers is None)


def _witness_reports() -> list[WitnessReport]:
    return ([verify_witness("conic_c", n) for n in [*range(1, 13), 500]]
            + [verify_witness("hirzebruch_b", n) for n in range(1, 7)]
            + [verify_witness("hirzebruch_b", *case) for case in ON_SECTION]
            + [verify_witness("castravet_d")])


def test_witness_classes_are_canonical():
    # _report builds its classes without the constructor's type scan
    for report in _witness_reports():
        for cls in (report.lhs, report.big_part, report.effective_part, report.residual):
            assert is_canonical(cls), report


@pytest.mark.parametrize("lengths", [(2, 2, 1), (2, 1, 2), (1, 2, 2), (3, 2, 1)])
def test_witness_report_rejects_unequal_lengths(lengths):
    lhs, big, eff = ([0] * k for k in lengths)
    with pytest.raises(ValueError):
        picard._report("conic_c", lhs, big, eff)


@pytest.mark.parametrize("configs", [
    [LineConic(a, b, both) for a in range(7) for b in range(7) for both in range(3)],
    [ThreeLines(*counts, *flags) for counts in product(range(4), repeat=3)
     for flags in product((False, True), repeat=3)],
    [Generic(r) for r in range(13)],
], ids=["line_conic", "three_lines", "generic"])
def test_components_match_the_labelled_incidences(configs):
    for config in configs:
        assert anticanonical_components(config) == labelled_components(config), config


@pytest.mark.parametrize("config, own, shared", [
    (Generic(3), [], []), (Generic(3), [1, 1], []), (Generic(3), [1], [0]),
    (LineConic(2, 3, 1), [1], [0]), (LineConic(2, 3, 1), [1, 1], []),
    (LineConic(2, 3, 2), [1, 1], [0]), (LineConic(2, 3, 0), [1, 1], [0]),
    (ThreeLines(1, 2, 3, True, False, True), [1, 1, 1], [0]),
    (ThreeLines(1, 2, 3, True, False, True), [1, 1, 1, 1], [0, 0]),
])
def test_incidence_class_rejects_a_wrong_number_of_coefficients(config, own, shared):
    with pytest.raises(ValueError, match="one coefficient per curve and per shared point"):
        incidence_class(config, 1, own, shared)


# reference labels ------------------------------------------------------------


def assert_labels_name_the_basis(lattice: PicardLattice, labels: tuple[str, ...],
                                 canonical: dict[str, int]) -> None:
    """The reference labels the label-built oracles read name the lattice's
    basis: one distinct label per basis class, the head labels pair by the
    head block, and the canonical class read through the labels (canonical
    maps a label to its coefficient, 1 when not listed) is the lattice's."""
    assert lattice.rank == len(labels) == len(set(labels))
    head = [basis_class(labels, x) for x in labels[:len(lattice.head)]]
    assert [[lattice.pair(u, v) for v in head] for u in head] == [list(r) for r in lattice.head]
    assert lattice.canonical == DivisorClass([canonical.get(x, 1) for x in labels])


@pytest.mark.parametrize("r", [0, 1, 2, 8, 9, 10, 11, 99, 100, 101, 1000])
def test_blowup_p2_labels_match_the_reference(r):
    assert blowup_p2(r).rank == r + 1
    assert_labels_name_the_basis(blowup_p2(r), blowup_p2_labels(r), {"l": -3})


def test_config_lattice_labels_match_the_reference():
    configs = ([Generic(r) for r in (0, 3, 9, 12)]
               + [LineConic(a, b, both) for a in (0, 1, 9, 10, 37) for b in (0, 1, 11, 40)
                  for both in range(3)]
               + [ThreeLines(*counts, *flags)
                  for counts in ((0, 0, 0), (1, 2, 3), (10, 0, 11), (25, 9, 100))
                  for flags in product((False, True), repeat=3)])
    for config in configs:
        assert_labels_name_the_basis(config_lattice(config), config_labels(config), {"l": -3})


@pytest.mark.parametrize("n, fiber_specs, extra_on_sigma", [
    (1, [], 0),
    (1, [(0, False)], 0),
    (2, [(1, True), (0, True)], 2),
    (3, [(2, False), (0, True), (12, True)], 0),
    (4, [(1, False)] * 5, 11),
    (2, [(i, i % 2 == 0) for i in range(12)], 3),
    (7, [(100, True), (0, False), (9, True)], 10),
])
def test_hirzebruch_labels_match_the_reference(n, fiber_specs, extra_on_sigma):
    assert_labels_name_the_basis(blowup_hirzebruch(n, fiber_specs, extra_on_sigma),
                                 hirzebruch_labels(fiber_specs, extra_on_sigma),
                                 {"sigma": -2, "F": -(n + 2)})


def test_a_lattice_is_its_form():
    # equality goes by (head, rank, canonical), so two configurations of
    # equal rank build equal lattices
    assert PicardLattice._fields == ("head", "rank", "canonical")
    lattice = blowup_p2(13)
    assert config_lattice(LineConic(10, 2, 1)) == lattice
    assert config_lattice(ThreeLines(4, 4, 3, True, True)) == lattice
    assert hash(config_lattice(LineConic(10, 2, 1))) == hash(lattice)
    assert lattice != blowup_hirzebruch(1, [(12, False)])


def test_every_model_is_one_class_and_the_point_models_share_one_base():
    assert list(picard.MODELS) == ["generic", "line_conic", "three_lines", "hirzebruch_family"]
    assert all(isinstance(cls, type) and issubclass(cls, picard.Frozen)
               for cls in picard.MODELS.values())
    assert [cls for cls in picard.MODELS.values()
            if issubclass(cls, picard.PointConfiguration)] == [Generic, LineConic, ThreeLines]
    assert picard.MODELS["hirzebruch_family"] is FamilyParams
    # the base carries the defaults, and no field key, since it has no fields
    assert Generic(4).shared == () and LineConic(1, 2).effective is True
    assert "_key" not in vars(picard.PointConfiguration)


K3 = DivisorClass([-3, 1, 1])


@pytest.mark.parametrize("head, rank, canonical, message", [
    (((1,),), 1, K3, "canonical class length does not match the rank"),
    (((1,),), 4, K3, "canonical class length does not match the rank"),
    (((1,),), -1, DivisorClass([]), "rank must be a non-negative int"),
    (((1,),), 3.0, K3, "rank must be a non-negative int"),
    (((1,),), True, DivisorClass([-3]), "rank must be a non-negative int"),
    (((1,),), "3", K3, "rank must be a non-negative int"),
    (((1, 0),), 3, K3, "head must be a square block of at most rank classes"),
    (((-1, 1), (1,)), 3, K3, "head must be a square block of at most rank classes"),
    (((-1, 1), (1, 0)), 1, DivisorClass([-3]),
     "head must be a square block of at most rank classes"),
    (((1,),), 0, DivisorClass([]), "head must be a square block of at most rank classes"),
    (((1, 2), (3, 4)), 3, K3, "head must be symmetric"),
    (((-1, 1), (0, 0)), 3, K3, "head must be symmetric"),
])
def test_picard_lattice_validates_at_construction(head, rank, canonical, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PicardLattice(head, rank, canonical)


@pytest.mark.parametrize("cls, args", [(LineConic, (2, 5)), (LineConic, (3, 4, 2)),
                                       (ThreeLines, (1, 2, 3)),
                                       (ThreeLines, (3, 3, 2, True, False, True))])
def test_configuration_incidences_are_built_once(cls, args):
    # the incidence data is read from the counts: equal configurations and
    # their pickled copies describe the same curves and shared points, and
    # equality, hash, repr and pickling go by the counts alone
    config = cls(*args)
    for other in (cls(*args), pickle.loads(pickle.dumps(config))):
        assert other == config and hash(other) == hash(config)
        assert (other.curves, other.shared) == (config.curves, config.shared)
    assert "curves" not in repr(config) and "shared" not in repr(config)
    for name in ("curves", "shared"):
        with pytest.raises(AttributeError):
            setattr(config, name, ())
