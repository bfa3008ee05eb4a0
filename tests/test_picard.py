import math
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bigsurf.bigness import cross_check
from bigsurf.errors import DomainError
from bigsurf.linalg import gram_restrict
from bigsurf.picard import (
    DivisorClass,
    Generic,
    HirzebruchBlowup,
    LineConic,
    PicardLattice,
    PlaneBlowup,
    ThreeLines,
    WitnessReport,
    anticanonical_components,
    blowup_hirzebruch,
    blowup_p2,
    config_lattice,
    fiber_strict,
    sigma_strict,
    strict_terms,
    verify_witness,
)
from bigsurf.roots import root_lattice_of_config
from bigsurf.zariski import FamilyParams, zariski_decompose
from oracles import (FractionClass, arithmetic_genus, dot, incidence_terms, k_squared,
                     labelled_components, riemann_roch_nef)


def test_divisor_class_arithmetic():
    a = DivisorClass.of([1, 2, 3])
    b = DivisorClass.of([0, -1, 1])
    assert (a + b).coeffs == (1, 1, 4)
    assert (a - b).coeffs == (1, 3, 2)
    assert (-a).coeffs == (-1, -2, -3)
    assert (2 * a).coeffs == (2, 4, 6)
    assert (a * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, Fraction(3, 2))
    assert not a.is_zero
    assert (a - a).is_zero


def test_divisor_class_integrality():
    a = DivisorClass.of([1, Fraction(4, 2)])
    assert a.is_integral
    assert a.integral_coeffs() == (1, 2)
    half = DivisorClass.of([Fraction(1, 2)])
    assert not half.is_integral
    with pytest.raises(ValueError):
        half.integral_coeffs()


def test_divisor_class_representation():
    """Int numerators over one denominator, in lowest terms."""
    a = DivisorClass.of([Fraction(1, 3), Fraction(2, 3), 1])
    assert (a.nums, a.den) == ((1, 2, 3), 3)
    assert DivisorClass((2, 4, 6), 6) == a
    assert DivisorClass((2, 4, 6), 6).nums == (1, 2, 3)
    assert DivisorClass.of([2, 4]).den == 1
    assert (a * 3).den == 1 and (a * 3).nums == (1, 2, 3)
    assert (a * 0).nums == (0, 0, 0) and (a * 0).den == 1
    assert hash(DivisorClass.of([Fraction(4, 2), 1])) == hash(DivisorClass.of([2, 1]))
    with pytest.raises(ValueError):
        DivisorClass((1, 2), 0)
    with pytest.raises(TypeError):
        DivisorClass((1, Fraction(1, 2)))


@pytest.mark.parametrize("values", [[0.1, 2], [1, 2.0], [float("nan")], ["1/2"]])
def test_divisor_class_of_rejects_non_rationals(values):
    with pytest.raises(TypeError):
        DivisorClass.of(values)


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
    assert c.coeffs == f.coeffs
    assert c.den >= 1 and math.gcd(c.den, *c.nums) == 1
    assert all(type(x) is int for x in c.nums)
    assert c.is_integral == f.is_integral == (c.den == 1)
    assert c.is_zero == (not any(f.coeffs))
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
    a, b = DivisorClass.of(xs), DivisorClass.of(ys)
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
    same = DivisorClass.of(fa.coeffs)
    assert same == a and hash(same) == hash(a)


def test_plane_blowup_shape():
    lat = blowup_p2(6)
    assert lat.rank == 7
    assert lat.labels == ("l", "e1", "e2", "e3", "e4", "e5", "e6")
    assert lat.model == PlaneBlowup(6)
    assert lat.gram[0][0] == 1
    assert all(lat.gram[i][i] == -1 for i in range(1, 7))
    assert all(lat.gram[i][j] == 0 for i in range(7) for j in range(7) if i != j)
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
    assert lat.labels[:2] == ("sigma", "F")
    assert lat.labels[2:4] == ("e1_1", "e1_2")
    assert lat.labels[-1] == "e3_7"
    sigma = lat.basis_class("sigma")
    fiber = lat.basis_class("F")
    assert lat.pair(sigma, sigma) == -4
    assert lat.pair(sigma, fiber) == 1
    assert lat.pair(fiber, fiber) == 0
    assert lat.model == HirzebruchBlowup(4, ((2, False), (3, False), (7, False)), 0)


def test_hirzebruch_labels_with_section_points():
    lat = blowup_hirzebruch(2, [(1, True), (0, True)], extra_on_sigma=2)
    assert lat.labels == ("sigma", "F", "e1_1", "e1_s", "e2_s", "s1", "s2")


def test_hirzebruch_validation():
    with pytest.raises(DomainError):
        blowup_hirzebruch(0, [])
    with pytest.raises(DomainError):
        blowup_hirzebruch(2, [(-1, False)])
    with pytest.raises(DomainError):
        blowup_hirzebruch(2, [], extra_on_sigma=-1)


def test_strict_transforms_on_hirzebruch():
    lat = blowup_hirzebruch(3, [(2, False), (1, True)], extra_on_sigma=1)
    f1 = fiber_strict(lat, 1)
    assert lat.pair(f1, f1) == -2
    f2 = fiber_strict(lat, 2)
    assert lat.pair(f2, f2) == -2  # one point off sigma, one on it
    sig = sigma_strict(lat)
    # sigma loses the fiber-2 section point and the extra point
    assert lat.pair(sig, sig) == -3 - 2
    assert lat.pair(sig, f1) == 1
    assert lat.pair(sig, f2) == 0  # they now meet only in the blown-up point
    with pytest.raises(DomainError):
        fiber_strict(lat, 3)
    with pytest.raises(DomainError):
        fiber_strict(blowup_p2(2), 1)


def test_pairing_is_symmetric_and_bilinear():
    lat = blowup_hirzebruch(2, [(2, True)], extra_on_sigma=1)
    a = DivisorClass.of([1, 2, -1, 3, 0, 1])
    b = DivisorClass.of([0, 1, 1, -2, 5, -3])
    c = DivisorClass.of([2, 0, 0, 1, 1, 1])
    assert lat.pair(a, b) == lat.pair(b, a)
    assert lat.pair(a + c, b) == lat.pair(a, b) + lat.pair(c, b)
    assert lat.pair(3 * a, b) == 3 * lat.pair(a, b)


def test_arithmetic_genus_examples():
    lat = blowup_p2(3)
    line = lat.basis_class("l")
    assert arithmetic_genus(lat, line) == 0
    assert arithmetic_genus(lat, lat.basis_class("e1")) == 0
    assert arithmetic_genus(lat, 2 * line) == 0
    assert arithmetic_genus(lat, 3 * line) == 1
    assert arithmetic_genus(blowup_p2(0), blowup_p2(0).anticanonical) == 1
    with pytest.raises(ValueError):
        arithmetic_genus(lat, DivisorClass.of([Fraction(1, 2), 0, 0, 0]))


def test_riemann_roch_on_nef_classes():
    p2 = blowup_p2(0)
    assert riemann_roch_nef(p2, DivisorClass.of((0,) * p2.rank)) == 1
    assert riemann_roch_nef(p2, p2.basis_class("l")) == 3
    assert riemann_roch_nef(p2, 2 * p2.basis_class("l")) == 6
    assert riemann_roch_nef(p2, p2.anticanonical) == 10


@given(st.integers(0, 8), st.data())
def test_parity_of_square_and_canonical_degree(r, data):
    lat = blowup_p2(r)
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=r + 1, max_size=r + 1))
    cls = DivisorClass.of(coeffs)
    assert (lat.pair(cls, cls) - lat.pair(cls, lat.canonical)) % 2 == 0


@settings(max_examples=200, deadline=None)
@given(lattice_and_values())
def test_structured_pair_matches_dense_gram(case):
    """On classes of the full rank the pairing is the dense Gram's; any
    other length, of either class, raises ValueError."""
    lat, xs, ys = case
    a, b = DivisorClass.of(xs), DivisorClass.of(ys)
    if not len(xs) == len(ys) == lat.rank:
        with pytest.raises(ValueError):
            lat.pair(a, b)
        with pytest.raises(ValueError):
            lat.pair(b, a)
        return
    value = lat.pair(a, b)
    assert type(value) is Fraction
    assert value == dot(lat.gram, a.coeffs, b.coeffs)
    assert value == lat.pair(b, a)


def test_structured_lattice_head_blocks():
    assert blowup_p2(4).head == ((1,),)
    assert blowup_hirzebruch(3, [(2, True)]).head == ((-3, 1), (1, 0))
    lat = blowup_hirzebruch(3, [(1, False)])
    assert lat.gram == ((-3, 1, 0), (1, 0, 0), (0, 0, -1))
    assert lat.gram is lat.gram  # built once


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
    assert gram == gram_restrict(lat.gram, dense)
    assert all(type(x) is int for row in gram for x in row)


def test_gram_of_hirzebruch_strict_transforms():
    # sigma, F~_1 = F - e1_1 - e1_2 and F~_2 = F - e2_1 - e2_s share only
    # head classes; F and e2_s twice over meet through the tail
    lat = blowup_hirzebruch(3, [(2, False), (1, True)])
    index = lat.index
    sigma = [(index["sigma"], 1)]
    f1 = [(index["F"], 1), (index["e1_1"], -1), (index["e1_2"], -1)]
    f2 = [(index["F"], 1), (index["e2_1"], -1), (index["e2_s"], -1)]
    twice = [(index["e2_s"], 1), (index["F"], 2), (index["e2_s"], 1)]
    assert lat.gram_of([sigma, f1, f2, twice]) == [
        [-3, 1, 1, 2], [1, -2, 0, 0], [1, 0, -2, 2], [2, 0, 2, -4]]
    assert lat.gram_of([]) == []


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
])
def test_fiber_specs_are_validated_not_coerced(fibers, message):
    with pytest.raises(DomainError, match=message):
        blowup_hirzebruch(1, fibers)
    with pytest.raises(DomainError, match=message):
        verify_witness("hirzebruch_b", n=1, fibers=fibers)


def test_fiber_count_by_operator_index():
    lat = blowup_hirzebruch(1, [(_Index(2), True), (0, False)])
    assert lat.model.fiber_specs == ((2, True), (0, False))
    assert type(lat.model.fiber_specs[0][0]) is int
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


def test_constructors_store_counts_by_operator_index():
    assert Generic(_Index(3)) == Generic(3)
    config = LineConic(_Index(2), _Index(5), _Index(1))
    assert config == LineConic(2, 5, 1) and type(config.a) is int
    assert ThreeLines(_Index(2), 3, 2, p12=True).counts == (2, 3, 2)
    assert FamilyParams(_Index(2), 3, (2, _Index(3), 7)).a == (2, 3, 7)
    # the lattice constructors take their counts the same way
    assert blowup_p2(_Index(2)) == blowup_p2(2)
    assert type(blowup_p2(True).model.points) is int
    lat = blowup_hirzebruch(True, [(1, False)], _Index(1))
    assert lat.model == (1, ((1, False),), 1)
    assert type(lat.model.n) is int and type(lat.model.extra_on_sigma) is int
    for build, message in [
            (lambda: blowup_p2(2.0), "r must be an int, not 2.0"),
            (lambda: blowup_hirzebruch(2.0, [(1, False)]), "n must be an int, not 2.0"),
            (lambda: blowup_hirzebruch(2, [(1, False)], 1.0),
             "extra_on_sigma must be an int, not 1.0")]:
        with pytest.raises(DomainError, match=message):
            build()


@pytest.mark.parametrize("specs, extra", [
    ([], 0), ([(0, False)], 2), ([(2, False), (1, True)], 1),
    ([(3, True), (0, True), (0, False), (2, False)], 0), ([(1, False)] * 5, 3),
])
def test_strict_terms_match_the_labelled_incidences(specs, extra):
    """The positional strict transforms are the label-built incidences."""
    lat = blowup_hirzebruch(2, specs, extra)
    fibers = [incidence_terms(lat, [("F", 1)], [f"e{i}_{j}" for j in range(1, off + 1)]
                              + ([f"e{i}_s"] if on else []))
              for i, (off, on) in enumerate(specs, start=1)]
    sigma = incidence_terms(lat, [("sigma", 1)],
                            [f"e{i}_s" for i, (_, on) in enumerate(specs, start=1) if on]
                            + [f"s{j}" for j in range(1, extra + 1)])
    assert strict_terms(lat) == (sigma, fibers)
    assert [fiber_strict(lat, i) for i in range(1, len(specs) + 1)] == [
        lat.class_of(terms) for terms in fibers]
    assert sigma_strict(lat) == lat.class_of(sigma)


def test_pair_rejects_coordinates_beyond_the_rank():
    lat = blowup_p2(1)
    with pytest.raises(ValueError):
        lat.pair(DivisorClass.of([0, 0, 1]), DivisorClass.of([1, 0]))
    with pytest.raises(ValueError):
        lat.pair(DivisorClass.of([1, 0]), DivisorClass.of([0, 0, 1]))
    # a zero class is no exception, whichever class has the wrong length
    with pytest.raises(ValueError):
        lat.pair(DivisorClass.of([0, 0, 0]), DivisorClass.of([0, 0, 1]))
    with pytest.raises(ValueError):
        blowup_p2(2).pair(DivisorClass.of([0, 0, 0]), DivisorClass.of([1, 0, 0, 5]))
    # nor is a class shorter than the rank
    with pytest.raises(ValueError):
        lat.pair(DivisorClass.of([1]), DivisorClass.of([1, 0]))


def test_basis_class_unknown_label():
    with pytest.raises(ValueError):
        blowup_p2(2).basis_class("e3")


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
    lat = config_lattice(LineConic(2, 3, both=1))
    assert lat.labels == ("l", "e1", "e2", "f1", "f2", "f3", "g1")
    lat = config_lattice(ThreeLines(2, 1, 0, p12=True, p23=True))
    assert lat.labels == ("l", "e1_1", "e1_2", "e2_1", "g12", "g23")
    lat = config_lattice(Generic(4))
    assert lat.labels == ("l", "e1", "e2", "e3", "e4")


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
    with pytest.raises(DomainError):
        anticanonical_components(Generic(5))


# witness decompositions --------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hirzebruch_witness_holds(n):
    report = verify_witness("hirzebruch_b", n=n)
    assert report.holds
    assert report.residual.is_zero
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
    lat = blowup_hirzebruch(2, ((1, False), (1, False), (0, True)))
    expected = 2 * lat.basis_class("e3_s")
    assert report.residual == expected


@pytest.mark.parametrize("n, fibers, extra", [
    (2, [(0, True), (1, False), (2, True)], 0),
    (3, [(2, True), (1, False), (0, True), (3, True)], 2),
    (4, [(1, False)] * 4 + [(1, True)], 1),
])
def test_hirzebruch_witness_residual_on_section_points(n, fibers, extra):
    # each blown-up meeting point of sigma and a named fiber enters the
    # effective part once through sigma and once through the fiber, so the
    # residual is n times the sum of those exceptional classes; extra points
    # on sigma alone cancel
    report = verify_witness("hirzebruch_b", n=n, fibers=fibers, extra_on_sigma=extra)
    assert not report.holds
    lat = blowup_hirzebruch(n, fibers, extra)
    expected = DivisorClass.of((0,) * lat.rank)
    for i, (_, on) in enumerate(fibers, start=1):
        if on:
            expected = expected + n * lat.basis_class(f"e{i}_s")
    assert report.residual == expected
    assert report.lhs == report.big_part + report.effective_part + report.residual


@pytest.mark.parametrize("example, rank", [("hirzebruch_b", 5003), ("conic_c", 5002)])
def test_witness_holds_at_n_5000(example, rank):
    # linear in the rank; a dense rank x rank form would not fit here
    report = verify_witness(example, n=5000)
    assert report.holds
    assert len(report.lhs.coeffs) == rank
    assert report.residual.is_zero


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
    assert len(report.lhs.coeffs) == n + 2


def test_castravet_witness():
    report = verify_witness("castravet_d")
    assert report.holds
    assert len(report.lhs.coeffs) == 11
    assert report.big_part.coeffs[0] == 1
    # the effective part is the union of the five lines: 5l - 2 sum(e)
    assert report.effective_part.coeffs == (5,) + (-2,) * 10


def test_unknown_witness_rejected():
    with pytest.raises(DomainError):
        verify_witness("pentagon")


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


def _labelled_witness(example: str, labels: list[str], multiple: int,
                      big: list[tuple[str, int]],
                      curves: list[tuple[list[tuple[str, int]], list[str], int]],
                      n: int | None = None) -> WitnessReport:
    """multiple * (-K) = big + sum of times * (curve through the named
    points), each class from the label-built incidences."""
    rank = len(labels)
    lattice = PicardLattice(((1,),), tuple(labels), DivisorClass.of([-3] + [1] * (rank - 1)),
                            PlaneBlowup(rank - 1))
    eff = [0] * rank
    for curve, points, times in curves:
        for i, c in incidence_terms(lattice, curve, points):
            eff[i] += times * c
    lhs, big_class, eff_class = (multiple * lattice.anticanonical,
                                 lattice.class_of(incidence_terms(lattice, big, [])),
                                 DivisorClass.of(eff))
    residual = lhs - big_class - eff_class
    return WitnessReport(example, residual.is_zero, lhs, big_class, eff_class, residual, n)


@pytest.mark.parametrize("n", range(1, 41))
def test_conic_witness_matches_the_labelled_incidences(n):
    on_conic = [f"e{i}" for i in range(1, n + 1)]
    curves = [([("l", 2)], on_conic, n - 1)] + [([("l", 1)], ["e0", p], 1) for p in on_conic]
    expected = _labelled_witness("conic_c", ["l", "e0", *on_conic], n, [("l", 2)],
                                 curves, n)
    assert verify_witness("conic_c", n) == expected
    assert expected.holds


def test_castravet_witness_matches_the_labelled_incidences():
    points = [f"e{i}{j}" for i in range(1, 6) for j in range(i + 1, 6)]
    curves = [([("l", 1)], [p for p in points if str(k) in p], 1) for k in range(1, 6)]
    expected = _labelled_witness("castravet_d", ["l", *points], 2, [("l", 1)], curves)
    assert verify_witness("castravet_d") == expected
    assert expected.holds


@pytest.mark.parametrize("configs", [
    [LineConic(a, b, both) for a in range(7) for b in range(7) for both in range(3)],
    [ThreeLines(*counts, *flags) for counts in product(range(4), repeat=3)
     for flags in product((False, True), repeat=3)],
], ids=["line_conic", "three_lines"])
def test_components_match_the_labelled_incidences(configs):
    for config in configs:
        assert anticanonical_components(config) == labelled_components(config), config


def test_no_label_lookup_on_a_computation_path(monkeypatch):
    reads = []

    def index(lattice: PicardLattice) -> dict[str, int]:
        reads.append(lattice.labels)
        return {label: i for i, label in enumerate(lattice.labels)}

    monkeypatch.setattr(PicardLattice, "index", property(index))
    verify_witness("conic_c", 50)
    verify_witness("castravet_d")
    zariski_decompose(FamilyParams(5, 6, (2, 3, 3, 4, 5, 6)))
    cross_check(LineConic(2, 5, 2))
    cross_check(ThreeLines(3, 3, 2, True, False, True))
    root_lattice_of_config(LineConic(1, 12))
    assert reads == []
    # basis_class stays the index's reader, and the wrapper sees it
    assert blowup_p2(2).basis_class("e1") == DivisorClass.of([0, 1, 0])
    assert reads == [("l", "e1", "e2")]
