import dataclasses
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bigsurf import bigness
from bigsurf.errors import DomainError
from bigsurf.bigness import (
    agreement_sweep,
    classify_anticanonical,
    cross_check,
    is_big_supported,
    orthogonal_complement,
)
from bigsurf.linalg import is_negative_definite
from bigsurf.picard import (
    DivisorClass,
    Generic,
    LineConic,
    ThreeLines,
    anticanonical_components,
    blowup_p2,
    config_lattice,
)
from bigsurf.roots import root_lattice_of_config
from oracles import (
    basis_class,
    blowup_hirzebruch,
    blowup_p2_labels,
    coeffs,
    config_labels,
    dense_gram,
    dot,
    inertia,
    line_conic_closed_form,
    line_conic_layout,
    rational_class,
    reference_sweep_groups,
    three_lines_closed_form,
    three_lines_layout,
)


def test_complement_of_nothing_is_everything():
    # the zero class meets every class in 0; a complement of no class at
    # all is refused, as integer_kernel refuses a matrix of no rows
    lat = blowup_p2(2)
    basis, gram = orthogonal_complement(lat, [DivisorClass([0, 0, 0])])
    assert sorted(basis) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert gram == [[dot(dense_gram(lat), u, v) for v in basis] for u in basis]
    with pytest.raises(ValueError):
        orthogonal_complement(lat, [])


def test_complement_of_line():
    lat = blowup_p2(2)
    basis, gram = orthogonal_complement(lat, [basis_class(blowup_p2_labels(2), "l")])
    assert basis == [(0, 0, 1), (0, 1, 0)] or basis == [(0, 1, 0), (0, 0, 1)]
    assert gram == [[-1, 0], [0, -1]]


@st.composite
def lattice_and_integral_classes(draw):
    """A plane or Hirzebruch lattice of rank 1..40 and up to three integral
    classes on it."""
    rank = draw(st.integers(1, 40))
    if rank >= 2 and draw(st.booleans()):
        lat = blowup_hirzebruch(draw(st.integers(1, 6)), [(rank - 2, False)])
    else:
        lat = blowup_p2(rank - 1)
    coeff = st.one_of(st.just(0), st.integers(-9, 9))
    classes = draw(st.lists(st.lists(coeff, min_size=rank, max_size=rank),
                            min_size=1, max_size=3))
    return lat, [DivisorClass(c) for c in classes]


@settings(max_examples=100, deadline=None)
@given(lattice_and_integral_classes())
def test_complement_kernel_rows_are_gram_times_class(case):
    lat, classes = case
    with mock.patch.object(bigness, "integer_kernel", wraps=bigness.integer_kernel) as kernel:
        orthogonal_complement(lat, classes)
    (rows,), _ = kernel.call_args
    n = lat.rank
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    gram = dense_gram(lat)
    assert rows == [[dot(gram, unit, coeffs(c)) for unit in units] for c in classes]


def test_complement_of_canonical_r8_is_even_rank_8():
    lat = blowup_p2(8)
    basis, gram = orthogonal_complement(lat, [lat.canonical])
    assert len(basis) == 8
    assert all(gram[i][i] % 2 == 0 for i in range(8))
    assert is_negative_definite(gram)


def test_complement_rejects_non_integral():
    lat = blowup_p2(1)
    with pytest.raises(ValueError):
        orthogonal_complement(lat, [rational_class([Fraction(1, 2), 0])])


def test_big_supported_rank_zero_complement():
    lat = blowup_p2(1)
    line, e1 = (basis_class(blowup_p2_labels(1), x) for x in ("l", "e1"))
    classes = [line - e1, e1]
    assert is_big_supported(lat, classes)


def test_big_supported_matches_known_cases():
    for config, expected in [
        (LineConic(2, 8, 2), False),
        (LineConic(2, 5, 0), True),
        (ThreeLines(7, 7, 7, True, True, True), False),
        (ThreeLines(5, 3, 2), True),
    ]:
        lat = config_lattice(config)
        classes = list(anticanonical_components(config))
        assert is_big_supported(lat, classes) is expected


# closed-form classification ----------------------------------------------


def test_generic_verdicts():
    assert classify_anticanonical(Generic(0)).big
    assert classify_anticanonical(Generic(8)).big
    v = classify_anticanonical(Generic(9))
    assert not v.big
    assert v.case == "i"
    assert v.effective is None
    assert classify_anticanonical(Generic(8)).effective is True


def test_line_conic_verdict_fields():
    v = classify_anticanonical(LineConic(2, 5, 0))
    assert v.big and v.case == "ii"
    assert v.inequality_lhs == Fraction(13, 10)
    assert v.v_squared == 100 * (1 - Fraction(13, 10))
    assert v.effective is True
    lat = config_lattice(LineConic(2, 5, 0))
    assert lat.pair(v.v, v.v) == v.v_squared
    assert coeffs(v.v)[0] == 10


def test_line_conic_boundary_and_beyond():
    v = classify_anticanonical(LineConic(2, 8, 1))
    assert not v.big
    assert v.v_squared == 0
    assert not classify_anticanonical(LineConic(3, 7)).big
    assert classify_anticanonical(LineConic(1, 7)).big


def test_line_conic_degenerate_product():
    for config in (LineConic(0, 11), LineConic(7, 0), LineConic(0, 0, 2)):
        v = classify_anticanonical(config)
        assert v.big and v.inequality_lhs is None and v.v is None


def test_three_lines_verdicts():
    v = classify_anticanonical(ThreeLines(5, 3, 2))
    assert v.big and v.case == "iii"
    assert v.inequality_lhs == Fraction(31, 30)
    assert v.v_squared == 900 * (1 - Fraction(31, 30))
    assert not classify_anticanonical(ThreeLines(2, 4, 6)).big
    assert classify_anticanonical(ThreeLines(0, 9, 9)).big
    boundary = classify_anticanonical(ThreeLines(2, 3, 6))
    assert not boundary.big and boundary.v_squared == 0


def test_verdict_invariant_under_intersection_flags():
    for both in (0, 1, 2):
        assert classify_anticanonical(LineConic(3, 5, both)).big
    for flags in [(False, False, False), (True, False, True), (True, True, True)]:
        assert not classify_anticanonical(ThreeLines(3, 3, 4, *flags)).big


@given(st.integers(1, 12), st.integers(2, 12))
def test_line_conic_monotone_in_b(a, b):
    if classify_anticanonical(LineConic(a, b)).big:
        assert classify_anticanonical(LineConic(a, b - 1)).big


@given(st.integers(2, 12), st.integers(1, 12))
def test_line_conic_monotone_in_a(a, b):
    if classify_anticanonical(LineConic(a, b)).big:
        assert classify_anticanonical(LineConic(a - 1, b)).big


@settings(deadline=None, max_examples=200)
@given(st.one_of(
    st.builds(LineConic, st.integers(0, 40), st.integers(0, 40), st.integers(0, 2)),
    st.builds(ThreeLines, st.integers(0, 15), st.integers(0, 15), st.integers(0, 15),
              st.booleans(), st.booleans(), st.booleans())))
def test_generic_closed_form_matches_per_family_reference(config):
    # the verdict and the lattice layout are derived from the configuration's
    # curves/shared description; the oracles spell each family out by hand
    if isinstance(config, LineConic):
        case, reference = "ii", line_conic_closed_form(config)
        labels, components = line_conic_layout(config)
    else:
        case, reference = "iii", three_lines_closed_form(config)
        labels, components = three_lines_layout(config)
    verdict = classify_anticanonical(config)
    assert verdict.case == case
    if reference is None:
        assert verdict.big
        assert (verdict.inequality_lhs, verdict.v, verdict.v_squared) == (None, None, None)
    else:
        lhs, v, v_squared = reference
        assert verdict.inequality_lhs == lhs
        assert type(verdict.inequality_lhs) is Fraction and type(verdict.v_squared) is Fraction
        assert verdict.v == DivisorClass(v)
        assert verdict.v_squared == v_squared
        assert verdict.big == (lhs > 1)
    assert config_labels(config) == tuple(labels)
    assert config_lattice(config).rank == len(labels)
    assert anticanonical_components(config) == tuple(map(DivisorClass, components))


# cross-checking -----------------------------------------------------------


def test_cross_check_builds_the_lattice_once():
    with mock.patch.object(bigness, "config_lattice", wraps=bigness.config_lattice) as build:
        assert cross_check(ThreeLines(5, 3, 2, p12=True)).ok
    assert build.call_count == 1


def test_sweep_calls_cross_check_through_the_module_global():
    # the benchmark's sweep workload times each cross-check by rebinding it
    with mock.patch.object(bigness, "cross_check", wraps=bigness.cross_check) as check:
        report = agreement_sweep(1, 1, 1)
    assert check.call_count == report.line_conic_count + report.three_lines_count == 12 + 64


def test_sweep_runs_the_configurations_of_the_per_model_generators():
    # the models' groups, labels included, and the order cross_check sees
    groups = [*LineConic.groups(3, 3), *ThreeLines.groups(2)]
    assert groups == list(reference_sweep_groups(3, 3, 2))
    with mock.patch.object(bigness, "cross_check", wraps=bigness.cross_check) as check:
        agreement_sweep(3, 3, 2)
    assert [call.args[0] for call in check.call_args_list] == [
        config for _, members in reference_sweep_groups(3, 3, 2) for _, config in members]


def test_sweep_labels_disagreements_and_flag_violations(monkeypatch):
    # a clean sweep prints no label, so the labels are pinned on a sweep
    # whose cross-check fails one member and flips one verdict per family
    failing = {LineConic(1, 2, 0), ThreeLines(1, 0, 2, True, False, False)}
    flipped = {LineConic(1, 2, 2), ThreeLines(1, 0, 2, False, True, True)}
    inner = bigness.cross_check
    calls = []

    def patched(config):
        calls.append(config)
        report = inner(config)
        if config in failing:
            report = report._replace(agrees=False)
        if config in flipped:
            report = report._replace(
                verdict=dataclasses.replace(report.verdict, big=not report.verdict.big))
        return report

    monkeypatch.setattr(bigness, "cross_check", patched)
    a, b, ai = 2, 3, 2
    report = agreement_sweep(a, b, ai)
    assert report.disagreements == ("line_conic a=1 b=2 both=0",
                                    "three_lines a=(1,0,2) flags=(True, False, False)")
    assert report.flag_violations == ("line_conic a=1 b=2", "three_lines a=(1,0,2)")
    assert report.line_conic_count == 3 * (a + 1) * (b + 1)
    assert report.three_lines_count == 8 * (ai + 1) ** 3
    assert len(calls) == 3 * (a + 1) * (b + 1) + 8 * (ai + 1) ** 3
    assert len(set(calls)) == len(calls)


def test_cross_check_agreement_cases():
    for config in [
        LineConic(3, 5, 1),
        LineConic(2, 8, 0),
        LineConic(0, 6, 2),
        ThreeLines(7, 7, 7, True, True, True),
        ThreeLines(5, 3, 2),
        ThreeLines(1, 1, 0, p12=True),
    ]:
        report = cross_check(config)
        assert report.agrees
        assert report.v_orthogonal
        assert report.sign_consistent
        assert report.lattice_big == report.verdict.big


def test_cross_check_rejects_generic():
    # from nine general points on, the lattice and the closed form both
    # refuse bigness: v^2 = r^2 - 9r >= 0, and the complement of -K is not
    # negative definite
    for r in (9, 10, 12):
        report = cross_check(Generic(r))
        assert report.ok
        assert not report.lattice_big
        assert not report.verdict.big
        assert report.verdict.v_squared == r * r - 9 * r >= 0


@pytest.mark.parametrize("r", range(13))
def test_blowup_p2_is_the_generic_configuration_lattice(r):
    lattice, built = blowup_p2(r), config_lattice(Generic(r))
    assert lattice == built
    assert repr(lattice) == repr(built)
    assert pickle.loads(pickle.dumps(lattice)) == pickle.loads(pickle.dumps(built)) == built


@pytest.mark.parametrize("r", [-1, 2.5, "3"])
def test_blowup_p2_rejects_what_generic_rejects(r):
    with pytest.raises(DomainError) as plane:
        blowup_p2(r)
    with pytest.raises(DomainError) as generic:
        config_lattice(Generic(r))
    assert str(plane.value) == str(generic.value)


@pytest.mark.parametrize("r", range(13))
def test_generic_is_a_cubic_configuration(r):
    """r general points are one smooth cubic through them, case (i): the
    plane blown up at r points, -K its one anticanonical component, and the
    closed form 9/r with v = r*l - 3*sum(e_i)."""
    config = Generic(r)
    lattice = blowup_p2(r)
    minus_k = lattice.anticanonical
    assert config_lattice(config) == lattice
    assert anticanonical_components(config) == (minus_k,)
    assert root_lattice_of_config(config) == orthogonal_complement(lattice, [minus_k])
    report = cross_check(config)
    assert report.ok
    assert report.lattice_big == (r <= 8) == report.verdict.big
    verdict = report.verdict
    if r == 0:
        assert (verdict.inequality_lhs, verdict.v, verdict.v_squared) == (None, None, None)
    else:
        assert verdict.inequality_lhs == Fraction(9, r)
        assert verdict.v == DivisorClass([r] + [-3] * r)
        assert verdict.v_squared == r * r - 9 * r
    assert verdict.effective is config.effective is (True if r <= 8 else None)
    assert classify_anticanonical(config) == verdict


def test_boundary_has_semidefinite_complement_with_kernel():
    for config in (LineConic(2, 8, 0), ThreeLines(2, 3, 6)):
        lat = config_lattice(config)
        _, gram = orthogonal_complement(lat, list(anticanonical_components(config)))
        sig = inertia(gram)
        assert sig.positive == 0
        assert sig.zero == 1
        report = cross_check(config)
        assert report.agrees and not report.verdict.big


def test_v_lies_in_the_complement_kernel_on_boundary():
    config = LineConic(2, 8, 2)
    lat = config_lattice(config)
    verdict = classify_anticanonical(config)
    v = verdict.v.integral_coeffs()
    gram = dense_gram(lat)
    for c in anticanonical_components(config):
        assert dot(gram, v, c.integral_coeffs()) == 0
    assert dot(gram, v, v) == 0


@settings(deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 2))
def test_cross_check_random_line_conic(a, b, both):
    assert cross_check(LineConic(a, b, both)).ok


@settings(deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.booleans(), st.booleans(), st.booleans())
def test_cross_check_random_three_lines(a1, a2, a3, p12, p13, p23):
    assert cross_check(ThreeLines(a1, a2, a3, p12, p13, p23)).ok


@pytest.mark.parametrize("bounds", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_sweep_rejects_negative_bounds(bounds):
    with pytest.raises(DomainError):
        agreement_sweep(*bounds)


@pytest.mark.parametrize("bounds, message", [
    ((1.5,), "max_a must be an int, not 1.5"),
    ((0, "2"), "max_b must be an int, not '2'"),
    ((0, 0, Fraction(1)), "max_ai must be an int, not Fraction"),
])
def test_sweep_rejects_non_integral_bounds(bounds, message):
    with pytest.raises(DomainError, match=message):
        agreement_sweep(*bounds)


def test_sweep_takes_its_bounds_by_operator_index():
    # as every constructor does: an __index__ object or a bool counts as its int
    class One:
        def __index__(self):
            return 1

    assert agreement_sweep(One(), 0, One()) == agreement_sweep(1, 0, 1)
    assert agreement_sweep(True, 0, 0) == agreement_sweep(1, 0, 0)


def test_small_sweep_is_clean():
    report = agreement_sweep(max_a=4, max_b=4, max_ai=3)
    assert report.clean
    assert report.line_conic_count == 5 * 5 * 3
    assert report.three_lines_count == 4 ** 3 * 8
