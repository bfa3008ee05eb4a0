from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bigsurf.errors import DomainError
from bigsurf.picard import FamilyParams, _reciprocal_sum
from bigsurf.zariski import zariski_decompose
from oracles import (LogCanonicalResult, basis_class, blowup_hirzebruch, coeffs, fiber_strict,
                     hirzebruch_labels, inertia, is_canonical, log_canonical_test,
                     sigma_strict)


def test_params_validation_messages():
    with pytest.raises(DomainError, match="n must satisfy"):
        FamilyParams(1, 3, (2, 3, 7))
    with pytest.raises(DomainError, match="k must satisfy"):
        FamilyParams(2, 4, (2, 3, 7, 7))
    with pytest.raises(DomainError, match="k must satisfy"):
        FamilyParams(3, 2, (5, 5))
    with pytest.raises(DomainError, match="exactly k"):
        FamilyParams(3, 3, (2, 3))
    with pytest.raises(DomainError, match="a_j >= 1"):
        FamilyParams(3, 3, (2, 0, 7))
    with pytest.raises(DomainError, match=r"sum\(1/a_j\) < k - 2"):
        FamilyParams(2, 3, (3, 3, 3))


def test_params_accept_list_input():
    params = FamilyParams(2, 3, [2, 3, 7])
    assert params.a == (2, 3, 7)
    assert Fraction(*_reciprocal_sum(params.a)) == Fraction(41, 42)


def test_smallest_family_member():
    report = zariski_decompose(FamilyParams(2, 3, (2, 3, 7)))
    assert report.p_squared == Fraction(42, 43)
    assert report.lc_coefficient == Fraction(44, 43)
    assert not report.log_canonical
    assert report.checks.all_pass
    # P = c*sigma + F + sum(c/a_i)F_i with c = 42/43
    assert coeffs(report.positive_part)[0] == Fraction(42, 43)
    assert coeffs(report.positive_part)[1] == 1 + Fraction(42, 43) * Fraction(41, 42)
    assert coeffs(report.negative_part)[0] == 2 - Fraction(42, 43)


def test_second_frozen_example():
    report = zariski_decompose(FamilyParams(5, 4, (2, 2, 3, 3)))
    assert report.p_squared == Fraction(27, 10)
    assert report.checks.all_pass
    assert not report.log_canonical


def test_decomposition_identities_on_lattice():
    params = FamilyParams(4, 5, (3, 4, 5, 6, 2))
    report = zariski_decompose(params)
    specs = [(ai, False) for ai in params.a]
    lattice, labels = blowup_hirzebruch(4, specs), hirzebruch_labels(specs)
    p, neg = report.positive_part, report.negative_part
    assert p + neg == lattice.anticanonical
    assert lattice.pair(p, neg) == 0
    assert lattice.pair(p, basis_class(labels, "sigma")) == 0
    for i in range(1, 6):
        assert lattice.pair(p, fiber_strict(labels, i)) == 0
    assert report.checks.all_pass


def test_negative_part_coefficients_bounded():
    for params in (FamilyParams(2, 3, (2, 3, 7)),
                   FamilyParams(6, 7, (2, 2, 2, 2, 2, 2, 2)),
                   FamilyParams(9, 3, (4, 4, 4))):
        s = sum(Fraction(1, ai) for ai in params.a)
        c = Fraction(params.n + 2 - params.k) / (params.n - s)
        values = [2 - c] + [1 - c / ai for ai in params.a]
        assert all(0 < x < 2 for x in values)


def test_positive_part_nef_certificate():
    params = FamilyParams(3, 4, (2, 2, 5, 5))
    report = zariski_decompose(params)
    specs = [(ai, False) for ai in params.a]
    lattice, labels = blowup_hirzebruch(3, specs), hirzebruch_labels(specs)
    p = report.positive_part
    assert lattice.pair(p, p) > 0
    witnesses = [basis_class(labels, "sigma"), sigma_strict(labels), basis_class(labels, "F")]
    witnesses += [fiber_strict(labels, i) for i in range(1, 5)]
    witnesses += [basis_class(labels, lab) for lab in labels[2:]]
    assert all(lattice.pair(p, w) >= 0 for w in witnesses)


def test_log_canonical_examples():
    assert log_canonical_test(2, 3, (2, 3, 7)) == LogCanonicalResult(False, Fraction(44, 43))
    assert log_canonical_test(2, 3, (1, 2, 2)) == LogCanonicalResult(True, None)
    assert log_canonical_test(4, 3, (3, 3, 3)) == LogCanonicalResult(True, Fraction(1))


def test_log_canonical_validates_shape():
    with pytest.raises(DomainError):
        log_canonical_test(1, 2, (2, 2))
    with pytest.raises(DomainError):
        log_canonical_test(4, 3, (3, 3))


valid_params = st.integers(2, 16).flatmap(
    lambda n: st.integers(3, n + 1).flatmap(
        lambda k: st.lists(st.integers(1, 9), min_size=k, max_size=k).map(
            lambda a: (n, k, tuple(a)))))


@settings(deadline=None, max_examples=60)
@given(valid_params)
def test_family_members_never_log_canonical(nka):
    n, k, a = nka
    assume(sum(Fraction(1, ai) for ai in a) < k - 2)
    report = zariski_decompose(FamilyParams(n, k, a))
    assert not report.log_canonical
    assert report.lc_coefficient > 1
    assert report.checks.all_pass
    assert report.p_squared > 0
    # the integer route against the Fraction closed forms
    assert report.lc_coefficient == log_canonical_test(n, k, a).coefficient
    assert report.p_squared == Fraction((n + 2 - k) ** 2) / (n - sum(Fraction(1, aj) for aj in a))


@settings(deadline=None, max_examples=80)
@given(valid_params)
def test_lc_characterizations_agree(nka):
    n, k, a = nka
    result = log_canonical_test(n, k, a)
    if result.coefficient is not None:
        s = sum(Fraction(1, ai) for ai in a)
        assume(n > s)
        assert (result.coefficient <= 1) == result.log_canonical


@settings(deadline=None, max_examples=60)
@given(valid_params)
def test_structured_certificates_match_the_dense_pairing(nka):
    # zariski_decompose reads P^2, P.sigma and P.F_i off the row G.P and
    # N's support block from the curves' gram_of, in int numerators with
    # one Fraction per reported value; the dense classes and pairing agree
    n, k, a = nka
    assume(sum(Fraction(1, ai) for ai in a) < k - 2)
    params = FamilyParams(n, k, a)
    assert Fraction(*_reciprocal_sum(params.a)) == sum(Fraction(1, ai) for ai in a)
    report = zariski_decompose(params)
    specs = [(ai, False) for ai in a]
    lattice, labels = blowup_hirzebruch(n, specs), hirzebruch_labels(specs)
    p, neg = report.positive_part, report.negative_part
    sigma = basis_class(labels, "sigma")
    fibers = [fiber_strict(labels, i) for i in range(1, k + 1)]
    assert report.p_squared == lattice.pair(p, p)
    assert lattice.pair(p, sigma) == 0
    assert all(lattice.pair(p, f) == 0 for f in fibers)
    # N = (2 - c) sigma + sum (1 - c/a_i) F_i, with c the sigma coefficient of P
    c = coeffs(p)[0]
    support = ([sigma] if 2 - c > 0 else []) + [
        f for f, ai in zip(fibers, a) if 1 - c / ai > 0]
    assert neg == (2 - c) * sigma + sum(((1 - c / ai) * f for f, ai in zip(fibers, a)),
                                        0 * sigma)
    gram = [[lattice.pair(u, v) for v in support] for u in support]
    assert inertia(gram).is_negative_definite
    # the package checks the support with sigma last; the verdict does not
    # depend on the order
    assert report.checks.n_support_negative_definite


@settings(deadline=None, max_examples=60)
@given(valid_params)
def test_zariski_parts_are_canonical(nka):
    # P and N are built from their numerators without DivisorClass's type scan
    n, k, a = nka
    assume(sum(Fraction(1, ai) for ai in a) < k - 2)
    report = zariski_decompose(FamilyParams(n, k, a))
    assert is_canonical(report.positive_part)
    assert is_canonical(report.negative_part)


@pytest.mark.parametrize("params", [
    FamilyParams(2, 3, (2, 3, 7)),
    FamilyParams(5, 4, (2, 2, 3, 3)),
    FamilyParams(6, 7, (2, 2, 2, 2, 2, 2, 2)),
    FamilyParams(20, 21, tuple(3 + i % 7 for i in range(21))),
])
def test_zariski_parts_are_canonical_on_fixed_members(params):
    report = zariski_decompose(params)
    assert is_canonical(report.positive_part) and is_canonical(report.negative_part)
    assert report.positive_part.den > 1


def test_support_check_lists_sigma_last(monkeypatch):
    # sigma meets every F_i once and the F_i are pairwise disjoint: with
    # sigma last, each elimination step touches only its fiber's row and
    # sigma's, so the check costs O(k^2)
    grams = []

    def captured(g):
        grams.append(g)
        return True

    monkeypatch.setattr("bigsurf.zariski.is_negative_definite", captured)
    n = 40
    zariski_decompose(FamilyParams(n, n + 1, tuple(3 + i % 7 for i in range(n + 1))))
    (gram,) = grams
    assert len(gram) == n + 2
    assert gram[-1][:-1] == [1] * (n + 1)
    assert all(gram[i][j] == 0 for i in range(n + 1) for j in range(n + 1) if i != j)
