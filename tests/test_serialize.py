import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bigsurf.bigness import classify_anticanonical, cross_check, agreement_sweep
from bigsurf.enumeration import negative_classes
from bigsurf.picard import FamilyParams, Generic, LineConic, ThreeLines, verify_witness
from bigsurf.roots import classify, extract_roots, root_lattice_of_config
from bigsurf import serialize as ser
from bigsurf.cli import _type_label as type_label
from bigsurf.zariski import zariski_decompose
import oracles


def test_frac_str_lowest_terms():
    assert ser.frac_str(Fraction(4, 6)) == "2/3"
    assert ser.frac_str(Fraction(-44, 43)) == "-44/43"
    assert ser.frac_str(7) == "7"
    assert oracles.parse_frac("2/3") == Fraction(2, 3)
    assert oracles.parse_frac("-5") == -5
    with pytest.raises(ValueError):
        oracles.parse_frac(0.5)


def test_divisor_round_trip():
    d = oracles.rational_class([1, Fraction(-42, 43), 0])
    listed = ser.divisor_to_list(d)
    assert listed == ["1", "-42/43", "0"]
    assert oracles.divisor_from_list(listed) == d


_coordinate = st.one_of(st.just(0), st.integers(-60, 60), st.integers(-10**40, 10**40))


@settings(max_examples=400, deadline=None)
@given(st.lists(_coordinate, max_size=14),
       st.one_of(st.just(1), st.integers(2, 60), st.integers(2, 10**25)))
@example([], 1)
@example([0, 0, 0], 1)
@example([0, 0, 0], 7)
@example([-3, 1, 1, 0], 1)
@example([-42, 0, 43, 86], 43)
def test_divisor_to_list_matches_the_fraction_formula(nums, den):
    """Byte-identical to formatting each Fraction coordinate with frac_str,
    for integral, negative, zero and den > 1 classes."""
    from bigsurf.picard import DivisorClass

    divisor = DivisorClass(nums, den)
    assert ser.divisor_to_list(divisor) == [ser.frac_str(c) for c in oracles.coeffs(divisor)]


@pytest.mark.parametrize("config", [
    LineConic(2, 5), LineConic(2, 8, 1), LineConic(0, 4), Generic(9), Generic(3),
    ThreeLines(2, 3, 4, p12=True), ThreeLines(0, 0, 0),
])
def test_verdict_round_trip(config):
    verdict = classify_anticanonical(config)
    data = ser.classify_to_dict(verdict, type_label(config))
    json.dumps(data)
    assert oracles.classify_from_dict(data) == (verdict, type_label(config))
    assert list(data) == ["big", "case", "inequality", "v", "v_squared",
                          "type", "effective"]


@pytest.mark.parametrize("config", [
    LineConic(3, 5), ThreeLines(2, 2, 2, p12=True, p13=True, p23=True),
])
def test_cross_check_round_trip(config):
    report = cross_check(config)
    data = ser.cross_check_to_dict(report, type_label(config))
    json.dumps(data)
    assert oracles.cross_check_from_dict(data) == (report, type_label(config))
    assert list(data) == ["big", "case", "inequality", "v", "v_squared",
                          "lattice", "type", "effective", "agrees",
                          "v_orthogonal", "sign_consistent"]


def test_root_report_round_trip():
    basis, gram = root_lattice_of_config(LineConic(2, 5))
    report = classify(extract_roots(gram), gram)
    data = ser.roots_to_dict(report, basis)
    json.dumps(data)
    assert oracles.roots_from_dict(data) == (report, basis)
    assert list(data) == ["type", "root_count", "components", "basis",
                          "simple_roots", "cartan", "graph", "roots"]
    data["root_count"] += 1
    with pytest.raises(ValueError):
        oracles.roots_from_dict(data)


def test_zariski_round_trip():
    report = zariski_decompose(FamilyParams(2, 3, (2, 3, 7)))
    data = ser.zariski_report_to_dict(report)
    json.dumps(data)
    assert data["p_squared"] == "42/43"
    assert data["lc_coefficient"] == "44/43"
    assert oracles.zariski_report_from_dict(data) == report


def test_class_table_round_trip():
    table = negative_classes(6)
    data = ser.class_table_to_dict(table)
    json.dumps(data)
    assert data["minus_one_count"] == 27
    assert data["root_count"] == 72
    assert oracles.class_table_from_dict(data) == table
    data["root_count"] = 3
    with pytest.raises(ValueError):
        oracles.class_table_from_dict(data)


@pytest.mark.parametrize("kwargs", [
    {"example": "hirzebruch_b", "n": 3},
    {"example": "hirzebruch_b", "n": 2,
     "fibers": [(1, True), (2, False), (1, False)]},
    {"example": "conic_c", "n": 4},
    {"example": "castravet_d"},
])
def test_witness_round_trip(kwargs):
    report = verify_witness(**kwargs)
    data = ser.witness_to_dict(report)
    json.dumps(data)
    assert oracles.witness_from_dict(data) == report


def test_sweep_round_trip():
    report = agreement_sweep(3, 3, 2)
    data = ser.sweep_to_dict(report)
    json.dumps(data)
    assert data["disagreements"] == 0
    assert data["disagreement_cases"] == []
    assert oracles.sweep_from_dict(data) == report


def test_serialized_output_is_deterministic():
    a = json.dumps(ser.class_table_to_dict(negative_classes(5)), indent=2)
    b = json.dumps(ser.class_table_to_dict(negative_classes(5)), indent=2)
    assert a == b
