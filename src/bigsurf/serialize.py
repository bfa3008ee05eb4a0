"""Exact JSON-compatible views of every report type.

Rational numbers travel as strings in lowest terms ("42" or "-44/43"),
never as floats; divisor classes become lists of such strings.  Each
``*_to_dict`` lays out one CLI report, key order included, so output is
byte-stable across runs and no other code touches the keys.  The package
only writes reports; the ``*_from_dict`` inverses that the round-trip
tests read them back with live in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # the report types and Fraction appear in annotations only
    from fractions import Fraction

    from .bigness import BignessVerdict, CrossCheckReport, SweepReport
    from .enumeration import NegativeClassTable
    from .picard import DivisorClass, WitnessReport
    from .roots import RootSystemReport, Vec
    from .zariski import ZariskiReport

__all__ = [
    "frac_str", "divisor_to_list", "classify_to_dict", "cross_check_to_dict",
    "roots_to_dict", "zariski_report_to_dict", "class_table_to_dict",
    "witness_to_dict", "sweep_to_dict",
]


def frac_str(value: int | Fraction) -> str:
    from fractions import Fraction
    return str(Fraction(value))


def _opt_frac_str(value: int | Fraction | None) -> str | None:
    return None if value is None else frac_str(value)


def divisor_to_list(divisor: DivisorClass) -> list[str]:
    """Each coordinate as frac_str writes it: an integral class's int
    numerators by str, and any other coordinate from one Fraction."""
    den = divisor.den
    if den == 1:
        return [str(x) for x in divisor.nums]
    from fractions import Fraction
    return [str(Fraction(x, den)) for x in divisor.nums]


def _closed_form_items(verdict: BignessVerdict) -> dict[str, Any]:
    return {
        "big": verdict.big,
        "case": verdict.case,
        "inequality": _opt_frac_str(verdict.inequality_lhs),
        "v": None if verdict.v is None else divisor_to_list(verdict.v),
        "v_squared": _opt_frac_str(verdict.v_squared),
    }


def classify_to_dict(verdict: BignessVerdict, type_label: str | None) -> dict[str, Any]:
    """The classify report: the closed-form verdict and the predicted root
    type (None when no type is predicted)."""
    return {**_closed_form_items(verdict), "type": type_label,
            "effective": verdict.effective}


def cross_check_to_dict(report: CrossCheckReport,
                        type_label: str | None) -> dict[str, Any]:
    """The check report: the classify report with the lattice verdict in
    front of the type, and the three agreement flags at the end."""
    return {
        **_closed_form_items(report.verdict),
        "lattice": report.lattice_big,
        "type": type_label,
        "effective": report.verdict.effective,
        "agrees": report.agrees,
        "v_orthogonal": report.v_orthogonal,
        "sign_consistent": report.sign_consistent,
    }


def roots_to_dict(report: RootSystemReport, basis: list[Vec]) -> dict[str, Any]:
    """The roots report: the root system in the coordinates of the given
    basis of the complement, which the report lists too."""
    from .roots import type_string
    return {
        "type": type_string(report.components),
        "root_count": len(report.roots),
        "components": [[family, rank] for family, rank in report.components],
        "basis": [list(v) for v in basis],
        "simple_roots": [list(v) for v in report.simple_roots],
        "cartan": [list(row) for row in report.cartan],
        "graph": [list(edge) for edge in report.graph],
        "roots": [list(v) for v in report.roots],
    }


def zariski_report_to_dict(report: ZariskiReport) -> dict[str, Any]:
    return {
        "params": {
            "n": report.params.n,
            "k": report.params.k,
            "a": list(report.params.a),
        },
        "positive_part": divisor_to_list(report.positive_part),
        "negative_part": divisor_to_list(report.negative_part),
        "p_squared": frac_str(report.p_squared),
        "checks": report.checks._asdict(),  # one key per check, in field order
        "lc_coefficient": frac_str(report.lc_coefficient),
        "log_canonical": report.log_canonical,
    }


def class_table_to_dict(table: NegativeClassTable) -> dict[str, Any]:
    return {
        "r": table.r,
        "minus_one_count": len(table.minus_one_classes),
        "root_count": len(table.minus_two_roots),
        "minus_one_classes": [divisor_to_list(c) for c in table.minus_one_classes],
        "minus_two_roots": [divisor_to_list(c) for c in table.minus_two_roots],
    }


def witness_to_dict(report: WitnessReport) -> dict[str, Any]:
    return {
        "example": report.example,
        "holds": report.holds,
        "n": report.n,
        "lhs": divisor_to_list(report.lhs),
        "big_part": divisor_to_list(report.big_part),
        "effective_part": divisor_to_list(report.effective_part),
        "residual": divisor_to_list(report.residual),
    }


def sweep_to_dict(report: SweepReport) -> dict[str, Any]:
    return {
        "line_conic_count": report.line_conic_count,
        "three_lines_count": report.three_lines_count,
        "disagreements": len(report.disagreements),
        "flag_violations": len(report.flag_violations),
        "disagreement_cases": list(report.disagreements),
        "flag_violation_cases": list(report.flag_violations),
    }

