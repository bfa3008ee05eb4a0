"""Exact JSON-compatible views of every report type.

Rational numbers travel as strings in lowest terms ("42" or "-44/43"),
never as floats; divisor classes become lists of such strings.  Key order
is fixed so serialized output is byte-stable across runs.  The package
only writes reports; the ``*_from_dict`` inverses that the round-trip
tests read them back with live in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .bigness import BignessVerdict, CrossCheckReport, SweepReport
from .enumeration import NegativeClassTable
from .picard import DivisorClass, WitnessReport
from .roots import RootSystemReport
from .zariski import ZariskiReport

__all__ = [
    "frac_str", "divisor_to_list", "verdict_to_dict", "cross_check_to_dict",
    "root_report_to_dict", "zariski_report_to_dict", "class_table_to_dict",
    "witness_to_dict", "sweep_to_dict",
]


def frac_str(value: int | Fraction) -> str:
    return str(Fraction(value))


def _opt_frac_str(value: int | Fraction | None) -> str | None:
    return None if value is None else frac_str(value)


def divisor_to_list(divisor: DivisorClass) -> list[str]:
    return [frac_str(c) for c in divisor.coeffs]


def verdict_to_dict(verdict: BignessVerdict) -> dict[str, Any]:
    return {
        "big": verdict.big,
        "case": verdict.case,
        "inequality": _opt_frac_str(verdict.inequality_lhs),
        "v": None if verdict.v is None else divisor_to_list(verdict.v),
        "v_squared": _opt_frac_str(verdict.v_squared),
        "lattice": verdict.lattice_confirmed,
        "effective": verdict.effective,
    }


def cross_check_to_dict(report: CrossCheckReport) -> dict[str, Any]:
    out = verdict_to_dict(report.verdict)
    out["lattice"] = report.lattice_big
    out["agrees"] = report.agrees
    out["v_orthogonal"] = report.v_orthogonal
    out["sign_consistent"] = report.sign_consistent
    return out


def root_report_to_dict(report: RootSystemReport) -> dict[str, Any]:
    return {
        "components": [[family, rank] for family, rank in report.components],
        "simple_roots": [list(v) for v in report.simple_roots],
        "cartan": [list(row) for row in report.cartan],
        "graph": [list(edge) for edge in report.graph],
        "roots": [list(v) for v in report.roots],
    }


def zariski_report_to_dict(report: ZariskiReport) -> dict[str, Any]:
    checks = report.checks
    return {
        "params": {
            "n": report.params.n,
            "k": report.params.k,
            "a": list(report.params.a),
        },
        "positive_part": divisor_to_list(report.positive_part),
        "negative_part": divisor_to_list(report.negative_part),
        "p_squared": frac_str(report.p_squared),
        "checks": {
            "p_dot_sigma_zero": checks.p_dot_sigma_zero,
            "p_dot_fibers_zero": checks.p_dot_fibers_zero,
            "p_dot_n_zero": checks.p_dot_n_zero,
            "n_effective": checks.n_effective,
            "n_support_negative_definite": checks.n_support_negative_definite,
            "sum_is_minus_canonical": checks.sum_is_minus_canonical,
        },
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

