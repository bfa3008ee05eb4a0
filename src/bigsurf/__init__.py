"""Exact Picard-lattice computations for rational surfaces.

Everything runs over the integers and rationals: lattice models of blown-up
planes and Hirzebruch surfaces, closed-form and lattice-theoretic bigness
tests for the anticanonical class, ADE root-system extraction, Zariski
decompositions for a family of non-log-canonical examples, and complete
enumeration of negative classes on del Pezzo lattices.

``import bigsurf`` loads no submodule: each exported name imports its
module on first use (PEP 562) and is then bound here like any other.
"""

from importlib import import_module
from typing import Any, Callable


def _lazy_names(namespace: dict[str, Any],
                table: dict[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` that resolves each name of table, name ->
    "submodule.attribute", on first access and binds it in namespace."""
    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module, _, attr = table[name].partition(".")
        value = namespace[name] = getattr(import_module(f"{__name__}.{module}"), attr)
        return value
    return __getattr__


_EXPORTS = {name: f"{module}.{name}" for module, names in (
    ("errors", ("DomainError", "InvariantError", "NotNegativeDefiniteError")),
    ("linalg", ("gram_restrict", "integer_kernel", "is_negative_definite",
                "short_vectors")),
    ("picard", ("DivisorClass", "PicardLattice", "Generic", "LineConic",
                "ThreeLines", "FamilyParams", "WitnessReport", "blowup_p2",
                "config_lattice", "anticanonical_components", "verify_witness")),
    ("bigness", ("BignessVerdict", "CrossCheckReport", "SweepReport",
                 "classify_anticanonical", "cross_check", "is_big_supported",
                 "orthogonal_complement", "agreement_sweep")),
    ("roots", ("RootSystemReport", "classify", "extract_roots",
               "expected_root_count", "predicted_type", "root_lattice_of_config",
               "type_string", "coxeter_dot")),
    ("zariski", ("ZariskiChecks", "ZariskiReport", "zariski_decompose")),
    ("enumeration", ("NegativeClassTable", "negative_classes")),
) for name in names}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_names(globals(), _EXPORTS)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
