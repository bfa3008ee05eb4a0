"""Exact Picard-lattice computations for rational surfaces.

Everything runs over the integers and rationals: lattice models of blown-up
planes and Hirzebruch surfaces, closed-form and lattice-theoretic bigness
tests for the anticanonical class, ADE root-system extraction, Zariski
decompositions for a family of non-log-canonical examples, and complete
enumeration of negative classes on del Pezzo lattices.
"""

from .bigness import (
    BignessVerdict,
    CrossCheckReport,
    SweepReport,
    agreement_sweep,
    classify_anticanonical,
    cross_check,
    is_big_supported,
    orthogonal_complement,
)
from .enumeration import NegativeClassTable, negative_classes
from .errors import DomainError, InvariantError, NotNegativeDefiniteError
from .linalg import (
    gram_restrict,
    integer_kernel,
    is_negative_definite,
    short_vectors,
)
from .picard import (
    DivisorClass,
    Generic,
    LineConic,
    PicardLattice,
    ThreeLines,
    WitnessReport,
    anticanonical_components,
    blowup_hirzebruch,
    blowup_p2,
    config_lattice,
    verify_witness,
)
from .roots import (
    RootSystemReport,
    classify,
    coxeter_dot,
    expected_root_count,
    extract_roots,
    predicted_type,
    root_lattice_of_config,
    type_string,
)
from .zariski import (
    FamilyParams,
    LogCanonicalResult,
    ZariskiChecks,
    ZariskiReport,
    log_canonical_test,
    zariski_decompose,
)

__all__ = [
    "DomainError",
    "InvariantError",
    "NotNegativeDefiniteError",
    "gram_restrict",
    "integer_kernel",
    "is_negative_definite",
    "short_vectors",
    "DivisorClass",
    "PicardLattice",
    "Generic",
    "LineConic",
    "ThreeLines",
    "WitnessReport",
    "blowup_p2",
    "blowup_hirzebruch",
    "config_lattice",
    "anticanonical_components",
    "verify_witness",
    "BignessVerdict",
    "CrossCheckReport",
    "SweepReport",
    "classify_anticanonical",
    "cross_check",
    "is_big_supported",
    "orthogonal_complement",
    "agreement_sweep",
    "RootSystemReport",
    "classify",
    "extract_roots",
    "expected_root_count",
    "predicted_type",
    "root_lattice_of_config",
    "type_string",
    "coxeter_dot",
    "FamilyParams",
    "LogCanonicalResult",
    "ZariskiChecks",
    "ZariskiReport",
    "zariski_decompose",
    "log_canonical_test",
    "NegativeClassTable",
    "negative_classes",
]
