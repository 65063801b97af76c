"""Jet calculus over Weil algebras.

Finite-dimensional local algebras, near-points of opens in R^n, prolongation
of functions, vector fields, and differential forms, prolonged Poisson and
symplectic structures, decision procedures for locally and globally
hamiltonian fields, and a seeded verification suite for the structural
identities tying all of it together.
"""

from .algebra import (
    WeilAlgebra,
    WeilElement,
    make_truncated_algebra,
    validate_algebra,
)
from .bundle import (
    BaseVectorField,
    BundleFunction,
    BundleVectorField,
    NearPoint,
    apply_field,
    functions_equal,
    lie_bracket,
    max_difference,
    prolong_function,
    prolong_vector_field,
    pushforward_map,
    sample_near_point,
)
from .errors import (
    AlgebraMismatch,
    AlgebraValidationError,
    ArityError,
    CapacityError,
    DegreeError,
    DomainError,
    InvalidPoissonStructure,
    InvalidSymplecticStructure,
    NoUnit,
    NotAssociative,
    NotCommutative,
    NotInvertible,
    NotLocal,
    ParseError,
    SingularRealPart,
    UnknownIdentifier,
    WeilError,
)
from .expression import (
    ScalarExpr,
    compose,
    differentiate,
    eval_real,
    eval_weil,
    parse_expr,
)
from .harness import (
    BATTERY,
    CHECK_NAMES,
    MUTATIONS,
    AlgebraSpec,
    CheckReport,
    CheckSpec,
    battery_algebra,
    default_specs,
    run_suite,
)
from .poisson import (
    PoissonStructure,
    ProlongedPoisson,
    adjoint_differential,
    check_global_witness_poisson,
    is_locally_hamiltonian_poisson,
    poisson_closedness_defect,
    poisson_derivation,
    prolonged_adjoint_differential,
    prolonged_bracket,
)
from .symplectic import (
    BaseForm,
    BundleForm,
    SymplecticStructure,
    WitnessVerdict,
    base_hamiltonian_field,
    base_interior_product,
    bundle_exterior_derivative,
    check_global_witness_symplectic,
    exterior_derivative,
    hamiltonian_field,
    interior_product,
    inverse_bivector,
    is_locally_hamiltonian_symplectic,
    prolong_form,
    symplectic_bracket,
    symplectic_closedness_defect,
    weil_matrix_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # algebra
    "WeilAlgebra", "WeilElement", "make_truncated_algebra", "validate_algebra",
    # expressions
    "ScalarExpr", "parse_expr", "differentiate", "compose",
    "eval_real", "eval_weil",
    # bundle
    "NearPoint", "BundleFunction", "BaseVectorField",
    "BundleVectorField", "prolong_function", "prolong_vector_field",
    "pushforward_map", "apply_field", "lie_bracket", "sample_near_point",
    "max_difference", "functions_equal",
    # poisson
    "PoissonStructure", "ProlongedPoisson", "poisson_derivation",
    "prolonged_bracket", "adjoint_differential",
    "prolonged_adjoint_differential", "poisson_closedness_defect",
    "is_locally_hamiltonian_poisson", "check_global_witness_poisson",
    # symplectic
    "BaseForm", "BundleForm", "SymplecticStructure", "WitnessVerdict",
    "exterior_derivative", "bundle_exterior_derivative",
    "base_interior_product", "interior_product", "prolong_form",
    "weil_matrix_inverse", "hamiltonian_field", "base_hamiltonian_field",
    "inverse_bivector", "symplectic_bracket", "symplectic_closedness_defect",
    "is_locally_hamiltonian_symplectic", "check_global_witness_symplectic",
    # harness
    "AlgebraSpec", "BATTERY", "battery_algebra", "CheckSpec", "CheckReport",
    "CHECK_NAMES", "MUTATIONS", "default_specs", "run_suite",
    # errors
    "WeilError", "AlgebraMismatch", "AlgebraValidationError", "NotCommutative",
    "NotAssociative", "NoUnit", "NotLocal", "CapacityError", "NotInvertible",
    "SingularRealPart", "DomainError", "DegreeError", "ArityError",
    "ParseError", "UnknownIdentifier", "InvalidPoissonStructure",
    "InvalidSymplecticStructure",
]
