"""Jet calculus over Weil algebras.

Finite-dimensional local algebras, near-points of opens in R^n, prolongation
of functions, vector fields, and differential forms, prolonged Poisson and
symplectic structures, decision procedures for locally and globally
hamiltonian fields, and a seeded verification suite for the structural
identities tying all of it together.

Importing the package loads none of its modules: a public name, or a
submodule such as ``weiljet.harness``, is imported on first access.
"""

import importlib as _importlib

__version__ = "0.1.0"

# Each public name, listed under the submodule that defines it.
_EXPORTS = {
    "algebra": (
        "WeilAlgebra", "WeilElement", "make_truncated_algebra",
        "validate_algebra",
    ),
    "expression": (
        "ScalarExpr", "parse_expr", "differentiate", "compose",
        "eval_real", "eval_weil",
    ),
    "bundle": (
        "NearPoint", "BundleFunction", "BaseVectorField",
        "BundleVectorField", "prolong_function", "prolong_vector_field",
        "pushforward_map", "apply_field", "lie_bracket", "sample_near_point",
        "max_difference", "functions_equal",
    ),
    "poisson": (
        "PoissonStructure", "ProlongedPoisson", "poisson_derivation",
        "prolonged_bracket", "adjoint_differential",
        "prolonged_adjoint_differential", "poisson_closedness_defect",
        "is_locally_hamiltonian_poisson", "check_global_witness_poisson",
    ),
    "symplectic": (
        "BaseForm", "BundleForm", "SymplecticStructure", "WitnessVerdict",
        "exterior_derivative", "bundle_exterior_derivative",
        "base_interior_product", "interior_product", "prolong_form",
        "weil_matrix_inverse", "hamiltonian_field", "base_hamiltonian_field",
        "inverse_bivector", "symplectic_bracket",
        "symplectic_closedness_defect", "is_locally_hamiltonian_symplectic",
        "check_global_witness_symplectic",
    ),
    "harness": (
        "AlgebraSpec", "BATTERY", "battery_algebra", "CheckSpec",
        "CheckReport", "CHECK_NAMES", "MUTATIONS", "default_specs",
        "run_suite",
    ),
    "errors": (
        "WeilError", "AlgebraMismatch", "AlgebraValidationError",
        "NotCommutative", "NotAssociative", "NoUnit", "NotLocal",
        "CapacityError", "NotInvertible", "SingularRealPart", "DomainError",
        "DegreeError", "ArityError", "ParseError", "UnknownIdentifier",
        "InvalidPoissonStructure", "InvalidSymplecticStructure",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Import a public name's submodule, or a submodule, on first access."""
    home = _HOME.get(name)
    if home is not None:
        value = getattr(_importlib.import_module(f".{home}", __name__), name)
    else:
        try:
            value = _importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """The public names and the submodules loaded so far."""
    shown = (key for key in globals()
             if key.startswith("__") or not key.startswith("_"))
    return sorted({*shown, *__all__})
