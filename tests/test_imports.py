"""What each entry point loads, the package's names resolved on first
access, and that every public name has a caller."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weiljet

ROOT = Path(__file__).resolve().parents[1]

# Prints, as its last line, the weiljet submodules and numpy that
# ``statement`` left loaded.
PROBE = """
import json, sys
{statement}
print(json.dumps(sorted(name for name in sys.modules
                        if name == "numpy" or name.startswith("weiljet."))))
"""

PUBLIC_NAMES = {
    "AlgebraMismatch", "AlgebraSpec", "AlgebraValidationError", "ArityError",
    "BATTERY", "BaseForm", "BaseVectorField", "BundleForm", "BundleFunction",
    "BundleVectorField", "CHECK_NAMES", "CapacityError", "CheckReport", "CheckSpec",
    "DegreeError", "DomainError", "InvalidPoissonStructure",
    "InvalidSymplecticStructure", "MUTATIONS", "NearPoint", "NoUnit",
    "NotAssociative", "NotCommutative", "NotInvertible", "NotLocal", "ParseError",
    "PoissonStructure", "ScalarExpr", "SingularRealPart",
    "SymplecticStructure", "UnknownIdentifier", "WeilAlgebra", "WeilElement",
    "WeilError", "WitnessVerdict", "__version__", "adjoint_differential",
    "apply_field", "base_hamiltonian_field", "base_interior_product",
    "battery_algebra", "bundle_exterior_derivative", "check_global_witness_poisson",
    "check_global_witness_symplectic", "compose", "default_specs", "differentiate",
    "eval_real", "eval_weil", "exterior_derivative",
    "hamiltonian_field", "interior_product", "inverse_bivector",
    "is_locally_hamiltonian_poisson", "is_locally_hamiltonian_symplectic",
    "lie_bracket", "make_truncated_algebra", "max_difference", "parse_expr",
    "poisson_closedness_defect", "poisson_derivation", "prolong_form",
    "prolong_function", "prolong_vector_field", "prolonged_adjoint_differential",
    "prolonged_bracket", "pushforward_map", "run_suite", "sample_near_point",
    "symplectic_bracket", "symplectic_closedness_defect", "validate_algebra",
    "weil_matrix_inverse",
}


def fresh_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter against the sources; its stdout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    return result.stdout


def loaded_after(statement: str) -> set[str]:
    out = fresh_python(PROBE.format(statement=statement))
    return set(json.loads(out.splitlines()[-1]))


def test_each_entry_point_loads_only_what_it_runs():
    assert loaded_after("import weiljet") == set()
    assert loaded_after("import weiljet.cli") == {
        "numpy", "weiljet.algebra", "weiljet.bundle", "weiljet.cli",
        "weiljet.errors", "weiljet.expression"}
    algebra = loaded_after("from weiljet.cli import main; "
                           "main(['algebra', '--algebra', 'dual'])")
    assert {"weiljet.jsonio", "weiljet.cli"} <= algebra
    assert not {"weiljet.harness", "weiljet.sampling"} & algebra


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from weiljet import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(weiljet.__all__) == PUBLIC_NAMES
    from weiljet import bundle, harness
    assert namespace["run_suite"] is harness.run_suite
    assert namespace["BundleFunction"] is bundle.BundleFunction


def test_submodules_resolve_after_a_bare_import():
    out = fresh_python("import weiljet; print(weiljet.harness.__name__)")
    assert out.strip() == "weiljet.harness"
    assert PUBLIC_NAMES <= set(dir(weiljet))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weiljet.no_such_name
    assert not hasattr(weiljet, "_no_such_module")


# Public names that nothing in ``src`` reads: the benchmark under
# ``perfbench`` reads or wraps them, so they go only with a change to it.
UNREAD_BY_SRC = {"MUTATION_TARGETS", "sample_near_point", "weil_matrix_inverse"}


def test_every_public_name_is_read_somewhere_in_src():
    from weiljet import harness, jsonio, sampling

    read = set()
    for path in (ROOT / "src" / "weiljet").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    public = {*weiljet.__all__, *jsonio.__all__, *sampling.__all__,
              *harness.__all__} - {"__version__"}
    assert public - read == UNREAD_BY_SRC
