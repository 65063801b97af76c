# A guided tour: jets of functions, prolonged brackets, and the
# hamiltonian decision procedure, all on the dual numbers and R[t]/t^3.

import numpy as np

from weiljet.algebra import make_truncated_algebra
from weiljet.bundle import (
    BundleFunction,
    BundleVectorField,
    NearPoint,
    prolong_function,
)
from weiljet.expression import parse_expr
from weiljet.poisson import (
    PoissonStructure,
    check_global_witness_poisson,
    poisson_closedness_defect,
    poisson_derivation,
)
from weiljet.symplectic import (
    BaseForm,
    SymplecticStructure,
    hamiltonian_field,
    symplectic_bracket,
)


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def jets():
    banner("Jets are evaluation at nilpotent displacements")
    dual = make_truncated_algebra(1, 1)
    f = prolong_function(parse_expr("x0^2", 1), dual)
    point = NearPoint([dual.element([2.0, 1.0])])
    value = f.evaluate(point)
    print(f"x0^2 at 2 + t:            {value!r}   (value 4, derivative 4)")

    t3 = make_truncated_algebra(1, 2)
    g = prolong_function(parse_expr("exp(x0)", 1), t3)
    jet = g.evaluate(NearPoint([t3.element([0.0, 1.0, 0.0])]))
    print(f"exp(x0) at 0 + t mod t^3: {jet!r}   (1, 1, 1/2)")


def brackets():
    banner("Prolonged Poisson brackets extend the base bracket")
    t3 = make_truncated_algebra(1, 2)
    # the structure stays on the base; the algebra comes with the function
    structure = PoissonStructure.canonical(2)
    energy = prolong_function(parse_expr("(x0^2 + x1^2) / 2", 2), t3)
    field = poisson_derivation(structure, energy)
    point = NearPoint([t3.element([0.5, 1.0, 0.0]), t3.element([0.25, 0.0, 0.0])])
    values = [c.evaluate(point) for c in field.components]
    print(f"{{H, .}} at the jet of (0.5, 0.25): ({values[0]!r}, {values[1]!r})")
    print("the flow rotates: components are (-x1, x0) lifted to jets")


def decisions():
    banner("Locally vs globally hamiltonian")
    dual = make_truncated_algebra(1, 1)
    structure = PoissonStructure.canonical(2)
    constant = BundleVectorField(
        [BundleFunction.constant(1.0, dual, 2), BundleFunction.constant(0.0, dual, 2)]
    )
    # each decision returns (residual, witness); the caller picks the tolerance
    residual, _ = poisson_closedness_defect(constant, structure,
                                            rng=np.random.default_rng(42))
    local = residual <= 1e-9
    witness = prolong_function(parse_expr("-x1", 2), dual)
    residual, _ = check_global_witness_poisson(constant, witness, structure,
                                               rng=np.random.default_rng(42))
    ok = residual <= 1e-9
    print(f"X = (1, 0): locally hamiltonian? {local}")
    print(f"X = (1, 0) with witness -x1: globally hamiltonian? {ok}")


def symplectic_side():
    banner("The symplectic route agrees, including non-constant forms")
    t3 = make_truncated_algebra(1, 2)
    curved = SymplecticStructure(BaseForm(2, 2, {(0, 1): "1 + x0^2"}))
    fn = prolong_function(parse_expr("x0 * x1", 2), t3)
    field = hamiltonian_field(fn, curved)
    point = NearPoint([t3.element([0.5, 1.0, 0.0]), t3.element([-0.3, 0.0, 0.0])])
    values = [c.evaluate(point) for c in field.components]
    print(f"X_f for omega = (1 + x0^2) dx0^dx1 at a jet: ({values[0]!r}, {values[1]!r})")
    x0 = prolong_function(parse_expr("x0", 2), t3)
    x1 = prolong_function(parse_expr("x1", 2), t3)
    pair = symplectic_bracket(x0, x1, curved).evaluate(point)
    print(f"{{x0, x1}} under the curved form at that jet: {pair!r}")


if __name__ == "__main__":
    jets()
    brackets()
    decisions()
    symplectic_side()
    print()
    print("Done. Run 'python3 -m weiljet verify' for the full identity suite.")
