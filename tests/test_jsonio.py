"""Round-trips between core objects and their JSON wire forms."""

import numpy as np
import pytest

from weiljet.algebra import make_truncated_algebra
from weiljet.bundle import BundleFunction, NearPoint, prolong_function, sample_near_point
from weiljet.errors import ParseError
from weiljet.expression import parse_expr
from weiljet.jsonio import (
    algebra_from_json,
    algebra_to_json,
    bundle_field_from_json,
    bundle_function_from_json,
    bundle_function_to_json,
    element_from_json,
    element_to_json,
    field_to_json,
    form_from_json,
    parse_algebra_spec,
    parse_poisson_spec,
    parse_symplectic_spec,
    point_from_json,
    poisson_from_json,
)
from weiljet.poisson import PoissonStructure
from weiljet.symplectic import BaseForm, SymplecticStructure, hamiltonian_field

DUAL = make_truncated_algebra(1, 1)
T3 = make_truncated_algebra(1, 2)
M2 = make_truncated_algebra(2, 1)


def test_algebra_roundtrip_truncated_family():
    payload = algebra_to_json(M2)
    assert payload == {"family": "truncated", "width": 2, "height": 1}
    rebuilt = algebra_from_json(payload)
    assert rebuilt.dim == M2.dim
    assert rebuilt.basis_labels == M2.basis_labels


def test_algebra_roundtrip_table_family():
    table = {
        "family": "table",
        "dim": 2,
        "constants": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    }
    rebuilt = algebra_from_json(table)
    assert rebuilt.dim == 2
    assert rebuilt.height == 1
    again = algebra_to_json(rebuilt)
    assert again["family"] == "table"
    np.testing.assert_allclose(again["constants"], table["constants"])


def test_parse_algebra_spec_forms():
    assert parse_algebra_spec("dual").dim == 2
    assert parse_algebra_spec("truncated:2,2").dim == 6
    inline = parse_algebra_spec('{"family": "truncated", "width": 1, "height": 3}')
    assert inline.dim == 4
    with pytest.raises(ParseError):
        parse_algebra_spec("nonsense")


def test_element_and_point_roundtrip():
    element = T3.element([1.0, 2.0, -0.5])
    assert element_to_json(element) == {"coeffs": [1.0, 2.0, -0.5]}
    assert element_from_json({"coeffs": [1.0, 2.0, -0.5]}, T3).almost_equal(element)
    assert element_from_json([1.0, 2.0, -0.5], T3).almost_equal(element)

    coords = [{"coeffs": [0.5, 1.0, -2.0]}, {"coeffs": [-1.25, 0.0, 3.0]}]
    payload = {"algebra": {"family": "truncated", "width": 2, "height": 1},
               "coords": coords}
    rebuilt = point_from_json(payload)
    assert rebuilt.algebra.compatible_with(M2)
    assert rebuilt.coeffs.tolist() == [[0.5, 1.0, -2.0], [-1.25, 0.0, 3.0]]
    bare = {"coords": coords}
    with pytest.raises(ParseError):
        point_from_json(bare)
    again = point_from_json(bare, algebra=M2)
    assert again.arity == 2
    assert again.coeffs.tolist() == rebuilt.coeffs.tolist()


def test_function_roundtrip():
    fn = prolong_function(parse_expr("x0^2 + sin(x1)", 2), T3)
    payload = bundle_function_to_json(fn)
    rebuilt = bundle_function_from_json(payload, T3, 2)
    point = sample_near_point(T3, 2, np.random.default_rng(1))
    assert rebuilt.evaluate(point).almost_equal(fn.evaluate(point), tol=1e-12)
    parsed = bundle_function_from_json("x0^2 + sin(x1)", T3, 2)
    assert parsed.evaluate(point).almost_equal(fn.evaluate(point), tol=1e-12)


def test_function_with_weil_coefficients_roundtrip():
    fn = prolong_function(parse_expr("x0", 2), T3) * T3.basis_element(1)
    payload = bundle_function_to_json(fn)
    rebuilt = bundle_function_from_json(payload, T3, 2)
    point = sample_near_point(T3, 2, np.random.default_rng(2))
    assert rebuilt.evaluate(point).almost_equal(fn.evaluate(point), tol=1e-12)


def test_field_roundtrips():
    texts = ["x1", "-x0"]
    field = bundle_field_from_json(texts, T3)
    payload = field_to_json(field)
    rebuilt = bundle_field_from_json(payload, T3)
    point = sample_near_point(T3, 2, np.random.default_rng(3))
    for a, b in zip(rebuilt.components, field.components):
        assert a.evaluate(point).almost_equal(b.evaluate(point), tol=1e-12)
    with pytest.raises(ParseError):
        bundle_field_from_json([], T3)


def test_terms_are_written_expanded_and_merged():
    # sums and products over the algebra expand into terms, and equal
    # pullbacks merge; a real product stays one pullback, however long
    x0, x1 = (prolong_function(parse_expr(f"x{i}", 2), M2) for i in range(2))
    e1, e2 = M2.basis_element(1), M2.basis_element(2)
    long_text = "*".join(f"(x{k % 2} + {k})" for k in range(40))
    long = prolong_function(parse_expr(long_text, 2), M2)
    fn = ((x0 * e1 + x1) * (x1 * e2 - BundleFunction.constant(2.0, M2, 2))
          + long * e1 + x0 * e1 - x1 * x1)
    terms = bundle_function_to_json(fn)["terms"]
    written = {(tuple(t["coeff"]), tuple(t["pullbacks"])) for t in terms}
    # e1 * e2 = 0 drops x0 * x1, and -2 x0 e1 + x0 e1 merge
    assert written == {
        ((0.0, -1.0, 0.0), ("x0",)),
        ((0.0, 0.0, 1.0), ("x1", "x1")),
        ((-2.0, 0.0, 0.0), ("x1",)),
        ((0.0, 1.0, 0.0), (parse_expr(long_text, 2).text,)),
        ((-1.0, 0.0, 0.0), ("(x1 * x1)",)),
    }
    assert len(terms) == len(written)
    rebuilt = bundle_function_from_json({"terms": terms}, M2, 2)
    point = sample_near_point(M2, 2, np.random.default_rng(4))
    assert rebuilt.evaluate(point).almost_equal(fn.evaluate(point), tol=1e-9 * 40 ** 40)
    assert bundle_function_to_json(fn - fn) == {"terms": []}
    assert bundle_function_to_json(fn * 0.0) == {"terms": []}


def test_lazy_components_refuse_serialization():
    curved = SymplecticStructure(BaseForm(2, 2, {(0, 1): "1 + x0^2"}))
    fn = prolong_function(parse_expr("x0 * x1", 2), T3)
    field = hamiltonian_field(fn, curved)
    with pytest.raises(ValueError):
        field_to_json(field)


def test_poisson_roundtrip_and_key_formats():
    rotational = PoissonStructure.rotational()
    digits = {"arity": 3, "bivector": {"01": "x2", "12": "x0", "02": "-x1"}}
    comma = {"arity": 3, "bivector": {"0,1": "x2", "1,2": "x0", "0,2": "-x1"}}
    for payload in (digits, comma):
        rebuilt = poisson_from_json(payload)
        assert rebuilt.arity == 3
        assert all(rebuilt.entry(i, j) is rotational.entry(i, j)
                   for i in range(3) for j in range(3))
    assert parse_poisson_spec("canonical:2").arity == 2
    assert parse_poisson_spec("rotational").arity == 3
    with pytest.raises(ParseError):
        parse_poisson_spec("canonical:two")


def test_form_roundtrip_and_arity_inference():
    form = BaseForm(2, 3, {(0, 1): "x2", (1, 2): 1.0})
    payload = {"degree": 2, "arity": 3, "coeffs": {"0,1": "x2", "1,2": "1.0"}}
    rebuilt = form_from_json(payload)
    assert rebuilt.arity == 3 and rebuilt.degree == 2
    assert rebuilt.coeffs == form.coeffs
    inferred = form_from_json({"degree": 2, "coeffs": {"0,1": "x2", "1,2": "1"}})
    assert inferred.arity == 3
    assert inferred.coeffs == form.coeffs
    with pytest.raises(ParseError):
        form_from_json({"degree": 2, "coeffs": {}})
    explicit = form_from_json({"degree": 2, "coeffs": {}, "arity": 4})
    assert explicit.arity == 4


def test_parse_symplectic_spec():
    assert parse_symplectic_spec("canonical:2").arity == 2
    inline = parse_symplectic_spec('{"degree": 2, "arity": 2, "coeffs": {"0,1": "1 + x0^2"}}')
    assert inline.arity == 2
