"""Deterministic generators used by the check suite."""

import numpy as np

from weiljet.algebra import make_truncated_algebra
from weiljet.bundle import DEFAULT_BOX, sample_near_point
from weiljet.expression import eval_real
from weiljet.sampling import (
    random_base_field,
    random_base_form,
    random_bundle_function,
    random_expression,
    random_polynomial,
    sample_element,
)

T3 = make_truncated_algebra(1, 2)


def test_generators_are_seed_deterministic():
    first = random_expression(2, np.random.default_rng(5)).text
    second = random_expression(2, np.random.default_rng(5)).text
    assert first == second


def test_expressions_are_total_on_the_box():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = random_expression(3, rng)
        assert f.arity == 3
        for point in rng.uniform(-2, 2, (4, 3)):
            value = eval_real(f, point)
            assert np.isfinite(value)


def test_polynomials_have_bounded_shape():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = random_polynomial(2, rng)
        assert p.arity == 2
        assert np.isfinite(eval_real(p, [1.7, -1.3]))


def test_field_and_form_shapes():
    rng = np.random.default_rng(3)
    field = random_base_field(3, rng)
    assert len(field.components) == 3
    form = random_base_form(3, 2, rng)
    assert form.degree == 2 and form.arity == 3
    for key in form.coeffs:
        assert list(key) == sorted(key)


def test_bundle_samples_live_on_the_algebra():
    rng = np.random.default_rng(4)
    fn = random_bundle_function(T3, 2, rng)
    assert fn.algebra is T3 and fn.arity == 2
    point = sample_near_point(T3, 2, rng)
    assert fn.evaluate(point).algebra is T3
    element = sample_element(T3, rng)
    assert element.algebra is T3
    assert DEFAULT_BOX[0] <= element.augmentation <= DEFAULT_BOX[1]
    assert np.all(np.abs(element.coeffs[1:]) <= 1.0)
