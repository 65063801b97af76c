"""Deterministic generators used by the check suite."""

import numpy as np
import pytest

from weiljet.algebra import make_truncated_algebra
from weiljet.bundle import DEFAULT_BOX, NearPoint, sample_near_point
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


# The draws of seeds 0-2, which every rewrite of the generators must
# reproduce exactly, since the verify reports are made of them: per seed, the
# texts of random_polynomial(2), random_expression(2), random_base_field(3)'s
# components and random_base_form(3, 2)'s coefficients; the coefficient bits
# of sample_element(T3); the bits of random_bundle_function(T3, 2) at
# _PIN_POINT; and the generator's state after all of them (its PCG64
# state and its buffered 32-bit half).
_PIN_POINT = [[0.25, 1.0, -0.5], [-1.5, 0.5, 2.0]]
_PINNED = {
    0: (
        [
            "((-0.921 * (x0 ^ 2)) + 1.253 + 1.651 + (0.918 * (x1 ^ 2)))",
            "((1.263 * (x1 ^ 2)) + 1.43 + (0.919 * x0 * x1) + sin((0.363 + (0.066 * x0) + (-0.32 * x1))))",
            "-0.9139999999999999",
            "(-0.465 + (1.989 * x2) + (0.742 * x1 * x2))",
            "((-0.444 * x0 * x2) + (0.101 * x2) + (-0.057 * x0))",
            "((1.736 * (x1 ^ 2)) + (-0.713 * x1 * x2))",
            "((-0.434 * x1) + -1.091)",
            "((-1.664 * (x1 ^ 2)) + (1.148 * (x0 ^ 2)))",
        ],
        ['-0x1.661d23b1b4958p+0', '-0x1.c406bdb7aecc2p-1', '-0x1.4fa1dbcaa140cp-2'],
        ['0x1.95d31daa7da34p-1', '0x1.b1f4c3f9d9004p+1', '-0x1.71065aeb84be8p-3'],
        (2701282021809918926030211926021887878, 1, 2147036171),
    ),
    1: (
        [
            "((1.802 * (x0 ^ 2)) + (-0.753 * x0 * (x1 ^ 2)))",
            "((-0.363 * x0 * (x1 ^ 2)) + 1.014 + exp((-0.17 + (0.173 * x0) + (-0.118 * x1))))",
            "((-0.388 * x0 * x2) + -0.951)",
            "(-0.878 * (x1 ^ 2))",
            "(1.847 * x0 * x2)",
            "(-0.892 * x2)",
            "0.064",
            "1.601",
        ],
        ['0x1.d4680fadfc5a0p-4', '0x1.ab5016eb17562p-1', '-0x1.d774f7064a6e8p-1'],
        ['-0x1.aa1e347a59d0ap+1', '0x1.0075ae09e5aedp+3', '0x1.2f963b3c8df80p+2'],
        (314839679854282588968503221014364209443, 0, 3764698162),
    ),
    2: (
        [
            "((-0.806 * x0) + (-1.632 * x0 * (x1 ^ 2)) + (-1.248 * x0 * x1) + (0.63 * (x0 ^ 2)))",
            "(((-0.269 * x0) + (-0.309 * x0 * x1) + (1.87 * (x1 ^ 2))) * cos((-0.313 + (-0.246 * x0) + (0.018 * x1))))",
            "((-0.727 * (x2 ^ 2)) + (-0.116 * x1 * x2))",
            "(-1.582 + (1.538 * x0 * x1) + (1.397 * (x1 ^ 2)))",
            "((0.066 * x2) + (1.448 * x0))",
            "(0.455 * x2)",
            "(-0.008 * x0 * x2)",
            "((0.091 * x0) + -1.597)",
        ],
        ['0x1.97479ec91210ep+0', '0x1.9d97afe42d5c8p-2', '-0x1.64eb9c4d76b80p-4'],
        ['0x1.19a8715d6cb45p-1', '-0x1.05b7e02ef5369p+0', '-0x1.1ef11613cb375p+1'],
        (179653084550194241274444678239302981766, 0, 85516015),
    ),
}


@pytest.mark.parametrize("seed", sorted(_PINNED))
def test_generators_draw_their_pinned_values(seed):
    texts, element, value, state = _PINNED[seed]
    rng = np.random.default_rng(seed)
    drawn = [random_polynomial(2, rng).text, random_expression(2, rng).text]
    drawn += [c.text for c in random_base_field(3, rng).components]
    form = random_base_form(3, 2, rng)
    drawn += [form.coeffs[key].text for key in sorted(form.coeffs)]
    assert drawn == texts
    assert [c.hex() for c in sample_element(T3, rng).coeffs.tolist()] == element
    fn = random_bundle_function(T3, 2, rng)
    point = NearPoint.from_coeffs(T3, _PIN_POINT)
    assert [c.hex() for c in fn.evaluate(point).coeffs.tolist()] == value
    after = rng.bit_generator.state
    assert (after["state"]["state"], after["has_uint32"], after["uinteger"]) == state
