"""Prolongation of functions and vector fields to near-points."""

import gc
import weakref

import numpy as np
import pytest

from weiljet.algebra import (
    AlgebraMismatch,
    NotInvertible,
    WeilElement,
    make_truncated_algebra,
    validate_algebra,
)
from weiljet.bundle import (
    DEFAULT_BOX,
    BaseVectorField,
    BundleFunction,
    BundleVectorField,
    NearPoint,
    NearPoints,
    Term,
    apply_field,
    functions_equal,
    lie_bracket,
    max_difference,
    prolong_function,
    prolong_vector_field,
    pushforward_map,
    sample_near_point,
    sample_near_points,
)
from weiljet.errors import ArityError, DomainError
from weiljet.expression import (
    Const,
    add,
    compose,
    differentiate,
    eval_weil,
    mul,
    parse_expr,
    sub,
)
from weiljet.poisson import PoissonStructure, ProlongedPoisson, poisson_derivation
from weiljet.sampling import (
    random_base_field,
    random_bundle_function,
    random_expression,
    sample_element,
)
from weiljet.symplectic import BaseForm, SymplecticStructure, hamiltonian_field

DUAL = make_truncated_algebra(1, 1)
T3 = make_truncated_algebra(1, 2)
M2 = make_truncated_algebra(2, 1)


def test_prolong_evaluates_by_weil_substitution():
    f = prolong_function(parse_expr("x0^2", 1), DUAL)
    point = NearPoint([DUAL.element([2.0, 1.0])])
    np.testing.assert_allclose(f.evaluate(point).coeffs, [4.0, 4.0])


def test_constant_function():
    f = BundleFunction.constant(5.0, DUAL, 2)
    point = sample_near_point(DUAL, 2, np.random.default_rng(0))
    np.testing.assert_allclose(f.evaluate(point).coeffs, [5.0, 0.0])
    assert BundleFunction.zero(DUAL, 2).is_structurally_zero()


@pytest.mark.parametrize("algebra", [DUAL, T3, M2], ids=["dual", "t3", "m2"])
def test_prolongation_is_a_ring_morphism(algebra):
    rng = np.random.default_rng(7)
    for trial in range(5):
        f = random_expression(2, rng)
        g = random_expression(2, rng)
        prod = prolong_function(mul(f, g), algebra)
        split = prolong_function(f, algebra) * prolong_function(g, algebra)
        assert max_difference(prod, split, samples=8, rng=np.random.default_rng(trial))[0] < 1e-8
        total = prolong_function(add(f, g), algebra)
        parts = prolong_function(f, algebra) + prolong_function(g, algebra)
        assert max_difference(total, parts, samples=8, rng=np.random.default_rng(trial))[0] < 1e-8


def test_partial_commutes_with_prolongation():
    rng = np.random.default_rng(3)
    f = random_expression(2, rng)
    lifted = prolong_function(f, T3)
    for index in range(2):
        assert functions_equal(
            lifted.partial(index),
            prolong_function(differentiate(f, index), T3),
            samples=8,
            rng=np.random.default_rng(index),
        )


def test_prolonged_field_satisfies_chain_rule():
    rng = np.random.default_rng(11)
    base = random_base_field(2, rng)
    f = random_expression(2, rng)
    field = prolong_vector_field(base, M2)
    got = apply_field(field, prolong_function(f, M2))
    symbolic = None
    for j, component in enumerate(base.components):
        term = mul(component, differentiate(f, j))
        symbolic = term if symbolic is None else add(symbolic, term)
    want = prolong_function(symbolic, M2)
    assert max_difference(got, want, samples=8, rng=np.random.default_rng(5))[0] < 1e-8


def _base_bracket_field(v, w, arity):
    components = []
    for i in range(arity):
        acc = None
        for j in range(arity):
            term = sub(
                mul(v.components[j], differentiate(w.components[i], j)),
                mul(w.components[j], differentiate(v.components[i], j)),
            )
            acc = term if acc is None else add(acc, term)
        components.append(acc)
    return BaseVectorField(components)


def test_lie_bracket_prolongs_the_base_bracket():
    rng = np.random.default_rng(13)
    v = random_base_field(2, rng)
    w = random_base_field(2, rng)
    f = prolong_function(random_expression(2, rng), DUAL)
    bracket = lie_bracket(prolong_vector_field(v, DUAL), prolong_vector_field(w, DUAL))
    prolonged = prolong_vector_field(_base_bracket_field(v, w, 2), DUAL)
    assert max_difference(
        apply_field(bracket, f),
        apply_field(prolonged, f),
        samples=6,
        rng=np.random.default_rng(8),
    )[0] < 1e-7


def test_lie_bracket_antisymmetry():
    rng = np.random.default_rng(19)
    x = prolong_vector_field(random_base_field(2, rng), DUAL)
    y = prolong_vector_field(random_base_field(2, rng), DUAL)
    f = prolong_function(random_expression(2, rng), DUAL)
    forward = apply_field(lie_bracket(x, y), f)
    backward = apply_field(lie_bracket(y, x), f)
    zero = BundleFunction.zero(DUAL, 2)
    assert max_difference(forward + backward, zero, samples=6, rng=np.random.default_rng(2))[0] < 1e-8


def test_scaled_field_scales_derivations():
    rng = np.random.default_rng(23)
    field = prolong_vector_field(random_base_field(2, rng), T3)
    weight = prolong_function(random_expression(2, rng), T3)
    f = prolong_function(random_expression(2, rng), T3)
    got = apply_field(field.scaled(weight), f)
    want = weight * apply_field(field, f)
    assert max_difference(got, want, samples=6, rng=np.random.default_rng(4))[0] < 1e-8


def test_pushforward_evaluates_componentwise():
    rng = np.random.default_rng(17)
    point = sample_near_point(M2, 2, rng)
    chart = [parse_expr("x0 * x1", 2), parse_expr("x0 + x1", 2), parse_expr("sin(x0)", 2)]
    image = pushforward_map(chart, point)
    assert image.arity == 3
    for component, coord in zip(chart, image.coords):
        assert coord.almost_equal(eval_weil(component, point.coords))


def test_pushforward_functoriality():
    rng = np.random.default_rng(29)
    point = sample_near_point(M2, 2, rng)
    inner = [parse_expr("x0 + x1", 2), parse_expr("x0 * x1", 2)]
    outer = [parse_expr("x0^2 + x1", 2)]
    stepwise = pushforward_map(outer, pushforward_map(inner, point))
    collapsed = pushforward_map([compose(c, inner) for c in outer], point)
    for a, b in zip(stepwise.coords, collapsed.coords):
        assert a.almost_equal(b, tol=1e-9)


def test_functions_equal_tolerance_and_determinism():
    f = prolong_function(parse_expr("x0", 1), DUAL)
    near = f + BundleFunction.constant(1e-12, DUAL, 1)
    far = f + BundleFunction.constant(1e-3, DUAL, 1)
    assert functions_equal(f, near, samples=8, rng=np.random.default_rng(0))
    assert not functions_equal(f, far, samples=8, rng=np.random.default_rng(0))
    first, where = max_difference(f, far, samples=8, rng=np.random.default_rng(9))
    second, _ = max_difference(f, far, samples=8, rng=np.random.default_rng(9))
    assert first == second == pytest.approx(1e-3)
    assert where is not None


def test_algebra_mismatch_is_rejected():
    f = prolong_function(parse_expr("x0", 1), DUAL)
    point = sample_near_point(T3, 1, np.random.default_rng(0))
    with pytest.raises(AlgebraMismatch):
        f.evaluate(point)


def test_representability():
    # algebra weights keep a function representable; only lazy factors break it
    f = prolong_function(parse_expr("x0", 1), T3)
    assert f.is_representable
    assert (f * T3.basis_element(1)).is_representable


def _summands():
    # the x0 term cancels exactly in the second part and comes back in the
    # fourth, so a fold of + drops it and re-appends it at the end
    x0, x1 = parse_expr("x0", 2), parse_expr("x1", 2)
    sine, cosine = parse_expr("sin(x0)", 2), parse_expr("cos(x1)", 2)
    c = M2.element([2.0, 0.5, -1.0])
    return [
        BundleFunction(M2, 2, [Term(c, (x0,)), Term(M2.unit(), (sine,))]),
        BundleFunction(M2, 2, [Term(c * -1.0, (x0,)), Term(c, (x1, x0))]),
        BundleFunction(M2, 2, [Term(M2.element([0.0, 1.0, 0.0]), (cosine,))]),
        BundleFunction(M2, 2, [Term(c * 3.0, (x0,)), Term(c, (sine, x1))]),
    ]


def _by_key(fn):
    return {(term.pullbacks, term.lazies): tuple(term.coeff.coeffs) for term in fn.terms}


def test_sum_matches_a_fold_of_additions():
    parts = _summands()
    folded = BundleFunction.zero(M2, 2)
    for part in parts:
        folded = folded + part
    summed = BundleFunction.sum(M2, 2, parts)
    assert _by_key(summed) == _by_key(folded)
    assert ([(t.pullbacks, t.lazies) for t in summed.terms]
            != [(t.pullbacks, t.lazies) for t in folded.terms])
    rng = np.random.default_rng(5)
    for _ in range(6):
        point = sample_near_point(M2, 2, rng)
        np.testing.assert_allclose(summed.evaluate(point).coeffs,
                                   folded.evaluate(point).coeffs, atol=1e-12)
    assert BundleFunction.sum(M2, 2, []).is_structurally_zero()


def test_sum_rejects_mismatched_parts():
    parts = _summands()
    with pytest.raises(AlgebraMismatch):
        BundleFunction.sum(M2, 2, parts + [BundleFunction.constant(1.0, T3, 2)])
    with pytest.raises(ArityError):
        BundleFunction.sum(M2, 2, parts + [BundleFunction.constant(1.0, M2, 3)])


def test_max_difference_needs_a_sample():
    f = prolong_function(parse_expr("x0", 1), DUAL)
    with pytest.raises(ValueError):
        max_difference(f, f, samples=0)


@pytest.mark.parametrize("seed", [3, 5, 6])
def test_non_finite_residual_is_a_domain_error(seed):
    # x0^100000 overflows at most points of the box; at these seeds the first
    # point does not, and a residual of inf - inf there must not be dropped
    twice = prolong_function(parse_expr("2*x0^100000", 1), T3)
    once = prolong_function(parse_expr("x0^100000", 1), T3)
    with pytest.raises(DomainError):
        functions_equal(twice, once, rng=np.random.default_rng(seed))


def test_worst_point_is_the_first_largest_in_sample_order():
    # constants differ by exactly 0.25 everywhere: every point ties
    f = BundleFunction.constant(1.0, DUAL, 1)
    g = BundleFunction.constant(1.25, DUAL, 1)
    residual, point = max_difference(f, g, samples=8, rng=np.random.default_rng(1))
    assert residual == 0.25
    assert point == sample_near_points(DUAL, 1, np.random.default_rng(1), 8)[0]


# -- batches ----------------------------------------------------------------------

def _drawn_one_at_a_time(algebra, arity, rng):
    # sample_near_point as it drew before batches: one coordinate at a time
    coords = []
    for _ in range(arity):
        coeffs = rng.uniform(-1.0, 1.0, size=algebra.dim)
        coeffs[0] = rng.uniform(*DEFAULT_BOX)
        coords.append(coeffs)
    return np.array(coords)


@pytest.mark.parametrize("algebra", [DUAL, make_truncated_algebra(2, 2),
                                     make_truncated_algebra(3, 3)],
                         ids=["dim2", "dim6", "dim20"])
def test_batch_sampling_reads_the_stream_as_single_draws(algebra):
    single, batched = np.random.default_rng(8), np.random.default_rng(8)
    batch = sample_near_points(algebra, 3, batched, 5)
    for s in range(5):
        assert np.array_equal(batch.coeffs[s], _drawn_one_at_a_time(algebra, 3, single))
    assert single.bit_generator.state == batched.bit_generator.state
    assert single.random() == batched.random()
    lo, hi = DEFAULT_BOX
    assert np.all((lo <= batch.coeffs[..., 0]) & (batch.coeffs[..., 0] <= hi))
    assert np.all(np.abs(batch.coeffs[..., 1:]) <= 1.0)


def _rescaled_truncated_1_3():
    # the rescaled table of tests/test_algebra.py: basis f_i = s_i t^i of
    # R[t]/(t^4), so f_i f_j = (s_i s_j / s_{i+j}) f_{i+j}
    scales = (1.0, 2.0, 0.5, 3.0)
    constants = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4 - i):
            constants[i, j, i + j] = scales[i] * scales[j] / scales[i + j]
    return validate_algebra(constants)


BATCH_ALGEBRAS = [DUAL, make_truncated_algebra(2, 2), make_truncated_algebra(3, 4),
                  make_truncated_algebra(4, 4), _rescaled_truncated_1_3()]
BATCH_EXPRS = ("(x0 + 2) / (x1^2 + 3) - (x0*x1 + 5)^-2",
               "log(x0^2 + x1^2 + 1) * exp(0.3*x0 - x1)",
               "sin(x0) * cos(x1) + exp(x0*x1) - x1^3")


def _points_of(batch):
    """Each point of a batch as a NearPoint of its own, sharing nothing."""
    return [NearPoint([batch.algebra.element(c) for c in coords])
            for coords in batch.coeffs]


@pytest.mark.parametrize("samples", [1, 4, 32])
@pytest.mark.parametrize("algebra", BATCH_ALGEBRAS,
                         ids=["dim2", "dim6", "dim35", "dim70", "rescaled-table"])
def test_batch_evaluation_equals_point_evaluation(algebra, samples):
    exprs = [parse_expr(text, 2) for text in BATCH_EXPRS]
    batch = sample_near_points(algebra, 2, np.random.default_rng(samples), samples)
    coeff = algebra.element(np.linspace(0.5, -0.5, algebra.dim))
    fn = BundleFunction(algebra, 2, [Term(coeff, exprs[:2]), Term(algebra.unit(), exprs[2:])])
    jets = [eval_weil(f, batch) for f in exprs]
    values = fn.evaluate(batch)
    assert values.shape == (samples, algebra.dim)
    for s, point in enumerate(_points_of(batch)):
        assert np.array_equal(values[s], fn.evaluate(point).coeffs)
        for f, jet in zip(exprs, jets):
            assert np.array_equal(jet[s], eval_weil(f, point.coords).coeffs)


SOLVE_STRUCTURES = {
    "canonical2": SymplecticStructure.canonical(2),
    "canonical4": SymplecticStructure.canonical(4),
    "curved": SymplecticStructure(BaseForm(2, 2, {(0, 1): "1 + x0^2"})),
}


@pytest.mark.parametrize("samples", [1, 4, 32])
@pytest.mark.parametrize("algebra", [T3, make_truncated_algebra(2, 2)], ids=["t3", "m3"])
@pytest.mark.parametrize("structure", SOLVE_STRUCTURES.values(), ids=SOLVE_STRUCTURES.keys())
def test_batch_solves_equal_point_solves(structure, algebra, samples):
    n = structure.arity
    potential = prolong_function(
        parse_expr(f"sin(x0) * x1^2 + exp(0.5*x{n - 1})", n), algebra)
    weight = prolong_function(parse_expr("x0 + x1^2", n), algebra)
    field = hamiltonian_field(potential, structure, algebra)
    fn = field.components[0] * weight
    assert not fn.is_representable
    batch = sample_near_points(algebra, n, np.random.default_rng(samples), samples)
    for f in (fn, fn.partial(1)):
        values = f.evaluate(batch)
        for s, point in enumerate(_points_of(batch)):
            assert np.array_equal(values[s], f.evaluate(point).coeffs)


def test_batch_domain_error_at_the_last_point():
    coeffs = np.array(sample_near_points(T3, 1, np.random.default_rng(2), 4).coeffs)
    coeffs[:, 0, 0] = [1.0, 2.0, 0.5, -0.5]
    log = parse_expr("log(x0)", 1)
    assert eval_weil(log, NearPoints(T3, coeffs[:3])).shape == (3, 3)
    with pytest.raises(DomainError):
        eval_weil(log, NearPoints(T3, coeffs))


def test_batch_with_a_singular_point_is_not_invertible():
    coeffs = np.array(sample_near_points(T3, 1, np.random.default_rng(2), 4).coeffs)
    coeffs[2, 0, 0] = 0.0
    with pytest.raises(NotInvertible):
        eval_weil(parse_expr("1 / x0", 1), NearPoints(T3, coeffs))


# -- one merge per operation --------------------------------------------------
#
# The reference builds each result as the term algebra did before its
# operations emitted canonical terms into one merge: every product-rule branch
# as a one-term public BundleFunction, every product and scaling through the
# public constructor, and a sum of those.  The operations must give the same
# terms, in the same order, with bit-identical coefficients.

def _ref_mul(f, other):
    if isinstance(other, BundleFunction):
        terms = [Term(s.coeff * t.coeff, s.pullbacks + t.pullbacks, s.lazies + t.lazies)
                 for s in f.terms for t in other.terms]
    else:
        scale = other if isinstance(other, WeilElement) else float(other)
        terms = [Term(t.coeff * scale, t.pullbacks, t.lazies) for t in f.terms]
    return BundleFunction(f.algebra, f.arity, terms)


def _ref_sum(algebra, arity, parts):
    return BundleFunction(algebra, arity, [t for part in parts for t in part.terms])


def _ref_partial(fn, index):
    parts = []
    for term in fn.terms:
        for j, p in enumerate(term.pullbacks):
            rest = term.pullbacks[:j] + term.pullbacks[j + 1:]
            parts.append(BundleFunction(fn.algebra, fn.arity, [
                Term(term.coeff, rest + (differentiate(p, index),), term.lazies)]))
        for k, lz in enumerate(term.lazies):
            base = BundleFunction(fn.algebra, fn.arity, [
                Term(term.coeff, term.pullbacks, term.lazies[:k] + term.lazies[k + 1:])])
            parts.append(_ref_mul(base, lz.partial(index)))
    return _ref_sum(fn.algebra, fn.arity, parts)


def _ref_apply_field(field, fn):
    return _ref_sum(fn.algebra, fn.arity, [_ref_mul(comp, _ref_partial(fn, i))
                                           for i, comp in enumerate(field.components)])


def _ref_poisson_derivation(structure, fn):
    components = []
    for i in range(structure.arity):
        terms = []
        for term in fn.terms:
            for j, p in enumerate(term.pullbacks):
                comp = structure.base.ad(p).components[i]
                if isinstance(comp, Const) and comp.value == 0.0:
                    continue
                terms.append(Term(term.coeff,
                                  term.pullbacks[:j] + term.pullbacks[j + 1:] + (comp,)))
        components.append(BundleFunction(structure.algebra, structure.arity, terms))
    return components


def _lazy_identity(lz):
    # a solved factor's partial is a fresh factor on a kept derived solve
    return (lz.solve, lz.index)


def _assert_same_terms(got, ref):
    assert len(got.terms) == len(ref.terms)
    for g, r in zip(got.terms, ref.terms):
        assert len(g.pullbacks) == len(r.pullbacks)
        assert all(a is b for a, b in zip(g.pullbacks, r.pullbacks))
        assert [_lazy_identity(lz) for lz in g.lazies] == [_lazy_identity(lz) for lz in r.lazies]
        assert np.array_equal(g.coeff.coeffs, r.coeff.coeffs)
        assert g.coeff.coeffs.tobytes() == r.coeff.coeffs.tobytes()


def _operands(algebra, seed):
    rng = np.random.default_rng(seed)
    fns = [random_bundle_function(algebra, 2, rng, max_terms=3) for _ in range(4)]
    x0, x1 = parse_expr("x0", 2), parse_expr("x1", 2)
    affine, product = parse_expr("3*x1 + 2", 2), parse_expr("x0*x1", 2)
    c = algebra.element(np.linspace(1.0, -0.5, algebra.dim))
    # derivatives that are constants, 0 among them, and terms that cancel
    fns.append(BundleFunction(algebra, 2, [
        Term(c, (x0,)), Term(c * -2.0, (affine,)), Term(algebra.unit(), (x0, x1)),
        Term(c, (product, x1)), Term(c * -1.0, (x1, x0))]))
    # products whose terms merge within one component's product and with
    # the product of the component before: a merge of the whole sum at once
    # would add those coefficients in another order
    e, f, g, h = (sample_element(algebra, rng) for _ in range(4))
    fns.append(BundleFunction(algebra, 2, [Term(e, (x0,)), Term(f, (x1,))]))
    fns.append(BundleFunction(algebra, 2, [Term(g, (x1, x1)), Term(h, (x0, x1))]))
    potential = prolong_function(parse_expr("x0^2*x1 + sin(x1)", 2), algebra)
    solved = hamiltonian_field(potential, SymplecticStructure.canonical(2), algebra)
    fns.append(solved.components[0])
    fns.append(solved.components[1] * fns[0] + fns[4])
    return fns, solved


@pytest.mark.parametrize("algebra", [DUAL, T3, M2], ids=["dual", "t3", "m2"])
def test_operations_match_the_one_term_reference(algebra):
    fns, solved = _operands(algebra, 11)
    scale = algebra.element(np.linspace(-0.5, 0.75, algebra.dim))
    for f in fns:
        for index in range(2):
            _assert_same_terms(f.partial(index), _ref_partial(f, index))
        _assert_same_terms(f * scale, _ref_mul(f, scale))
        _assert_same_terms(f * 2.5, _ref_mul(f, 2.5))
        _assert_same_terms(f * 0.0, _ref_mul(f, 0.0))
        _assert_same_terms(-f, _ref_mul(f, -1.0))
        for g in fns:
            _assert_same_terms(f * g, _ref_mul(f, g))
            _assert_same_terms(f + g, _ref_sum(algebra, 2, [f, g]))
            _assert_same_terms(f - g, _ref_sum(algebra, 2, [f, _ref_mul(g, -1.0)]))
            _assert_same_terms(f - f, BundleFunction.zero(algebra, 2))
    _assert_same_terms(BundleFunction.sum(algebra, 2, fns), _ref_sum(algebra, 2, fns))
    fields = [solved, BundleVectorField(fns[:2]), BundleVectorField([fns[5], fns[5]]),
              BundleVectorField([fns[4], fns[8]])]
    for field in fields:
        for f in fns:
            _assert_same_terms(apply_field(field, f), _ref_apply_field(field, f))
    prolonged = ProlongedPoisson(PoissonStructure.canonical(2), algebra)
    for f in fns:
        if f.is_representable:
            for got, ref in zip(poisson_derivation(prolonged, f).components,
                                _ref_poisson_derivation(prolonged, f)):
                _assert_same_terms(got, ref)


# -- partials kept on the function ---------------------------------------------

def test_partials_are_built_once_per_index():
    fns, _ = _operands(M2, 3)
    for f in fns:
        assert f.partial(0) is f.partial(0)
        assert f.partial(1) is f.partial(1)
        assert f.partial(0) is not f.partial(1)
        with pytest.raises(ArityError):
            f.partial(2)
        with pytest.raises(ArityError):
            f.partial(-1)


def test_kept_partials_die_with_their_functions():
    x0, x1 = parse_expr("x0", 2), parse_expr("sin(x0*x1)", 2)
    potential = prolong_function(parse_expr("x0^2*x1", 2), T3)
    refs = []
    for k in range(1000):
        if k % 100 == 0:
            fn = hamiltonian_field(potential, SymplecticStructure.canonical(2), T3).components[1]
        else:
            fn = BundleFunction(T3, 2, [Term(T3.element([k, 1.0, 0.5]), (x0, x1))])
        refs += [weakref.ref(fn), weakref.ref(fn.partial(k % 2)),
                 weakref.ref(fn.partial(k % 2).partial(0))]
    del fn
    gc.collect()
    assert not [r for r in refs if r() is not None]


def test_solved_factors_merge_after_differentiation():
    # each solve keeps one function per component, so the partials of two
    # equal products carry the same factors and cancel term by term
    f = prolong_function(parse_expr("x0*x1", 2), T3)
    field = hamiltonian_field(f, SymplecticStructure.canonical(2), T3)
    component = field.components[0]
    h1, h2 = component * f, component * f
    assert (h1 - h2).is_structurally_zero()
    assert len((h1.partial(0) - h2.partial(0)).terms) == 0
