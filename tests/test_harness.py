"""Registry plumbing and determinism of the randomized check suite."""

import importlib
import inspect
import itertools
import json
import os
import pkgutil
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import weiljet
from weiljet.algebra import make_truncated_algebra
from weiljet.bundle import (
    DEFAULT_BOX,
    BundleFunction,
    BundleVectorField,
    NearPoint,
    max_difference,
    prolong_function,
    prolong_vector_field,
)
from weiljet.errors import DomainError
from weiljet.expression import differentiate, eval_real, eval_weil, parse_expr
from weiljet.harness import (
    _REGISTRY,
    BATTERY,
    CHECK_NAMES,
    MUTATION_TARGETS,
    MUTATIONS,
    CheckReport,
    CheckSpec,
    _check_dual_forward_derivative,
    _check_matrix_inverse_neumann,
    _componentwise,
    _mutated,
    _rendered,
    _sampled,
    _worst_case,
    battery_algebra,
    default_specs,
    run_suite,
)
from weiljet.poisson import PoissonStructure, prolonged_bracket
from weiljet.sampling import random_base_field, random_expression
from weiljet.symplectic import (
    BaseForm,
    SymplecticStructure,
    _matrix_product,
    hamiltonian_field,
    weil_matrix_inverse,
)

from one_at_a_time import worst_case

T3 = make_truncated_algebra(1, 2)


def _specs(*names, **options):
    """The default specs of the named checks; ``options`` go to
    ``default_specs``."""
    return [spec for spec in default_specs(**options) if spec.name in names]


def test_battery_shape():
    keys = [spec.key for spec in BATTERY]
    assert keys == ["dual", "t3", "t4", "m2", "m3"]
    assert battery_algebra("dual").dim == 2
    assert battery_algebra("m3").dim == 6
    with pytest.raises(ValueError):
        battery_algebra("unknown")


def test_check_names_are_sorted_and_complete():
    assert list(CHECK_NAMES) == sorted(CHECK_NAMES)
    assert len(CHECK_NAMES) == 21
    assert "prop6_interior_prolongation" in CHECK_NAMES


def test_mutation_registry_targets_known_checks():
    assert set(MUTATIONS) == set(MUTATION_TARGETS)
    for names in MUTATION_TARGETS.values():
        for name in names:
            assert name in CHECK_NAMES


def test_default_specs_filters():
    subset = default_specs(name_filter="prop")
    assert subset and all("prop" in spec.name for spec in subset)
    resized = default_specs(name_filter="tau_calculus", samples=3)
    assert [spec.name for spec in resized] == ["tau_calculus"]
    assert resized[0].samples == 3
    with pytest.raises(ValueError):
        run_suite([replace(resized[0], name="no_such_check")])


def test_run_suite_empty_and_unknown_mutation():
    assert run_suite(()) == []
    with pytest.raises(ValueError):
        run_suite((), mutation="no_such_mutation")


def test_report_serialization():
    report = CheckReport("demo", True, 1.5e-10, {"point": [0.0]}, elapsed=0.25)
    payload = report.to_json()
    assert list(payload) == ["name", "passed", "worst_residual", "witness"]
    timed = report.to_json(include_timing=True)
    assert "elapsed" in timed
    line = report.json_line()
    assert json.loads(line)["name"] == "demo"
    assert " " not in line.split('"witness"')[0]


def test_suite_is_deterministic():
    names = ("tau_calculus", "poisson_leibniz")
    first = [r.json_line() for r in run_suite(_specs(*names, seed=9))]
    second = [r.json_line() for r in run_suite(_specs(*names, seed=9))]
    assert first == second
    shifted = [r.json_line() for r in run_suite(_specs(*names, seed=10))]
    assert [json.loads(line)["name"] for line in shifted] == sorted(names)


def test_reports_come_back_sorted_and_passing():
    names = ("matrix_inverse_neumann", "dual_forward_derivative")
    reports = run_suite(_specs(*names))
    assert [r.name for r in reports] == sorted(names)
    for report in reports:
        assert report.passed
        assert report.worst_residual >= 0.0


def test_worst_case_keeps_the_first_of_tied_residuals():
    def cases(spec, rng):
        yield 0.5, {"case": 0}
        yield 2.0, {"case": 1}
        yield 1.0, {"case": 2}
        yield 2.0, {"case": 3}

    assert _worst_case(cases, None, None) == (2.0, {"case": 1})


def test_worst_case_renders_only_the_worst_so_far(monkeypatch):
    f = parse_expr("x0 * x1 + 0.3125", 2)
    point = np.array([[0.5, 1.0], [-0.25, 2.0]])

    def cases(spec, rng):
        yield 1.0, {"f": f, "point": point, "theta": (f, f), "index": [0, 1]}
        yield 0.5, {"f": f}
        yield 2.0, {"f": f, "point": point[0]}
        yield 1.5, {"f": f}

    rendered = []
    monkeypatch.setattr("weiljet.harness._rendered",
                        lambda value: rendered.append(value) or _rendered(value))
    residual, witness = _worst_case(cases, None, None)
    assert residual == 2.0
    assert witness == {"f": "((x0 * x1) + 0.3125)", "point": [0.5, 1.0]}
    assert type(witness["point"][0]) is float
    # the two cases that were the worst so far, and no other, were rendered
    witnesses = [value for value in rendered if isinstance(value, dict)]
    assert [sorted(w) for w in witnesses] == [["f", "index", "point", "theta"],
                                              ["f", "point"]]
    assert _rendered(witnesses[0]) == {
        "f": f.text, "point": [[0.5, 1.0], [-0.25, 2.0]], "theta": [f.text] * 2,
        "index": [0, 1]}


def test_worst_case_refuses_a_non_finite_residual():
    def cases(spec, rng):
        yield 0.5, {"case": 0}
        yield float("nan"), {"case": 1}
        yield 1.0, {"case": 2}

    spec = _specs("tau_calculus")[0]
    with pytest.raises(DomainError):
        _worst_case(cases, spec, None)


def test_run_suite_refuses_zero_samples():
    with pytest.raises(ValueError):
        run_suite(_specs("tau_calculus", samples=0))


def test_worst_case_of_a_check_without_cases():
    def cases(spec, rng):
        yield from ()

    assert _worst_case(cases, None, None) == (0.0, None)


# -- comparison helpers against one case per pair -----------------------------------

def _sampled_group(group, spec, rng):
    """One case per (lhs, rhs, witness) of a comparison group, in order, with
    the member's worst point added to its witness: how the comparison helpers
    expanded a group before each gave one case, and the reference whose
    first worst case they must give."""
    results = max_difference([(lhs, rhs) for lhs, rhs, _ in group],
                             samples=spec.samples, rng=rng)
    return [(residual, {**witness, "point": point.coeffs})
            for (_, _, witness), (residual, point) in zip(group, results)]


def _field_group(fields, **witness):
    return [(lhs, rhs, {**witness, **extra, "component": i})
            for lhs_field, rhs_field, extra in fields
            for i, (lhs, rhs) in enumerate(zip(lhs_field.components,
                                               rhs_field.components))]


def _random_fields(rng, count):
    return [prolong_vector_field(random_base_field(3, rng), T3) for _ in range(count)]


@pytest.mark.parametrize("samples", [3, 40])
def test_comparison_helpers_give_the_first_worst_case_of_their_pairs(samples):
    spec = CheckSpec("helpers", "claim", 1e-8, samples=samples)
    x, y, z = _random_fields(np.random.default_rng(12), 3)
    phi = prolong_function(parse_expr("x0 * x1 + sin(x2)", 3), T3)
    fields = [(x, y, {"identity": "xy"}), (y + z, z + y, {"identity": "sum"}),
              (x, z, {"identity": "xz"})]
    helpers = [
        (lambda rng: _sampled(x.components[0] * phi, y.components[1], spec, rng,
                              algebra="t3", part="pair"),
         [(x.components[0] * phi, y.components[1], {"algebra": "t3", "part": "pair"})]),
        (lambda rng: _componentwise(fields, spec, rng, algebra="t3"),
         _field_group(fields, algebra="t3")),
    ]
    for helper, group in helpers:
        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
        residual, witness = helper(got_rng)
        want_residual, want_witness = worst_case(_sampled_group(group, spec, want_rng))
        assert residual == want_residual > 1e-3
        assert _rendered(witness) == _rendered(want_witness)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_a_group_of_equal_pairs_names_its_first_case():
    spec = CheckSpec("helpers", "claim", 1e-8, samples=4)
    (x,) = _random_fields(np.random.default_rng(13), 1)
    one = BundleFunction.constant(1.0, T3, 3)
    shifted = BundleVectorField([c + one for c in x.components])
    fields = [(shifted, x, {"identity": "first"}), (shifted, x, {"identity": "second"})]
    got_rng, want_rng = np.random.default_rng(2), np.random.default_rng(2)
    residual, witness = _componentwise(fields, spec, got_rng, algebra="t3")
    cases = _sampled_group(_field_group(fields, algebra="t3"), spec, want_rng)
    assert [r for r, _ in cases] == [1.0] * 6
    assert residual == 1.0
    assert _rendered(witness) == _rendered(cases[0][1])
    assert (witness["identity"], witness["component"]) == ("first", 0)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_registered_callable_runs_the_whole_check(name):
    # timing wrappers around the registered callable must see the whole run
    check, spec = _REGISTRY[name]
    result = check(replace(spec, samples=1), np.random.default_rng(0))
    assert isinstance(result, tuple) and not inspect.isgenerator(result)
    residual, witness = result
    assert isinstance(residual, float)
    assert isinstance(witness, dict)


def test_a_mutated_run_leaves_the_next_run_unchanged():
    # partials are kept on the functions that built them and solves on the
    # points; after every mutation's full run and target sweeps in one
    # process, an unmutated verify prints what a fresh process prints
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    after_mutation = (
        "import contextlib, io, sys\n"
        "from weiljet.cli import main\n"
        "from weiljet.harness import MUTATION_TARGETS\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    for m, targets in sorted(MUTATION_TARGETS.items()):\n"
        "        codes.append(main(['verify', '--seed', '42', '--mutate', m]))\n"
        "        for t in targets:\n"
        "            codes.append(main(['verify', '--seed', '42', '--mutate', m,\n"
        "                               '--filter', t]))\n"
        "assert codes == [5] * len(codes), codes\n"
        "sys.exit(main(['verify', '--seed', '42']))\n")
    runs = [subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for argv in ([sys.executable, "-c", after_mutation],
                         [sys.executable, "-m", "weiljet", "verify", "--seed", "42"])]
    (out, err), (fresh_out, fresh_err) = (run.communicate(timeout=300) for run in runs)
    assert runs[0].returncode == runs[1].returncode == 0, err
    assert out == fresh_out
    assert err == fresh_err


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_run_that_raises_puts_the_kernel_back(mutation):
    owner, attribute, _ = MUTATIONS[mutation]
    kernel = vars(owner)[attribute]
    # the first check completes; zero samples stop the second one mid-run
    specs = _specs("dual_forward_derivative", "tau_calculus", samples=0)
    with pytest.raises(ValueError):
        run_suite(specs, mutation=mutation)
    assert vars(owner)[attribute] is kernel


def test_only_the_owner_binds_a_mutated_kernel():
    # a name bound elsewhere by ``from ... import`` would keep calling the
    # kernel while the mutation is installed over the owner's binding
    modules = [weiljet] + [importlib.import_module(f"weiljet.{info.name}")
                           for info in pkgutil.iter_modules(weiljet.__path__)]
    assert len(modules) > 10
    for mutation, (owner, attribute, _) in MUTATIONS.items():
        kernel = vars(owner)[attribute]
        binders = [module.__name__ for module in modules if module is not owner
                   and any(value is kernel for value in vars(module).values())]
        assert binders == [], mutation


def test_bivector_transpose_is_not_a_sign_flip():
    # transposing an antisymmetric bivector only negates it, which is the
    # sign flip again; dropping the lower triangle's sign is a fault of its own
    lines = {m: [r.json_line() for r in run_suite(mutation=m)]
             for m in ("bivector_transpose", "tau_sign_flip")}
    assert lines["bivector_transpose"] != lines["tau_sign_flip"]


def _unmutated_and_mutated(mutation, compute):
    """compute() before, under and after the mutation; it must build every
    object it evaluates afresh, since points and functions keep results."""
    before = compute()
    with _mutated(mutation):
        during = compute()
    assert np.array_equal(compute(), before)
    return before, during


def _near_point():
    return NearPoint([T3.element([0.3, 0.5, -0.2]), T3.element([-0.4, 0.1, 0.7])])


def _lifted(text):
    return prolong_function(parse_expr(text, 2), T3)


def test_neumann_skip_reaches_the_hamiltonian_field_solve():
    curved = BaseForm(2, 2, {(0, 1): "1 + x0^2"})

    def component():
        field = hamiltonian_field(_lifted("x0*x1 + sin(x0)"), SymplecticStructure(curved))
        return field.components[0].evaluate(_near_point()).coeffs

    exact, skipped = _unmutated_and_mutated("neumann_skip", component)
    assert np.max(np.abs(skipped - exact)) > 1e-3


def test_taylor_truncate_reaches_bundle_evaluation():
    exact, truncated = _unmutated_and_mutated(
        "taylor_truncate", lambda: _lifted("sin(x0)").evaluate(_near_point()).coeffs)
    assert np.max(np.abs(truncated - exact)) > 1e-3


def test_leibniz_drop_reaches_bundle_partials():
    def partials():
        product = _lifted("x0^2") * _lifted("sin(x1)")
        return np.stack([product.partial(i).evaluate(_near_point()).coeffs
                         for i in range(2)])

    exact, dropped = _unmutated_and_mutated("leibniz_drop", partials)
    assert np.max(np.abs(dropped - exact)) > 1e-3


def test_kept_partials_do_not_cross_a_mutation_boundary():
    # the functions outlive the mutation, and their partials are kept on
    # their nodes (a solved component's through its solve's derived solves):
    # built before, they must not serve inside it, and built inside, they
    # must not serve after it
    product = _lifted("x0^2") * _lifted("sin(x1)")
    curved = SymplecticStructure(BaseForm(2, 2, {(0, 1): "1 + x0^2"}))
    solved = hamiltonian_field(product, curved).components[0]

    def partials():
        return np.stack([f.partial(i).evaluate(_near_point()).coeffs
                         for f in (product, solved) for i in range(2)])

    exact = partials()
    with _mutated("leibniz_drop"):
        dropped = partials()
    assert np.max(np.abs(dropped[:2] - exact[:2])) > 1e-3
    assert np.max(np.abs(dropped[2:] - exact[2:])) > 1e-3
    assert np.array_equal(partials(), exact)


@pytest.mark.parametrize("mutation", ["tau_sign_flip", "bivector_transpose"])
def test_poisson_mutations_reach_the_prolonged_bracket(mutation):
    def bracket():
        structure = PoissonStructure.canonical(2)
        return prolonged_bracket(structure, _lifted("x0*x1 + sin(x0)"),
                                 _lifted("x0^2 + cos(x1)")).evaluate(_near_point()).coeffs

    exact, wrong = _unmutated_and_mutated(mutation, bracket)
    if mutation == "tau_sign_flip":
        assert np.array_equal(wrong, -exact)
    else:
        assert min(np.max(np.abs(wrong - exact)), np.max(np.abs(wrong + exact))) > 1e-3


# -- batched checks against their per-point loops ------------------------------------

def _matrix_inverse_neumann_per_trial(spec, rng):
    """The check with one ``weil_matrix_inverse`` call per trial: the
    reference whose cases the batched check must yield exactly."""
    for key in spec.algebras:
        algebra = battery_algebra(key)
        for trial in range(spec.samples):
            size = 2 + (trial % 3)
            while True:
                real = rng.uniform(-2.0, 2.0, size=(size, size))
                if np.linalg.cond(real) < 100.0:
                    break
            matrix = np.concatenate(
                (real[..., None], rng.uniform(-1.0, 1.0, (size, size, algebra.dim - 1))),
                axis=-1)
            inverse = weil_matrix_inverse([[algebra.element(entry) for entry in row]
                                           for row in matrix])
            product = _matrix_product(algebra, matrix, np.array(
                [[entry.coeffs for entry in row] for row in inverse]))
            identity = np.eye(size)[:, :, None] * algebra.unit().coeffs
            residual = float(np.max(np.abs(product - identity)))
            yield residual, {"algebra": key, "size": size, "matrix": matrix.tolist()}


def _dual_forward_derivative_per_point(spec, rng):
    """The check with one evaluation per sample and direction: the
    reference whose cases the batched check must yield exactly."""
    algebra = battery_algebra("dual")
    step = 1e-5
    for n in itertools.islice(itertools.cycle(spec.arities), spec.expressions):
        f = random_expression(n, rng)
        grads = [differentiate(f, d) for d in range(n)]
        for _ in range(spec.samples):
            x = rng.uniform(DEFAULT_BOX[0], DEFAULT_BOX[1], size=n)
            base = x.tolist()
            for d in range(n):
                coords = tuple(
                    algebra.element([base[k], 1.0]) if k == d
                    else algebra.from_real(base[k]) for k in range(n))
                slope = float(eval_weil(f, NearPoint(coords))[1])
                exact = eval_real(grads[d], base)
                bumped = list(base)
                bumped[d] = base[d] + step
                upper = eval_real(f, bumped)
                bumped[d] = base[d] - step
                lower = eval_real(f, bumped)
                fd = (upper - lower) / (2.0 * step)
                residual = max(abs(slope - fd) / max(1.0, abs(fd)),
                               abs(slope - exact) / max(1.0, abs(exact)))
                yield residual, {
                    "algebra": "dual", "f": f.text, "direction": d,
                    "x": [float(v) for v in base],
                    "slope": slope, "finite_difference": float(fd),
                }


@pytest.mark.parametrize("check, reference, mutation", [
    (_check_matrix_inverse_neumann, _matrix_inverse_neumann_per_trial, None),
    (_check_matrix_inverse_neumann, _matrix_inverse_neumann_per_trial, "neumann_skip"),
    (_check_dual_forward_derivative, _dual_forward_derivative_per_point, None),
    (_check_dual_forward_derivative, _dual_forward_derivative_per_point, "taylor_truncate"),
])
def test_batched_checks_yield_the_cases_of_their_per_point_loops(check, reference,
                                                                 mutation):
    name = check.__name__[len("_check_"):]
    (spec,) = _specs(name, seed=42)
    streams = [np.random.default_rng([spec.seed, zlib.crc32(name.encode("ascii"))])
               for _ in range(2)]
    # the check's witnesses hold nodes and arrays, rendered as the report would
    with _mutated(mutation):
        got = [(residual, _rendered(case)) for residual, case in check(spec, streams[0])]
        want = list(reference(spec, streams[1]))
    assert len(got) == len(want) > 0
    assert got == want
    assert streams[0].bit_generator.state == streams[1].bit_generator.state
