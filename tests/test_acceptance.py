"""Acceptance gate: every documented identity at its stated tolerance.

Each criterion is one parametrized test, so a verbose run shows one
pass/fail line per criterion; the same line is also printed for -s runs.
All randomized criteria are exercised at three fixed seeds.
"""

import time

import pytest

from weiljet.cli import main
from weiljet.harness import CHECK_NAMES, MUTATION_TARGETS, default_specs, run_suite

MODULE_T0 = time.perf_counter()

SEEDS = (42, 7, 1000)

CRITERIA = [
    (1, "morphism_function_lift", 1e-9),
    (2, "dual_forward_derivative", 1e-6),
    (3, "lie_morphism_fields", 1e-8),
    (4, "functoriality_composition", 1e-9),
    (5, "prop1_cochain_prolongation", 1e-8),
    (6, "prop2_local_iff", 0.5),
    (7, "prop3_bracket_derivation", 1e-8),
    (8, "prop4_prop5_global_witness", 1e-8),
    (9, "prop6_interior_prolongation", 1e-8),
    (10, "thm1_bracket_coincidence", 1e-8),
    (11, "thm2_symplectic_derivation", 1e-8),
    (12, "prop7_symplectic_global", 1e-8),
    (13, "matrix_inverse_neumann", 1e-9),
    (16, "taylor_coefficients", 1e-7),
    (17, "chain_rule_soundness", 1e-9),
    (18, "leibniz_derivation", 1e-9),
    (19, "jacobi_field_bracket", 1e-8),
    (20, "bracket_prolongation_poisson", 1e-8),
    (21, "poisson_leibniz", 1e-8),
    (22, "tau_calculus", 1e-8),
    (23, "symplectic_local_equivalence", 0.5),
]


def test_criteria_cover_every_check():
    assert sorted(name for _, name, _ in CRITERIA) == list(CHECK_NAMES)


@pytest.mark.parametrize(
    "number,name,tolerance",
    CRITERIA,
    ids=[f"criterion-{n:02d}-{name}" for n, name, _ in CRITERIA],
)
def test_identity_criteria(number, name, tolerance):
    worst = 0.0
    failures = []
    for seed in SEEDS:
        (report,) = run_suite(default_specs(names=(name,), seed=seed))
        worst = max(worst, report.worst_residual)
        if not report.passed or report.worst_residual > tolerance:
            failures.append((seed, report.json_line()))
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {number:2d} {name:30s} tol={tolerance:.1e} worst={worst:.3e} {verdict}")
    assert not failures, failures


@pytest.mark.parametrize(
    "mutation",
    sorted(MUTATION_TARGETS),
    ids=[f"criterion-14-{m}" for m in sorted(MUTATION_TARGETS)],
)
def test_mutations_are_caught(mutation):
    reports = run_suite(default_specs(names=MUTATION_TARGETS[mutation]), mutation=mutation)
    failed = [r for r in reports if not r.passed]
    caught = bool(failed) and all(r.witness is not None for r in failed)
    verdict = "PASS" if caught else "FAIL"
    print(f"criterion 14 {mutation:30s} caught_by={len(failed)} {verdict}")
    assert failed, f"mutation {mutation} was not caught by {MUTATION_TARGETS[mutation]}"
    for report in failed:
        assert report.witness is not None


def test_verify_streams_are_byte_identical(capsys):
    code_first = main(["verify", "--seed", "7"])
    first = capsys.readouterr()
    code_second = main(["verify", "--seed", "7"])
    second = capsys.readouterr()
    identical = first.out == second.out and first.err == second.err
    verdict = "PASS" if identical and code_first == code_second == 0 else "FAIL"
    print(f"criterion 15 {'verify_byte_identity':30s} {verdict}")
    assert code_first == 0 and code_second == 0
    assert first.out == second.out
    assert first.err == second.err


def test_acceptance_runtime_budget():
    elapsed = time.perf_counter() - MODULE_T0
    print(f"acceptance wall time {elapsed:.1f}s (budget 60s)")
    assert elapsed < 60.0
