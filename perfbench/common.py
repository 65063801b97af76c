"""Constants and helpers of the benchmark's modules.

Nothing here imports weiljet, numpy or sympy, so the measuring process can
time its own imports and the parent stays free of the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess

# BLAS and OpenMP pools pinned to one thread: the benchmark's load comes from
# one process, and a cold OpenBLAS pool makes the first products of a fresh
# process vary by an order of magnitude.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The 21 identity checks and 5 mutations the README documents.
CHECK_NAMES = (
    "bracket_prolongation_poisson", "chain_rule_soundness",
    "dual_forward_derivative", "functoriality_composition",
    "jacobi_field_bracket", "leibniz_derivation", "lie_morphism_fields",
    "matrix_inverse_neumann", "morphism_function_lift", "poisson_leibniz",
    "prop1_cochain_prolongation", "prop2_local_iff",
    "prop3_bracket_derivation", "prop4_prop5_global_witness",
    "prop6_interior_prolongation", "prop7_symplectic_global",
    "symplectic_local_equivalence", "tau_calculus", "taylor_coefficients",
    "thm1_bracket_coincidence", "thm2_symplectic_derivation",
)
MUTATION_NAMES = ("bivector_transpose", "leibniz_drop", "neumann_skip",
                  "tau_sign_flip", "taylor_truncate")


def child_env(root: str) -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = os.path.join(root, "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not old else src + os.pathsep + old
    return env


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def monomials(width: int, height: int) -> list[tuple[int, ...]]:
    """Basis order of truncated:width,height as the README's wire format fixes
    it: graded by total degree, first variable dominant within a degree."""
    out: list[tuple[int, ...]] = []
    for degree in range(height + 1):
        out.extend(compositions(degree, width))
    return out


def algebra_spec(width: int, height: int) -> str:
    return "dual" if (width, height) == (1, 1) else f"truncated:{width},{height}"


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """Parse RFC 8259 JSON: NaN and Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def machine_record(root: str, numpy_version: str | None) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
    }


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of nothing")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def digest(outputs) -> str:
    """Fingerprint of a round's outputs; equal rounds give equal digests."""
    return hashlib.sha256(
        json.dumps(outputs, sort_keys=True).encode()).hexdigest()
