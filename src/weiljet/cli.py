"""Command-line front end.

Subcommands: algebra, prolong, bracket, hamfield, hamcheck, verify.  Every
result is a single JSON document on standard output (verify emits one JSON
object per line); diagnostics go to standard error.  Exit codes: 0 success,
2 parse errors, 3 domain errors, 4 validation errors, 5 check failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import TYPE_CHECKING, Sequence

from .bundle import DEFAULT_SEED
from .errors import (
    ArityError,
    DomainError,
    NotInvertible,
    ParseError,
    SingularRealPart,
    WeilError,
)

if TYPE_CHECKING:
    from .bundle import BundleFunction

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 32
# bounds the near-point batch a single decision or check allocates
MAX_SAMPLES = 10_000


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":"),
                     allow_nan=False))


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (ParseError, ArityError)):
        return 2
    if isinstance(exc, (DomainError, NotInvertible, SingularRealPart)):
        return 3
    return 4


def _report_error(exc: Exception) -> int:
    code = _exit_code(exc)
    body = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError) and exc.offset is not None:
        body["offset"] = exc.offset
    _emit({"error": body})
    print(f"error: {exc}", file=sys.stderr)
    return code


def _require_sampling(samples: int | None, seed: int) -> None:
    if samples is not None and not 1 <= samples <= MAX_SAMPLES:
        raise ParseError(
            f"--samples must be between 1 and {MAX_SAMPLES}, got {samples}")
    if seed < 0:
        raise ParseError(f"--seed must be nonnegative, got {seed}")


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ParseError(f"--tol must be finite and nonnegative, got {tol}")


def _sign_flag(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError("sign must be +1 or -1")


def _load_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None


def _read_function(text: str, algebra, arity: int) -> BundleFunction:
    """A function argument: an expression string, or a {"terms": ...} JSON
    object."""
    from . import bundle, expression, jsonio

    stripped = text.strip()
    if stripped.startswith("{"):
        return jsonio.bundle_function_from_json(
            _load_json_arg(stripped, "function"), algebra, arity)
    return bundle.BundleFunction.from_expr(
        expression.parse_expr(stripped, arity), algebra)


def _structure(args, algebra):
    """Build (mode, structure, prolonged-or-None) from --poisson/--symplectic."""
    from . import jsonio, poisson

    if getattr(args, "poisson", None) is not None:
        base = jsonio.parse_poisson_spec(args.poisson)
        return "poisson", base, poisson.ProlongedPoisson(base, algebra)
    base = jsonio.parse_symplectic_spec(args.symplectic)
    return "symplectic", base, None


# -- subcommand handlers --------------------------------------------------------------
#
# Each handler imports the modules it runs, so a process loads only what its
# command needs: ``verify`` alone loads the harness.

def cmd_algebra(args) -> int:
    from . import jsonio

    algebra = jsonio.parse_algebra_spec(args.algebra)
    payload = jsonio.algebra_to_json(algebra)
    payload.update({
        "dim": algebra.dim,
        "height": algebra.height,
        "basis": list(algebra.basis_labels),
    })
    _emit(payload)
    return 0


def cmd_prolong(args) -> int:
    from . import bundle, expression, jsonio

    algebra = jsonio.parse_algebra_spec(args.algebra) if args.algebra else None
    point = jsonio.point_from_json(_load_json_arg(args.point, "near-point"),
                                   algebra)
    f = expression.parse_expr(args.expr, point.arity)
    value = bundle.prolong_function(f, point.algebra).evaluate(point)
    _emit(jsonio.element_to_json(value))
    return 0


def cmd_bracket(args) -> int:
    from . import jsonio, poisson, symplectic

    algebra = jsonio.parse_algebra_spec(args.algebra)
    mode, base, prolonged = _structure(args, algebra)
    left = _read_function(args.left, algebra, base.arity)
    right = _read_function(args.right, algebra, base.arity)
    if mode == "poisson":
        result = poisson.prolonged_bracket(prolonged, left, right)
    else:
        result = symplectic.symplectic_bracket(left, right, base, algebra)
    if args.point:
        point = jsonio.point_from_json(
            _load_json_arg(args.point, "near-point"), algebra)
        _emit(jsonio.element_to_json(result.evaluate(point)))
    else:
        _emit(jsonio.bundle_function_to_json(result))
    return 0


def cmd_hamfield(args) -> int:
    from . import bundle, jsonio, poisson, symplectic

    algebra = jsonio.parse_algebra_spec(args.algebra)
    mode, base, prolonged = _structure(args, algebra)
    fn = _read_function(args.fn, algebra, base.arity)
    if mode == "poisson":
        field = poisson.poisson_derivation(prolonged, fn)
    else:
        field = symplectic.hamiltonian_field(fn, base, algebra)
    if args.sign == -1:
        field = field.scaled(
            bundle.BundleFunction.constant(-1.0, algebra, base.arity))
    if args.point:
        point = jsonio.point_from_json(
            _load_json_arg(args.point, "near-point"), algebra)
        _emit({"components": [jsonio.element_to_json(c.evaluate(point))
                              for c in field.components],
               "sign": args.sign})
    else:
        _emit(jsonio.field_to_json(field))
    return 0


def cmd_hamcheck(args) -> int:
    import numpy as np

    from . import jsonio, poisson, symplectic

    _require_sampling(args.samples, args.seed)
    _require_tol(args.tol)
    algebra = jsonio.parse_algebra_spec(args.algebra)
    mode, base, prolonged = _structure(args, algebra)
    field = jsonio.bundle_field_from_json(
        _load_json_arg(args.field, "field"), algebra)
    if field.arity != base.arity:
        raise ArityError("field component count does not match the structure")
    witness = None
    if args.witness is not None:
        witness = _read_function(args.witness, algebra, base.arity)
    rng = np.random.default_rng(args.seed)
    if mode == "poisson":
        locally = poisson.is_locally_hamiltonian_poisson(
            field, prolonged, samples=args.samples, tol=args.tol, rng=rng)
        globally: bool | str = "unknown"
        if witness is not None:
            scaled = witness if args.sign == 1 else witness * -1.0
            globally = poisson.check_global_witness_poisson(
                field, scaled, prolonged,
                samples=args.samples, tol=args.tol, rng=rng)
    else:
        locally = symplectic.is_locally_hamiltonian_symplectic(
            field, base, algebra, samples=args.samples, tol=args.tol, rng=rng)
        globally = "unknown"
        if witness is not None:
            verdict = symplectic.check_global_witness_symplectic(
                field, witness, base, algebra, sigma=args.sign,
                samples=args.samples, tol=args.tol, rng=rng)
            globally = verdict.ok
    _emit({
        "locally": locally,
        "globally": globally,
        "witness_checked": witness is not None,
        "sign": args.sign,
    })
    return 0


def cmd_verify(args) -> int:
    from . import harness

    _require_sampling(args.samples, args.seed)
    specs = harness.default_specs(seed=args.seed, name_filter=args.filter,
                                  samples=args.samples)
    reports = harness.run_suite(specs, mutation=args.mutate)
    for report in reports:
        print(report.json_line(include_timing=args.timings))
    passed = sum(1 for r in reports if r.passed)
    print(f"{passed}/{len(reports)} checks passed", file=sys.stderr)
    return 0 if passed == len(reports) else 5


# -- parser ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as a ParseError document (exit 2), like every
    other rejected input; the subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _report_error(ParseError(f"{self.prog}: {message}"))
        self.exit(2)


class _MutationNames:
    """The ``--mutate`` choices, read from ``harness.MUTATIONS`` only when
    argparse checks or lists them, so that only ``verify`` loads the
    harness."""

    def __contains__(self, name) -> bool:
        from .harness import MUTATIONS

        return name in MUTATIONS

    def __iter__(self):
        from .harness import MUTATIONS

        return iter(sorted(MUTATIONS))


def _add_structure_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--poisson",
                       help="Poisson spec: canonical:N, rotational, or JSON")
    group.add_argument("--symplectic",
                       help="symplectic spec: canonical:N or form JSON")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Parsing keeps no
    state in it, and its error and help output look up the standard streams
    when they print, so every ``main`` call may share it."""
    parser = _ArgumentParser(
        prog="weiljet",
        description="jet calculus over Weil algebras: prolongation, brackets, "
                    "hamiltonian tests, and the verification suite")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="build and describe an algebra")
    p.add_argument("--algebra", required=True,
                   help="dual, truncated:K,H, or algebra JSON")
    p.set_defaults(handler=cmd_algebra)

    p = sub.add_parser("prolong", help="evaluate a lifted function at a "
                                       "near-point")
    p.add_argument("--algebra", help="algebra spec (optional if the point "
                                     "embeds one)")
    p.add_argument("--expr", required=True, help="expression to lift")
    p.add_argument("--point", required=True, help="near-point JSON")
    p.set_defaults(handler=cmd_prolong)

    p = sub.add_parser("bracket", help="bracket of two lifted functions")
    p.add_argument("--algebra", required=True)
    _add_structure_flags(p)
    p.add_argument("--left", "-f", required=True, dest="left",
                   help="first function (expression or terms JSON)")
    p.add_argument("--right", "-g", required=True, dest="right",
                   help="second function (expression or terms JSON)")
    p.add_argument("--point", help="optional near-point JSON to evaluate at")
    p.set_defaults(handler=cmd_bracket)

    p = sub.add_parser("hamfield", help="hamiltonian field of a function")
    p.add_argument("--algebra", required=True)
    _add_structure_flags(p)
    p.add_argument("--fn", required=True,
                   help="potential function (expression or terms JSON)")
    p.add_argument("--point", help="optional near-point JSON to evaluate at "
                                   "(required to print symplectic solves)")
    p.add_argument("--sign", type=_sign_flag, default=1,
                   help="orientation convention, +1 or -1 (default +1)")
    p.set_defaults(handler=cmd_hamfield)

    p = sub.add_parser("hamcheck", help="local/global hamiltonian tests")
    p.add_argument("--algebra", required=True)
    _add_structure_flags(p)
    p.add_argument("--field", required=True,
                   help='field JSON: ["expr",...] or per-component term lists')
    p.add_argument("--witness", help="candidate potential (expression or "
                                     "terms JSON); omit for locally-only")
    p.add_argument("--sign", type=_sign_flag, default=1,
                   help="orientation convention, +1 or -1 (default +1)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"decision tolerance (default {DEFAULT_TOL})")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help=f"near-points per decision (default {DEFAULT_SAMPLES}, "
                        f"at most {MAX_SAMPLES})")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"sampling seed (default {DEFAULT_SEED})")
    p.set_defaults(handler=cmd_hamcheck)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--filter", help="only run checks whose name contains this")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"suite seed (default {DEFAULT_SEED})")
    p.add_argument("--samples", type=int, default=None,
                   help=f"override per-check sample counts (at most "
                        f"{MAX_SAMPLES})")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed seconds in each report line")
    mutate = p.add_argument("--mutate", default=None,
                            help="run with an intentionally broken operation "
                                 "(the suite must fail)")
    # Set after add_argument, which would list the choices at once.
    mutate.choices = _MutationNames()
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (WeilError, ValueError) as exc:
        return _report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
