"""The three workloads as the measuring process runs them.

Each workload is built from its inputs (the set-up that ``setup_s`` times)
and then runs whole rounds: the same operations in the same order every
round.  A round reports, per input family, the wall time of each operation
in order, plus the outputs the parent process checks.
"""

from __future__ import annotations

import contextlib
import io
import time


def cli_call(argv: list[str]) -> dict:
    """Run ``weiljet.cli.main`` in process and capture what a shell would
    see.  An exception escaping ``main`` is what the interpreter would turn
    into exit status 1."""
    from weiljet import cli

    out, err = io.StringIO(), io.StringIO()
    raised = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # the CLI boundary: record, as exit 1 would
        code, raised = 1, type(exc).__name__
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(),
            "raised": raised}


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


class Suite:
    """Full ``verify`` passes at a fixed seed, then every mutation on each
    of its target checks, all through ``weiljet.cli.main``."""

    families = ("verify", "mutate")

    def __init__(self, inputs: dict):
        from weiljet import harness

        self.seed = str(inputs["verify_seed"])
        for spec in harness.BATTERY:
            harness.battery_algebra(spec.key)
        specs = harness.default_specs(seed=inputs["verify_seed"])
        self.tolerances = {spec.name: spec.tolerance for spec in specs}
        self.sweeps = [(m, t) for m in sorted(harness.MUTATION_TARGETS)
                       for t in harness.MUTATION_TARGETS[m]]

    def run_round(self):
        # The sweeps run before and after the pass: they are short, and two
        # windows apart ride out more of the machine's drift than one.
        sweeps, sweep_s = self.sweep()
        verify, pass_s = timed(cli_call, ["verify", "--seed", self.seed])
        again, again_s = self.sweep()
        outputs = {"verify": verify, "sweeps": sweeps + again,
                   "tolerances": self.tolerances}
        families = {"verify": [pass_s], "mutate": sweep_s + again_s}
        attempted = len(self.tolerances) + 2 * len(self.sweeps)
        return families, outputs, attempted

    def sweep(self):
        results, times = [], []
        for m, t in self.sweeps:
            result, spent = timed(cli_call, ["verify", "--seed", self.seed,
                                             "--mutate", m, "--filter", t])
            results.append(dict(result, mutation=m, target=t))
            times.append(spent)
        return results, times


class Jets:
    """Prolongation only: wide jets (one evaluation per seeded expression and
    fresh near-point, algebras up to dimension 70) and deep jets (iterated
    partials built with ``differentiate``, then evaluated)."""

    families = ("wide", "deep")

    def __init__(self, inputs: dict):
        from weiljet import algebra, bundle, expression

        self.near_point = bundle.NearPoint
        self.prolong = bundle.prolong_function
        self.differentiate = expression.differentiate
        algebras = {}

        def alg(op):
            key = (op["width"], op["height"])
            if key not in algebras:
                algebras[key] = algebra.make_truncated_algebra(*key)
            return algebras[key]

        def build(op):
            a = alg(op)
            return (a, expression.parse_expr(op["expr"], op["arity"]),
                    tuple(op.get("seq", ())),
                    [a.element(c) for c in op["coords"]])

        self.wide = [build(op) for op in inputs["wide"]]
        self.deep = [build(op) for op in inputs["deep"]]

    def run_round(self):
        near_point, prolong, differentiate = (
            self.near_point, self.prolong, self.differentiate)
        clock = time.perf_counter
        wide, wide_s = [], []
        for a, f, _, coords in self.wide:
            t0 = clock()
            wide.append(prolong(f, a).evaluate(near_point(coords)))
            wide_s.append(clock() - t0)
        deep, deep_s = [], []
        for a, f, seq, coords in self.deep:
            t0 = clock()
            for i in seq:
                f = differentiate(f, i)
            deep.append(prolong(f, a).evaluate(near_point(coords)))
            deep_s.append(clock() - t0)
        outputs = {"wide": [v.coeffs.tolist() for v in wide],
                   "deep": [v.coeffs.tolist() for v in deep]}
        return ({"wide": wide_s, "deep": deep_s}, outputs,
                len(wide) + len(deep))


class Decide:
    """Decision procedures and values at a point through
    ``weiljet.cli.main``, plus the exit-code probes."""

    families = ("poisson", "symplectic")

    def __init__(self, inputs: dict):
        from weiljet import expression, jsonio

        self.ops = [(op["family"], op["argv"]) for op in inputs["ops"]]
        build = inputs["build"]
        for spec in build["algebras"]:
            jsonio.parse_algebra_spec(spec)
        for spec in build["poisson"]:
            jsonio.parse_poisson_spec(spec)
        for spec in build["symplectic"]:
            jsonio.parse_symplectic_spec(spec)
        for text, arity in build["expressions"]:
            expression.parse_expr(text, arity)

    def run_round(self):
        results = []
        families = {"poisson": [], "symplectic": [], "probe": []}
        for family, argv in self.ops:
            result, spent = timed(cli_call, argv)
            # Diagnostics on stderr are left out: numpy prints a warning
            # only the first time it occurs in a process.
            del result["err"]
            results.append(result)
            families[family].append(spent)
        return families, {"results": results}, len(self.ops)


WORKLOADS = {"suite": Suite, "jets": Jets, "decide": Decide}
