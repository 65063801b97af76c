"""Seeded inputs and independent expected results, computed with sympy.

This module runs in the benchmark's parent process, outside every timed
section, and never imports weiljet.  Jets are checked against truncated
Taylor series from sympy's ``ring_series`` (a Taylor-mode implementation
that shares no code with the program); fields, brackets and defects are
derived symbolically from the structures' defining formulas.
"""

from __future__ import annotations

import json
import math
import random

import sympy
from sympy.polys.domains import RR
from sympy.polys.ring_series import (
    rs_cos, rs_exp, rs_log, rs_mul, rs_pow, rs_series_inversion, rs_sin,
)
from sympy.polys.rings import ring

from common import (
    CHECK_NAMES, MUTATION_NAMES, algebra_spec, monomials, strict_json,
)

# Relative tolerance for jet coefficients: |got - ref| <= TOL * (1 + max|ref|).
JET_TOL = 1e-9

# -- sympy helpers -------------------------------------------------------------


def symbols(arity: int):
    return sympy.symbols(f"x0:{arity}")


def to_sympy(text: str, arity: int):
    """Read weiljet expression text (``^`` is the power operator)."""
    xs = symbols(arity)
    names = {f"x{i}": xs[i] for i in range(arity)}
    names.update({"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp,
                  "log": sympy.log})
    return sympy.sympify(text.replace("^", "**"), locals=names)


def to_text(expr) -> str:
    """Write a sympy expression in weiljet's expression syntax."""
    if expr.is_Symbol:
        return expr.name
    if expr.is_Integer:
        return f"({int(expr)})" if expr < 0 else str(int(expr))
    if expr.is_Rational:
        return f"({int(expr.p)}/{int(expr.q)})"
    if expr.is_Number:
        value = float(expr)
        return f"({value!r})" if value < 0 else repr(value)
    if expr.is_Add:
        return "(" + " + ".join(to_text(a) for a in expr.args) + ")"
    if expr.is_Mul:
        return "(" + " * ".join(to_text(a) for a in expr.args) + ")"
    if expr.is_Pow:
        if not expr.exp.is_Integer:
            raise ValueError(f"non-integer power in {expr}")
        n = int(expr.exp)
        if n < 0:
            return f"(1 / ({to_text(expr.base)} ^ {-n}))"
        return f"({to_text(expr.base)} ^ {n})"
    name = expr.func.__name__
    if name in ("sin", "cos", "exp", "log"):
        return f"{name}({to_text(expr.args[0])})"
    raise ValueError(f"cannot write {expr} as a weiljet expression")


def taylor_jet(expr, arity: int, width: int, height: int, coords) -> list[float]:
    """Coefficients of expr at the near-point ``coords`` over
    truncated:width,height, in the wire basis order.

    Each coordinate a0 + nu becomes a polynomial in t1..tk; every monomial
    carries eps^degree, so truncating the series in eps at height + 1 is
    exactly the truncation by total degree that defines the algebra.
    """
    xs = symbols(arity)
    names = ",".join(f"t{i}" for i in range(width)) + ",eps"
    R, *gens = ring(names, RR)
    ts, eps = gens[:-1], gens[-1]
    monos = monomials(width, height)
    prec = height + 1
    zero = (0,) * (width + 1)

    def element(coeffs):
        p = R(0)
        for mono, value in zip(monos, coeffs):
            if value == 0.0:
                continue
            term = R(RR.convert(value))
            for i, e in enumerate(mono):
                if e:
                    term *= ts[i] ** e
            p += term * eps ** sum(mono)
        return p

    env = {x: element(c) for x, c in zip(xs, coords)}

    def split(p):
        c = p.get(zero, RR.zero)
        return float(c), p - R(c)

    def ev(e):
        if e.is_Symbol:
            return env[e]
        if e.is_Number:
            return R(RR.convert(float(e)))
        if e.is_Add:
            out = R(0)
            for a in e.args:
                out += ev(a)
            return out
        if e.is_Mul:
            out = R(1)
            for a in e.args:
                out = rs_mul(out, ev(a), eps, prec)
            return out
        if e.is_Pow:
            if not e.exp.is_Integer:
                raise ValueError(f"non-integer power in {e}")
            base, n = ev(e.base), int(e.exp)
            if n < 0:
                base, n = rs_series_inversion(base, eps, prec), -n
            return rs_pow(base, n, eps, prec)
        name = e.func.__name__
        c, q = split(ev(e.args[0]))
        if name == "exp":
            return rs_exp(q, eps, prec) * RR.convert(math.exp(c))
        if name == "sin":
            return (rs_cos(q, eps, prec) * RR.convert(math.sin(c))
                    + rs_sin(q, eps, prec) * RR.convert(math.cos(c)))
        if name == "cos":
            return (rs_cos(q, eps, prec) * RR.convert(math.cos(c))
                    - rs_sin(q, eps, prec) * RR.convert(math.sin(c)))
        if name == "log":
            return (rs_log(R(1) + q * RR.convert(1.0 / c), eps, prec)
                    + RR.convert(math.log(c)))
        raise ValueError(f"unsupported function {name}")

    series = ev(expr)
    return [float(series.get(tuple(m) + (sum(m),), 0.0)) for m in monos]


def jet_mismatch(got, ref) -> str | None:
    """None when got matches ref within JET_TOL, else a description."""
    if not isinstance(got, list) or len(got) != len(ref):
        return f"expected {len(ref)} coefficients, got {got!r:.80}"
    scale = 1.0 + max(abs(v) for v in ref)
    worst = max(abs(a - b) for a, b in zip(got, ref))
    if not worst <= JET_TOL * scale:
        return f"coefficients off by {worst:.3e} (scale {scale:.3e})"
    return None


# -- seeded building blocks --------------------------------------------------------


def _num(rng: random.Random, lo: float, hi: float) -> str:
    value = round(rng.uniform(lo, hi), 3)
    return repr(value if value != 0.0 else lo)


def _coords(rng: random.Random, dim: int, arity: int) -> list[list[float]]:
    return [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(arity)]


def _dim(width: int, height: int) -> int:
    return math.comb(width + height, width)


# -- jets --------------------------------------------------------------------------

# Truncated algebras (width, height) from the dual numbers to dimension 70.
WIDE_ALGEBRAS = ((1, 1), (1, 10), (2, 4), (3, 3), (2, 7), (3, 5), (4, 4))
DEEP_ALGEBRAS = ((2, 2), (2, 3))
# Index sequences of the iterated partials; order k takes the first k.
DEEP_SEQUENCES = ((0, 1, 0, 1, 0), (1, 0, 1, 0, 1))
DEEP_ORDER = 5


def _wide_shapes(rng: random.Random) -> list[str]:
    """One expression per shape; the shapes are fixed so every seed does the
    same amount of work, the numbers in them are seeded."""
    a, b, c = (_num(rng, 0.2, 0.9) for _ in range(3))
    shift = _num(rng, 1.0, 2.0)
    return [
        f"{a}*x0^3 + {b}*x0*x1^2 - {c}*x1 + {shift}",
        f"sin({a}*x0 + {b}*x1) * x1",
        f"cos({a}*x0*x1 + {b})",
        f"exp({a}*x0 - {b}*x1^2)",
        f"log({shift} + x0^2 + {c}*x1^2)",
        f"({a}*x0 + {b}) / ({shift} + x1^2)",
        f"({a}*x0 + {b}*x1 + {shift})^5",
    ]


# Products of primitives whose iterated partials are built symbolically.  The
# primitives are fixed (the derivative of cos adds a negation node that sin
# lacks), so every seed builds trees of the same shape.
DEEP_BASES = ("sin({a}*x0) * cos({b}*x1) * exp({c}*x0*x1) * x0^3",
              "cos({a}*x0) * sin({b}*x1) * exp({c}*x0*x1) * x1^3")


def _deep_base(rng: random.Random, index: int) -> str:
    a, b, c = (_num(rng, 0.2, 0.9) for _ in range(3))
    return DEEP_BASES[index].format(a=a, b=b, c=c)


def jets_inputs(seed: int):
    rng = random.Random(seed)
    wide, deep = [], []
    for width, height in WIDE_ALGEBRAS:
        for text in _wide_shapes(rng):
            wide.append({"width": width, "height": height, "arity": 2,
                         "expr": text,
                         "coords": _coords(rng, _dim(width, height), 2)})
    for index, ((width, height), seq) in enumerate(zip(DEEP_ALGEBRAS,
                                                       DEEP_SEQUENCES)):
        base = _deep_base(rng, index)
        for order in range(1, DEEP_ORDER + 1):
            deep.append({"width": width, "height": height, "arity": 2,
                         "expr": base, "seq": list(seq[:order]),
                         "coords": _coords(rng, _dim(width, height), 2)})
    inputs = {"wide": wide, "deep": deep}
    xs = symbols(2)
    expect = {"wide": [], "deep": []}
    for op in wide:
        expr = to_sympy(op["expr"], 2)
        expect["wide"].append(taylor_jet(expr, 2, op["width"], op["height"],
                                         op["coords"]))
    for op in deep:
        expr = to_sympy(op["expr"], 2)
        for i in op["seq"]:
            expr = sympy.diff(expr, xs[i])
        expect["deep"].append(taylor_jet(expr, 2, op["width"], op["height"],
                                         op["coords"]))
    return inputs, expect


def jets_check(expect, outputs) -> list[str]:
    problems = []
    for family in ("wide", "deep"):
        got = outputs.get(family, [])
        if len(got) != len(expect[family]):
            problems.append(f"{family}: {len(got)} results for "
                            f"{len(expect[family])} operations")
            continue
        for i, (g, r) in enumerate(zip(got, expect[family])):
            bad = jet_mismatch(g, r)
            if bad:
                problems.append(f"{family}[{i}]: {bad}")
    return problems


# -- decide ------------------------------------------------------------------------


def _canonical_poisson(n: int):
    pi = sympy.zeros(n, n)
    for k in range(n // 2):
        pi[2 * k, 2 * k + 1], pi[2 * k + 1, 2 * k] = 1, -1
    return pi


def _rotational_poisson():
    x0, x1, x2 = symbols(3)
    return sympy.Matrix([[0, x2, -x1], [-x2, 0, x0], [x1, -x0, 0]])


def _form_matrix(n: int, coeffs: dict):
    omega = sympy.zeros(n, n)
    for key, text in coeffs.items():
        i, j = (int(p) for p in key.split(","))
        value = to_sympy(text, n)
        omega[i, j], omega[j, i] = value, -value
    return omega


def _grad(h, xs):
    return [sympy.diff(h, x) for x in xs]


def poisson_field(pi, h, xs):
    """X^j = sum_k pi^{kj} d_k H: the derivation psi -> {H, psi}."""
    n = len(xs)
    grad = _grad(h, xs)
    return [sum(pi[k, j] * grad[k] for k in range(n)) for j in range(n)]


def poisson_defect(pi, field, xs):
    """Entries of the Lie derivative of pi along the field; all vanish
    exactly when the field is locally hamiltonian."""
    n = len(xs)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            entry = sum(field[k] * sympy.diff(pi[i, j], xs[k])
                        - pi[k, j] * sympy.diff(field[i], xs[k])
                        - pi[i, k] * sympy.diff(field[j], xs[k])
                        for k in range(n))
            out.append(entry)
    return out


def symplectic_field(omega, h, xs):
    """The X with i_X Omega = dH in the first slot: Omega^T X = grad H."""
    solved = omega.T.LUsolve(sympy.Matrix(_grad(h, xs)))
    return [sympy.cancel(c) for c in solved]


def symplectic_defect(omega, field, xs):
    """Coefficients of d(i_X Omega); all vanish exactly when the field is
    locally hamiltonian."""
    n = len(xs)
    theta = [sum(field[i] * omega[i, j] for i in range(n)) for j in range(n)]
    return [sympy.diff(theta[b], xs[a]) - sympy.diff(theta[a], xs[b])
            for a in range(n) for b in range(a + 1, n)]


def nonzero_somewhere(exprs, xs) -> bool:
    """True when some expression is visibly nonzero at a fixed rational
    point: one nonzero value proves the function is not identically zero."""
    at = {x: sympy.Rational(3 + 2 * i, 7 + i) for i, x in enumerate(xs)}
    return any(abs(sympy.N(e.subs(at), 30)) > 1e-12 for e in exprs)


def _point_json(coords) -> str:
    return json.dumps({"coords": [{"coeffs": c} for c in coords]})


# Exit-code probes: inputs on which the README's contract (exit 0, 2, 3, 4 or
# 5 and exactly one strict-JSON document) fails today.  They do not depend on
# the seed, so they fail in every round of every run.
PROBES = (
    ("samples_zero", ["hamcheck", "--algebra", "dual", "--poisson",
                      "canonical:2", "--field", '["x1", "-x0"]',
                      "--samples", "0"]),
    ("nan_point", ["prolong", "--algebra", "dual", "--expr", "x0",
                   "--point", '{"coords": [{"coeffs": [NaN, 1.0]}]}']),
    ("exp_overflow", ["prolong", "--algebra", "dual", "--expr", "exp(x0)",
                      "--point", '{"coords": [{"coeffs": [1000.0, 1.0]}]}']),
    ("power_overflow", ["prolong", "--algebra", "dual", "--expr", "x0^64",
                        "--point", '{"coords": [{"coeffs": [1e10, 1.0]}]}']),
    ("deep_nesting", ["prolong", "--algebra", "dual",
                      "--expr", "(" * 3000 + "x0" + ")" * 3000,
                      "--point", '{"coords": [{"coeffs": [0.5, 1.0]}]}']),
)


# Near-points per hamcheck decision (the CLI default is 32).  The identities
# hold exactly and a broken field misses them at every point, so fewer points
# decide the same; they keep a round short enough to repeat within a run.
HAMCHECK_SAMPLES = 8


def decide_inputs(seed: int):
    rng = random.Random(seed)
    ops: list[dict] = []
    expect: list[dict] = []

    # What a caller holding these inputs builds once: every algebra and
    # structure named, and every expression parsed.
    build = {"algebras": [], "poisson": [], "symplectic": [],
             "expressions": []}

    def add(family, argv, want):
        ops.append({"family": family, "argv": argv})
        expect.append(want)
        flags = dict(zip(argv[1::2], argv[2::2]))
        for key, flag in (("algebras", "--algebra"), ("poisson", "--poisson"),
                          ("symplectic", "--symplectic")):
            if flags.get(flag) and flags[flag] not in build[key]:
                build[key].append(flags[flag])

    def point(width, height, n):
        return _coords(rng, _dim(width, height), n)

    def hamcheck(family, flag, spec, alg, field, witness, want):
        texts = [to_text(c) for c in field]
        argv = ["hamcheck", "--algebra", algebra_spec(*alg), flag, spec,
                "--field", json.dumps(texts),
                "--samples", str(HAMCHECK_SAMPLES),
                "--seed", str(rng.randrange(1 << 30))]
        if witness is not None:
            argv += ["--witness", witness]
            texts.append(witness)
        add(family, argv, want)
        build["expressions"].extend([t, len(field)] for t in texts)

    def at_point(family, argv, alg, n, exprs, kind, texts):
        coords = point(*alg, n)
        argv += ["--point", _point_json(coords)]
        add(family, argv, {"kind": kind, "values": [
            taylor_jet(e, n, alg[0], alg[1], coords) for e in exprs]})
        build["expressions"].extend([t, n] for t in texts)

    def num(lo=0.2, hi=0.9):
        return _num(rng, lo, hi)

    # Poisson structures: canonical:2, rotational and canonical:4, each with
    # the algebras of its four calls (hamiltonian field, perturbed field,
    # hamfield --point, bracket --point).
    poisson = (
        ("canonical:2", _canonical_poisson(2), 2,
         lambda: f"{num()}*x0^2*x1 + {num()}*x1^2 + {num()}*sin(x0)",
         ((1, 1), (1, 2), (2, 2), (2, 2))),
        ("rotational", _rotational_poisson(), 3,
         lambda: f"{num()}*x0^2 + {num()}*x1*x2 + {num()}*cos(x2)",
         ((1, 1), (1, 2), (1, 2), (2, 1))),
        ("canonical:4", _canonical_poisson(4), 4,
         lambda: f"{num()}*x0*x2 + {num()}*x1^2*x3 + {num()}*sin(x3)",
         ((1, 1), (1, 1), (1, 1), (1, 2))),
    )
    for spec, pi, n, potential, algebras in poisson:
        xs = symbols(n)
        alg_good, alg_bad, alg_field, alg_bracket = algebras
        h_text = potential()
        field = poisson_field(pi, to_sympy(h_text, n), xs)
        hamcheck("poisson", "--poisson", spec, alg_good, field, h_text,
                 {"kind": "verdict", "locally": True, "globally": True})
        bad = list(field)
        bad[0] = bad[0] + to_sympy(f"{num()}*x0^2", n)
        if not nonzero_somewhere(poisson_defect(pi, bad, xs), xs):
            raise AssertionError("perturbed Poisson field is still closed")
        hamcheck("poisson", "--poisson", spec, alg_bad, bad, None,
                 {"kind": "verdict", "locally": False, "globally": "unknown"})
        h_text = potential()
        field = poisson_field(pi, to_sympy(h_text, n), xs)
        at_point("poisson", ["hamfield", "--algebra", algebra_spec(*alg_field),
                             "--poisson", spec, "--fn", h_text],
                 alg_field, n, field, "components", [h_text])
        f_text, g_text = potential(), potential()
        f, g = to_sympy(f_text, n), to_sympy(g_text, n)
        bracket = sum(pi[k, j] * sympy.diff(f, xs[k]) * sympy.diff(g, xs[j])
                      for k in range(n) for j in range(n))
        at_point("poisson", ["bracket", "--algebra",
                             algebra_spec(*alg_bracket), "--poisson", spec,
                             "--left", f_text, "--right", g_text],
                 alg_bracket, n, [bracket], "value", [f_text, g_text])

    # Symplectic structures: canonical:2, canonical:4 and two curved closed
    # forms (each coefficient depends only on its own pair of coordinates).
    curved2 = {"0,1": f"1 + {num()}*x0^2"}
    curved4 = {"0,1": f"1 + {num()}*x0^2", "0,2": num(),
               "2,3": f"2 + cos({num()}*x3)"}
    symplectic = (
        ("canonical:2", {"0,1": "1"}, 2,
         lambda: f"{num()}*x0*x1^2 + {num()}*cos(x1) + {num()}*x0^2",
         ((1, 1), (1, 2), (2, 2), (2, 1))),
        ("curved2", curved2, 2,
         lambda: f"{num()}*x0^2 + {num()}*x1 + {num()}*x0*x1^2",
         ((1, 2), (1, 1), (1, 2), (2, 2))),
        ("canonical:4", {"0,1": "1", "2,3": "1"}, 4,
         lambda: f"{num()}*x0*x3 + {num()}*x1^2 + {num()}*sin(x2)",
         ((1, 1), (1, 1), (1, 1), (2, 1))),
        ("curved4", curved4, 4,
         lambda: f"{num()}*x0*x2 + {num()}*x1*x3 + {num()}*x3^2",
         ((1, 1), (1, 1), (1, 1), (1, 1))),
    )

    def spec_text(name, coeffs, n):
        if name.startswith("canonical"):
            return name
        return json.dumps({"degree": 2, "arity": n, "coeffs": coeffs})

    for name, coeffs, n, potential, algebras in symplectic:
        xs = symbols(n)
        spec = spec_text(name, coeffs, n)
        omega = _form_matrix(n, coeffs)
        alg_good, alg_bad, alg_field, alg_bracket = algebras
        h_text = potential()
        field = symplectic_field(omega, to_sympy(h_text, n), xs)
        hamcheck("symplectic", "--symplectic", spec, alg_good, field, h_text,
                 {"kind": "verdict", "locally": True, "globally": True})
        bad = list(field)
        bad[0] = bad[0] + to_sympy(f"{num()}*x0^2", n)
        if not nonzero_somewhere(symplectic_defect(omega, bad, xs), xs):
            raise AssertionError("perturbed symplectic field is still closed")
        hamcheck("symplectic", "--symplectic", spec, alg_bad, bad, None,
                 {"kind": "verdict", "locally": False, "globally": "unknown"})
        h_text = potential()
        field = symplectic_field(omega, to_sympy(h_text, n), xs)
        at_point("symplectic", ["hamfield", "--algebra",
                                algebra_spec(*alg_field), "--symplectic",
                                spec, "--fn", h_text],
                 alg_field, n, field, "components", [h_text])
        f_text, g_text = potential(), potential()
        f_field = symplectic_field(omega, to_sympy(f_text, n), xs)
        g = to_sympy(g_text, n)
        bracket = sum(f_field[j] * sympy.diff(g, xs[j]) for j in range(n))
        at_point("symplectic", ["bracket", "--algebra",
                                algebra_spec(*alg_bracket), "--symplectic",
                                spec, "--left", f_text, "--right", g_text],
                 alg_bracket, n, [bracket], "value", [f_text, g_text])

    for name, argv in PROBES:
        add("probe", list(argv), {"kind": "probe", "name": name})
    return {"ops": ops, "build": build}, expect


def _single_document(text: str):
    """The one strict-JSON document a CLI call printed, or None."""
    lines = text.splitlines()
    if len(lines) != 1:
        return None
    try:
        return strict_json(lines[0])
    except ValueError:
        return None


def probe_holds(result: dict) -> bool:
    """The README contract for an input the program must refuse: exit 2 or 3
    and exactly one strict-JSON error document."""
    doc = _single_document(result["out"])
    return (result["code"] in (2, 3) and isinstance(doc, dict)
            and "error" in doc)


def decide_check(inputs, expect, outputs) -> tuple[list[str], int]:
    """(problems, failed probes) for one round's results."""
    problems: list[str] = []
    failed = 0
    results = outputs.get("results", [])
    if len(results) != len(expect):
        return [f"{len(results)} results for {len(expect)} calls"], 0
    for i, (want, got) in enumerate(zip(expect, results)):
        where = f"call {i} ({' '.join(inputs['ops'][i]['argv'][:1])})"
        if want["kind"] == "probe":
            if not probe_holds(got):
                failed += 1
            continue
        if got["code"] != 0:
            problems.append(f"{where}: exit {got['code']}")
            continue
        doc = _single_document(got["out"])
        if not isinstance(doc, dict):
            problems.append(f"{where}: not one strict-JSON document")
            continue
        if want["kind"] == "verdict":
            seen = (doc.get("locally"), doc.get("globally"))
            if seen != (want["locally"], want["globally"]):
                problems.append(f"{where}: verdict {seen}, expected "
                                f"{(want['locally'], want['globally'])}")
            continue
        if want["kind"] == "components":
            comps = doc.get("components")
            values = ([c.get("coeffs") for c in comps]
                      if isinstance(comps, list) else None)
        else:
            values = [doc.get("coeffs")]
        if values is None or len(values) != len(want["values"]):
            problems.append(f"{where}: wrong number of components")
            continue
        for got_c, ref in zip(values, want["values"]):
            bad = jet_mismatch(got_c, ref)
            if bad:
                problems.append(f"{where}: {bad}")
    return problems, failed


# -- suite -------------------------------------------------------------------------

# The seed tier-1 and the CLI use by default; suite inputs do not depend on
# the benchmark seed, so every run times the same passes.
SUITE_SEED = 42


def suite_inputs(seed: int):
    del seed
    return {"verify_seed": SUITE_SEED}, None


def _report_lines(text: str):
    out = []
    for line in text.splitlines():
        try:
            out.append(strict_json(line))
        except ValueError:
            return None
    return out


def suite_check(outputs) -> list[str]:
    """Every documented check passes within its tolerance, and every mutation
    is caught by its target check with a witness.  Byte-identity of repeated
    passes is checked on the digests of whole rounds."""
    problems: list[str] = []
    tolerances = outputs.get("tolerances", {})
    verify = outputs["verify"]
    if verify["code"] != 0:
        problems.append(f"verify exited {verify['code']}")
    reports = _report_lines(verify["out"])
    if reports is None:
        return problems + ["a verify report line is not strict JSON"]
    names = [r.get("name") for r in reports]
    if names != sorted(CHECK_NAMES):
        problems.append(f"verify ran {names}, not the 21 documented checks")
    for r in reports:
        tol = tolerances.get(r.get("name"))
        residual = r.get("worst_residual")
        if (r.get("passed") is not True or tol is None
                or not isinstance(residual, float) or not residual <= tol):
            problems.append(f"{r.get('name')} fails (residual {residual}, "
                            f"tolerance {tol})")
    caught = set()
    for sweep in outputs.get("sweeps", []):
        target = [r for r in _report_lines(sweep["out"]) or []
                  if r.get("name") == sweep["target"]]
        if (sweep["code"] == 5 and len(target) == 1
                and target[0].get("passed") is False
                and target[0].get("witness") is not None):
            caught.add(sweep["mutation"])
        else:
            problems.append(f"mutation {sweep['mutation']} not caught by "
                            f"{sweep['target']} with a witness")
    missing = set(MUTATION_NAMES) - caught
    if missing:
        problems.append(f"mutations not caught: {sorted(missing)}")
    return problems


# -- dispatch ------------------------------------------------------------------------


def make_inputs(workload: str, seed: int):
    return {"suite": suite_inputs, "jets": jets_inputs,
            "decide": decide_inputs}[workload](seed)


def check(workload: str, inputs, expect, outputs) -> tuple[list[str], int]:
    """(problems, failed operations) for one round's outputs."""
    if workload == "suite":
        return suite_check(outputs), 0
    if workload == "jets":
        return jets_check(expect, outputs), 0
    return decide_check(inputs, expect, outputs)
