"""Layer spans recorded from outside the program.

``install`` replaces the public functions of each weiljet module with
wrappers that record a span (name, parent span, start, end) wherever the
function is bound: the defining module's global, every importer's global,
and the class attribute for methods (``WeilElement.__mul__`` and
``__rmul__`` share one wrapper).  Spans stay in memory in flat arrays;
``metrics`` derives self times (a span's duration minus the time its child
spans cover) and counts, and ``write`` saves the spans when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array

from common import CHECK_NAMES

# Counts that must repeat exactly between two traced runs at one seed.
COUNT_KEYS = (
    "algebra.mul_calls", "algebra.inverse_calls", "expression.nodes_built",
    "expression.eval_weil_calls", "bundle.pulled_calls", "bundle.near_points",
    "symplectic.matrix_inverse_calls",
)

# (metric, span name, statistic)
SPAN_METRICS = (
    ("algebra.mul_calls", "algebra.mul", "calls"),
    ("algebra.mul_self_s", "algebra.mul", "self"),
    ("algebra.inverse_calls", "algebra.inverse", "calls"),
    ("algebra.inverse_self_s", "algebra.inverse", "self"),
    ("algebra.build_s", "algebra.build", "total"),
    ("expression.differentiate_self_s", "expression.differentiate", "self"),
    ("expression.compose_self_s", "expression.compose", "self"),
    ("expression.eval_weil_calls", "expression.eval_weil", "calls"),
    ("expression.eval_weil_self_s", "expression.eval_weil", "self"),
    ("expression.parse_self_s", "expression.parse", "self"),
    ("bundle.evaluate_self_s", "bundle.evaluate", "self"),
    ("bundle.pulled_calls", "bundle.pulled", "calls"),
    ("bundle.partial_self_s", "bundle.partial", "self"),
    ("bundle.apply_field_self_s", "bundle.apply_field", "self"),
    ("bundle.max_difference_self_s", "bundle.max_difference", "self"),
    ("bundle.near_points", "bundle.sample_near_point", "calls"),
    ("poisson.derivation_self_s", "poisson.derivation", "self"),
    ("poisson.bracket_self_s", "poisson.bracket", "self"),
    ("poisson.closedness_self_s", "poisson.closedness", "self"),
    ("poisson.witness_self_s", "poisson.witness", "self"),
    ("symplectic.matrix_inverse_calls", "symplectic.matrix_inverse", "calls"),
    ("symplectic.matrix_inverse_self_s", "symplectic.matrix_inverse", "self"),
    ("symplectic.hamiltonian_field_self_s", "symplectic.hamiltonian_field",
     "self"),
    ("symplectic.closedness_self_s", "symplectic.closedness", "self"),
    ("symplectic.witness_self_s", "symplectic.witness", "self"),
    ("symplectic.inverse_bivector_self_s", "symplectic.inverse_bivector",
     "self"),
    ("sampling.self_s", "sampling", "self"),
    ("jsonio.self_s", "jsonio", "self"),
    ("cli.main_self_s", "cli.main", "self"),
) + tuple((f"harness.check_s.{name}", f"harness.check.{name}", "total")
          for name in CHECK_NAMES)

# (module, attribute, span name); "Class.method" names a method.
TARGETS = (
    ("algebra", "WeilElement.inverse", "algebra.inverse"),
    ("algebra", "make_truncated_algebra", "algebra.build"),
    ("algebra", "validate_algebra", "algebra.build"),
    ("expression", "differentiate", "expression.differentiate"),
    ("expression", "compose", "expression.compose"),
    ("expression", "eval_weil", "expression.eval_weil"),
    ("expression", "parse_expr", "expression.parse"),
    ("bundle", "BundleFunction.evaluate", "bundle.evaluate"),
    ("bundle", "NearPoint.pulled", "bundle.pulled"),
    ("bundle", "BundleFunction.partial", "bundle.partial"),
    ("bundle", "apply_field", "bundle.apply_field"),
    ("bundle", "max_difference", "bundle.max_difference"),
    ("bundle", "sample_near_point", "bundle.sample_near_point"),
    ("poisson", "poisson_derivation", "poisson.derivation"),
    ("poisson", "prolonged_bracket", "poisson.bracket"),
    ("poisson", "poisson_closedness_defect", "poisson.closedness"),
    ("poisson", "check_global_witness_poisson", "poisson.witness"),
    ("symplectic", "weil_matrix_inverse", "symplectic.matrix_inverse"),
    ("symplectic", "hamiltonian_field", "symplectic.hamiltonian_field"),
    ("symplectic", "symplectic_closedness_defect", "symplectic.closedness"),
    ("symplectic", "check_global_witness_symplectic", "symplectic.witness"),
    ("symplectic", "inverse_bivector", "symplectic.inverse_bivector"),
    ("harness", "run_suite", "harness.run_suite"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.nodes_built = 0
        self.element_products = 0
        self.real_operand_products = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def product_span(self, fn, element_type):
        """Span for WeilElement.__mul__ that also counts element-by-element
        products with an operand that is a real multiple of the unit."""
        traced = self.span("algebra.mul", fn)

        def product(a, b):
            if isinstance(b, element_type):
                self.element_products += 1
                if not a._coeffs[1:].any() or not b._coeffs[1:].any():
                    self.real_operand_products += 1
            return traced(a, b)

        return product

    def node_counter(self, init):
        def counted(node, *args, **kwargs):
            self.nodes_built += 1
            init(node, *args, **kwargs)

        return counted

    def metrics(self) -> dict:
        """Per-layer metrics as {name: {"value": ..., "unit": ...}}."""
        import numpy as np

        n = len(self.start)
        ids = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        total_s = np.bincount(ids, weights=dur, minlength=k)
        stats = {"calls": calls, "self": self_s, "total": total_s}

        def stat(span: str, kind: str):
            if span not in self._ids:
                return 0 if kind == "calls" else 0.0
            value = stats[kind][self._ids[span]]
            return int(value) if kind == "calls" else float(value)

        out = {metric: (stat(span, kind), "count" if kind == "calls" else "s")
               for metric, span, kind in SPAN_METRICS}
        out["expression.nodes_built"] = (self.nodes_built, "count")
        out["algebra.mul_real_operand_ratio"] = (
            self.real_operand_products / self.element_products
            if self.element_products else 0.0, "ratio")
        # A pulled span that started no evaluation was served from the
        # near-point's cache.
        pulled = stat("bundle.pulled", "calls")
        hits = 0
        if pulled:
            evaluated = np.zeros(n, dtype=bool)
            if "expression.eval_weil" in self._ids:
                child = (ids == self._ids["expression.eval_weil"]) & has_parent
                evaluated[parent[child]] = True
            hits = int(np.sum((ids == self._ids["bundle.pulled"]) & ~evaluated))
        out["bundle.pulled_hit_ratio"] = (hits / pulled if pulled else 0.0,
                                          "ratio")
        harness_ids = [i for name, i in self._ids.items()
                       if name.startswith("harness.")]
        out["harness.self_s"] = (float(sum(self_s[i] for i in harness_ids)),
                                 "s")
        out["trace.spans"] = (n, "count")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def write(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end))


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions wherever weiljet binds them."""
    import weiljet.cli  # noqa: F401  (imports every module)
    from weiljet import algebra, expression, harness, jsonio, sampling

    modules = [m for key, m in sys.modules.items()
               if key == "weiljet" or key.startswith("weiljet.")]

    def rebind(original, wrapper):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def rebind_method(cls, original, wrapper):
        for key, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, key, wrapper)

    for module_name, attr, span in TARGETS:
        module = sys.modules[f"weiljet.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[method]
            rebind_method(cls, original, tracer.span(span, original))
        else:
            original = getattr(module, attr)
            rebind(original, tracer.span(span, original))

    element = algebra.WeilElement
    original = vars(element)["__mul__"]
    rebind_method(element, original, tracer.product_span(original, element))
    expression.ScalarExpr.__init__ = tracer.node_counter(
        expression.ScalarExpr.__init__)

    for module, span in ((sampling, "sampling"), (jsonio, "jsonio")):
        for attr in module.__all__:
            fn = getattr(module, attr)
            if callable(fn) and getattr(fn, "__module__", "") == module.__name__:
                rebind(fn, tracer.span(span, fn))

    registry = harness._REGISTRY
    for name, (fn, spec) in list(registry.items()):
        registry[name] = (tracer.span(f"harness.check.{name}", fn), spec)
