"""Spans around the calls into cosprod's modules, installed from outside.

``Tracer.install`` replaces the public functions named in ``TRACED`` (and
the arithmetic operators of ``BoundedReal``) by wrappers, in every cosprod
module that holds them, so calls made through ``from .analytic import ...``
bindings are caught too.  ``uninstall`` puts the originals back.  Nothing in
cosprod is edited, and its caches are never touched.

A span is ``[request, name, start, end, parent, result]``: ``parent`` is the
index of the enclosing span (or -1) and ``result`` keeps the return value of
the calls whose results feed a layer metric, until ``layer_metrics`` has
read it.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Optional

from oracles import certified_bits

# Only cli.main is traced in cli, so the cli layer's own time (argument
# parsing, the command bodies) is cli.main's self time.  The output layer's
# formatters are traced so that formatting is not counted as cli time.
TRACED = {
    "cli": ("main",),
    "analytic": ("lambda_direct", "product_trace", "rearrangement_check",
                 "cos_approx", "exp_approx", "neg_log_product_series",
                 "verify_identity"),
    "arith": ("pi_constant",),
    "recurrence": ("lambda_coefficients", "tangent_coefficients",
                   "lambda_closed_form"),
    "series": ("picard_fixed_point", "ode_residual"),
    "output": ("render", "format_rational", "format_decimal", "format_bound"),
}
BOUNDEDREAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__truediv__", "__neg__")
BOUNDEDREAL = "arith.boundedreal"
KEEP_RESULT = {"analytic.lambda_direct", "analytic.product_trace",
               "analytic.rearrangement_check", "analytic.cos_approx",
               "analytic.verify_identity", "output.render"}

# (metric, unit) in the order they are reported; see layer_metrics
LAYER_METRICS = (
    ("analytic.lambda_direct.s", "s"),
    ("analytic.lambda_direct.terms", "count"),
    ("analytic.product_trace.s", "s"),
    ("analytic.product_trace.factors", "count"),
    ("analytic.rearrangement_check.s", "s"),
    ("analytic.cos_approx.s", "s"),
    ("analytic.exp_approx.s", "s"),
    ("analytic.neg_log_product_series.s", "s"),
    ("analytic.verify_identity.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("arith.boundedreal.ops", "count"),
    ("arith.boundedreal.s", "s"),
    ("arith.pi_constant.s", "s"),
    ("recurrence.lambda_coefficients.s", "s"),
    ("recurrence.tangent_coefficients.s", "s"),
    ("series.picard_fixed_point.s", "s"),
    ("series.ode_residual.s", "s"),
    ("output.render.s", "s"),
    ("output.bytes", "bytes"),
    ("analytic.bits.product", "bits"),
    ("analytic.bits.log_series", "bits"),
    ("analytic.bits.cosine", "bits"),
    ("analytic.bits.lambda_direct", "bits"),
    ("analytic.bits.rearrangement", "bits"),
)
BITS_METRICS = tuple(name for name, unit in LAYER_METRICS if unit == "bits")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._first = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = name in KEEP_RESULT
        nested_op = name == BOUNDEDREAL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # an operator calling another (a - b is a + (-b)) is one operation
            if nested_op and stack and spans[stack[-1]][1] == BOUNDEDREAL:
                return fn(*args, **kwargs)
            span = [self.request, name, 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if keep:
                span[5] = result
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions wherever a cosprod module binds them."""
        modules = [m for key, m in sys.modules.items()
                   if key == "cosprod" or key.startswith("cosprod.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"cosprod.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._undo.append((module, fname, original))
                        setattr(module, fname, wrapped)
        cls = sys.modules["cosprod.arith"].BoundedReal
        for op in BOUNDEDREAL_OPS:
            original = cls.__dict__[op]
            self._undo.append((cls, op, original))
            setattr(cls, op, self._wrap(BOUNDEDREAL, original))

    def begin(self, request: int) -> None:
        """Label the spans that follow with this request number."""
        self.request = request
        self._first = len(self.spans)

    def adopt(self, request: int, spans: list[list]) -> None:
        """Append the spans another process recorded for one request."""
        base = len(self.spans)
        for _, name, start, end, parent in spans:
            self.spans.append([request, name, start, end,
                               parent + base if parent >= 0 else -1, None])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, Optional[float]]:
        """Per-layer figures of the current request; its kept results are dropped.

        Times are inclusive unless named self_s; a bits figure is None when
        the request made no interval of that kind.
        """
        spans = [(i, self.spans[i]) for i in range(self._first, len(self.spans))]
        inclusive: dict[str, float] = {}
        child_time: dict[int, float] = {}
        for _, (_, name, start, end, parent, _) in spans:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self_time: dict[str, float] = {}
        for i, (_, name, start, end, _, _) in spans:
            self_time[name] = (self_time.get(name, 0.0)
                               + (end - start) - child_time.get(i, 0.0))

        counts = {"terms": 0, "factors": 0, "bytes": 0, "ops": 0}
        bits: dict[str, list[float]] = {name: [] for name in BITS_METRICS}
        for i, span in spans:
            name, result = span[1], span[5]
            span[5] = None
            if name == BOUNDEDREAL:
                counts["ops"] += 1
            elif name == "analytic.lambda_direct":
                counts["terms"] += result.num_terms
                if not self._inside(i, "analytic.rearrangement_check"):
                    bits["analytic.bits.lambda_direct"].append(
                        certified_bits(*result.bracket()))
            elif name == "analytic.product_trace":
                final = result[-1]
                counts["factors"] += final.num_factors
                bits["analytic.bits.product"].append(
                    certified_bits(*final.interval()))
            elif name == "analytic.cos_approx":
                bits["analytic.bits.cosine"].append(
                    certified_bits(result.lower(), result.upper()))
            elif name == "analytic.verify_identity":
                route = result.log_series
                bits["analytic.bits.log_series"].append(
                    certified_bits(route.lower(), route.upper()))
            elif name == "analytic.rearrangement_check":
                for route in (result.row_sum, result.column_sum):
                    bits["analytic.bits.rearrangement"].append(
                        certified_bits(route.lower(), route.upper()))
            elif name == "output.render":
                counts["bytes"] += len(result.encode())

        # the output functions traced do not call one another
        output_s = sum(t for name, t in inclusive.items() if name.startswith("output."))
        figures: dict[str, Optional[float]] = {
            "analytic.lambda_direct.s": inclusive.get("analytic.lambda_direct", 0.0),
            "analytic.lambda_direct.terms": counts["terms"],
            "analytic.product_trace.s": inclusive.get("analytic.product_trace", 0.0),
            "analytic.product_trace.factors": counts["factors"],
            "analytic.rearrangement_check.s": inclusive.get("analytic.rearrangement_check", 0.0),
            "analytic.cos_approx.s": inclusive.get("analytic.cos_approx", 0.0),
            "analytic.exp_approx.s": inclusive.get("analytic.exp_approx", 0.0),
            "analytic.neg_log_product_series.s": inclusive.get("analytic.neg_log_product_series", 0.0),
            "analytic.verify_identity.self_s": self_time.get("analytic.verify_identity", 0.0),
            "cli.main.self_s": self_time.get("cli.main", 0.0),
            "arith.boundedreal.ops": counts["ops"],
            "arith.boundedreal.s": inclusive.get(BOUNDEDREAL, 0.0),
            "arith.pi_constant.s": inclusive.get("arith.pi_constant", 0.0),
            "recurrence.lambda_coefficients.s": inclusive.get("recurrence.lambda_coefficients", 0.0),
            "recurrence.tangent_coefficients.s": inclusive.get("recurrence.tangent_coefficients", 0.0),
            "series.picard_fixed_point.s": inclusive.get("series.picard_fixed_point", 0.0),
            "series.ode_residual.s": inclusive.get("series.ode_residual", 0.0),
            "output.render.s": output_s,
            "output.bytes": counts["bytes"],
        }
        for name, values in bits.items():
            figures[name] = min(values) if values else None
        return figures

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index][4]
        while parent >= 0:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][4]
        return False
