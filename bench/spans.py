"""Span recorder for the traced run, and the per-layer metrics built from it.

``Tracer.install`` wraps the public functions of each riccatikit module (the
layers) from outside the program: every namespace that holds a reference to
a wrapped function gets the wrapper, and methods are replaced on their class.
A span is ``[name, start, end, parent, job, extra, outermost]``, with
``outermost`` true when no span of the same name is open; spans live in memory
and are written out once, when the run ends.  ``extra`` carries the counts
taken at the same boundary (points evaluated, right-hand-side calls, terms
produced, bytes written), which are computed after the span's end time is
taken, so they do not count as the layer's time.

Aggregation: ``calls`` and ``s`` count only outermost spans of a name (a
layer that calls itself, like regularised quadrature, is one call), and
``self_s`` is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time
from collections import defaultdict

# (metric name, unit, better); the per_layer list in BENCHMARK.json mirrors it.
PER_LAYER = [
    ("soliton.solve_coefficients.calls", "count", "lower"),
    ("soliton.solve_coefficients.self_s", "s", "lower"),
    ("soliton.solves_per_grid_point", "count", "lower"),
    ("soliton.potential.s", "s", "lower"),
    ("soliton.kp_field.calls", "count", "lower"),
    ("soliton.kp_field.s", "s", "lower"),
    ("soliton.pde_residual.s", "s", "lower"),
    ("soliton.closed_form.s", "s", "lower"),
    ("numeric.lu.calls", "count", "lower"),
    ("numeric.lu.s", "s", "lower"),
    ("expr.evaluate.calls", "count", "lower"),
    ("expr.evaluate.self_s", "s", "lower"),
    ("expr.evaluate.points_per_call", "count", "higher"),
    ("expr.diff.calls", "count", "lower"),
    ("expr.diff.s", "s", "lower"),
    ("expr.diff.out_nodes", "count", "lower"),
    ("expr.diff.unique_frac", "ratio", "higher"),
    ("expr.parse.s", "s", "lower"),
    ("diffpoly.add.calls", "count", "lower"),
    ("diffpoly.add.s", "s", "lower"),
    ("diffpoly.mul.calls", "count", "lower"),
    ("diffpoly.mul.s", "s", "lower"),
    ("diffpoly.d_x.calls", "count", "lower"),
    ("diffpoly.d_x.s", "s", "lower"),
    ("diffpoly.terms_out", "count", "lower"),
    ("series.riccati_series.self_s", "s", "lower"),
    ("series.modschwarz_series.self_s", "s", "lower"),
    ("series.zeta_chain.self_s", "s", "lower"),
    ("riccati.sample_points.s", "s", "lower"),
    ("riccati.riccati_residual.s", "s", "lower"),
    ("riccati.mobius_transform.s", "s", "lower"),
    ("riccati.general_from_particular.s", "s", "lower"),
    ("riccati.hermite_polynomial.s", "s", "lower"),
    ("riccati.pole_series.s", "s", "lower"),
    ("riccati.kovalevskii_check.s", "s", "lower"),
    ("schwarzian.schwarz.s", "s", "lower"),
    ("schwarzian.third_order_residual.s", "s", "lower"),
    ("schwarzian.first_integral.s", "s", "lower"),
    ("numeric.integrate_ivp.calls", "count", "lower"),
    ("numeric.integrate_ivp.self_s", "s", "lower"),
    ("numeric.integrate_ivp.steps", "count", "lower"),
    ("numeric.integrate_ivp.rhs_evals", "count", "lower"),
    ("numeric.integrate_ivp.accept_ratio", "ratio", "higher"),
    ("numeric.dense_eval.calls", "count", "lower"),
    ("numeric.dense_eval.s", "s", "lower"),
    ("numeric.quadrature.calls", "count", "lower"),
    ("numeric.quadrature.s", "s", "lower"),
    ("numeric.quadrature.f_evals", "count", "lower"),
    ("finitegap.integrate_gamma.self_s", "s", "lower"),
    ("finitegap.turning_points.s", "s", "lower"),
    ("finitegap.floquet_discriminant.self_s", "s", "lower"),
    ("finitegap.dubrovin_checks.s", "s", "lower"),
    ("finitegap.dubrovin_checks.points", "count", "lower"),
    ("finitegap.period.s", "s", "lower"),
    ("cli.handler.self_s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
    ("cli.emit.bytes", "bytes", "lower"),
    ("cli.parse.s", "s", "lower"),
    ("import.total_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("import.riccatikit_self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# span name -> (module, attribute path) of each function wrapped under it
LAYERS = {
    "soliton.solve_coefficients": [("soliton", "solve_coefficients")],
    "soliton.potential": [("soliton", "potential")],
    "soliton.kp_field": [("soliton", "kp_field")],
    "soliton.pde_residual": [("soliton", "pde_residual")],
    "soliton.closed_form": [("soliton", "closed_form_potential"), ("soliton", "kp_closed_form"),
                            ("soliton", "kdv_closed_form")],
    "numeric.lu": [("numeric", "LUFactorization.__init__"), ("numeric", "LUFactorization.solve")],
    "numeric.integrate_ivp": [("numeric", "integrate_ivp")],
    "numeric.dense_eval": [("numeric", "Trajectory.__call__")],
    "numeric.quadrature": [("numeric", "quadrature")],
    "expr.evaluate": [("expr", "Expression.evaluate"), ("expr", "evaluate")],
    "expr.diff": [("expr", "diff")],
    "expr.parse": [("expr", "parse_expression")],
    "diffpoly.add": [("diffpoly", "DiffPolynomial.__add__"), ("diffpoly", "DiffPolynomial.__sub__")],
    "diffpoly.mul": [("diffpoly", "DiffPolynomial.__mul__")],
    "diffpoly.d_x": [("diffpoly", "DiffPolynomial.d_x")],
    "series.riccati_series": [("series", "riccati_series")],
    "series.modschwarz_series": [("series", "modschwarz_series")],
    "series.zeta_chain": [("series", "zeta_chain")],
    "finitegap.integrate_gamma": [("finitegap", "integrate_gamma")],
    "finitegap.turning_points": [("finitegap", "RootTrajectory.turning_points")],
    "finitegap.floquet_discriminant": [("finitegap", "floquet_discriminant")],
    "finitegap.dubrovin_checks": [("finitegap", "dubrovin_checks")],
    "finitegap.period": [("finitegap", "period")],
    "cli.emit": [("cli", "emit_csv"), ("cli", "emit_json")],
}
for _fn in ("sample_points", "riccati_residual", "mobius_transform", "general_from_particular",
            "hermite_polynomial", "pole_series", "kovalevskii_check"):
    LAYERS[f"riccati.{_fn}"] = [("riccati", _fn)]
for _fn in ("schwarz", "third_order_residual", "first_integral"):
    LAYERS[f"schwarzian.{_fn}"] = [("schwarzian", _fn)]
HANDLER = "cli.handler"  # every cli.cmd_* function


class _Counted:
    """Callable proxy that counts calls into ``extra[key]`` of a span."""

    __slots__ = ("fn", "extra", "key")

    def __init__(self, fn, extra, key):
        self.fn = fn
        self.extra = extra
        self.key = key

    def __call__(self, *args):
        self.extra[self.key] += 1
        return self.fn(*args)


class _Integrand:
    """Quadrature integrand proxy: counts calls and times them.

    Its exclusive time (minus spans opened inside it) goes to ``extra["f_s"]``,
    so that ``metrics`` can move it from the quadrature rule's self time to
    the layer whose code the integrand runs.
    """

    __slots__ = ("fn", "extra", "tracer")

    def __init__(self, fn, extra, tracer):
        self.fn = fn
        self.extra = extra
        self.tracer = tracer

    def __call__(self, *args):
        spans, stack = self.tracer.spans, self.tracer.stack
        first = len(spans)
        parent = stack[-1] if stack else -1
        t0 = time.perf_counter()
        try:
            return self.fn(*args)
        finally:
            dt = time.perf_counter() - t0
            if len(spans) != first:
                dt -= sum(s[2] - s[1] for s in spans[first:] if s[3] == parent)
            self.extra["f_evals"] += 1
            self.extra["f_s"] += dt


def _points(args, kwargs):
    values = list(kwargs.values())
    for a in args[1:]:
        values.extend(a.values() if isinstance(a, dict) else [])
    return max((getattr(v, "size", 1) for v in values), default=1)


_CHILD_ATTRS = ("terms", "factors", "base", "arg", "integrand")


def _tree_stats(e):
    """(nodes as the evaluator visits them, distinct structural subtrees)."""
    sizes = {}
    keys = set()
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in sizes:
            continue
        children = []
        for attr in _CHILD_ATTRS:
            v = getattr(node, attr, None)
            if isinstance(v, (list, tuple)):
                children.extend(v)
            elif v is not None and hasattr(v, "key"):
                children.append(v)
        if done:
            sizes[id(node)] = 1 + sum(sizes[id(c)] for c in children)
            keys.add(node.key())
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in children if id(c) not in sizes)
    return sizes[id(e)], len(keys)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self._restore = []
        self._active = defaultdict(int)  # name -> open spans of that name

    # -- recording -----------------------------------------------------------
    def wrap(self, name, fn):
        spans, stack, active = self.spans, self.stack, self._active
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = active[name] == 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, outermost]
            if before is not None and outermost:
                args, kwargs = before(self, span, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                active[name] -= 1
                stack.pop()
            if after is not None and outermost:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def run(self, name, job_id, fn, *args):
        """Root span around one job."""
        self.job = job_id
        return self.wrap(name, fn)(*args)

    # -- patching --------------------------------------------------------------
    def install(self, package="riccatikit"):
        modules = {n: m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")}
        targets = [(name, modules[f"{package}.{mod}"], path) for name, places in LAYERS.items()
                   for mod, path in places]
        cli = modules[f"{package}.cli"]
        targets += [(HANDLER, cli, attr) for attr in vars(cli) if attr.startswith("cmd_")]
        for name, module, path in targets:
            owner = module
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            if parents:  # a method: replace it on its class
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules.values():  # a function: every namespace holding it
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job, extra, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, job, extra]) + "\n")

    # -- aggregation -----------------------------------------------------------
    def metrics(self):
        spans = self.spans
        child_time = [0.0] * len(spans)
        in_potential = [False] * len(spans)
        for i, (name, start, end, parent, _, _, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_potential[i] = in_potential[parent] or spans[parent][0] == "soliton.potential"
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        extra = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, _, ex, outer) in enumerate(spans):
            self_s[name] += (end - start) - child_time[i]
            if outer:
                calls[name] += 1
                incl[name] += end - start
                for key, value in (ex or {}).items():
                    extra[name][key] += value
                if name == "numeric.quadrature" and ex["f_expr"]:
                    # an expression's integrand (Quadrature node) is expression evaluation
                    self_s[name] -= ex["f_s"]
                    self_s["expr.evaluate"] += ex["f_s"]
        self.self_times = dict(self_s)
        out = {}
        for metric, _, _ in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls[layer]
            elif stat == "s":
                out[metric] = incl[layer]
            elif stat == "self_s":
                out[metric] = self_s[layer]
        solves = sum(1 for i, s in enumerate(spans) if s[0] == "soliton.solve_coefficients" and in_potential[i])
        grid = extra["soliton.potential"]["points"]
        out["soliton.solves_per_grid_point"] = solves / grid if grid else 0.0
        ev = calls["expr.evaluate"]
        out["expr.evaluate.points_per_call"] = extra["expr.evaluate"]["points"] / ev if ev else 0.0
        d = extra["expr.diff"]
        out["expr.diff.out_nodes"] = d["out_nodes"]
        out["expr.diff.unique_frac"] = d["unique"] / d["out_nodes"] if d["out_nodes"] else 0.0
        out["diffpoly.terms_out"] = sum(extra[f"diffpoly.{op}"]["terms"] for op in ("add", "mul", "d_x"))
        ivp = extra["numeric.integrate_ivp"]
        out["numeric.integrate_ivp.steps"] = ivp["steps"]
        out["numeric.integrate_ivp.rhs_evals"] = ivp["rhs_evals"]
        out["numeric.integrate_ivp.accept_ratio"] = (
            ivp["adaptive_steps"] / ivp["adaptive_attempts"] if ivp["adaptive_attempts"] else 0.0
        )
        out["numeric.quadrature.f_evals"] = extra["numeric.quadrature"]["f_evals"]
        out["finitegap.dubrovin_checks.points"] = extra["finitegap.dubrovin_checks"]["points"]
        out["cli.emit.bytes"] = extra["cli.emit"]["bytes"]
        # argv parsing and parser construction: from job start to handler start
        first_handler = {}
        for i, s in enumerate(spans):
            if s[0] == HANDLER and s[3] >= 0 and s[3] not in first_handler:
                first_handler[s[3]] = s[1]
        out["cli.parse.s"] = sum(t - spans[root][1] for root, t in first_handler.items())
        return out


# -- boundary counters ---------------------------------------------------------


def _count_rhs(tracer, span, args, kwargs):
    span[5] = {"rhs_evals": 0}
    if args and callable(args[0]):
        args = (_Counted(args[0], span[5], "rhs_evals"),) + args[1:]
    return args, kwargs


def _time_integrand(tracer, span, args, kwargs):
    span[5] = {"f_evals": 0, "f_s": 0.0, "f_expr": getattr(args[0], "__module__", None) == "riccatikit.expr"}
    return (_Integrand(args[0], span[5], tracer),) + args[1:], kwargs


def _ivp_after(span, args, kwargs, traj):
    steps = len(traj.xs) - 1
    span[5]["steps"] = steps
    fixed = kwargs.get("fixed_step", args[6] if len(args) > 6 else None)
    if fixed is None:
        # Dormand-Prince: one initial evaluation, then six per attempted step
        span[5]["adaptive_steps"] = steps
        span[5]["adaptive_attempts"] = (span[5]["rhs_evals"] - 1) / 6


def _evaluate_after(span, args, kwargs, result):
    span[5] = {"points": _points(args, kwargs)}


def _diff_after(span, args, kwargs, result):
    nodes, unique = _tree_stats(result)
    span[5] = {"out_nodes": nodes, "unique": unique}


def _terms_after(span, args, kwargs, result):
    span[5] = {"terms": len(getattr(result, "coeffs", ()))}


def _potential_after(span, args, kwargs, result):
    span[5] = {"points": 0 if result.grid is None else result.grid.size}


def _dubrovin_after(span, args, kwargs, result):
    span[5] = {"points": len(args[0].xs)}


def _emit_after(span, args, kwargs, result):
    import os

    span[5] = {"bytes": os.path.getsize(args[0])}


_HOOKS = {
    "numeric.integrate_ivp": (_count_rhs, _ivp_after),
    "numeric.quadrature": (_time_integrand, None),
    "expr.evaluate": (None, _evaluate_after),
    "expr.diff": (None, _diff_after),
    "diffpoly.add": (None, _terms_after),
    "diffpoly.mul": (None, _terms_after),
    "diffpoly.d_x": (None, _terms_after),
    "soliton.potential": (None, _potential_after),
    "finitegap.dubrovin_checks": (None, _dubrovin_after),
    "cli.emit": (None, _emit_after),
}


# -- import time -----------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_metrics(stderr_text):
    """Per-layer import figures from ``python -X importtime`` output."""
    total = numpy = own = 0
    for line in stderr_text.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        self_us, cumulative_us, indent, module = int(m[1]), int(m[2]), len(m[3]), m[4]
        if indent == 1:  # top-level imports: their cumulative times add up to the total
            total += cumulative_us
        if module == "numpy":
            numpy = max(numpy, cumulative_us)
        if module == "riccatikit" or module.startswith("riccatikit."):
            own += self_us
    return {"import.total_s": total * 1e-6, "import.numpy_s": numpy * 1e-6,
            "import.riccatikit_self_s": own * 1e-6}
