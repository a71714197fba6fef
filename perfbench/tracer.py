"""Outside-in call tracing for the traced benchmark run.

`Tracer.install()` wraps the public functions of each poissonsym module
(plus `MetricSpace` construction, the first access of each derived tensor
and the `sympy.lambdify` compile boundary) in timing wrappers.  Modules bind
names at import (`from .exprcore import is_zero`), so every module-level
binding of a wrapped function is replaced, and the original function object
is diverted: a call that still reaches it through some binding the tracer
did not see is counted as missed instead of silently escaping the trace.

Each wrapped call records a span (name, parent span, start, end) in memory;
self time is a span's duration minus the time its direct child spans cover.
Nothing here is imported by the untraced benchmark processes.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from array import array
from collections import Counter

#: layer -> public functions wrapped at module level
FUNCTIONS = {
    "exprcore": ("normalize", "is_zero", "parse", "eval_num"),
    "geom": ("lie_derivative_metric", "laplace_beltrami", "conformal_check",
             "lie_bracket"),
    "detsys": ("solve_linear_ansatz", "classify", "determining_residuals",
               "poisson_equation"),
    "noether": ("prolong_apply", "noether_classify", "build_current",
                "verify_current_symbolic", "verify_current_numeric"),
    "catalog": ("load", "reconcile_reference_tables", "run_fixture_suite"),
    "cli": ("export_fixture", "load_manifest", "main"),
}

#: MetricSpace cached properties timed together as `geom.tensors`
TENSORS = ("g_inv", "det_g", "sqrt_det", "christoffel", "gamma_contracted",
           "riemann", "ricci", "scalar_curvature")

LAYERS = ("compile", "exprcore", "geom", "detsys", "noether", "catalog", "cli")

#: every span name the tracer can record
SPAN_NAMES = (("compile.lambdify", "geom.MetricSpace", "geom.tensors")
              + tuple(f"{layer}.{fn}" for layer, fns in FUNCTIONS.items()
                      for fn in fns))

_MISS_HOOK = "__perfbench_missed__"


def _count_is_zero(counts, verdict):
    counts[f"exprcore.is_zero.{verdict.value}"] += 1


def _count_solve(counts, result):
    counts["detsys.solve.nullspace_dim"] += result.nullspace_dim
    counts["detsys.solve.generators"] += len(result.generators)
    counts["detsys.solve.inconclusive"] += len(result.inconclusive)


def _count_kind(counts, verdict):
    counts[f"noether.kind.{verdict.kind.value}"] += 1


def _count_symbolic(counts, ok):
    counts["noether.verify_current_symbolic.passed"] += bool(ok)


def _count_numeric(counts, result):
    counts["noether.verify_current_numeric.passed"] += bool(result.passed)


def _count_suite(counts, report):
    counts["catalog.checks.attempted"] += len(report.checks)
    counts["catalog.checks.failed"] += sum(
        1 for c in report.checks if c.severity == "error" and not c.passed)


#: verdict counters read from the public return value of a wrapped call
COUNTERS = {
    "exprcore.is_zero": _count_is_zero,
    "detsys.solve_linear_ansatz": _count_solve,
    "noether.noether_classify": _count_kind,
    "noether.verify_current_symbolic": _count_symbolic,
    "noether.verify_current_numeric": _count_numeric,
    "catalog.run_fixture_suite": _count_suite,
}


def _clone(fn):
    """A fresh function object running fn's code in fn's module."""
    twin = types.FunctionType(fn.__code__, fn.__globals__, fn.__name__,
                              fn.__defaults__, fn.__closure__)
    twin.__kwdefaults__ = fn.__kwdefaults__
    twin.__qualname__ = fn.__qualname__
    twin.__dict__.update(fn.__dict__)
    return twin


def _miss_code(name: str, fname: str):
    """Code for a stub that reports a call as missed, then runs it."""
    src = (f"def {fname}(*args, **kwargs):\n"
           f"    return {_MISS_HOOK}({name!r}, args, kwargs)\n")
    scope = {}
    exec(compile(src, f"<untraced {name}>", "exec"), scope)
    return scope[fname].__code__


class Tracer:
    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.calls = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        self.counts = Counter()
        self.missed = Counter()            # "name <- caller module" -> calls
        self.unrebound = []                # bindings left on an original
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("q")
        self._span_end = array("q")
        self._stack = []                   # [span index, child ns] per open span
        self._inner = {}

    # -- recording -------------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._ids[name]
        count = COUNTERS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0)
            ends.append(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx], ends[idx] = t0, t1
                self.calls[nid] += 1
                self.self_ns[nid] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if count is not None:
                count(self.counts, result)
            return result
        return traced

    def _record_miss(self, name, args, kwargs):
        caller = sys._getframe(2).f_globals.get("__name__", "?")
        self.missed[f"{name} <- {caller}"] += 1
        return self._inner[name](*args, **kwargs)

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every traced function at every binding in the package."""
        import sympy
        from poissonsym import catalog, cli, detsys, exprcore, geom, noether
        modules = {"exprcore": exprcore, "geom": geom, "detsys": detsys,
                   "noether": noether, "catalog": catalog, "cli": cli}
        package = [m for key, m in sys.modules.items()
                   if key == "poissonsym" or key.startswith("poissonsym.")]
        originals = {}
        for layer, fnames in FUNCTIONS.items():
            for fname in fnames:
                name = f"{layer}.{fname}"
                orig = getattr(modules[layer], fname)
                inner = _clone(orig)
                traced = self.wrap(name, inner)
                for mod in package:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, traced)
                self._inner[name] = inner
                originals[name] = orig
        for name, orig in originals.items():
            orig.__globals__[_MISS_HOOK] = self._record_miss
            orig.__code__ = _miss_code(name, orig.__name__)

        space = geom.MetricSpace
        space.__init__ = self.wrap("geom.MetricSpace", space.__init__)
        for attr in TENSORS:
            prop = space.__dict__[attr]
            prop.func = self.wrap("geom.tensors", prop.func)
        lambdify = sympy.lambdify
        sympy.lambdify = self.wrap("compile.lambdify", lambdify)

        # a binding still holding an original would bypass the wrapper
        watched = {id(o): n for n, o in originals.items()}
        watched[id(lambdify)] = "compile.lambdify"
        for mod in package:
            for key, val in vars(mod).items():
                if id(val) in watched:
                    self.unrebound.append(
                        f"{mod.__name__}.{key} -> {watched[id(val)]}")

    # -- output ----------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": {n: self.calls[i] for i, n in enumerate(SPAN_NAMES)},
            "self_s": {n: self.self_ns[i] / 1e9
                       for i, n in enumerate(SPAN_NAMES)},
            "counts": dict(self.counts),
            "missed": dict(self.missed),
            "unrebound": list(self.unrebound),
            "spans": len(self._span_start),
        }

    def write_spans(self, path, request: str):
        """Spans as gzipped TSV; `request` ties them to one benchmark
        request."""
        with gzip.open(path, "wt") as fh:
            fh.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self._span_start)):
                fh.write(f"{request}\t{i}\t{self._span_parent[i]}\t"
                         f"{SPAN_NAMES[self._span_name[i]]}\t"
                         f"{self._span_start[i]}\t{self._span_end[i]}\n")
