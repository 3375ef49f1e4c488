"""Per-layer spans around vanishlab's public functions, installed from outside.

``Tracer.install()`` replaces each traced function with a wrapper, both on
the class or module that defines it and in every vanishlab module that
imported it by name, so calls made through any of those bindings are
seen.  A layer's self time is the duration of its spans minus the time
covered by their child spans.  There is one client and no queue, so no
wait time is recorded.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import defaultdict
from time import perf_counter

# Module-level functions under one span name per module; the hot entry
# points of poly, diffops, simplex and polytopes get names of their own.
_MODULE_LAYERS = ("polytopes", "cases", "density", "parsing", "cli")
_NAMED = {
    ("diffops", "apply"): "diffops.apply",
    ("diffops", "vanishing_profile"): "diffops.profile",
    ("simplex", "solve_lp"): "simplex.solve_lp",
    ("polytopes", "orthant_meet"): "polytopes.orthant_meet",
}
_METHODS = {
    ("LaurentPoly", "__init__"): "poly.init",
    ("LaurentPoly", "__mul__"): "poly.mul",
    ("LaurentPoly", "__rmul__"): "poly.mul",
    ("LaurentPoly", "__pow__"): "poly.pow",
    ("TruncSeries", "__mul__"): "poly.series_mul",
    ("TruncSeries", "__rmul__"): "poly.series_mul",
    ("TruncSeries", "__pow__"): "poly.pow",
}

SPANS = ("poly.mul", "poly.pow", "poly.series_mul", "poly.init", "diffops.apply",
         "diffops.profile", "simplex.solve_lp", "polytopes.orthant_meet") + _MODULE_LAYERS


def _nterms(x):
    """Term count of a LaurentPoly or TruncSeries operand; 1 for a scalar."""
    body = getattr(x, "body", x)
    return len(body.terms) if hasattr(body, "terms") else 1


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # one [span name, child seconds] frame per open span

    def _wrap(self, name, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                start = perf_counter()
                count(args, result)
                if stack:
                    # counting is tracing overhead: keep it out of the parent's self time
                    stack[-1][1] += perf_counter() - start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ----- work counts, taken after the span's clock stopped -----

    def _count_poly_mul(self, args, result):
        if result is not NotImplemented:
            self.counts["poly.mul.pairs"] += _nterms(args[0]) * _nterms(args[1])
            self.counts["poly.mul.terms_out"] += len(result.terms)

    def _count_poly_series_mul(self, args, result):
        self.counts["poly.series_mul.pairs"] += _nterms(args[0]) * _nterms(args[1])
        self.counts["poly.series_mul.kept"] += len(result.body.terms)

    def _count_diffops_apply(self, args, result):
        op, operand = args[0], args[1]
        self.counts["diffops.apply.pairs"] += len(op.symbol.terms) * _nterms(operand)
        self.counts["diffops.apply.terms_out"] += _nterms(result)

    def _count_simplex_solve_lp(self, args, result):
        rows, _, objective = args[:3]
        self.counts["simplex.solve_lp.rows"] += len(rows)
        self.counts["simplex.solve_lp.cols"] += len(objective)
        self.counts["simplex.solve_lp.infeasible"] += result[0] == "infeasible"
        # solve_lp's own frame is already popped: the top is its caller
        if self._stack and self._stack[-1][0] == "polytopes.orthant_meet":
            self.counts["polytopes.orthant_meet.lps"] += 1

    def _count_polytopes_orthant_meet(self, args, result):
        self.counts["polytopes.orthant_meet.witnesses"] += type(result).__name__ == "Witness"

    # ----- installation -----

    def install(self):
        """Wrap every traced function and rebind it wherever it is visible."""
        import vanishlab
        from vanishlab import poly

        modules = [vanishlab] + [
            importlib.import_module(f"vanishlab.{info.name}")
            for info in pkgutil.iter_modules(vanishlab.__path__)
        ]
        wrappers = {}
        for (cls_name, attr), name in _METHODS.items():
            cls = getattr(poly, cls_name)
            fn = cls.__dict__[attr]
            wrappers.setdefault(id(fn), (fn, self._wrap(name, fn)))
            setattr(cls, attr, wrappers[id(fn)][1])
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = _NAMED.get((short, attr))
                if name is None and short in _MODULE_LAYERS and not attr.startswith("_"):
                    name = short
                if name is not None:
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])

    def metrics(self):
        """Per-layer metrics: calls and self seconds per span plus work counts."""
        c = self.counts
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for key in ("poly.mul.pairs", "poly.mul.terms_out", "diffops.apply.pairs",
                    "diffops.apply.terms_out", "simplex.solve_lp.rows", "simplex.solve_lp.cols"):
            out[key] = c[key]
        out["poly.series_mul.kept_per_pair"] = _ratio(c["poly.series_mul.kept"],
                                                      c["poly.series_mul.pairs"])
        out["simplex.solve_lp.infeasible_frac"] = _ratio(c["simplex.solve_lp.infeasible"],
                                                         self.calls["simplex.solve_lp"])
        meets = self.calls["polytopes.orthant_meet"]
        out["polytopes.orthant_meet.lps_per_query"] = _ratio(c["polytopes.orthant_meet.lps"], meets)
        out["polytopes.orthant_meet.witness_frac"] = _ratio(
            c["polytopes.orthant_meet.witnesses"], meets)
        return out


def _ratio(num, den):
    return num / den if den else 0.0
