"""Span tracing of lahbell's public functions, installed from outside the package.

`Tracer.install` replaces each traced function, in every lahbell module that
holds a reference to it, by a wrapper that times the call. A span's self time
is its duration minus the time its traced children took. The hot callees run
10^5-10^6 times per run, so spans are aggregated per (bucket, parent bucket)
instead of being stored one by one; only the per-op root spans are kept
whole. Everything stays in memory until the run ends.

Each bucket is one layer's kind of work. The bucket self times plus the
op-level self time (benchmark code and untraced calls between spans) add up
to the traced op wall time exactly.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# bucket -> traced names; "Class.method" names are patched on the class.
TRACED = {
    "exact_core.factor": ("exact_core", (
        "falling_factorial", "rising_factorial", "degenerate_falling_factorial")),
    "exact_core.triangle": ("exact_core", ("TriangleCache.row", "TriangleCache.value")),
    "exact_core.exp": ("exact_core", (
        "degenerate_exp_eval", "degenerate_exp_exact", "degenerate_exp_series")),
    "polynomials.build": ("polynomials", (
        "monomial", "bell_polynomial", "bell_number", "lah_bell_polynomial", "lah_bell_number",
        "degenerate_bell_polynomial", "degenerate_lah_bell_polynomial",
        "degenerate_lah_bell_polynomial_via_bell", "lah_bell_series_coefficients")),
    "polynomials.eval": ("polynomials", (
        "RationalPolynomial.evaluate", "evaluate_degenerate", "y_substitution",
        "lahbell_from_bell", "bell_from_lahbell_degenerate")),
    "distributions.construct": ("distributions", (
        "DegenerateBinomial.__post_init__", "DegeneratePoisson.__post_init__")),
    "distributions.mass": ("distributions", (
        "DegenerateBinomial.pmf", "DegenerateBinomial.masses", "DegenerateBinomial.normalizer",
        "DegenerateBinomial.support_cutoff", "DegeneratePoisson.pmf", "DegeneratePoisson.masses")),
    "distributions.moment": ("distributions", (
        "DegenerateBinomial.mean", "DegenerateBinomial.variance", "DegenerateBinomial.raw_moment",
        "DegenerateBinomial.falling_factorial_moment", "DegenerateBinomial.rising_factorial_moment",
        "DegenerateBinomial.mgf", "DegenerateBinomial.pgf",
        "DegeneratePoisson.mean", "DegeneratePoisson.variance", "DegeneratePoisson.mean_variance",
        "DegeneratePoisson.raw_moment", "DegeneratePoisson.falling_factorial_moment",
        "DegeneratePoisson.rising_factorial_moment", "DegeneratePoisson.pgf",
        "moment_direct", "pgf_direct")),
    "distributions.support": ("distributions", ("analyze_support",)),
    "montecarlo.draw": ("montecarlo", ("draw_samples", "sample")),
    "montecarlo.cdf": ("montecarlo", ("_cumulative_table",)),
    "montecarlo.reduce": ("montecarlo", ("estimate_moment", "estimate_moment_partitioned")),
    "montecarlo.verify": ("montecarlo", ("verify_identity", "run_suite", "suite_instances")),
    "cli.main": ("cli", ("main",)),
}

# traced name -> index of the positional size argument (order n, draw count)
SIZE_ARGS = {
    "falling_factorial": 1, "rising_factorial": 1, "degenerate_falling_factorial": 1,
    "draw_samples": 1,
}

SUBMODULES = ("exact_core", "polynomials", "distributions", "montecarlo", "cli")

# Per-layer time metrics, one per bucket, in report order.
SELF_METRICS = {
    "exact_core.factor": "exact_core.factor_self_s",
    "exact_core.triangle": "exact_core.triangle_self_s",
    "exact_core.exp": "exact_core.exp_self_s",
    "polynomials.build": "polynomials.build_self_s",
    "polynomials.eval": "polynomials.eval_self_s",
    "distributions.construct": "distributions.construct_self_s",
    "distributions.mass": "distributions.mass_self_s",
    "distributions.moment": "distributions.moment_self_s",
    "distributions.support": "distributions.support_self_s",
    "montecarlo.draw": "montecarlo.draw_self_s",
    "montecarlo.cdf": "montecarlo.cdf_self_s",
    "montecarlo.reduce": "montecarlo.reduce_self_s",
    "montecarlo.verify": "montecarlo.verify_self_s",
    "cli.main": "cli.self_s",
}


class Tracer:
    def __init__(self):
        self._stack = [["-", 0.0]]  # frames of [bucket, traced child time]
        self.edges: dict[tuple[str, str], list] = {}  # (bucket, parent) -> [calls, total_s, self_s]
        self.calls: Counter = Counter()  # traced name -> calls
        self.sizes: Counter = Counter()  # traced name -> sum of its size argument
        self.op_spans: list[tuple[int, float, float, float]] = []  # (op id, start, end, self_s)
        self._cdf_cache = None

    def _wrap(self, fn, name: str, bucket: str):
        stack, edges, calls, sizes = self._stack, self.edges, self.calls, self.sizes
        size_arg = SIZE_ARGS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [bucket, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent[1] += duration
                edge = edges.get((bucket, parent[0]))
                if edge is None:
                    edge = edges[(bucket, parent[0])] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[1]
                calls[name] += 1
                if size_arg is not None and len(args) > size_arg:
                    sizes[name] += args[size_arg]

        return functools.update_wrapper(traced, fn)

    def install(self, lahbell) -> None:
        modules = [lahbell] + [getattr(lahbell, sub) for sub in SUBMODULES]
        for bucket, (module_name, names) in TRACED.items():
            module = getattr(lahbell, module_name)
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    if isinstance(original, property):
                        wrapped = property(self._wrap(original.fget, attr, bucket))
                    else:
                        wrapped = self._wrap(original, attr, bucket)
                    setattr(cls, attr, wrapped)
                    continue
                original = getattr(module, name)
                if name == "_cumulative_table":
                    self._cdf_cache = original
                wrapped = self._wrap(original, name, bucket)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def cdf_cache_info(self):
        return self._cdf_cache.cache_info()

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._stack.append(["op", 0.0])
        self._op_start = perf_counter()

    def end_op(self) -> None:
        end = perf_counter()
        frame = self._stack.pop()
        self.op_spans.append((self._op_id, self._op_start, end, end - self._op_start - frame[1]))

    def metrics(self, cdf_before, stdout_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the ops traced so far."""
        self_s = Counter()
        for (bucket, _), (_, _, own) in self.edges.items():
            self_s[bucket] += own
        calls = self.calls
        factor_names = TRACED["exact_core.factor"][1]
        lookups = sum(edge[0] for (bucket, parent), edge in self.edges.items()
                      if bucket == "exact_core.triangle" and parent != "exact_core.triangle")
        instances = calls["__post_init__"]
        masses_calls = calls["masses"]
        cdf_after = self.cdf_cache_info()
        hits = cdf_after.hits - cdf_before.hits
        misses = cdf_after.misses - cdf_before.misses
        op_wall = sum(end - start for _, start, end, _ in self.op_spans)
        unaccounted = sum(own for *_, own in self.op_spans)
        out = {
            "exact_core.factor_calls": sum(calls[n] for n in factor_names),
            "exact_core.factor_terms": sum(self.sizes[n] for n in factor_names),
            "exact_core.triangle_lookups": lookups,
            "polynomials.build_calls": sum(calls[n] for n in TRACED["polynomials.build"][1]),
            "distributions.instances": instances,
            "distributions.masses_calls": masses_calls,
            "distributions.pmf_calls": calls["pmf"],
            "distributions.masses_per_instance": masses_calls / instances if instances else 0.0,
            "montecarlo.draws": self.sizes["draw_samples"] + calls["sample"],
            "montecarlo.cdf_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "montecarlo.verify_calls": calls["verify_identity"],
            "cli.stdout_bytes": stdout_bytes,
            "trace.ops": len(self.op_spans),
            "trace.op_wall_s": op_wall,
            "trace.unaccounted_share": unaccounted / op_wall if op_wall else 0.0,
        }
        for bucket, metric in SELF_METRICS.items():
            out[metric] = float(self_s[bucket])
        return out

    def edge_table(self) -> list[dict]:
        return [{"bucket": bucket, "parent": parent, "calls": calls, "total_s": total, "self_s": own}
                for (bucket, parent), (calls, total, own) in sorted(self.edges.items())]
