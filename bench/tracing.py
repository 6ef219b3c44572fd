"""Spans around glspec's public functions, recorded from outside the package.

`Tracer.install` replaces each public function of a layer module by a
wrapper in every glspec namespace that holds it, including names bound by
`from .x import y` (so `semigroup.w_eval`, `quad.r_coeffs_mp` and each
module's `mp_ctx` are seen too).  A span is (name, start, end, parent); the
spans stay in memory until `metrics` turns them into per-layer numbers and
`save` writes them out.

`mp_ctx` is recorded apart from the span tree: the time inside its block is
`core.mp_ctx.busy_s`, and the work there stays in the self time of the
function that opened the block.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("core", "specfun", "eigen", "coeigen", "density", "quad", "semigroup",
          "asymptotics")
KERNEL_SUMS = ("semigroup.heat_kernel", "semigroup.selfsimilar_kernel")

#: scalar helpers called once per series term or quadrature node (millions of
#: calls in one verify run); a span there would cost more than the call, so
#: they stay unwrapped and their time counts in their caller's self time
UNWRAPPED = ("specfun.log_gamma", "specfun.rgamma_c", "specfun.gammaln_ratio",
             "specfun.log_abs_gamma", "specfun.gamma_sign", "eigen.laguerre_eval")


class _CtxSpan:
    """Context manager returned by the traced `mp_ctx`."""

    __slots__ = ("tracer", "inner", "dps", "start")

    def __init__(self, tracer, inner, dps):
        self.tracer, self.inner, self.dps = tracer, inner, dps

    def __enter__(self):
        self.start = perf_counter()
        return self.inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self.inner.__exit__(*exc)
        finally:
            t = self.tracer
            t.ctx_busy += perf_counter() - self.start
            t.ctx_calls += 1
            t.ctx_dps_max = max(t.ctx_dps_max, self.dps)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.layers = {name: importlib.import_module(f"{package.__name__}.{name}")
                       for name in LAYERS}
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_error = array("b")
        self.stack: list[int] = []
        self.ctx_busy = 0.0
        self.ctx_calls = 0
        self.ctx_dps_max = 0
        self.series_escalated = 0
        self.series_terms = 0
        self.series_results = 0
        self.originals: list = []          # (namespace, attribute, original)
        self.caches: dict = {}             # span name -> (function, cache_info at install)

    # -- wrapping ----------------------------------------------------------

    def _public_functions(self):
        for layer, mod in self.layers.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name not in UNWRAPPED and (inspect.isfunction(obj)
                                              or hasattr(obj, "cache_info")):
                    yield name, obj

    def _wrap(self, name: str, fn):
        if name == "core.mp_ctx":
            @functools.wraps(fn)
            def ctx(dps):
                return _CtxSpan(self, fn(dps), dps)
            return ctx

        nid = len(self.names)
        self.names.append(name)
        spans_name, start, end = self.span_name, self.span_start, self.span_end
        parent, error, stack = self.span_parent, self.span_error, self.stack
        series = name == "specfun.eval_series"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans_name)
            spans_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            error.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                error[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if series:
                self.series_results += 1
                self.series_terms += out.terms_used
                self.series_escalated += out.dps_used > 0
            return out
        return traced

    def install(self) -> None:
        namespaces = [self.package, importlib.import_module(f"{self.package.__name__}.cli")]
        namespaces += self.layers.values()
        for name, fn in list(self._public_functions()):
            wrapper = self._wrap(name, fn)
            if hasattr(fn, "cache_info"):
                self.caches[name] = (fn, fn.cache_info())
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if obj is fn:
                        self.originals.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self.originals):
            setattr(ns, attr, fn)
        self.originals.clear()

    # -- results -----------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        return name, start, end, parent

    def metrics(self, wall_s: float, values: int) -> dict:
        """Per-layer numbers of a traced pass that took wall_s and computed
        `values` op results."""
        name, start, end, parent = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_by_name = np.bincount(name, weights=self_s, minlength=k)
        errors = np.bincount(name, weights=np.frombuffer(self.span_error, dtype=np.int8),
                             minlength=k)
        idx = {n: i for i, n in enumerate(self.names)}

        def calls_of(n):
            return int(calls[idx[n]]) if n in idx else 0

        def self_of(n):
            return float(self_by_name[idx[n]]) if n in idx else 0.0

        def hit_ratio(n):
            fn, before = self.caches[n]
            after = fn.cache_info()
            hits, misses = after.hits - before.hits, after.misses - before.misses
            return hits / (hits + misses) if hits + misses else 0.0

        out = {
            "core.mp_ctx.calls": self.ctx_calls,
            "core.mp_ctx.busy_s": self.ctx_busy,
            "core.mp_ctx.dps_max": self.ctx_dps_max,
            "specfun.eval_series.calls": calls_of("specfun.eval_series"),
            "specfun.eval_series.self_s": self_of("specfun.eval_series"),
            "specfun.eval_series.escalated_frac":
                self.series_escalated / self.series_results if self.series_results else 0.0,
            "specfun.eval_series.terms_mean":
                self.series_terms / self.series_results if self.series_results else 0.0,
            "specfun.bell_table.self_s": self_of("specfun.bell_table"),
            "eigen.p_coeffs.hit_ratio": hit_ratio("eigen.p_coeffs"),
            "eigen.p_coeffs.self_s": self_of("eigen.p_coeffs"),
            "eigen.p_eval.calls": calls_of("eigen.p_eval"),
            "eigen.p_eval.self_s": self_of("eigen.p_eval"),
            "coeigen.r_coeffs.hit_ratio": hit_ratio("coeigen.r_coeffs"),
            "coeigen.r_coeffs_mp.calls": calls_of("coeigen.r_coeffs_mp"),
            "coeigen.r_coeffs_mp.self_s": self_of("coeigen.r_coeffs_mp"),
            "coeigen.r_eval_bell.self_s": self_of("coeigen.r_eval_bell"),
            "coeigen.w_eval_wright.calls": calls_of("coeigen.w_eval_wright"),
            "coeigen.w_eval_wright.self_s": self_of("coeigen.w_eval_wright"),
            "coeigen.w_eval_mellin.self_s": self_of("coeigen.w_eval_mellin"),
            "density.lambda_value.self_s": self_of("density.lambda_value"),
            "density.lambda_mellin_value.calls": calls_of("density.lambda_mellin_value"),
            "density.markov_lambda_apply.self_s": self_of("density.markov_lambda_apply"),
            "quad.build_rule.calls": calls_of("quad.build_rule"),
            "quad.build_rule.hit_ratio": hit_ratio("quad.build_rule"),
            "quad.build_rule.self_s": self_of("quad.build_rule"),
            "quad.build_rule.errors": int(errors[idx["quad.build_rule"]]),
            "quad.gram_biorth.self_s": self_of("quad.gram_biorth"),
            "quad.r_norm.self_s": self_of("quad.r_norm"),
            "semigroup.heat_kernel.self_s": self_of("semigroup.heat_kernel"),
            "semigroup.selfsimilar_kernel.self_s": self_of("semigroup.selfsimilar_kernel"),
            "semigroup.terms_per_value": self._terms_per_value(name, parent, idx),
            "semigroup.generator_apply.self_s": self_of("semigroup.generator_apply"),
            "semigroup.intertwine_check.self_s": self_of("semigroup.intertwine_check"),
            "asymptotics.bound_region_check.self_s": self_of("asymptotics.bound_region_check"),
        }
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.int64)
        per_layer = np.bincount(layer_of, weights=self_by_name, minlength=len(LAYERS))
        for layer, s in zip(LAYERS, per_layer):
            out[f"layer.{layer}.self_share"] = float(s) / wall_s
        out["trace.unattributed_frac"] = 1.0 - float(per_layer.sum()) / wall_s
        out["trace.spans"] = int(name.size)
        out["trace.values"] = values
        return out

    def _terms_per_value(self, name, parent, idx) -> float:
        kernels = [idx[n] for n in KERNEL_SUMS if n in idx]
        if not kernels or "coeigen.w_eval" not in idx:
            return 0.0
        is_kernel = np.isin(name, kernels)
        w_spans = (name == idx["coeigen.w_eval"]) & (parent >= 0)
        under_kernel = np.zeros_like(w_spans)
        under_kernel[w_spans] = is_kernel[parent[w_spans]]
        n_values = int(is_kernel.sum())
        return int(under_kernel.sum()) / n_values if n_values else 0.0

    def save(self, path: Path) -> None:
        """Write every span as arrays: names, name index, start, end, parent."""
        name, start, end, parent = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start,
                            end=end, parent=parent)
