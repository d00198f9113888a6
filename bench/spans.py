"""Per-module spans for the traced benchmark run, recorded from outside `src/`.

Every binding of every public cycloseq function (the defining module's, the
package re-exports and names other modules pulled in with `from .x import y`)
is replaced by one wrapper per function, plus `RecordCache.get`/`append`.
A wrapper times its call as a span; a span's self time is its duration minus
the time its child spans cover.  Spans are aggregated per bucket (a module
layer such as `measures.bm`) as they close, together with work counters read
from the call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter

# Bucket of each traced function, by "<module>.<qualname>".  Everything in cli
# lands in "cli"; public functions listed nowhere land in "other".
BUCKETS = {
    "measures.correlation_measure_exact": "measures.ck_exact",
    "measures.correlation_measure_sampled": "measures.ck_sampled",
    "measures.correlation_for_shifts": "measures.ck_sampled",
    "measures.berlekamp_massey_profile": "measures.bm",
    "measures.max_order_complexity_profile": "measures.moc",
    "measures.max_order_complexity_naive": "measures.moc",
    "measures.periodic_autocorrelation": "measures.autocorr",
    "measures.two_adic_complexity": "measures.two_adic",
    "bounds.check_bw06": "bounds.ineq",
    "bounds.check_iw17": "bounds.ineq",
    "bounds.difference_set_check": "bounds.diffset",
    "ntheory.find_primitive_root": "ntheory.find_primitive_root",
    "ntheory.build_index_table": "ntheory.build_index_table",
    "seqgen.hall_sequence": "seqgen.construct",
    "seqgen.legendre_sequence": "seqgen.construct",
    "seqgen.dhl_sequence": "seqgen.construct",
    "seqgen.cyclotomic_sequence": "seqgen.construct",
    "seqgen.hall_sequence_via_characters": "seqgen.via_characters",
    "seqgen.delta_decomposition": "seqgen.via_characters",
    "seqgen.delta1": "seqgen.via_characters",
    "seqgen.delta2": "seqgen.via_characters",
    "seqgen.check_index_representation": "seqgen.index_repr",
    "seqgen.permutation_map_f": "seqgen.index_repr",
    "seqgen.read_sequence": "seqgen.io",
    "seqgen.write_sequence": "seqgen.io",
    "charsum.character_sum": "charsum.character_sum",
    "charsum.weil_check": "charsum.weil_check",
    "records.RecordCache.get": "records.get",
    "records.RecordCache.append": "records.append",
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _file_size(path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


# Counter hooks: (counters, args, kwargs, result, exc, before) -> None, where
# `before` is what the function's pre-hook returned just before the call.
def _ck_exact(c, a, kw, res, exc, before):
    if exc is None:
        n, k = _arg(a, kw, 0, "seq").length, _arg(a, kw, 1, "k")
        c["nominal_windows"] += math.comb(n, k) * n
    elif type(exc).__name__ == "BudgetExceeded":
        c["refused"] += 1


def _ck_sampled(c, a, kw, res, exc, before):
    c["samples"] += _arg(a, kw, 2, "samples")


def _bits_in(c, a, kw, res, exc, before):
    c["bits"] += _arg(a, kw, 0, "seq").length


def _two_adic(c, a, kw, res, exc, before):
    if type(exc).__name__ == "CapExceeded":
        c["refused"] += 1


def _ineq(c, a, kw, res, exc, before):
    if exc is None:
        mode = res.inputs.get("mode")
        key = {"exact": "exact", "certified-partial": "certified"}.get(mode, "not_applicable")
        c[key] += 1


def _index_table(c, a, kw, res, exc, before):
    c["entries"] += _arg(a, kw, 0, "p")


def _bits_out(c, a, kw, res, exc, before):
    if exc is None:
        c["bits"] += res.length


def _charsum(c, a, kw, res, exc, before):
    c["terms"] += _arg(a, kw, 0, "query").window - 1


def _cache_get(c, a, kw, res, exc, before):
    c["hits"] += res is not None
    c["bytes_read"] += before


def _cache_append(c, a, kw, res, exc, before):
    c["bytes"] += _file_size(a[0].path) - before


HOOKS = {
    "measures.correlation_measure_exact": _ck_exact,
    "measures.correlation_measure_sampled": _ck_sampled,
    "measures.berlekamp_massey_profile": _bits_in,
    "measures.max_order_complexity_profile": _bits_in,
    "measures.two_adic_complexity": _two_adic,
    "bounds.check_bw06": _ineq,
    "bounds.check_iw17": _ineq,
    "ntheory.build_index_table": _index_table,
    "seqgen.hall_sequence": _bits_out,
    "seqgen.legendre_sequence": _bits_out,
    "seqgen.dhl_sequence": _bits_out,
    "seqgen.cyclotomic_sequence": _bits_out,
    "charsum.character_sum": _charsum,
    "records.RecordCache.get": _cache_get,
    "records.RecordCache.append": _cache_append,
}
PRE_HOOKS = {
    "records.RecordCache.get": lambda a, kw: _file_size(a[0].path),
    "records.RecordCache.append": lambda a, kw: _file_size(a[0].path),
}


class Tracer:
    """Installs span wrappers into the cycloseq modules and aggregates them."""

    def __init__(self):
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.root_s = 0.0  # time covered by spans that have no parent span
        self._stack: list[float] = []  # per open span: time covered by its children
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, qual: str, bucket: str):
        hook = HOOKS.get(qual)
        pre = PRE_HOOKS.get(qual)
        stack = self._stack
        counters = self.counters

        @functools.wraps(fn)
        def span(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            exc = res = None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
                return res
            except Exception as e:
                exc = e
                raise
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt
                c = counters[bucket]
                c["calls"] += 1
                c["self_s"] += dt - children
                if hook:
                    hook(c, args, kwargs, res, exc, before)

        span.__bench_span__ = bucket
        return span

    def install(self) -> None:
        """Wrap every binding; raise if any public function stays unwrapped."""
        wrappers: dict[int, object] = {}

        def wrapper_for(fn):
            if id(fn) not in wrappers:
                short = fn.__module__.split(".", 1)[1]
                qual = f"{short}.{fn.__qualname__}"
                bucket = "cli" if short == "cli" else BUCKETS.get(qual, "other")
                wrappers[id(fn)] = self._wrap(fn, qual, bucket)
            return wrappers[id(fn)]

        for ns in _cycloseq_modules():
            for name, obj in list(vars(ns).items()):
                if _is_public_function(name, obj):
                    self._restore.append((ns, name, obj))
                    setattr(ns, name, wrapper_for(obj))
        cache_cls = sys.modules["cycloseq.records"].RecordCache
        for name in ("get", "append"):
            fn = vars(cache_cls)[name]
            self._restore.append((cache_cls, name, fn))
            setattr(cache_cls, name, wrapper_for(fn))
        missed = unwrapped_bindings()
        if missed:
            self.uninstall()
            raise RuntimeError(f"public functions left unwrapped: {missed}")

    def uninstall(self) -> None:
        while self._restore:
            owner, name, obj = self._restore.pop()
            setattr(owner, name, obj)


def _is_public_function(name: str, obj) -> bool:
    return (
        inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__.startswith("cycloseq.")
        and not hasattr(obj, "__bench_span__")
    )


def _cycloseq_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "cycloseq" or name.startswith("cycloseq.")]


def unwrapped_bindings() -> list[str]:
    """Names in the cycloseq namespaces that still bind an unwrapped public function."""
    out = []
    for mod in _cycloseq_modules():
        for attr, obj in vars(mod).items():
            if _is_public_function(attr, obj):
                out.append(f"{mod.__name__}.{attr}")
    cache_cls = sys.modules["cycloseq.records"].RecordCache
    out += [f"RecordCache.{m}" for m in ("get", "append") if _is_public_function(m, getattr(cache_cls, m))]
    return out


# Per-layer metrics: (name, unit, better).  Values are per traced pass.
def _layer(bucket, extra=()):
    return [(f"{bucket}.calls", "count", "lower"), (f"{bucket}.self_s", "s", "lower"), *extra]


PER_LAYER = [
    *_layer("cli"),
    *_layer("measures.ck_exact", [
        ("measures.ck_exact.refused", "count", "lower"),
        ("measures.ck_exact.nominal_windows", "count", "higher"),
        ("measures.ck_exact.nominal_windows_per_s", "1/s", "higher"),
    ]),
    *_layer("measures.ck_sampled", [("measures.ck_sampled.samples", "count", "higher")]),
    *_layer("measures.bm", [
        ("measures.bm.bits", "bits", "higher"),
        ("measures.bm.bits_per_s", "bits/s", "higher"),
    ]),
    *_layer("measures.moc", [("measures.moc.bits", "bits", "higher")]),
    *_layer("measures.autocorr"),
    *_layer("measures.two_adic", [("measures.two_adic.refused", "count", "lower")]),
    *_layer("bounds.ineq", [
        ("bounds.ineq.exact", "count", "higher"),
        ("bounds.ineq.certified", "count", "higher"),
        ("bounds.ineq.not_applicable", "count", "lower"),
        ("bounds.ineq.resolved_ratio", "ratio", "higher"),
    ]),
    *_layer("bounds.diffset"),
    *_layer("ntheory.find_primitive_root"),
    *_layer("ntheory.build_index_table", [("ntheory.build_index_table.entries", "count", "higher")]),
    *_layer("seqgen.construct", [("seqgen.construct.bits", "bits", "higher")]),
    *_layer("seqgen.via_characters"),
    *_layer("seqgen.index_repr"),
    *_layer("seqgen.io"),
    *_layer("charsum.character_sum", [("charsum.character_sum.terms", "count", "higher")]),
    *_layer("charsum.weil_check"),
    *_layer("records.get", [
        ("records.get.hits", "count", "higher"),
        ("records.get.hit_ratio", "ratio", "higher"),
        ("records.get.bytes_read", "bytes", "lower"),
    ]),
    *_layer("records.append", [("records.append.bytes", "bytes", "lower")]),
    *_layer("other"),
    ("untraced_s", "s", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
]

SELF_TIME_BUCKETS = [name[: -len(".self_s")] for name, _, _ in PER_LAYER if name.endswith(".self_s")]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(counters: dict, passes: int) -> dict[str, float]:
    """Per-pass averages of the bucket counters, plus the derived ratios and rates."""
    unknown = set(counters) - set(SELF_TIME_BUCKETS)
    if unknown:
        raise RuntimeError(f"spans in buckets the metric list does not name: {sorted(unknown)}")
    out = {}
    for name, _, _ in PER_LAYER:
        bucket, _, field = name.rpartition(".")
        if bucket:
            out[name] = counters.get(bucket, {}).get(field, 0.0) / passes
    ck, bm, ineq, get = (counters.get(b, {}) for b in
                         ("measures.ck_exact", "measures.bm", "bounds.ineq", "records.get"))
    out["measures.ck_exact.nominal_windows_per_s"] = _ratio(ck.get("nominal_windows", 0), ck.get("self_s", 0))
    out["measures.bm.bits_per_s"] = _ratio(bm.get("bits", 0), bm.get("self_s", 0))
    out["bounds.ineq.resolved_ratio"] = _ratio(ineq.get("exact", 0) + ineq.get("certified", 0),
                                               ineq.get("calls", 0))
    out["records.get.hit_ratio"] = _ratio(get.get("hits", 0), get.get("calls", 0))
    return out
