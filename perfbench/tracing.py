"""Per-layer tracing of the w22 engine from outside the package.

The tracer replaces the public functions of each ``w22`` module with timing
wrappers, in every module that holds a binding to them, so that the lookup
each caller actually performs goes through the wrapper (``identities`` calls
``multiply`` through its own name, ``verma`` calls ``linalg.det`` through the
module).  Calls at module boundaries become spans; hot leaves (``verma.act``,
``Poly`` multiplication and exact division, a few generator constructors)
only keep counts and busy time.  Spans stay in memory until the run writes
them out.  The package source is not touched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("scalars", "algebra", "pbw", "identities", "verma", "linalg", "realizations", "cli")

#: Functions too hot for one span per call: counts and busy time only.
LEAVES = {
    "algebra.L",
    "algebra.I",
    "algebra.bracket",
    "algebra.sigma",
    "algebra.weight",
    "pbw.ue",
    "scalars.parse_rational",
    "verma.act",
    "verma.act_element",
    "verma.apply_word",
    "realizations.witt_action",
    "realizations.intermediate_series_action",
    "scalars.poly_mul",
    "scalars.poly_exact_div",
}

#: What a span or leaf records about its call, from its arguments by name
#: and its result.  A call whose arguments no longer fit records nothing.
OBSERVE = {
    "pbw.normal_order": lambda a, r: {"len": len(a["word"]), "terms": len(r.terms)},
    "verma.gram_matrix": lambda a, r: {"dim": len(r.basis)},
    "verma.shapovalov_det": lambda a, r: {"level": a["n"]},
    "verma.singular_vectors": lambda a, r: {"level": a["n"]},
    "linalg.det": lambda a, r: {"dim": len(a["rows"])},
    "linalg.nullspace": lambda a, r: {"rows": len(a["rows"]), "kernel": len(r)},
    "scalars.poly_exact_div": lambda a, r: {"terms": len(a["self"].terms)},
}


def _observe(observe, signature, args, kwargs, result):
    try:
        return observe(signature.bind(*args, **kwargs).arguments, result)
    except (KeyError, TypeError, AttributeError):
        return None


class Tracer:
    """Spans and leaf aggregates of one run; records only while ``active``."""

    def __init__(self):
        self.active = False
        self.job = None
        self.stack = []  # open calls: [start, time covered by children, span id]
        self.spans = []  # (id, name, start, end, parent id, job, self s, info)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)  # inclusive time, outermost call of a name
        self.self_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.leaf_max = defaultdict(int)
        self._next_id = 0

    def wrap(self, name, fn):
        span = name not in LEAVES
        observe = OBSERVE.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter(name, span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                info = None
                if observe and result is not None:
                    info = _observe(observe, signature, args, kwargs, result)
                self._exit(name, frame, end, info)

        return wrapper

    def _enter(self, name, span):
        sid = None
        if span:
            sid = self._next_id
            self._next_id += 1
        self.depth[name] += 1
        frame = [0.0, 0.0, sid]
        self.stack.append(frame)
        frame[0] = perf_counter()
        return frame

    def _exit(self, name, frame, end, info):
        start, covered, sid = frame
        self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        self.depth[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if not self.depth[name]:
            self.busy[name] += duration
        if sid is None:
            for key, value in (info or {}).items():
                self.leaf_max[f"{name}.{key}"] = max(self.leaf_max[f"{name}.{key}"], value)
            return
        parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
        self.spans.append((sid, name, start, end, parent, self.job, duration - covered, info))

    def install(self):
        """Wrap every public function of every layer, at every binding."""
        modules = {layer: importlib.import_module(f"w22.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for module in [*modules.values(), importlib.import_module("w22")]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        poly = modules["scalars"].Poly
        mul = self.wrap("scalars.poly_mul", poly.__mul__)
        poly.__mul__ = poly.__rmul__ = mul
        poly.exact_div = self.wrap("scalars.poly_exact_div", poly.exact_div)

    def write(self, path):
        """Write the spans as JSON lines."""
        keys = ("id", "name", "start", "end", "parent", "job", "self_s", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def cache_counters():
    """(hits, misses, size) of the engine's kernel caches, read through
    ``cache_info()`` only; None where the cache is gone."""
    from w22 import algebra, verma

    out = {}
    for key, module, attr in (
        ("algebra.bracket_gen", algebra, "bracket_gen"),
        ("verma.act_cache", verma, "_act_on_monomial"),
    ):
        info = getattr(getattr(module, attr, None), "cache_info", None)
        out[key] = (info().hits, info().misses, info().currsize) if info else None
    return out


def _p50_ms(values):
    return statistics.median(values) * 1000 if values else 0.0


def layer_metrics(tracer, cache_deltas, cache_end, overhead_s, speed):
    """Every per-layer metric by name. ``cache_deltas`` maps a cache to its
    summed per-job (hits, misses) or None; ``cache_end`` to its final counters.
    Times are scaled by ``speed`` to reference speed."""
    durations = defaultdict(list)
    infos = defaultdict(list)
    for _, name, start, end, _, _, _, info in tracer.spans:
        durations[name].append(end - start)
        infos[name].append(info or {})

    def by(name, key, value):
        return [d for d, i in zip(durations[name], infos[name]) if i.get(key) == value]

    def info_values(name, key):
        return [i[key] for i in infos[name] if key in i]

    def cache(key, index, source):
        entry = source[key]
        return None if entry is None else entry[index]

    m = {
        "pbw.normal_order.calls": tracer.calls["pbw.normal_order"],
        "pbw.normal_order.s": tracer.busy["pbw.normal_order"],
        "pbw.normal_order.terms_out": sum(info_values("pbw.normal_order", "terms")),
    }
    for n in range(6, 12):
        m[f"pbw.normal_order.len{n}.p50_ms"] = _p50_ms(by("pbw.normal_order", "len", n))
    m.update(
        {
            "pbw.multiply.calls": tracer.calls["pbw.multiply"],
            "pbw.multiply.s": tracer.busy["pbw.multiply"],
            "algebra.bracket_gen.hits": cache("algebra.bracket_gen", 0, cache_deltas),
            "algebra.bracket_gen.misses": cache("algebra.bracket_gen", 1, cache_deltas),
            "algebra.jacobi_report.s": tracer.busy["algebra.jacobi_report"],
            "identities.run_corpus.s": tracer.busy["identities.run_corpus"],
            "cli.main.s": tracer.self_s["cli.main"],
            "verma.act.calls": tracer.calls["verma.act"],
            "verma.act.s": tracer.busy["verma.act"],
            "verma.act_cache.hits": cache("verma.act_cache", 0, cache_deltas),
            "verma.act_cache.misses": cache("verma.act_cache", 1, cache_deltas),
            "verma.act_cache.size_end": cache("verma.act_cache", 2, cache_end),
            "verma.gram_matrix.s": tracer.busy["verma.gram_matrix"],
            "verma.gram_matrix.max_dim": max(info_values("verma.gram_matrix", "dim"), default=0),
            "verma.first_degenerate_level.s": tracer.busy["verma.first_degenerate_level"],
            "verma.i0_matrix.s": tracer.busy["verma.i0_matrix"],
        }
    )
    for n in range(1, 7):
        m[f"verma.singular_vectors.L{n}.p50_ms"] = _p50_ms(by("verma.singular_vectors", "level", n))
    m.update(
        {
            "linalg.nullspace.calls": tracer.calls["linalg.nullspace"],
            "linalg.nullspace.s": tracer.busy["linalg.nullspace"],
            "linalg.nullspace.rows": sum(info_values("linalg.nullspace", "rows")),
            "linalg.nullspace.kernel_dim": sum(info_values("linalg.nullspace", "kernel")),
        }
    )
    for n in range(1, 7):
        m[f"verma.shapovalov_det.L{n}.p50_ms"] = _p50_ms(by("verma.shapovalov_det", "level", n))
    m.update(
        {
            "linalg.det.calls": tracer.calls["linalg.det"],
            "linalg.det.s": tracer.busy["linalg.det"],
            "linalg.det.max_dim": max(info_values("linalg.det", "dim"), default=0),
            "scalars.poly_mul.calls": tracer.calls["scalars.poly_mul"],
            "scalars.poly_mul.s": tracer.busy["scalars.poly_mul"],
            "scalars.poly_exact_div.calls": tracer.calls["scalars.poly_exact_div"],
            "scalars.poly_exact_div.s": tracer.busy["scalars.poly_exact_div"],
            "scalars.poly_terms_max": tracer.leaf_max["scalars.poly_exact_div.terms"],
        }
    )
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            (s for name, s in tracer.self_s.items() if name.split(".")[0] == layer), 0.0
        )
    for name, value in m.items():
        if name.endswith(("_s", ".s", "_ms")):
            m[name] = value * speed
    m["trace.spans"] = len(tracer.spans)
    m["trace.overhead_s"] = overhead_s
    return m
