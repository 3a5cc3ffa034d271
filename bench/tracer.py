"""Span tracer installed from outside the program.

``Tracer.install()`` replaces the public entry points of each qharmonic layer
with timing wrappers.  A function is replaced under every name that binds it in
any loaded ``qharmonic`` module (``verify`` binds ``c_value`` itself, the
package re-exports most names), and a method under every class attribute that
aliases it (``QPoly.__rmul__`` is ``__mul__``).

Two kinds of wrapper keep a stack of open frames, so a layer's self time is
its inclusive time minus the time covered by its direct children:

* span wrappers record one span per call -- id, parent id, name, start, end
  and child time -- in memory; ``write_spans`` puts them on disk at the end;
* kernel wrappers (``_int_gcd``, ``QPoly.__mul__``, ``QRat.__init__``) run
  tens of thousands of times per round, so they only add their duration to the
  enclosing frame and to a per-name count and total.

A call nested inside a call of the same function (or, for layer totals, of
the same layer) is not counted again in inclusive time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute, metric name).  A dotted attribute is a method.
SPAN_TARGETS = [
    ("cli", "cli", "main", "cli.main"),
    ("verify", "verify", "run_campaign", "verify.run_campaign"),
    ("verify", "verify", "VerificationReport.to_json", "verify.report_json"),
    ("verify", "verify", "verify_duality", "verify.duality"),
    ("verify", "verify", "verify_main_identity", "verify.main"),
    ("verify", "verify", "eval_crosscheck", "verify.eval"),
    ("verify", "verify", "verify_closed_difference", "verify.cor250"),
    ("verify", "verify", "verify_inductive_relations", "verify.pair"),
    ("verify", "verify", "verify_pde_annihilation", "verify.thm380"),
    ("verify", "verify", "verify_operator_conjugations", "verify.lemma360"),
    ("verify", "verify", "verify_injectivity", "verify.lemma370"),
    ("verify", "verify", "verify_product_identity", "verify.prop240"),
    ("harmonic", "harmonic", "a_value", "harmonic.a_value"),
    ("harmonic", "harmonic", "b_value", "harmonic.b_value"),
    ("harmonic", "harmonic", "c_value", "harmonic.c_value"),
    ("harmonic", "harmonic", "delta_qk_closed", "harmonic.delta_qk_closed"),
    ("qseries", "qseries", "G_series", "qseries.G_series"),
    ("qseries", "qseries", "apply_op", "qseries.apply_op"),
    ("qseries", "qseries", "series_mul", "qseries.series_mul"),
    ("qseries", "qseries", "f_a_series", "qseries.f_a_series"),
    ("qseries", "qseries", "F_a_series", "qseries.F_a_series"),
    ("qseries", "qseries", "pde_residual", "qseries.pde_residual"),
    ("direct", "direct", "c_at", "direct.c_at"),
    ("direct", "direct", "delta_closed_a_at", "direct.delta_closed_a_at"),
    ("multiindex", "multiindex", "enumerate_by_weight", "multiindex.enumerate_by_weight"),
    ("multiindex", "multiindex", "subset_decode", "multiindex.subset_decode"),
    ("multiindex", "multiindex", "parse_multiindex", "multiindex.parse_multiindex"),
    ("multiindex", "multiindex", "MultiIndex.dual", "multiindex.dual"),
    ("multiindex", "multiindex", "MultiIndex.minus_reduce", "multiindex.minus_reduce"),
    ("multiindex", "multiindex", "MultiIndex.subset_encode", "multiindex.subset_encode"),
]

KERNEL_TARGETS = [
    ("exactq", "_int_gcd", "exactq.gcd"),
    ("exactq", "QPoly.__mul__", "exactq.poly_mul"),
    ("exactq", "QRat.__init__", "exactq.qrat_new"),
]

# Per-function metrics the benchmark reports: name -> which of calls/s/self_s.
REPORTED_FUNCTIONS = {
    **{f"harmonic.{f}": ("calls", "s", "self_s")
       for f in ("a_value", "b_value", "c_value", "delta_qk_closed")},
    **{f"qseries.{f}": ("calls", "s", "self_s")
       for f in ("G_series", "apply_op", "series_mul", "f_a_series", "F_a_series",
                 "pde_residual")},
    **{f"direct.{f}": ("calls", "s") for f in ("c_at", "delta_closed_a_at")},
    **{f"verify.{f}": ("s",) for f in ("duality", "main", "eval", "cor250", "pair",
                                        "thm380", "lemma360", "lemma370", "prop240",
                                        "report_json")},
}


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self) -> None:
        # (id, parent, name, start, end, child_s, outermost in function, in layer)
        self.spans: list[tuple] = []
        self.kernels: dict[str, list] = {}  # name -> [calls, inclusive_s]
        self._stack: list[list] = []  # open frames: [span id or -1, child_s]
        self._active: Counter = Counter()  # open calls per function and per layer
        self._layer: dict[str, str] = {}
        self._next_id = 0
        self._kernel_depth = [0]
        self.kernel_top_s = 0.0  # time inside outermost kernel calls: exactq self time
        self.originals: dict[str, object] = {}

    # --- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, layer: str, fn):
        stack, active, spans, clock = self._stack, self._active, self.spans, time.perf_counter
        self._layer[name] = layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            active[name] += 1
            active[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                active[layer] -= 1
                if stack:
                    stack[-1][1] += end - start
                # outermost flags: not inside another call of this function / layer
                spans.append((span_id, parent, name, start, end, frame[1],
                              active[name] == 0, active[layer] == 0))
        return wrapper

    def _kernel_wrapper(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        totals = self.kernels.setdefault(name, [0, 0.0])
        depth, shared = [0], self._kernel_depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [-1, 0.0]
            stack.append(frame)
            depth[0] += 1
            shared[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[0] -= 1
                shared[0] -= 1
                if stack:
                    stack[-1][1] += elapsed
                totals[0] += 1
                if depth[0] == 0:
                    totals[1] += elapsed
                if shared[0] == 0:
                    self.kernel_top_s += elapsed
        return wrapper

    # --- installation ---------------------------------------------------------

    def _wrap(self, module_name: str, dotted: str, name: str, make_wrapper) -> None:
        """Replace one entry point under every name or class attribute bound to it."""
        owner, attr = _resolve(sys.modules[f"qharmonic.{module_name}"], dotted)
        original = vars(owner)[attr]
        self.originals[name] = original
        if isinstance(owner, type):
            targets = [owner]  # every alias on the class, e.g. __rmul__ = __mul__
        else:
            targets = [mod for mod_name, mod in list(sys.modules.items())
                       if mod is not None and mod_name.split(".")[0] == "qharmonic"]
        wrapper = make_wrapper(original)
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)

    def install(self) -> None:
        import qharmonic.cli  # noqa: F401  (loads every layer)

        for module_name, dotted, name in KERNEL_TARGETS:
            self._wrap(module_name, dotted, name,
                       lambda fn, name=name: self._kernel_wrapper(name, fn))
        for layer, module_name, dotted, name in SPAN_TARGETS:
            self._wrap(module_name, dotted, name,
                       lambda fn, name=name, layer=layer: self._span_wrapper(name, layer, fn))

    # --- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        layer_self: defaultdict = defaultdict(float)
        layer_inclusive: defaultdict = defaultdict(float)
        for _, _, name, start, end, child_s, top_fn, top_layer in self.spans:
            layer = self._layer[name]
            calls[name] += 1
            if top_fn:
                inclusive[name] += end - start
            if top_layer:
                layer_inclusive[layer] += end - start
            self_time[name] += end - start - child_s
            layer_self[layer] += end - start - child_s
        out: dict[str, float] = {}
        for name, (count, total) in self.kernels.items():
            out[f"{name}.calls"] = count
            out[f"{name}.s"] = total
        for name, fields in REPORTED_FUNCTIONS.items():
            values = {"calls": calls[name], "s": inclusive[name], "self_s": self_time[name]}
            for field in fields:
                out[f"{name}.{field}"] = values[field]
        info = self.originals["harmonic.c_value"].cache_info()
        out["harmonic.c_value.cache_hits"] = info.hits
        out["harmonic.c_value.cache_misses"] = info.misses
        out["verify.self_s"] = layer_self["verify"]
        out["cli.self_s"] = layer_self["cli"]
        out["multiindex.s"] = layer_inclusive["multiindex"]
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer; exactq covers only the three wrapped kernels."""
        out: defaultdict = defaultdict(float)
        for _, _, name, start, end, child_s, _, _ in self.spans:
            out[self._layer[name]] += end - start - child_s
        out["exactq"] = self.kernel_top_s
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\tchild_s\n")
            for span_id, parent, name, start, end, child_s, _, _ in self.spans:
                fh.write(f"{span_id}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{child_s:.9f}\n")
            for name, (count, total) in sorted(self.kernels.items()):
                fh.write(f"# kernel\t{name}\tcalls={count}\ts={total:.9f}\n")
