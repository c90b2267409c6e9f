"""Spans around microdiff's layers, recorded from the benchmark's side.

:class:`Tracer` replaces each layer's public functions by a wrapper, in the
defining module and under every name another microdiff module (or the
package namespace) bound it to, and restores them afterwards.  Each call
becomes a span: metric name, start, end, parent span and job id, kept in
flat arrays and written out at the end.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import array
import json
import sys
import time
from pathlib import Path

# metric name -> (module, attribute path) of every function it covers
LAYERS = {
    "padic.add": [("padic", "PadicScalar.__add__")],
    "padic.mul": [("padic", "PadicScalar.__mul__")],
    "padic.from_fraction": [("padic", "PadicScalar.from_fraction")],
    "padic.int_valuation": [("padic", "int_valuation")],
    "padic.generalized_binomial": [("padic", "generalized_binomial")],
    "tate.add": [("tate", "TateSeries.__add__")],
    "tate.mul": [("tate", "TateSeries.__mul__")],
    "tate.derive": [("tate", "TateSeries.derive")],
    "tate.scale": [("tate", "TateSeries.scale")],
    "tate.is_unit": [("tate", "TateSeries.is_unit")],
    "tate.invert_unit": [("tate", "TateSeries.invert_unit")],
    "diffop.add": [("diffop", "MicroOp.__add__")],
    "diffop.compose": [("diffop", "compose")],
    "diffop.product_terms": [("diffop", "_product_terms")],
    "diffop.fold": [("diffop", "_fold_beyond")],
    "diffop.query": [("diffop", n) for n in ("norm_k", "norm_mu", "order_Nk", "order_nk",
                                               "order_Nmu", "order_nmu")],
    "microop.mul": [("microop", "mul")],
    "microop.clip": [("microop", "_clip")],
    "microop.tail_sup": [("microop", "tail_sup_exponent")],
    "microop.stored_max": [("microop", "_stored_max")],
    "microop.norm": [("microop", n) for n in ("norm_Ek", "norm_Fkr", "order_Ek",
                                                "sector_norms")],
    "newton.polygon": [("newton", "polygon")],
    "newton.slope_query": [("newton", "is_slope"), ("newton", "slope_in_interval")],
    "tower.check_unit": [("tower", "check_unit")],
    "tower.invert": [("tower", "invert")],
    "tower.verify": [("tower", "_verify_residual")],
    "catalog.build": [("catalog", n) for n in ("product_op", "gauss_op",
                                                 "truncated_cofactor")],
    "exprs.parse": [("exprs", "parse")],
    "exprs.evaluate": [("exprs", "evaluate")],
    "jsonio.emit": [("jsonio", n) for n in ("dumps", "fraction_to_json", "scalar_to_json",
                                              "series_to_json", "tail_to_json",
                                              "operator_to_json", "polygon_to_json",
                                              "verdict_to_json")],
    "svg.render": [("svg", "render_polygon")],
    "cli.run": [("cli", "run")],
    "cli.build_parser": [("cli", "_build_parser")],
}

# counts gathered at the same boundaries, beside .calls and .self_s
COUNTS = ("padic.max_valuation", "tate.max_degree", "diffop.term_pairs",
          "diffop.fold.dropped_terms", "tower.check_unit.refused",
          "tower.invert.refused", "tower.invert.series_products", "trace.spans")
RATIOS = ("diffop.fold.dropped_ratio",)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, harness ones included."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    return names + list(COUNTS) + list(RATIOS) + ["trace.overhead_ratio",
                                                    "ref.fraction_products.busy_s"]


class Tracer:
    def __init__(self, refusals: tuple):
        self.refusals = refusals
        self.names = list(LAYERS)
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.job_of = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.job = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.fold_seen = 0
        self._restore: list = []

    # -- installing wrappers -------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "microdiff" or name.startswith("microdiff.")}
        for nid, (metric, targets) in enumerate(LAYERS.items()):
            for modname, path in targets:
                owner = mods[f"microdiff.{modname}"]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, nid, metric))
                    self._set(owner, attr, raw, wrapped)
                    continue
                wrapped = self._wrap(raw, nid, metric)
                if cls_path:
                    self._set(owner, attr, raw, wrapped)
                    continue
                # rebind every module-level name bound to this function
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, raw, wrapped)

    def _set(self, owner, attr, raw, wrapped):
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, fn, nid: int, metric: str):
        name_of, parent, job_of = self.name_of, self.parent, self.job_of
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        observe = self._observer(metric)
        refusals = self.refusals
        counts = self.counts
        refused_key = f"{metric}.refused" if f"{metric}.refused" in counts else None

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            job_of.append(self.job)
            end.append(0.0)
            stack.append(idx)
            if observe is not None:
                before = observe(args, None, True)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except refusals:
                end[idx] = clock()
                stack.pop()
                if refused_key:
                    counts[refused_key] += 1
                raise
            except BaseException:
                end[idx] = clock()
                stack.pop()
                raise
            end[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(args, result, before)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _observer(self, metric: str):
        """Count hook for a metric: called before (pre=True) and after."""
        counts = self.counts
        if metric in ("padic.add", "padic.mul", "padic.from_fraction"):
            def obs(args, result, pre):
                if pre is True:
                    return None
                if result.valuation is not None:
                    counts["padic.max_valuation"] = max(counts["padic.max_valuation"],
                                                        abs(result.valuation))
            return obs
        if metric == "padic.int_valuation":
            def obs(args, result, pre):
                if pre is not True:
                    counts["padic.max_valuation"] = max(counts["padic.max_valuation"], result)
            return obs
        if metric.startswith("tate.") and metric not in ("tate.is_unit",):
            def obs(args, result, pre):
                if pre is not True:
                    counts["tate.max_degree"] = max(counts["tate.max_degree"], result.degree())
            return obs
        if metric == "diffop.product_terms":
            def obs(args, result, pre):
                if pre is True:
                    counts["diffop.term_pairs"] += len(args[0].terms) * len(args[1].terms)
            return obs
        if metric == "diffop.fold":
            def obs(args, result, pre):
                if pre is True:
                    return len(args[0])
                counts["diffop.fold.dropped_terms"] += pre - len(args[0])
                self.fold_seen += pre
            return obs
        return None

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer calls and self time, and the counts."""
        n = len(self.start)
        child = array.array("d", bytes(8 * n))
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        for i in range(n):
            q = parent[i]
            if q >= 0:
                child[q] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        invert_id = self.names.index("tower.invert")
        mul_id = self.names.index("microop.mul")
        series_products = 0
        for i in range(n):
            nid = name_of[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
            if nid == mul_id and parent[i] >= 0 and name_of[parent[i]] == invert_id:
                series_products += 1
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        counts = dict(self.counts)
        counts["tower.invert.series_products"] = series_products
        counts["trace.spans"] = n
        out.update(counts)
        out["diffop.fold.dropped_ratio"] = (counts["diffop.fold.dropped_terms"] / self.fold_seen
                                            if self.fold_seen else 0.0)
        return out

    def write(self, path: Path):
        """Spans as flat little-endian arrays plus a JSON index of names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for arr in (self.name_of, self.parent, self.job_of, self.start, self.end):
                arr.tofile(fh)
        index = {"names": self.names, "spans": len(self.start),
                 "arrays": ["name:i32", "parent:i32", "job:i32", "start:f64", "end:f64"]}
        path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")
