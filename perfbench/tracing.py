"""Per-layer tracing of finclone from outside the library.

`Tracer.install()` wraps public functions of each module and rebinds the
name in every finclone module that holds it, since `harness` and `cli` bind
`polp` and the others by name at import.  Nothing inside `src/` changes.

Coarse calls (polp, invp, sloc_ops, gamma_fixpoint, rpclone_generate_stable,
sloc_pairs, the harness checks, cli.main) become spans kept in memory, each
with a name, start, end, parent span and query id.  Hot calls
(`op_image_mask`, `OpFamily`/`PairFamily` construction, `Operation.__call__`)
run up to 10^6 times a run, so they are aggregated instead: the first two add
their time to the enclosing span's child time, the last is only counted.
A layer's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_HOOKS = (  # (layer, module, attribute)
    ("preserve.polp", "finclone.preserve", "polp"),
    ("preserve.invp", "finclone.preserve", "invp"),
    ("preserve.sloc_ops", "finclone.preserve", "sloc_ops"),
    ("generation.gamma_fixpoint", "finclone.generation", "gamma_fixpoint"),
    ("relpairs.rpclone_generate_stable", "finclone.relpairs", "rpclone_generate_stable"),
    ("relpairs.sloc_pairs", "finclone.relpairs", "sloc_pairs"),
    ("cli.main", "finclone.cli", "main"),
)
LEAF_HOOKS = (
    ("preserve.op_image_mask", "finclone.preserve", "op_image_mask"),
)

# (metric, unit, better); BENCHMARK.json lists the same names
PER_LAYER = (
    ("core.op_call.calls", "count", "lower"),
    ("core.family.self_s", "s", "lower"),
    ("preserve.op_image_mask.calls", "count", "lower"),
    ("preserve.op_image_mask.self_s", "s", "lower"),
    ("preserve.op_image_mask.hit_ratio", "ratio", "higher"),
    ("preserve.polp.calls", "count", "lower"),
    ("preserve.polp.self_s", "s", "lower"),
    ("preserve.polp.yield", "ratio", "higher"),
    ("preserve.invp.calls", "count", "lower"),
    ("preserve.invp.self_s", "s", "lower"),
    ("preserve.sloc_ops.calls", "count", "lower"),
    ("preserve.sloc_ops.self_s", "s", "lower"),
    ("generation.gamma_fixpoint.calls", "count", "lower"),
    ("generation.gamma_fixpoint.self_s", "s", "lower"),
    ("generation.gamma_fixpoint.rounds", "count", "lower"),
    ("generation.gamma_fixpoint.op_calls", "count", "lower"),
    ("relpairs.rpclone_generate_stable.calls", "count", "lower"),
    ("relpairs.rpclone_generate_stable.self_s", "s", "lower"),
    ("relpairs.rpclone.caps_tried", "count", "lower"),
    ("relpairs.rpclone.slice_pairs", "count", "higher"),
    ("relpairs.sloc_pairs.calls", "count", "lower"),
    ("relpairs.sloc_pairs.self_s", "s", "lower"),
    ("harness.check.calls", "count", "lower"),
    ("harness.check.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


@functools.cache
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs, name):
    return _signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    def __init__(self):
        self.qid: int | None = None
        self.spans: list[tuple] = []   # (id, name, qid, parent id, start, end)
        self.stack: list[list] = []    # open spans: [id, seconds covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_calls = [0]
        self.absent: dict[str, str] = {}
        self.cache_info = None
        self.origin = perf_counter()
        self._ids = itertools.count()
        self._after = {
            "preserve.polp": self._after_polp,
            "generation.gamma_fixpoint": self._after_gamma,
            "relpairs.rpclone_generate_stable": self._after_rpclone,
        }

    def _wrap(self, layer: str, fn, keep: bool):
        stack, spans, calls, self_s, ops = (
            self.stack, self.spans, self.calls, self.self_s, self.op_calls)
        after, ids = self._after.get(layer), self._ids

        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            ops_before = ops[0]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                calls[layer] += 1
                self_s[layer] += end - start - frame[1]
                if keep:
                    spans.append((frame[0], layer, self.qid, parent, start, end))
            if after is not None:
                after(fn, args, kwargs, result, ops[0] - ops_before)
            return result

        return wrapper

    def _after_polp(self, fn, args, kwargs, result, _ops):
        k, n = _bound(fn, args, kwargs, "k"), _bound(fn, args, kwargs, "n")
        self.counts["polp.returned"] += len(result)
        self.counts["polp.tables"] += k ** (k ** n)

    def _after_gamma(self, fn, args, kwargs, result, ops):
        self.counts["generation.gamma_fixpoint.rounds"] += result.steps + 1
        self.counts["generation.gamma_fixpoint.op_calls"] += ops

    def _after_rpclone(self, fn, args, kwargs, result, _ops):
        target = _bound(fn, args, kwargs, "target_cap")
        self.counts["relpairs.rpclone.caps_tried"] += result.intermediate_cap - target + 1
        self.counts["relpairs.rpclone.slice_pairs"] += len(result.pairs)

    @staticmethod
    def _rebind(orig, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name == "finclone" or name.startswith("finclone."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def _hook(self, layer: str, module: str, attr: str, keep: bool) -> None:
        orig = getattr(sys.modules.get(module), attr, None)
        if orig is None:
            self.absent[layer] = f"{module} has no {attr}"
            return
        if layer == "preserve.op_image_mask":
            self.cache_info = getattr(orig, "cache_info", None)
            if self.cache_info is None:
                self.absent["preserve.op_image_mask.hit_ratio"] = "op_image_mask has no cache_info"
        self._rebind(orig, self._wrap(layer, orig, keep))

    @classmethod
    def install(cls) -> "Tracer":
        import finclone.core as core
        import finclone.harness as harness

        tracer = cls()
        for layer, module, attr in SPAN_HOOKS:
            tracer._hook(layer, module, attr, keep=True)
        for layer, module, attr in LEAF_HOOKS:
            tracer._hook(layer, module, attr, keep=False)
        for attr in [a for a in vars(harness) if a.startswith("check_")]:
            tracer._hook("harness.check", "finclone.harness", attr, keep=True)

        call, ops = core.Operation.__call__, tracer.op_calls

        def counted_call(self, args):
            ops[0] += 1
            return call(self, args)

        core.Operation.__call__ = counted_call
        for cls_ in (core.OpFamily, core.PairFamily):
            cls_.__init__ = tracer._wrap("core.family", cls_.__init__, keep=False)
        return tracer

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric whose hook exists, except
        trace.overhead_frac, which needs an untraced run."""
        out: dict[str, float] = {metric: 0 for metric, _, _ in PER_LAYER}
        out.update(self.counts)
        out["core.op_call.calls"] = self.op_calls[0]
        out["core.family.self_s"] = self.self_s["core.family"]
        for layer, _, _ in SPAN_HOOKS + LEAF_HOOKS + (("harness.check", None, None),):
            out[layer + ".calls"] = self.calls[layer]
            out[layer + ".self_s"] = self.self_s[layer]
        tables = out.pop("polp.tables", 0)
        out["preserve.polp.yield"] = out.pop("polp.returned", 0) / tables if tables else 0.0
        if self.cache_info is not None:
            info = self.cache_info()
            looked_up = info.hits + info.misses
            out["preserve.op_image_mask.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        del out["trace.overhead_frac"]
        absent = self.absent_metrics()
        return {m: v for m, v in out.items() if m not in absent}

    def absent_metrics(self) -> dict[str, str]:
        """Metrics whose hook does not exist in this finclone, with the reason."""
        return {metric: reason for layer, reason in self.absent.items()
                for metric, _, _ in PER_LAYER
                if metric == layer or metric.startswith(layer + ".")}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, qid, parent, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "qid": qid, "parent": parent,
                    "start": start - self.origin, "end": end - self.origin,
                }) + "\n")
