"""Outside-in tracing of the ``mixq`` layers.

The tracer replaces each public function listed in ``SPANNED`` and
``COUNTED`` with a wrapper, in every ``mixq`` module namespace that binds
it (``evoselect`` binds ``netsim.run`` by name, ``netsim`` binds
``plan_extraction``, ``quantize`` and ``calibrate_ranges``, and so on).
No file of the package changes.

A spanned call records (name, start, end, parent span, operation id) in
memory; tiny hot calls are only counted.  ``layer_metrics`` turns the spans
into per-layer calls, total and self time, where self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute) of every spanned function.
SPANNED = [
    ("kernels", "mixed_gemm"), ("kernels", "int_gemm"),
    ("kernels", "mixed_conv2d"), ("kernels", "int_conv2d"),
    ("netsim", "run"), ("netsim", "prepare"), ("netsim", "set_ratio"),
    ("netsim", "saturation_report"), ("netsim", "unused_bit_report"),
    ("bitlower", "plan_extraction"),
    ("qtensor", "calibrate_ranges"),
    ("scoring", "score_groups"),
    ("evoselect", "chained_selection"), ("evoselect", "select_channels"),
    ("evoselect", "fitness"), ("evoselect", "mutate"), ("evoselect", "crossover"),
    ("layout", "plan_layout"), ("layout", "apply_layout"),
    ("modelio", "save_model"), ("modelio", "load_model"), ("modelio", "load_dataset"),
    ("serve", "simulate"), ("serve", "build_profile"),
    ("serve", "gen_fluctuating"), ("serve", "gen_poisson"),
    ("oracle", "scalar_mixed_gemm"),
    ("cli", "do_calibrate"), ("cli", "do_score"), ("cli", "do_select"), ("cli", "do_layout"),
    ("cli", "run_gemm_check"), ("cli", "do_report_bits"), ("cli", "do_report_saturation"),
    ("cli", "do_report_l2"), ("cli", "do_serve_sim"),
]
# Called too often to span; their calls (and, for quantize, time) are counted.
COUNTED = [("bitlower", "dynamic_shift"), ("qtensor", "quantize"), ("serve", "CostModel.service_time")]
KERNELS = ("kernels.mixed_gemm", "kernels.int_gemm", "kernels.mixed_conv2d", "kernels.int_conv2d")
# Callers a kernel span may have; a kernel under anything else means a
# netsim.run binding was missed.
KERNEL_CALLERS = ("netsim.run", "cli.run_gemm_check")

# function -> the stats reported for it, each named <module>.<function>.<stat>.
PER_LAYER = {
    "kernels.mixed_gemm": ["calls", "self_s", "gmacs_per_s", "saturated_channels"],
    "kernels.int_gemm": ["calls", "self_s", "gmacs_per_s"],
    "kernels.mixed_conv2d": ["calls", "self_s", "gmacs_per_s"],
    "kernels.int_conv2d": ["calls", "self_s", "gmacs_per_s"],
    "netsim.run": ["calls", "self_s"],
    "netsim.prepare": ["total_s"],
    "netsim.set_ratio": ["calls", "total_s"],
    "netsim.saturation_report": ["total_s"],
    "netsim.unused_bit_report": ["total_s"],
    "bitlower.plan_extraction": ["calls", "total_s"],
    "bitlower.dynamic_shift": ["calls"],
    "qtensor.calibrate_ranges": ["total_s"],
    "qtensor.quantize": ["calls", "total_s"],
    "scoring.score_groups": ["calls", "total_s"],
    "evoselect.chained_selection": ["total_s"],
    "evoselect.select_channels": ["calls", "total_s"],
    "evoselect.fitness": ["calls", "self_s"],
    "evoselect.mutate": ["calls", "total_s"],
    "evoselect.crossover": ["calls"],
    "layout.plan_layout": ["total_s"],
    "layout.apply_layout": ["total_s"],
    "modelio.save_model": ["calls", "total_s", "bytes"],
    "modelio.load_model": ["calls", "total_s"],
    "modelio.load_dataset": ["calls", "total_s"],
    "serve.simulate": ["calls", "total_s", "requests"],
    "serve.build_profile": ["total_s"],
    "serve.gen_fluctuating": ["total_s"],
    "serve.gen_poisson": ["calls", "total_s"],
    "serve.CostModel.service_time": ["calls"],
    "oracle.scalar_mixed_gemm": ["calls", "total_s"],
    **{f"cli.{stage}": ["total_s"] for stage in (
        "do_calibrate", "do_score", "do_select", "do_layout", "run_gemm_check",
        "do_report_bits", "do_report_saturation", "do_report_l2", "do_serve_sim")},
}
UNITS = {
    "calls": ("count", "lower"), "self_s": ("s", "lower"), "total_s": ("s", "lower"),
    "gmacs_per_s": ("GMAC/s", "higher"), "saturated_channels": ("count", "lower"),
    "bytes": ("B", "lower"), "requests": ("count", "higher"),
}
DERIVED = {
    "evoselect.kernel_calls_per_fitness": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def per_layer_names() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its (unit, better)."""
    names = {f"{fn}.{stat}": UNITS[stat] for fn, stats in PER_LAYER.items() for stat in stats}
    names.update(DERIVED)
    return names


def _macs(name: str, args: tuple, kwargs: dict) -> int:
    """Multiply-accumulates of one kernel call, computed from the shapes."""
    x = np.shape(args[0] if args else kwargs["x_q"])
    w = np.shape(args[1] if len(args) > 1 else kwargs["w_q"])
    if name.endswith("gemm"):
        return x[0] * x[1] * w[1]  # [B, K] x [K, N]
    return x[0] * x[1] * x[2] * x[3] * w[0] * w[2] * w[3]  # same-padded conv, every tap


def _saved_bytes(path) -> int:
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    files = [rec["weight_file"] for rec in manifest["layers"] if "weight_file" in rec]
    files += [q["codes_file"] for q in manifest["quant"].values()]
    return (path / "manifest.json").stat().st_size + sum((path / f).stat().st_size for f in files)


class Tracer:
    """Records spans and counts for the ``mixq`` calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.count_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mixq_modules = [m for n, m in list(sys.modules.items())
                        if n == "mixq" or n.startswith("mixq.")]
        for targets, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod, attr in targets:
                owner = sys.modules[f"mixq.{mod}"]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
                wrapper = make(f"{mod}.{attr}", original)
                self._patch(owner, leaf, wrapper)
                if path:
                    continue  # a method: patching the class covers every binding
                for module in mixq_modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _spanned(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [name, 0.0, 0.0, parent, tracer.op, None]
            tracer.spans.append(span)
            tracer.stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            tracer._after(name, span, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.count_time[name] += time.perf_counter() - t0
                tracer.counts[name] += 1

        return wrapper

    def _after(self, name: str, span: list, args: tuple, kwargs: dict, result) -> None:
        """Per-call work counts, taken from the arguments and results."""
        if name in KERNELS:
            self.extra[f"{name}.macs"] += _macs(name, args, kwargs)
            if name == "kernels.mixed_gemm":
                self.extra[f"{name}.saturated_channels"] += int(result[1].saturated_channels.sum())
        elif name == "netsim.run":
            model = args[0] if args else kwargs["model"]
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "fp32")
            span[5] = {"mode": mode, "matmuls": len(model.graph.matmul_indices())}
        elif name == "modelio.save_model":
            self.extra[f"{name}.bytes"] += _saved_bytes(args[0] if args else kwargs["path"])
        elif name == "serve.simulate":
            trace = args[0] if args else kwargs["trace"]
            self.extra[f"{name}.requests"] += trace.arrivals.size

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, attrs in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            total[span[0]] += span[2] - span[1]
            self_s[span[0]] += own
        calls.update(self.counts)
        total.update(self.count_time)
        out: dict[str, float] = {}
        for fn, stats in PER_LAYER.items():
            for stat in stats:
                if stat == "calls":
                    value = calls[fn]
                elif stat == "self_s":
                    value = self_s[fn]
                elif stat == "total_s":
                    value = total[fn]
                elif stat == "gmacs_per_s":
                    value = self.extra[f"{fn}.macs"] / self_s[fn] / 1e9 if self_s[fn] > 0 else 0.0
                else:
                    value = self.extra[f"{fn}.{stat}"]
                out[f"{fn}.{stat}"] = value
        kernel_calls = sum(1 for s in self.spans
                           if s[0] in KERNELS and self._under(s, "evoselect.fitness"))
        fits = calls["evoselect.fitness"]
        out["evoselect.kernel_calls_per_fitness"] = kernel_calls / fits if fits else 0.0
        return out

    def _under(self, span: list, name: str) -> bool:
        parent = span[3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def coverage_errors(self, required: list[str]) -> list[str]:
        """Missed bindings: required functions never called, a kernel called
        from outside a forward pass, or a quantized forward whose kernel
        calls differ from the net's matmul-layer count."""
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        calls.update(self.counts)
        errors = [f"{fn} recorded no calls" for fn in required if calls[fn] == 0]
        kernels_under: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[0] in KERNELS:
                parent = span[3]
                caller = None if parent is None else self.spans[parent][0]
                if caller not in KERNEL_CALLERS:
                    errors.append(f"{span[0]} called from {caller}, not from a forward pass")
                elif caller == "netsim.run":
                    kernels_under[parent] += 1
        for sid, span in enumerate(self.spans):
            if span[0] == "netsim.run" and span[5]["mode"] != "fp32":
                if kernels_under[sid] != span[5]["matmuls"]:
                    errors.append(f"a {span[5]['mode']} forward made {kernels_under[sid]} kernel "
                                  f"calls for {span[5]['matmuls']} matmul layers")
                    break
        return errors

    def write(self, path: Path, ops: list[dict]) -> None:
        """Spans and the benchmark's operations, one JSON object per line."""
        with open(path, "w") as fh:
            for op in ops:
                fh.write(json.dumps({"type": "op", **op}) + "\n")
            for sid, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                rec = {"type": "span", "id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
