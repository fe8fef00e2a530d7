"""The phases of a benchmark run and the metrics taken from them.

A run has three phases, each a stream of timed operations on the
workload's net: prepare (calibrate, score, select, layout), infer (rounds
of one batch per mode, with a cold start now and then) and pipeline
(``cli.run_demo``).  ``measure`` interleaves them in one closed loop, so
that each phase samples the whole run rather than one stretch of it.

Imported by ``run.py`` only after the BLAS thread cap is in place, since it
imports numpy.
"""

from __future__ import annotations

import itertools
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed
import workloads
from tracing import Tracer

SETUP_SECONDS = 0.5  # set-up repeats for at least this long, and SETUP_REPEATS times
SETUP_REPEATS = 5
# share of --seconds for a phase that is not the workload's own; inference
# gets the most, as its metrics are five of the nine
SIDE_SHARES = {"prepare": 0.5, "infer": 1.0, "pipeline": 0.5}
COLD_EVERY = 3  # infer rounds per cold start
MIN_OPS = 2  # operations of each phase in an untraced run, at least

COMMON_REQUIRED = ["netsim.run", "bitlower.plan_extraction", "qtensor.quantize",
                   "modelio.load_model"]
PREPARE_REQUIRED = ["cli.do_calibrate", "cli.do_score", "cli.do_select", "cli.do_layout",
                    "netsim.prepare", "qtensor.calibrate_ranges", "scoring.score_groups",
                    "evoselect.chained_selection", "evoselect.select_channels",
                    "evoselect.fitness", "evoselect.mutate", "evoselect.crossover",
                    "layout.plan_layout", "layout.apply_layout", "modelio.save_model",
                    "modelio.load_dataset"]
PIPELINE_REQUIRED = ["cli.run_gemm_check", "cli.do_report_bits", "cli.do_report_saturation",
                     "cli.do_report_l2", "cli.do_serve_sim", "netsim.saturation_report",
                     "netsim.unused_bit_report", "bitlower.dynamic_shift",
                     "oracle.scalar_mixed_gemm", "serve.simulate", "serve.build_profile",
                     "serve.gen_fluctuating", "serve.gen_poisson", "serve.CostModel.service_time"]


def required_calls(phase: str, kind: str) -> list[str]:
    """Functions a traced phase must reach; zero calls means a missed binding."""
    if phase == "pipeline":
        kind = "linear"  # cli.run_demo builds its own linear net
    kernels = (["kernels.int_gemm", "kernels.mixed_gemm"] if kind == "linear"
               else ["kernels.int_conv2d", "kernels.mixed_conv2d"])
    extra = {"prepare": PREPARE_REQUIRED, "infer": ["netsim.set_ratio"],
             "pipeline": PREPARE_REQUIRED + PIPELINE_REQUIRED}[phase]
    return COMMON_REQUIRED + kernels + extra


class Unmeasured(Exception):
    """A phase had no successful operation, so one of its metrics is missing."""


def typical(samples: list[tuple[float, float]], what: str) -> float:
    """The median of a run's operations of one kind, each given as (start,
    time) on ``speed.probe.clock`` and scaled to the reference speed.

    On a shared machine other processes slow operations down, in stretches
    from seconds to longer than a run.  On the wide net, five runs had
    fastest int8 batches from 27.5 to 45.0 ms, as one run met no quiet
    moment at all, but median batches from 43.1 to 53.8 ms; the medians
    of fp32 batches, cold starts and pipelines also spread less than their
    fastest.  Since the phases are interleaved over the whole run, each
    kind of operation samples the whole run.
    """
    if not samples:
        raise Unmeasured(f"no successful {what} operation")
    try:
        return statistics.median(speed.probe.scale(start, t) for start, t in samples)
    except speed.Unscalable as exc:
        raise Unmeasured(f"{what}: {exc}") from exc


class Run:
    """Counts operations and failures, and times each operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.ops: list[dict] = []
        self.tracer: Tracer | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def op(self, kind: str, fn):
        """One timed operation; returns fn's result, or None if it raised."""
        self.attempted += 1
        op_id = len(self.ops)
        if self.tracer is not None:
            self.tracer.op = op_id
        t0 = speed.probe.clock()
        result = None
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted and the run goes on
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
        wall = speed.probe.clock() - t0
        if self.tracer is not None:
            self.tracer.op = None
        self.ops.append({"op": op_id, "kind": kind, "wall_s": wall})
        return result

    def check(self, what: str, fn):
        """An output check made outside the timed operations."""
        try:
            return fn()
        except Exception as exc:  # a failed check is counted and the run goes on
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None


def op_summary(ops: list[dict]) -> dict[str, dict]:
    """Count and fastest, median and slowest wall time of each kind of operation."""
    walls: dict[str, list[float]] = {}
    for op in ops:
        walls.setdefault(op["kind"], []).append(op["wall_s"])
    return {kind: {"count": len(w), "min": min(w), "median": statistics.median(w), "max": max(w)}
            for kind, w in walls.items()}


class Bench:
    """The operations of one run on one net, sharing a scratch directory."""

    def __init__(self, spec: workloads.NetSpec, seed: int, work: Path, run: Run):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.run = run
        self.names = itertools.count()
        self.pristine: Path | None = None
        self.model_dir: Path | None = None  # the first laid-out model directory
        # (start, wall time) of each operation of a kind
        self.setup_times: list[tuple[float, float]] = []
        self.prepare_times: list[tuple[float, float]] = []
        self.pipeline_times: list[tuple[float, float]] = []
        self.fitness_csv: bytes | None = None
        self.demo_tree: str | None = None
        self.infer: workloads.InferLoop | None = None
        self.quality: dict[str, float] = {}
        self.unscaled: dict[str, float] = {}  # the timed metrics before scaling to speed

    def fresh_dir(self, stem: str) -> Path:
        return self.work / f"{stem}{next(self.names)}"

    def keep_or_remove(self, d: Path) -> None:
        if self.model_dir is None:
            self.model_dir = d
        else:
            shutil.rmtree(d)

    def setup(self, repeats: int, seconds: float = 0.0) -> None:
        """Generates the inputs ``repeats`` times and for at least ``seconds``;
        the last copy is the one the operations use."""
        while len(self.setup_times) < repeats or sum(t for _, t in self.setup_times) < seconds:
            d = self.fresh_dir("inputs")
            t0 = speed.probe.clock()
            workloads.make_inputs(self.spec, self.seed, d)
            self.setup_times.append((t0, speed.probe.clock() - t0))
            if self.pristine is not None:
                shutil.rmtree(self.pristine)
            self.pristine = d

    def prepare_op(self) -> None:
        """Prepares a copy of the inputs; the first prepare is checked."""
        d = self.fresh_dir("prepared")
        first = self.fitness_csv is None
        pre = self.fresh_dir("pre_layout") if first else None
        shutil.copytree(self.pristine, d)
        t = self.run.op("prepare", lambda: workloads.prepare(self.spec, self.seed, d, pre))
        if t is None:
            return
        self.prepare_times.append(t)
        history = (d / "fitness.csv").read_bytes()
        if first:
            self.fitness_csv = history
            self.quality["select_best_fitness"] = self.run.check(
                "best fitness", lambda: workloads.best_fitness(d))
            x, _ = workloads.modelio.load_dataset(d, "eval")
            self.run.check("layout identity",
                           lambda: workloads.check_layout(pre, d, x[: self.spec.batch]))
            shutil.rmtree(pre)
        elif history != self.fitness_csv:
            self.run.fail("fitness history differs between repeated prepares")
        self.keep_or_remove(d)

    def infer_op(self) -> None:
        """One round of batches, after a cold start every COLD_EVERY rounds."""
        if self.infer is None:
            if self.model_dir is None:
                raise Unmeasured("no prepared model to run inference on")
            self.infer = workloads.InferLoop(self.spec, self.model_dir)
        infer = self.infer
        if infer.rounds % COLD_EVERY == 0:
            self.run.op("cold_start", infer.cold_start)
        if infer.model is None:
            raise Unmeasured("no successful cold start")
        for mode, ratio in workloads.STEPS:
            self.run.op(f"infer.{mode}", lambda m=mode, r=ratio: infer.step(m, r))
        infer.next_round()

    def pipeline_op(self) -> None:
        """One ``cli.run_demo`` on a fresh directory, checked."""
        out = self.fresh_dir("demo")
        t = self.run.op("pipeline", lambda: workloads.pipeline(self.seed, out))
        if t is None:
            return
        self.pipeline_times.append(t)
        checked = self.run.check("demo outputs", lambda: workloads.check_pipeline(out))
        if checked is not None:
            self.quality["effective_accuracy"], tree = checked
            if self.demo_tree is None:
                self.demo_tree = tree
            elif tree != self.demo_tree:
                self.run.fail("demo output tree differs between repeats")
        self.keep_or_remove(out)

    def phase_op(self, phase: str):
        return {"prepare": self.prepare_op, "infer": self.infer_op,
                "pipeline": self.pipeline_op}[phase]

    def kernel_check(self) -> None:
        if self.model_dir is None:
            self.run.fail("no prepared model to check the kernels on")
            return
        model = workloads.modelio.load_model(self.model_dir)
        x, _ = workloads.modelio.load_dataset(self.model_dir, "eval")
        # a traced demo run checks the linear net of its first cli.run_demo
        conv = any(layer.kind == "conv2d" for layer in model.graph.layers)
        self.run.check("kernel vs oracle",
                       lambda: workloads.check_kernel(model, x[: self.spec.batch], conv))


def interleave(bench: Bench, shares: dict[str, float], seconds: float, min_ops: int,
               step=None) -> dict[str, list[float]]:
    """Closed loop over phases until each has run for its share of
    ``seconds`` and at least ``min_ops`` steps; returns the wall time of
    each phase's steps.

    A step is one operation of the phase, or what ``step(phase)`` runs.
    The next step comes from the unfinished phase furthest behind its
    share, so a phase of short operations is spread over the whole run.
    Inference needs a prepared model, so a prepare comes first.
    """
    step = step or (lambda phase: bench.phase_op(phase)())
    walls: dict[str, list[float]] = {p: [] for p in shares}
    spent = dict.fromkeys(shares, 0.0)

    def timed(phase: str) -> None:
        t0 = time.perf_counter()
        step(phase)
        walls[phase].append(time.perf_counter() - t0)
        spent[phase] += walls[phase][-1]

    if "infer" in shares and bench.model_dir is None:
        if "prepare" in shares:
            timed("prepare")
        else:
            bench.prepare_op()
    while todo := [p for p in shares
                   if spent[p] < shares[p] * seconds or len(walls[p]) < min_ops]:
        timed(min(todo, key=lambda p: spent[p] / shares[p]))
    return walls


def measure(bench: Bench, own: dict[str, float], seconds: float) -> dict[str, float]:
    """Untraced run: the end-to-end metrics.

    The workload's own phases run for their share of ``seconds`` and the
    others for their SIDE_SHARES of it, all with at least MIN_OPS operations.
    MIN_OPS is the two operations the repeat checks need to compare: each
    more would add a ``cli.run_demo`` of about 5 s to every run of the
    workloads whose own phase it is not.
    """
    with speed.probe.running():
        bench.setup(SETUP_REPEATS, SETUP_SECONDS)
        interleave(bench, {p: own.get(p, share) for p, share in SIDE_SHARES.items()},
                   seconds, MIN_OPS)
    infer = bench.infer
    bench.quality["mixed_rel_l2"] = bench.run.check("mixed rel l2", infer.mixed_rel_l2)
    bench.kernel_check()
    samples = {
        "setup_s": ("set-up", bench.setup_times),
        "pipeline_s": ("pipeline", bench.pipeline_times),
        "prepare_s": ("prepare", bench.prepare_times),
        "cold_start_s": ("cold start", infer.cold),
        **{f"{m}_batch_s": (m, infer.times.get((m, None), [])) for m in ("fp32", "int8", "int4")},
        **{f"mixed_{r}_batch_s": (f"mixed {r}", infer.times.get(("mixed", r), []))
           for r in workloads.RATIOS},
    }
    scaled = {name: typical(s, what) for name, (what, s) in samples.items()}
    bench.unscaled = {name: statistics.median(t for _, t in s) for name, (_, s) in samples.items()}
    bench.unscaled["speed_probe_s"] = statistics.median(speed.probe.times)
    return {
        **{name: scaled[name] for name in ("setup_s", "pipeline_s", "prepare_s", "cold_start_s")},
        **{f"{m}_samples_per_s": infer.batch / scaled[f"{m}_batch_s"]
           for m in ("fp32", "int8", "int4")},
        # one mixed batch at each prepared ratio, as every round runs them
        "mixed_samples_per_s": len(workloads.RATIOS) * infer.batch / sum(
            scaled[f"mixed_{r}_batch_s"] for r in workloads.RATIOS),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(bench: Bench, own: dict[str, float], seconds: float,
                   spans_path: Path) -> dict[str, float]:
    """Traced run: the workload's own phases for their share of ``seconds``,
    each step one untraced and one traced operation, in turn first.

    Only those phases are traced, so the per-layer numbers describe the
    workload's own operations.  The tracing overhead is the difference,
    summed over the own phases, between the median traced and the median
    untraced operation; the two alternate, so both meet the same stretches
    of the machine's speed.
    """
    bench.setup(1)
    tracer = Tracer()
    walls: dict[bool, dict[str, list[float]]] = {t: {p: [] for p in own} for t in (False, True)}
    traced_ops: list[dict] = []

    def timed_op(phase: str, traced: bool) -> None:
        first = len(bench.run.ops)
        if traced:
            bench.run.tracer = tracer
            tracer.install()
        try:
            t0 = time.perf_counter()
            bench.phase_op(phase)()
            walls[traced][phase].append(time.perf_counter() - t0)
        finally:
            if traced:
                tracer.uninstall()
                bench.run.tracer = None
                traced_ops.extend(bench.run.ops[first:])

    def pair(phase: str) -> None:
        traced_first = len(walls[True][phase]) % 2 == 1
        timed_op(phase, traced_first)
        timed_op(phase, not traced_first)

    interleave(bench, own, seconds, 3, pair)
    bench.kernel_check()

    required = sorted({fn for phase in own for fn in required_calls(phase, bench.spec.kind)})
    for message in tracer.coverage_errors(required):
        bench.run.fail(f"trace coverage: {message}")
    tracer.write(spans_path, traced_ops)

    metrics = tracer.layer_metrics()
    base = sum(statistics.median(walls[False][p]) for p in own)
    metrics["trace.overhead_s"] = sum(statistics.median(walls[True][p]) for p in own) - base
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / base
    return metrics


def print_layer_table(metrics: dict[str, float], units: dict[str, str]) -> None:
    by_module: dict[str, list[str]] = {}
    for name in units:
        by_module.setdefault(name.split(".")[0], []).append(name)
    for module, names in by_module.items():
        print(f"-- {module}")
        for name in names:
            print(f"   {name:<44s} {metrics[name]:>14.6g} {units[name]}")
