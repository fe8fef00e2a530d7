"""The three benchmark workloads: seeded inputs, timed operations, output checks.

Every input comes from ``mixq.synth`` with seeds derived from the run seed
through ``cli.stage_seed``, so one seed always gives the same nets and data.
The operations call the public ``mixq`` API exactly as a user would; nothing
here reaches into the package's internals.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import speed
from mixq import bitlower, cli, kernels, modelio, netsim, oracle, synth

RATIOS = [float(r) for r in cli.DEFAULT_RATIOS]
# (mode, ratio) of the batches in one inference round: one batch in each
# uniform precision, then one mixed batch at each prepared ratio.
STEPS = [("fp32", None), ("int8", None), ("int4", None)] + [("mixed", r) for r in RATIOS]


@dataclass(frozen=True)
class NetSpec:
    """One model family and size, plus the stage settings used to prepare it."""

    kind: str  # "linear" or "conv"
    layers: int
    width: int  # features (linear) or channels (conv)
    hw: int  # conv image side; unused for linear nets
    classes: int
    group: int
    n_calib: int
    n_eval: int
    calib_batch: int
    batch: int  # inference batch size of the throughput metrics
    evo: tuple  # EvoConfig fields for do_select, as (name, value) pairs
    algo: str = "evo"  # do_select's selection algorithm


# The evolutionary search evaluates a number of distinct chromosomes that
# depends on the seed (26 to 33 over seeds 31-38), so prepare_s on this net
# does too, by about +-10%.
WIDE = NetSpec("linear", 6, 512, 0, 10, 32, 256, 256, 32, 32,
               (("population", 6), ("generations", 2), ("elite", 2), ("parents", 4),
                ("fitness_samples", 32)))
# Greedy selection: on this small net the evolutionary search met the same
# chromosomes again and again, so its number of fitness forwards (15 to 24
# over ten seeds) set prepare_s (0.57 to 0.95 s) by the seed.  cli.run_demo
# and the wide net exercise the evolutionary search.
CONV = NetSpec("conv", 4, 32, 12, 10, 4, 64, 64, 16, 16,
               (("population", 6), ("generations", 2), ("elite", 2), ("parents", 4),
                ("fitness_samples", 4)), algo="greedy")

# --size tiny: the same code paths on nets small enough for a smoke test.
TINY = {
    "wide": NetSpec("linear", 4, 64, 0, 8, 16, 64, 64, 32, 16,
                    (("population", 4), ("generations", 1), ("elite", 1), ("parents", 2),
                     ("fitness_samples", 16))),
    "conv": NetSpec("conv", 4, 16, 6, 8, 8, 16, 16, 8, 8,
                    (("population", 4), ("generations", 1), ("elite", 1), ("parents", 2),
                     ("fitness_samples", 8)), algo="greedy"),
}


class CheckFailed(Exception):
    """An output check failed; the operation counts as failed."""


def digest(arr: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).hexdigest()


def tree_digest(root: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# inputs


def make_inputs(spec: NetSpec, seed: int, model_dir: Path) -> None:
    """Write an uncalibrated model plus calibration and eval sets, as the demo's
    generation stage does."""
    net_seed = cli.stage_seed(seed, "net")
    calib_seed = cli.stage_seed(seed, "calib")
    eval_seed = cli.stage_seed(seed, "eval")
    if spec.kind == "linear":
        graph = synth.make_linear_net(net_seed, spec.layers, spec.width, spec.classes, spec.group)
        x_cal, y_cal = synth.make_dataset(calib_seed, spec.width, spec.classes, spec.n_calib)
        x_eval, y_eval = synth.make_dataset(eval_seed, spec.width, spec.classes, spec.n_eval)
    else:
        graph = synth.make_conv_net(net_seed, spec.layers, spec.width, spec.hw, spec.classes,
                                    3, spec.group)
        x_cal, y_cal = synth.make_image_dataset(calib_seed, spec.width, spec.hw, spec.classes,
                                                spec.n_calib)
        x_eval, y_eval = synth.make_image_dataset(eval_seed, spec.width, spec.hw, spec.classes,
                                                  spec.n_eval)
    modelio.save_model(model_dir, netsim.PreparedModel(graph, {}))
    modelio.save_dataset(model_dir, "calib", x_cal, y_cal)
    modelio.save_dataset(model_dir, "eval", x_eval, y_eval)


# ---------------------------------------------------------------------------
# operations


def prepare(spec: NetSpec, seed: int, model_dir: Path,
            pre_layout_dir: Path | None = None) -> tuple[float, float]:
    """calibrate -> score -> select -> layout through the CLI stage functions.

    Returns the start of the first stage and the summed wall time of the
    four stages.  With ``pre_layout_dir`` the selected, not yet laid-out
    model is copied there (outside the timed stages) for the layout identity
    check.
    """
    stages = [
        lambda: cli.do_calibrate(model_dir, 0.99, None, "static", spec.calib_batch),
        lambda: cli.do_score(model_dir),
        lambda: cli.do_select(model_dir, RATIOS, spec.algo, seed, dict(spec.evo),
                              protect_edges=True, extraction=None),
        lambda: cli.do_layout(model_dir),
    ]
    start = speed.probe.clock()
    total = 0.0
    for i, stage in enumerate(stages):
        if i == 3 and pre_layout_dir is not None:
            shutil.copytree(model_dir, pre_layout_dir)
        t0 = speed.probe.clock()
        stage()
        total += speed.probe.clock() - t0
    return start, total


def best_fitness(model_dir: Path) -> float:
    """Last best-fitness entry at the highest ratio that ran evolution; with
    greedy selection, the fitness at the highest ratio below 1.0.

    The top ratio selects every group, so its history is a single entry.
    """
    with open(model_dir / "fitness.csv") as fh:
        rows = list(csv.DictReader(fh))
    hist: dict[float, list[float]] = {}
    for row in rows:
        hist.setdefault(float(row["ratio"]), []).append(float(row["best_fitness"]))
    ratios = [r for r, h in hist.items() if len(h) > 1] or [r for r in hist if r < 1.0]
    if not ratios:
        raise CheckFailed(f"no selection history in {model_dir / 'fitness.csv'}")
    return hist[max(ratios)][-1]


def pipeline(seed: int, out_dir: Path) -> tuple[float, float]:
    """One full ``cli.run_demo``; returns its start and wall time."""
    t0 = speed.probe.clock()
    cli.run_demo(out_dir, seed, verbose=lambda *args: None)
    return t0, speed.probe.clock() - t0


def check_pipeline(out_dir: Path) -> tuple[float, str]:
    """Checks one demo output tree; returns (effective accuracy, tree digest)."""
    lines = (out_dir / "gemm_check.txt").read_text().splitlines()
    if not lines or not lines[-1].startswith("PASS"):
        raise CheckFailed(f"gemm_check.txt does not end in a PASS line: {lines[-1:]}")
    summary = json.loads((out_dir / "serve_summary.json").read_text())
    return float(summary["effective_accuracy"]), tree_digest(out_dir)


class InferLoop:
    """Closed-loop inference on a laid-out model directory.

    A round runs the batches of ``STEPS``; ``netsim.set_ratio`` is called
    before every mixed batch, cycling through the prepared ratios.  Outputs
    repeated for one (mode, ratio, batch) must be bit-identical.
    """

    def __init__(self, spec: NetSpec, model_dir: Path):
        self.model_dir = model_dir
        x, _ = modelio.load_dataset(model_dir, "eval")
        self.batches = [x[i : i + spec.batch] for i in range(0, len(x) - spec.batch + 1, spec.batch)]
        self.batch = spec.batch
        self.model = None
        # (mode, ratio) -> (start, wall time) of each batch
        self.times: dict[tuple, list[tuple[float, float]]] = {}
        self.cold: list[tuple[float, float]] = []
        self.outputs: dict[tuple, str] = {}
        self.rounds = 0

    def cold_start(self) -> None:
        self.model = None  # a cold start holds one model, as a fresh process would
        t0 = speed.probe.clock()
        model = modelio.load_model(self.model_dir)
        netsim.set_ratio(model, RATIOS[0])
        out = netsim.run(model, self.batches[0], mode="mixed")
        dt = speed.probe.clock() - t0
        self._remember(("mixed", RATIOS[0], 0), out)
        self.model = model
        self.cold.append((t0, dt))

    def step(self, mode: str, ratio: float | None) -> None:
        """One timed batch; the batch index follows the round count."""
        b = self.rounds % len(self.batches)
        t0 = speed.probe.clock()
        if ratio is not None:
            netsim.set_ratio(self.model, ratio)
        out = netsim.run(self.model, self.batches[b], mode=mode)
        dt = speed.probe.clock() - t0
        self._remember((mode, ratio, b), out)
        self.times.setdefault((mode, ratio), []).append((t0, dt))

    def next_round(self) -> None:
        self.rounds += 1

    def _remember(self, key: tuple, out: np.ndarray) -> None:
        d = digest(out)
        if self.outputs.setdefault(key, d) != d:
            raise CheckFailed(f"output for {key} differs between repeats")

    def mixed_rel_l2(self) -> float:
        """Mean relative L2 of mixed logits against int8 over the prepared ratios."""
        x = self.batches[0]
        ref = netsim.run(self.model, x, mode="int8")
        self._remember(("int8", None, 0), ref)
        dists = []
        for ratio in RATIOS:
            out = netsim.run(self.model, x, mode="mixed", ratio=ratio)
            self._remember(("mixed", ratio, 0), out)
            dists.append(netsim.relative_l2(out, ref))
        return float(np.mean(dists))


# ---------------------------------------------------------------------------
# checks


def check_layout(pre_dir: Path, post_dir: Path, x: np.ndarray) -> None:
    """The laid-out model is bit-identical to the pre-layout one, in int8 and
    at every prepared ratio."""
    pre = modelio.load_model(pre_dir)
    post = modelio.load_model(post_dir)
    if not post.laid_out:
        raise CheckFailed(f"{post_dir} is not laid out")
    runs = [("int8", None)] + [("mixed", r) for r in RATIOS]
    for mode, ratio in runs:
        a = netsim.run(pre, x, mode=mode, ratio=ratio)
        b = netsim.run(post, x, mode=mode, ratio=ratio)
        if not np.array_equal(a, b):
            raise CheckFailed(f"layout changed the {mode} output at ratio {ratio}")


def check_kernel(model: netsim.PreparedModel, x: np.ndarray, conv: bool) -> None:
    """Catch one mixed-kernel call of a real forward pass and compare a small
    slice of its output with the scalar oracle."""
    name = "mixed_conv2d" if conv else "mixed_gemm"
    original = getattr(kernels, name)
    sig = inspect.signature(original)
    calls = []

    def probe(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((sig.bind(*args, **kwargs).arguments, out))
        return out

    setattr(kernels, name, probe)
    try:
        netsim.run(model, x, mode="mixed", ratio=RATIOS[1])
    finally:
        setattr(kernels, name, original)
    if not calls:
        raise CheckFailed(f"no kernels.{name} call in a mixed forward")
    # the call with the most 4-bit groups exercises extraction the most
    args, (got, stats) = max(calls, key=lambda c: int(np.sum(c[0]["group_flags"])))
    x_q, w_q, plan = np.asarray(args["x_q"]), np.asarray(args["w_q"]), args["plan"]
    if plan.mode == "naive" or args.get("extraction") == "naive":
        raise CheckFailed("the oracle slice check does not model naive extraction")
    n_out = w_q.shape[0] if conv else w_q.shape[1]
    cols = np.arange(n_out // 2, min(n_out, n_out // 2 + 4))
    sub_plan = bitlower.ExtractionPlan(plan.act_shifts, plan.weight_shifts[:, cols], plan.mode)
    w_scales = np.asarray(args["w_scales"])[cols]
    common = (args["act_scale"], w_scales, sub_plan, args["group_size"], args["group_flags"])
    if conv:
        want = oracle.scalar_mixed_conv2d(x_q[:1], w_q[cols], *common,
                                          act_shifts=stats.act_shifts_used)
        have = got[:1, cols]
    else:
        want = oracle.scalar_mixed_gemm(x_q[:2], w_q[:, cols], *common,
                                        act_shifts=stats.act_shifts_used)
        have = got[:2][:, cols]
    if not np.array_equal(have, want):
        raise CheckFailed(f"kernels.{name} differs from the scalar oracle")
