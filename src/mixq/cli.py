"""Command-line interface for the mixed-precision quantization toolkit.

Every subcommand operates on a model directory (manifest + binaries, see
modelio).  Exit codes: 0 success, 2 bad arguments, 3 missing artifacts,
4 validation failure.  All randomness derives from ``--seed`` through
per-stage named generators, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np

from . import (bitlower, evoselect, kernels, layout, modelio, netsim, oracle, qtensor, scoring,
               serve, synth)
from .modelio import MissingArtifactError

DEFAULT_RATIOS = (0.25, 0.5, 0.75, 1.0)


def stage_seed(seed: int, stage: str) -> int:
    """Per-stage RNG seed derived from the run seed and the stage name."""
    return zlib.crc32(f"{stage}:{seed}".encode())


def _default_dir() -> str:
    return os.environ.get("MIXQ_OUT", "mixq_out")


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    modelio.write_atomic(path, ("\n".join(lines) + "\n").encode())


def _batches(x: np.ndarray, batch_size: int):
    return [x[i : i + batch_size] for i in range(0, len(x), batch_size)]


def _mixed_ratio(model_dir, model: netsim.PreparedModel, ratio: float | None = None) -> float:
    """``ratio``, by default the highest prepared one.  Without selections
    no ratio can run mixed, so this raises whatever ``--ratio`` says."""
    if not model.selections:
        raise ValueError(f"{model_dir}: no selections prepared; run mixq select first")
    return max(model.selections) if ratio is None else ratio


def _load_calibrated(model_dir) -> netsim.PreparedModel:
    """The model of ``model_dir``, for a stage that needs its 8-bit states."""
    model = modelio.load_model(model_dir)
    if not model.states:
        raise ValueError(f"{model_dir}: model is not calibrated; run mixq calibrate first")
    return model


# ---------------------------------------------------------------------------
# stages


def do_calibrate(model_dir, momentum, quantile, extraction, batch_size) -> netsim.PreparedModel:
    model = modelio.load_model(model_dir)
    x, _ = modelio.load_dataset(model_dir, "calib")
    # checked in the stored channel order, which a laid-out model's prepare does not see
    if (at := qtensor.first_non_finite(x)) is not None:
        raise ValueError(f"{model_dir}: calibration set 'calib' sample {at[0]} is not finite "
                         f"at index {at[1:]}")
    if model.input_perm is not None:  # a laid-out graph reads its inputs permuted
        x = x[:, model.input_perm]
    new = netsim.prepare(
        model.graph,
        _batches(x, batch_size),
        momentum=momentum,
        coverage_quantile=quantile,
        extraction_mode=extraction,
    )
    # carry forward artifacts from earlier runs of later stages, if any
    new.selections = model.selections
    new.input_perm = model.input_perm
    new.laid_out = model.laid_out
    modelio.save_model(model_dir, new)
    return new


def do_score(model_dir) -> list[scoring.ErrorScore]:
    model = _load_calibrated(model_dir)
    scores = scoring.score_groups(model)
    modelio.write_atomic(Path(model_dir) / "score.csv", scoring.scores_to_csv(scores).encode())
    return scores


def do_select(model_dir, ratios, algo, seed, cfg_kwargs, protect_edges, extraction):
    cfg = evoselect.EvoConfig(seed=stage_seed(seed, "select"), **cfg_kwargs)
    model = _load_calibrated(model_dir)
    scores = scoring.score_groups(model)
    x, _ = modelio.load_dataset(model_dir, "calib")
    samples = x[: cfg.fitness_samples]
    histories: dict = {}
    selections = evoselect.chained_selection(
        model, scores, ratios, cfg, samples,
        algo=algo, protect_edges=protect_edges, extraction=extraction,
        histories=histories,
    )
    # fresh selections invalidate any earlier layout
    model.selections = {}
    model.laid_out = False
    evoselect.install_selections(model, selections)
    modelio.save_model(model_dir, model)
    fit_rows = [
        [_fmt(r), gen, float(best)]
        for r in sorted(histories)
        for gen, best in enumerate(histories[r])
    ]
    _write_csv(Path(model_dir) / "fitness.csv", ["ratio", "generation", "best_fitness"], fit_rows)
    summary = {_fmt(r): {str(i): int(f.sum()) for i, f in sel.items()}
               for r, sel in selections.items()}
    modelio.write_json(Path(model_dir) / "selection.json", summary)
    return selections


def do_layout(model_dir) -> netsim.PreparedModel:
    model = modelio.load_model(model_dir)
    plans = layout.plan_layout(model)
    model = layout.apply_layout(model, plans)
    modelio.save_model(model_dir, model)
    return model


def run_gemm_check(cases: int, seed: int, group_size: int, max_dim: int) -> list[str]:
    """Random mixed-GEMM cases checked against the scalar reference."""
    rng = np.random.default_rng(stage_seed(seed, "gemm-check"))
    lines = []
    for case in range(cases):
        K = group_size * int(rng.integers(1, max(2, max_dim // group_size + 1)))
        N = int(rng.integers(1, max_dim + 1))
        B = int(rng.integers(1, 9))
        x_q = rng.integers(-128, 128, size=(B, K)).astype(np.int64)
        w_q = rng.integers(-128, 128, size=(K, N)).astype(np.int64)
        w_scales = rng.uniform(1e-3, 1e-1, size=N)
        act_scale = float(rng.uniform(1e-3, 1e-1))
        bounds = np.stack([x_q.min(axis=0), x_q.max(axis=0)], axis=1)
        flags = rng.integers(0, 2, size=len(bitlower.group_slices(K, group_size))).astype(bool)
        for mode in ("static", "naive", "dynamic"):
            plan = bitlower.plan_extraction(bounds, w_q.T.copy(), group_size, mode=mode)
            got, _ = kernels.mixed_gemm(
                x_q, w_q, act_scale, w_scales, plan, group_size, group_flags=flags
            )
            shifts = None
            if mode == "dynamic":
                shifts = [
                    bitlower.dynamic_shift(x_q[:, sl])
                    for sl in bitlower.group_slices(K, group_size)
                ]
            want = oracle.scalar_mixed_gemm(
                x_q, w_q, act_scale, w_scales, plan, group_size, flags, act_shifts=shifts
            )
            if not np.array_equal(got, want):
                raise ValueError(
                    f"gemm check failed: case {case} mode {mode} B={B} K={K} N={N}"
                )
        lines.append(f"case {case}: B={B} K={K} N={N} ok")
    lines.append(f"PASS {cases} cases x 3 extraction modes")
    return lines


def do_infer(model_dir, mode, ratio, extraction, dataset):
    model = _load_calibrated(model_dir)  # every mode reports its drift to int8
    x, y = modelio.load_dataset(model_dir, dataset)
    if mode == "mixed":
        ratio = _mixed_ratio(model_dir, model, ratio)
    out = netsim.run(model, x, mode=mode, ratio=ratio, extraction=extraction)
    ref = out if mode == "int8" else netsim.run(model, x, mode="int8")
    metrics = {
        "mode": mode,
        "ratio": ratio if ratio is not None else "",
        "l2_to_int8": netsim.l2_distance(out, ref),
        "rel_l2": netsim.relative_l2(out, ref),
    }
    if y is not None:
        metrics["top1"] = netsim.top1_accuracy(out, y)
    return metrics


def do_report_bits(model_dir):
    model = _load_calibrated(model_dir)
    report = netsim.unused_bit_report(model)
    rows = []
    for idx in sorted(report):
        for unused in range(5):
            rows.append(
                [idx, unused,
                 float(report[idx]["weight"][unused]),
                 float(report[idx]["activation"][unused])]
            )
    _write_csv(Path(model_dir) / "bits.csv", ["layer", "unused_bits", "weight_frac", "act_frac"],
               rows)
    return report


def do_report_saturation(model_dir, ratio, extraction, scale, dataset):
    model = _load_calibrated(model_dir)
    ratio = _mixed_ratio(model_dir, model, ratio)
    x, _ = modelio.load_dataset(model_dir, dataset)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by sample
        x = x * scale
    if (at := qtensor.first_non_finite(x)) is not None:
        raise ValueError(f"{model_dir}: dataset {dataset!r} sample {at[0]} times --scale {scale} "
                         f"is not finite at index {at[1:]}")
    report = netsim.saturation_report(model, x, ratio, extraction=extraction)
    rows = [[idx, float(report[idx])] for idx in sorted(report)]
    _write_csv(Path(model_dir) / "saturation.csv", ["layer", "saturated_pct"], rows)
    return report


def do_report_l2(model_dir, dataset, extraction):
    model = _load_calibrated(model_dir)
    _mixed_ratio(model_dir, model)  # raises when no selection is prepared
    x, _ = modelio.load_dataset(model_dir, dataset)
    ref_rec: dict[int, netsim.LayerRecord] = {}
    ref = netsim.run(model, x, mode="int8", record=ref_rec)
    rows = []
    for ratio in sorted(model.selections):
        rec: dict[int, netsim.LayerRecord] = {}
        out = netsim.run(model, x, mode="mixed", ratio=ratio, extraction=extraction, record=rec)
        for idx in sorted(rec):
            drift = netsim.relative_l2(rec[idx].output, ref_rec[idx].output)
            rows.append([_fmt(ratio), idx, drift])
        rows.append([_fmt(ratio), "logits", netsim.relative_l2(out, ref)])
    _write_csv(Path(model_dir) / "l2.csv", ["ratio", "layer", "rel_l2_to_int8"], rows)
    return rows


def _read_arrivals(trace_file) -> np.ndarray:
    """Sorted arrival times, one per line of ``trace_file``."""
    if not Path(trace_file).is_file():
        raise MissingArtifactError(f"trace file {trace_file} not found")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's "input contained no data"
            arrivals = np.loadtxt(trace_file, dtype=np.float64, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"trace file {trace_file}: {exc}") from None
    if arrivals.size == 0:
        raise ValueError(f"trace file {trace_file} holds no arrival times")
    bad = ~(np.isfinite(arrivals) & (arrivals >= 0))
    if bad.any():
        raise ValueError(f"trace file {trace_file}: arrival times must be finite and "
                         f"non-negative, found {arrivals[np.argmax(bad)]}")
    return np.sort(arrivals)


def do_serve_sim(seed, out_dir, policy_name, fixed_ratio, quality=None, rate=None,
                 min_rate=None, peak_factor=3.0, duration=None, threshold=None, window=None,
                 trace_file=None):
    sources = {"trace_file": trace_file, "rate": rate, "min_rate": min_rate}
    given = [name for name, value in sources.items() if value is not None]
    if len(given) > 1:
        raise ValueError(f"give at most one arrival source, got {', '.join(given)}")
    arrivals = None if trace_file is None else _read_arrivals(trace_file)
    seed = stage_seed(seed, "serve")
    if not given:
        trace, cost, policy = serve.shipped_scenario(seed=seed)
    else:
        cost, policy = serve.shipped_server(seed=seed)
    if threshold is not None or window is not None:
        policy = serve.ControllerPolicy(
            window=policy.window if window is None else window,
            threshold=policy.threshold if threshold is None else threshold,
            profile=policy.profile,
        )
    if arrivals is not None:
        if duration is None:
            # windows hold t0 <= a < t1, so a last arrival on the closing edge
            # of the last window would fall in none: run half a window on
            duration = float(arrivals[-1])
            if max(1, math.ceil(duration / policy.window)) * policy.window <= duration:
                duration += policy.window / 2
        elif arrivals[-1] >= duration:
            raise ValueError(f"trace file {trace_file} has an arrival at {arrivals[-1]} s, "
                             f"not before --duration {duration}")
        trace = serve.ServingTrace(arrivals, duration)
    elif rate is not None:
        trace = serve.gen_poisson(
            rate, serve.SHIPPED_DURATION if duration is None else duration, seed)
    elif min_rate is not None:
        trace = serve.gen_fluctuating(
            min_rate, serve.SHIPPED_DURATION if duration is None else duration, seed,
            peak_factor=peak_factor)
    if policy_name == "fixed":
        result = serve.simulate(trace, cost, fixed_ratio, window=policy.window)
    else:
        result = serve.simulate(trace, cost, policy)
    rows = [
        [w["t"], w["rate"], w["ratio"], w["median"], w["p90"], w["n"]]
        for w in result.windows
    ]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "serve.csv", ["t", "rate", "ratio", "median", "p90", "n"], rows)
    over = sum(1 for w in result.windows if w["median"] > policy.threshold)
    summary = {
        "policy": policy_name,
        "threshold": policy.threshold,
        "windows": len(result.windows),
        "windows_over_threshold": over,
        "median_latency": float(np.median(result.latencies)) if result.latencies.size else 0.0,
        "saturated_at_full_ratio": result.saturated,
        "ratio_timeline": [[t, r] for t, r in result.ratio_timeline],
    }
    if quality is not None:
        summary["effective_accuracy"] = serve.effective_accuracy(
            result.ratio_timeline, trace.duration, quality
        )
    modelio.write_json(out_dir / "serve_summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# demo pipeline


def demo_config(seed: int) -> dict:
    return {
        "n_layers": 4,
        "features": 32,
        "n_classes": 8,
        "group_size": 8,
        "ratios": list(DEFAULT_RATIOS),
        "seed": seed,
    }


def _demo_inputs(cfg: dict):
    """The demo's net and its (inputs, labels) calibration and eval sets."""
    seed, features, classes = cfg["seed"], cfg["features"], cfg["n_classes"]
    graph = synth.make_linear_net(stage_seed(seed, "net"), cfg["n_layers"], features, classes,
                                  cfg["group_size"])
    return (graph, synth.make_dataset(stage_seed(seed, "calib"), features, classes, 256),
            synth.make_dataset(stage_seed(seed, "eval"), features, classes, 128))


def run_demo(out_dir, seed: int, algo: str = "evo", verbose=print) -> dict:
    """Full pipeline on a synthetic model; byte-identical for a fixed seed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = demo_config(seed)

    verbose("[demo] generating synthetic model and datasets")
    graph, (x_cal, y_cal), (x_eval, y_eval) = _demo_inputs(cfg)
    modelio.save_model(out, netsim.PreparedModel(graph, {}))
    modelio.save_dataset(out, "calib", x_cal, y_cal)
    modelio.save_dataset(out, "eval", x_eval, y_eval)
    modelio.write_json(out / "demo_config.json", cfg)

    verbose("[demo] calibrating activation ranges")
    do_calibrate(out, momentum=0.99, quantile=None, extraction="static", batch_size=32)

    verbose("[demo] scoring feature groups")
    do_score(out)

    verbose(f"[demo] selecting 4-bit groups ({algo})")
    cfg_kwargs = dict(population=12, generations=8, elite=2, parents=6, fitness_samples=64)
    do_select(out, cfg["ratios"], algo, seed, cfg_kwargs, protect_edges=True, extraction=None)

    verbose("[demo] applying inclusive channel layout")
    do_layout(out)

    verbose("[demo] verifying kernels against the scalar reference")
    lines = run_gemm_check(cases=10, seed=seed, group_size=4, max_dim=12)
    modelio.write_atomic(out / "gemm_check.txt", ("\n".join(lines) + "\n").encode())

    verbose("[demo] measuring accuracy and logit drift")
    model = modelio.load_model(out)
    ref = netsim.run(model, x_eval, mode="int8")
    rows = []
    quality = {}
    runs = [("fp32", None, None), ("int8", None, None), ("int4", None, None)]
    for r in cfg["ratios"]:
        runs.append(("mixed", r, "static"))
        runs.append(("mixed", r, "dynamic"))
    for mode, ratio, extraction in runs:
        y_hat = ref if mode == "int8" else netsim.run(model, x_eval, mode=mode, ratio=ratio,
                                                      extraction=extraction)
        top1 = netsim.top1_accuracy(y_hat, y_eval)
        rows.append([mode, _fmt(ratio) if ratio is not None else "", extraction or "",
                     float(top1), netsim.l2_distance(y_hat, ref)])
        if mode == "int8":
            quality[0.0] = float(top1)
        elif mode == "mixed" and extraction == "static":
            quality[netsim.ratio_key(ratio)] = float(top1)
    _write_csv(out / "infer.csv", ["mode", "ratio", "extraction", "top1", "l2_to_int8"], rows)

    verbose("[demo] writing bit-usage / saturation / drift reports")
    do_report_bits(out)
    do_report_saturation(out, ratio=max(cfg["ratios"]), extraction=None, scale=1.0, dataset="eval")
    do_report_l2(out, dataset="eval", extraction=None)

    verbose("[demo] simulating adaptive serving")
    summary = do_serve_sim(seed, out, "adaptive", None, quality=quality)
    verbose(f"[demo] done: effective accuracy {summary['effective_accuracy']:.4f}, "
            f"{summary['windows_over_threshold']}/{summary['windows']} windows over threshold")
    return summary


def run_ablate(seed: int, verbose=print) -> list[tuple[str, float]]:
    """Quality ladder at a 75% 4-bit ratio on the demo's synthetic model:
    each rung is ``evoselect.fitness`` on the eval set, the mean per-sample
    logit L2 distance to 8-bit that the evolutionary search minimises."""
    graph, (x_cal, _), (x_eval, _) = _demo_inputs(demo_config(seed))
    model = netsim.prepare(graph, _batches(x_cal, 32))
    scores = scoring.score_groups(model)
    ref = netsim.run(model, x_eval, mode="int8")
    ratio = 0.75
    evo_cfg = evoselect.EvoConfig(
        population=12, generations=8, elite=2, parents=6,
        fitness_samples=64, seed=stage_seed(seed, "ablate"),
    )
    rng = np.random.default_rng(stage_seed(seed, "ablate-random"))
    rnd = evoselect.select_random(model, ratio, rng, protect_edges=True)
    greedy = evoselect.select_greedy(model, scores, ratio, protect_edges=True)
    evo = evoselect.select_channels(model, scores, ratio, evo_cfg, x_cal[:64], protect_edges=True)
    ladder = [
        (f"{name} selection, {extraction} extraction",
         evoselect.fitness(model, chrom, x_eval, ref, extraction))
        for name, chrom, extraction in [
            ("random", rnd, "naive"), ("random", rnd, "static"), ("greedy", greedy, "static"),
            ("evolutionary", evo, "static"), ("evolutionary", evo, "dynamic"),
        ]
    ]
    verbose(f"mean logit L2 distance to 8-bit at {int(ratio * 100)}% 4-bit ratio (lower is better):")
    for name, value in ladder:
        verbose(f"  {name:<44s} {value:.6f}")
    return ladder


# ---------------------------------------------------------------------------
# argument parsing


def _float_type(ok, requirement: str):
    """An argparse type: a float for which ``ok`` holds, else exit 2 with
    "must <requirement>"."""
    def parse(text: str) -> float:
        value = float(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {requirement}, got {text}")
        return value
    parse.__name__ = "float"  # argparse names it in "invalid float value"
    return parse


_positive = _float_type(lambda v: math.isfinite(v) and v > 0, "be finite and positive")
_finite = _float_type(math.isfinite, "be finite")
_unit = _float_type(lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_upper_quantile = _float_type(lambda v: 0.5 <= v <= 1.0, "lie in [0.5, 1]")
_momentum = _float_type(lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")
_rate = _float_type(lambda v: math.isfinite(v) and v >= 0, "be finite and non-negative")


def _int_type(minimum: int, noun: str):
    """An argparse type: an int of at least ``minimum``, else exit 2 with
    "must be a <noun> integer"."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be a {noun} integer, got {text}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


_positive_int = _int_type(1, "positive")
_non_negative_int = _int_type(0, "non-negative")


def _ratio_list(text: str) -> list[float]:
    """An argparse type: comma-separated ratios in [0, 1], sorted; else exit
    2 naming the bad entry or the empty list."""
    entries = [t for t in text.split(",") if t.strip()]
    if not entries:
        raise argparse.ArgumentTypeError(f"must list at least one ratio, got {text!r}")
    ratios = []
    for t in entries:
        try:
            ratios.append(_unit(t))
        except ValueError:
            raise argparse.ArgumentTypeError(f"entry {t.strip()!r} is not a number") from None
    return sorted(ratios)


def _evo_kwargs(args) -> dict:
    """The ``evoselect.EvoConfig`` fields that ``select`` takes as flags."""
    return dict(population=args.population, generations=args.generations, elite=args.elite,
                parents=args.parents, fitness_samples=args.samples)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mixq", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        return sp

    def add_model(sp):
        sp.add_argument("--model", "-m", default=_default_dir(),
                        help="model directory (default $MIXQ_OUT or ./mixq_out)")

    sp = add("calibrate", "calibrate activation ranges on the stored calibration set")
    add_model(sp)
    sp.add_argument("--momentum", type=_momentum, default=0.99)
    sp.add_argument("--quantile", type=_upper_quantile, default=None,
                    help="calibrate to this upper quantile and its mirror, in [0.5, 1]")
    sp.add_argument("--extraction", choices=bitlower.EXTRACTION_MODES, default="static")
    sp.add_argument("--batch-size", type=_positive_int, default=32)

    sp = add("score", "rank feature groups by quantization error score")
    add_model(sp)

    sp = add("select", "search 4-bit group selections for each ratio")
    add_model(sp)
    sp.add_argument("--ratios", type=_ratio_list, default=",".join(map(str, DEFAULT_RATIOS)),
                    help="comma-separated 4-bit ratios, each in [0, 1]")
    sp.add_argument("--algo", choices=("evo", "greedy", "random"), default="evo")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--population", type=_positive_int, default=12)
    sp.add_argument("--generations", type=_non_negative_int, default=8)
    sp.add_argument("--elite", type=_non_negative_int, default=2)
    sp.add_argument("--parents", type=_positive_int, default=6)
    sp.add_argument("--samples", type=_positive_int, default=64)
    sp.add_argument("--no-protect-edges", action="store_true",
                    help="allow 4-bit groups in the first/last layer")
    sp.add_argument("--extraction", choices=bitlower.EXTRACTION_MODES, default=None)

    sp = add("layout", "permute channels so 4-bit groups are contiguous and nested")
    add_model(sp)

    sp = add("gemm-check", "verify the mixed kernel against a scalar reference")
    sp.add_argument("--cases", type=_positive_int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--group-size", type=_positive_int, default=4)
    sp.add_argument("--max-dim", type=_positive_int, default=16)

    sp = add("infer", "run the stored eval set and print accuracy/drift metrics")
    add_model(sp)
    sp.add_argument("--mode", choices=("fp32", "int8", "int4", "mixed"), default="mixed")
    sp.add_argument("--ratio", type=_unit, default=None,
                    help="4-bit ratio of mixed mode (default: the highest prepared)")
    sp.add_argument("--extraction", choices=bitlower.EXTRACTION_MODES, default=None,
                    help="extraction of mixed mode (default: the one calibrated)")
    sp.add_argument("--dataset", default="eval")

    sp = add("report-bits", "histogram of unused high bits per layer")
    add_model(sp)

    sp = add("report-saturation", "percentage of clipped 4-bit channels per layer")
    add_model(sp)
    sp.add_argument("--ratio", type=_unit, default=None,
                    help="4-bit ratio (default: the highest prepared)")
    sp.add_argument("--extraction", choices=bitlower.EXTRACTION_MODES, default=None)
    sp.add_argument("--scale", type=_finite, default=1.0,
                    help="multiply eval inputs to emulate out-of-range batches")
    sp.add_argument("--dataset", default="eval")

    sp = add("report-l2", "per-layer relative L2 drift versus 8-bit, per ratio")
    add_model(sp)
    sp.add_argument("--dataset", default="eval")
    sp.add_argument("--extraction", choices=bitlower.EXTRACTION_MODES, default=None)

    sp = add("serve-sim", "simulate the reference fluctuating serving workload")
    sp.add_argument("--out", default=_default_dir())
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--policy", choices=("adaptive", "fixed"), default="adaptive")
    sp.add_argument("--ratio", type=_unit, default=None,
                    help="ratio of the fixed policy (default 0; needs --policy fixed)")
    arrivals = sp.add_mutually_exclusive_group()
    arrivals.add_argument("--trace", default=None, help="file with one arrival time per line")
    arrivals.add_argument("--rate", type=_rate, default=None, help="constant Poisson rate, req/s")
    arrivals.add_argument("--min-rate", type=_rate, default=None,
                          help="fluctuating trace minimum rate")
    sp.add_argument("--peak-factor", type=_positive, default=None,
                    help="fluctuating trace peak over minimum rate (with --min-rate; default 3)")
    sp.add_argument("--duration", type=_positive, default=None,
                    help="trace length, seconds (with --trace, --rate or --min-rate)")
    sp.add_argument("--threshold", type=_positive, default=None, help="latency threshold, seconds")
    sp.add_argument("--window", type=_positive, default=None, help="controller window, seconds")

    sp = add("demo", "generate a synthetic model and run every stage end to end")
    sp.add_argument("--out", default=_default_dir())
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--algo", choices=("evo", "greedy", "random"), default="evo")

    sp = add("ablate", "print the quality ladder across selection/extraction variants")
    sp.add_argument("--seed", type=int, default=0)
    return p


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "calibrate":
        model = do_calibrate(args.model, args.momentum, args.quantile, args.extraction, args.batch_size)
        print(f"calibrated {len(model.states)} matmul layers -> {args.model}")
    elif cmd == "score":
        scores = do_score(args.model)
        print(f"scored {len(scores)} feature groups -> {args.model}/score.csv")
        for s in scores[:5]:
            print(f"  layer {s.layer} group {s.group}: score {s.score:.6g}")
    elif cmd == "select":
        selections = do_select(args.model, args.ratios, args.algo, args.seed, _evo_kwargs(args),
                               protect_edges=not args.no_protect_edges, extraction=args.extraction)
        for r in sorted(selections):
            flags = selections[r].values()
            print(f"ratio {r}: {sum(int(f.sum()) for f in flags)}/{sum(f.size for f in flags)} "
                  "groups 4-bit")
    elif cmd == "layout":
        model = do_layout(args.model)
        permuted = sum(1 for l in model.graph.layers if l.perm is not None)
        print(f"layout applied; {permuted} residual edges carry a channel order -> {args.model}")
    elif cmd == "gemm-check":
        lines = run_gemm_check(args.cases, args.seed, args.group_size, args.max_dim)
        print("\n".join(lines))
    elif cmd == "infer":
        metrics = do_infer(args.model, args.mode, args.ratio, args.extraction, args.dataset)
        for k, v in metrics.items():
            print(f"{k}: {v}")
    elif cmd == "report-bits":
        do_report_bits(args.model)
        print(f"wrote {args.model}/bits.csv")
    elif cmd == "report-saturation":
        report = do_report_saturation(args.model, args.ratio, args.extraction, args.scale,
                                      args.dataset)
        for idx in sorted(report):
            print(f"layer {idx}: {report[idx]:.2f}% channels saturated")
    elif cmd == "report-l2":
        do_report_l2(args.model, args.dataset, args.extraction)
        print(f"wrote {args.model}/l2.csv")
    elif cmd == "serve-sim":
        fixed_ratio = (args.ratio or 0.0) if args.policy == "fixed" else None
        summary = do_serve_sim(args.seed, args.out, args.policy, fixed_ratio,
                               rate=args.rate, min_rate=args.min_rate,
                               peak_factor=3.0 if args.peak_factor is None else args.peak_factor,
                               duration=args.duration,
                               threshold=args.threshold, window=args.window,
                               trace_file=args.trace)
        print(f"{summary['windows_over_threshold']}/{summary['windows']} windows over "
              f"the {summary['threshold'] * 1e3:.1f} ms threshold "
              f"(median {summary['median_latency'] * 1e3:.3f} ms)")
    elif cmd == "demo":
        run_demo(args.out, args.seed, args.algo)
    elif cmd == "ablate":
        run_ablate(args.seed)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "infer" and args.mode != "mixed":
        for flag, value in (("--ratio", args.ratio), ("--extraction", args.extraction)):
            if value is not None:
                parser.error(f"{flag} needs --mode mixed")
    if args.command == "serve-sim":
        if (args.duration is not None
                and args.trace is None and args.rate is None and args.min_rate is None):
            parser.error("--duration needs --trace, --rate or --min-rate")
        if args.peak_factor is not None and args.min_rate is None:
            parser.error("--peak-factor needs --min-rate")
        if args.ratio is not None and args.policy != "fixed":
            parser.error("--ratio needs --policy fixed")
    if args.command == "select":
        try:  # the rules that tie the evolution counts together
            evoselect.EvoConfig(**_evo_kwargs(args))
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return _dispatch(args)
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
