"""Minimal network graph and execution engine.

Supported operators: linear, conv2d (stride 1, same padding), relu, gelu,
residual_add, and reorder.  Matmul operators run in fp32, uniform int8,
uniform int4, or mixed 4/8-bit precision; everything else runs in 32-bit
float.  The engine is pure: a prepared model is immutable during a call
and outputs are deterministic.  A quantized run walks a plan of per-layer
``Step``s holding what no call changes, built once per model and
precision, and in mixed mode once per prepared ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .bitlower import ExtractionPlan, group_bitwidths, group_slices, plan_extraction
from .qtensor import ChannelRange, QuantParams, calibrate_ranges, derive_scales, quantize

MATMUL_KINDS = ("linear", "conv2d")


@dataclass
class Layer:
    kind: str
    name: str = ""
    weight: np.ndarray | None = None  # [out, in] or [out, in, kh, kw], float32
    source: int | None = None  # residual_add / reorder: producer layer index, -1 = input
    perm: np.ndarray | None = None  # reorder: channel permutation

    def __post_init__(self):
        if self.weight is not None:
            self.weight = np.asarray(self.weight, dtype=np.float32)

    @property
    def n_in(self) -> int:
        return self.weight.shape[1]

    @property
    def n_out(self) -> int:
        return self.weight.shape[0]


@dataclass
class NetworkGraph:
    layers: list[Layer]
    input_shape: tuple[int, ...]  # (features,) or (channels, height, width)
    group_size: int = 32

    def matmul_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.kind in MATMUL_KINDS]


@dataclass
class QuantState:
    """Calibrated quantization data for one matmul layer."""

    act_range: ChannelRange  # per input channel, float units
    act_scale: float  # per-tensor, 8-bit
    act_scale4: float  # per-tensor, 4-bit (uniform-int4 baseline)
    w_params8: QuantParams
    w_q8: np.ndarray
    w_params4: QuantParams
    w_q4: np.ndarray
    plan: ExtractionPlan
    w_lo8: np.ndarray  # w_q8 with every group lowered per the plan (kernels.lower_weights)

    def act_q8_bounds(self) -> np.ndarray:
        return _act_code_bounds(self.act_range, self.act_scale)


def _act_code_bounds(act_range: ChannelRange, act_scale: float) -> np.ndarray:
    """[n_channels, 2] int64 (lo, hi) 8-bit activation code bounds of the
    calibrated per-channel ranges."""
    lo = np.clip(np.rint(act_range.min / act_scale), -128, 127)
    hi = np.clip(np.rint(act_range.max / act_scale), -128, 127)
    return np.stack([lo, hi], axis=1).astype(np.int64)


@dataclass
class PreparedModel:
    graph: NetworkGraph
    states: dict[int, QuantState]
    selections: dict[float, dict[int, np.ndarray]] = field(default_factory=dict)
    input_perm: np.ndarray | None = None
    laid_out: bool = False
    active_ratio: float | None = None
    # the step plans ``run`` reuses, per precision and per (ratio, extraction)
    steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def group_size(self) -> int:
        return self.graph.group_size

    def n_groups(self, idx: int) -> int:
        return len(group_slices(self.graph.layers[idx].n_in, self.group_size))

    def n_4bit_channels(self, idx: int, flags: np.ndarray | None) -> int:
        """Input channels of matmul layer ``idx`` in the groups ``flags`` mark
        4-bit (none without flags); a ragged last group counts its own width."""
        if flags is None:
            return 0
        ragged = -self.graph.layers[idx].n_in % self.group_size if flags[-1] else 0
        return int(np.count_nonzero(flags)) * self.group_size - ragged


@dataclass
class LayerRecord:
    """What one matmul layer saw and produced in one ``run``."""

    input: np.ndarray
    output: np.ndarray
    flags: np.ndarray | None = None  # mixed mode: the 4-bit group flags used
    stats: kernels.KernelStats | None = None  # mixed mode


def ratio_key(ratio: float) -> float:
    return round(float(ratio), 6)


def _selection(model: PreparedModel, ratio: float) -> dict[int, np.ndarray]:
    """The 4-bit group flags prepared for ``ratio``, per matmul layer."""
    key = ratio_key(ratio)
    if key not in model.selections:
        avail = sorted(model.selections)
        raise ValueError(f"ratio {ratio} not prepared; available: {avail}")
    return model.selections[key]


def gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation, adequate for synthetic evaluation tasks
    c = math.sqrt(2.0 / math.pi)
    return (0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))).astype(np.float32)


def _matmul_fp32(layer: Layer, h: np.ndarray) -> np.ndarray:
    w = layer.weight.astype(np.float64)
    if layer.kind == "linear":
        return (h.astype(np.float64) @ w.T).astype(np.float32)
    return kernels.conv2d_same(h.astype(np.float64), w).astype(np.float32)


@dataclass(frozen=True)
class Step:
    """One matmul layer as each call in one precision runs it.

    It holds what no call changes: the activation quantizer, the kernel's
    weight operands and its ``kernels.Contraction``; in mixed mode also the
    4-bit group flags in force, the lowered weight codes and the flags'
    ``kernels.Lowering``.  ``state`` is the ``QuantState`` it was built from.
    """

    state: QuantState
    act_scale: float
    act: QuantParams
    w_q: np.ndarray  # as the kernel takes it: [K, N] (a view of [N, K]) or [O, C, kh, kw]
    w_scales: np.ndarray
    contraction: kernels.Contraction
    w_lo: np.ndarray | None = None  # mixed: ``state.w_lo8`` laid out as ``w_q``
    flags: np.ndarray | None = None  # mixed
    lowering: kernels.Lowering | None = None  # mixed, on a layer with a 4-bit group


def _uniform_step(layer: Layer, state: QuantState, bits: int) -> Step:
    conv = layer.kind == "conv2d"
    if bits == 4:
        act_scale, w_q, w_scales, w_lo = state.act_scale4, state.w_q4, state.w_params4.scale, None
    else:
        act_scale, w_q, w_scales = state.act_scale, state.w_q8, state.w_params8.scale
        w_lo = state.w_lo8
    if not conv:
        w_q, w_lo = w_q.T, None if w_lo is None else w_lo.T
    contraction = kernels.plan_contraction(w_q, act_scale, w_scales, conv)
    return Step(state, act_scale, QuantParams(act_scale, bits), w_q, w_scales, contraction, w_lo)


def _mixed_step(base: Step, layer: Layer, flags, group_size: int, extraction: str | None) -> Step:
    flags = np.array(flags, dtype=bool)
    flags.flags.writeable = False  # shared by every call and LayerRecord that uses the step
    lowering = None  # a layer with no 4-bit group lowers nothing
    if flags.any():
        lowering = kernels.plan_lowering(
            base.state.plan, group_size, flags, layer.n_in, extraction,
            ndim=4 if layer.kind == "conv2d" else 2,
        )
    return replace(base, flags=flags, lowering=lowering)


def _steps(
    model: PreparedModel,
    mode: str,
    ratio: float | None,
    extraction: str | None,
    flags_override: dict[int, np.ndarray] | None,
) -> dict[int, Step]:
    """Each matmul layer's step for one quantized ``run``.

    The steps of a precision, and in mixed mode those of a prepared ratio
    and extraction, are built once and kept in ``model.steps``.  A kept
    step is reused only while its layer's state and flags are the ones in
    force (the flags are compared on every call); steps for
    ``flags_override`` are built for the call and not kept.
    """
    bits = 4 if mode == "int4" else 8
    uniform = model.steps.setdefault(bits, {})
    mixed: dict[int, tuple] = {}
    if mode == "mixed":
        flags_by_layer = flags_override
        if flags_override is None:
            if ratio is None:
                ratio = model.active_ratio
            if ratio is None:
                raise ValueError("mixed mode needs a ratio (or set_ratio() first)")
            flags_by_layer = _selection(model, ratio)
            mixed = model.steps.setdefault(("mixed", ratio_key(ratio), extraction), {})
    steps = {}
    for idx in model.graph.matmul_indices():
        layer, state = model.graph.layers[idx], model.states[idx]
        step = uniform.get(idx)
        if step is None or step.state is not state:
            step = uniform[idx] = _uniform_step(layer, state, bits)
        if mode == "mixed":
            flags = flags_by_layer.get(idx)
            key = None if flags is None else np.asarray(flags, dtype=bool).tobytes()
            kept = mixed.get(idx)
            if kept is None or kept[0] != key or kept[1].state is not state:
                if flags is None:
                    flags = np.zeros(model.n_groups(idx), dtype=bool)
                kept = (key, _mixed_step(step, layer, flags, model.group_size, extraction))
                if flags_override is None:
                    mixed[idx] = kept
            step = kept[1]
        steps[idx] = step
    return steps


def _matmul_quant(
    kind: str, step: Step, h: np.ndarray, group_size: int, extraction: str | None
) -> tuple[np.ndarray, kernels.KernelStats | None]:
    codes = quantize(h, step.act).data
    if step.flags is None:
        kernel = kernels.int_gemm if kind == "linear" else kernels.int_conv2d
        return kernel(codes, step.w_q, step.act_scale, step.w_scales,
                      contraction=step.contraction), None
    kernel = kernels.mixed_gemm if kind == "linear" else kernels.mixed_conv2d
    return kernel(
        codes, step.w_q, step.act_scale, step.w_scales, step.state.plan, group_size,
        group_flags=step.flags, extraction=extraction, w_lo=step.w_lo,
        contraction=step.contraction, lowering=step.lowering,
    )


def run(
    model: PreparedModel,
    x: np.ndarray,
    mode: str = "fp32",
    ratio: float | None = None,
    extraction: str | None = None,
    flags_override: dict[int, np.ndarray] | None = None,
    record: dict[int, LayerRecord] | None = None,
) -> np.ndarray:
    """Execute the network on a batch and return its output.

    mode: fp32 | int8 | int4 | mixed.  In mixed mode the 4-bit group flags
    come from ``flags_override`` if given, else from the selection
    prepared for ``ratio`` (defaulting to the model's active ratio); a
    layer without flags runs all-8-bit.  A quantized run walks the step
    plan of ``_steps``.  If ``record`` is given, it gets a ``LayerRecord``
    per matmul layer index: the layer's float input and output, and in
    mixed mode the flags used and the kernel's stats.
    """
    if mode not in ("fp32", "int8", "int4", "mixed"):
        raise ValueError(f"unknown mode {mode!r}")
    steps = None
    if mode != "fp32":
        if not model.states:
            raise ValueError("model is not calibrated; run prepare() first")
        steps = _steps(model, mode, ratio, extraction, flags_override)

    h = np.asarray(x, dtype=np.float32)
    if model.input_perm is not None:
        h = h[:, model.input_perm]
    x0 = h
    outputs: list[np.ndarray] = []
    for idx, layer in enumerate(model.graph.layers):
        if layer.kind in MATMUL_KINDS:
            h_in, step, kstats = h, None, None
            if steps is None:
                h = _matmul_fp32(layer, h)
            else:
                step = steps[idx]
                h, kstats = _matmul_quant(layer.kind, step, h, model.group_size, extraction)
            if record is not None:
                record[idx] = LayerRecord(h_in, h, None if step is None else step.flags, kstats)
            outputs.append(h)
        elif layer.kind == "relu":
            h = np.maximum(h, 0.0)
            outputs.append(h)
        elif layer.kind == "gelu":
            h = gelu(h)
            outputs.append(h)
        elif layer.kind == "residual_add":
            src = x0 if layer.source == -1 else outputs[layer.source]
            h = h + src
            outputs.append(h)
        elif layer.kind == "reorder":
            if layer.source is None:
                h = h[:, layer.perm]
                outputs.append(h)
            else:
                # side operator: reorders a recorded output (residual path),
                # main stream passes through untouched
                src = x0 if layer.source == -1 else outputs[layer.source]
                outputs.append(src[:, layer.perm])
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
    return h


def set_ratio(model: PreparedModel, ratio: float) -> dict[int, int]:
    """Switch the active 4-bit ratio; returns each matmul layer's count of
    4-bit input channels at that ratio (0 for a layer without flags).

    No weight data moves; only the active selection changes.
    """
    selection = _selection(model, ratio)
    model.active_ratio = ratio_key(ratio)
    return {
        idx: model.n_4bit_channels(idx, selection.get(idx))
        for idx in model.graph.matmul_indices()
    }


def _build_state(
    layer: Layer, act_range: ChannelRange, group_size: int, extraction_mode: str
) -> QuantState:
    w = layer.weight
    flat = w.reshape(w.shape[0], -1)
    w_ranges = ChannelRange(flat.min(axis=1), flat.max(axis=1))
    p8 = derive_scales(w_ranges, 8, per_channel=True, channel_axis=0)
    p4 = derive_scales(w_ranges, 4, per_channel=True, channel_axis=0)
    q8 = quantize(w, p8)
    q4 = quantize(w, p4)
    abs_max = float(act_range.abs_max().max())
    act_scale = abs_max / 127.0 if abs_max > 0 else 1e-8
    act_scale4 = abs_max / 7.0 if abs_max > 0 else 1e-8
    plan = plan_extraction(
        _act_code_bounds(act_range, act_scale), q8.data, group_size, mode=extraction_mode
    )
    w_lo8 = kernels.lower_weights(q8.data, plan.weight_shifts, group_size, axis=1)
    return QuantState(act_range, act_scale, act_scale4, p8, q8.data, p4, q4.data, plan, w_lo8)


def prepare(
    graph: NetworkGraph,
    calib_batches,
    momentum: float = 0.99,
    coverage_quantile: float | None = None,
    extraction_mode: str = "static",
) -> PreparedModel:
    """Calibrate activation ranges on a batch stream and quantize weights."""
    batches = list(calib_batches)
    if not batches:
        raise ValueError("calibration stream is empty")
    matmuls = graph.matmul_indices()
    streams: dict[int, list[np.ndarray]] = {i: [] for i in matmuls}
    for batch in batches:
        rec: dict[int, LayerRecord] = {}
        run(PreparedModel(graph, {}), batch, record=rec)
        for i in matmuls:
            streams[i].append(rec[i].input)
    states = {}
    for i in matmuls:
        cr = calibrate_ranges(streams[i], momentum, channel_axis=1, coverage_quantile=coverage_quantile)
        states[i] = _build_state(graph.layers[i], cr, graph.group_size, extraction_mode)
    return PreparedModel(graph, states)


# ---------------------------------------------------------------------------
# metrics


def l2_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm((a - b).ravel()))


def relative_l2(a: np.ndarray, b: np.ndarray) -> float:
    """L2 distance normalized by the norm of the reference b."""
    norm = float(np.linalg.norm(np.asarray(b, dtype=np.float64).ravel()))
    if norm == 0.0:
        raise ValueError("reference tensor has zero norm")
    return l2_distance(a, b) / norm


def top1_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Share of samples whose largest logit is their label.

    Conv logits [B, classes, H, W] are averaged over the spatial axes first.
    """
    scores = logits.mean(axis=tuple(range(2, logits.ndim)))
    if labels.shape != scores.shape[:1]:
        raise ValueError(f"labels of shape {labels.shape} do not match logits of shape {logits.shape}")
    return float((np.argmax(scores, axis=1) == labels).mean())


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class LossInputs:
    logits_low: np.ndarray
    logits_high: np.ndarray
    logits_fp32: np.ndarray
    hard_labels: np.ndarray
    lam: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda {self.lam} outside [0, 1]")
        if not (self.logits_low.shape == self.logits_high.shape == self.logits_fp32.shape):
            raise ValueError("logit tensors must share a shape")


def _branch_loss(logits: np.ndarray, hard_labels: np.ndarray, soft_targets: np.ndarray) -> float:
    p = softmax(logits)
    n = p.shape[0]
    ce_hard = -np.log(p[np.arange(n), hard_labels]).mean()
    ce_soft = -(soft_targets * np.log(p)).sum(axis=1).mean()
    return float(ce_hard + ce_soft)


def total_loss(inputs: LossInputs) -> float:
    """Combined hard-label + distillation loss, blended across bitwidths."""
    soft = softmax(inputs.logits_fp32)
    l_low = _branch_loss(inputs.logits_low, inputs.hard_labels, soft)
    l_high = _branch_loss(inputs.logits_high, inputs.hard_labels, soft)
    return inputs.lam * l_low + (1.0 - inputs.lam) * l_high


# ---------------------------------------------------------------------------
# analyses


def unused_bit_report(model: PreparedModel) -> dict[int, dict[str, list[float]]]:
    """Per matmul layer, fraction of channels with 0..4+ unused high bits.

    Channels are feature (input) channels; weight bitwidth is taken over
    all output channels' codes for that input channel, activation
    bitwidth from the calibrated code bounds.
    """
    if not model.states:
        raise ValueError("model is not calibrated")
    report = {}
    for idx, state in model.states.items():
        bits = {
            "weight": group_bitwidths(state.w_q8, 1, axis=1),
            "activation": group_bitwidths(state.act_q8_bounds(), 1),
        }
        report[idx] = {
            k: (np.bincount(np.minimum(8 - b, 4), minlength=5) / b.size).tolist()
            for k, b in bits.items()
        }
    return report


def saturation_report(
    model: PreparedModel,
    eval_inputs: np.ndarray,
    ratio: float,
    extraction: str | None = None,
) -> dict[int, float]:
    """Per-layer percentage of 4-bit channels whose codes clipped."""
    rec: dict[int, LayerRecord] = {}
    run(model, eval_inputs, mode="mixed", ratio=ratio, extraction=extraction, record=rec)
    report = {}
    for idx, r in rec.items():
        covered = model.n_4bit_channels(idx, r.flags)
        if covered == 0:
            report[idx] = 0.0
        else:
            report[idx] = 100.0 * float(r.stats.saturated_channels.sum()) / covered
    return report
