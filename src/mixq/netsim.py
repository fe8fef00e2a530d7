"""Minimal network graph and execution engine.

Supported operators: linear, conv2d (stride 1, same padding), relu, gelu and
residual_add.  A residual_add may carry a ``perm``, the channel order of its
side input in the main stream's order, which a layout sets where the two
streams it joins are ordered differently.  A ``NetworkGraph`` checks on
construction, in one walk, every rule a forward relies on: kinds, weight
ranks, stream kind and channel counts, sources and perms.  Matmul operators
run in fp32, uniform int8, uniform int4, or mixed 4/8-bit precision;
everything else runs in 32-bit float.  The engine is pure: a prepared model
is immutable during a call and outputs are deterministic.  Each matmul
layer's ``QuantState`` keeps its float weight and calibrated ranges and
builds the rest on first read, one part at a time: the 8-bit scales and
codes, the 4-bit ones, the extraction plan and the lowered weights.  So only
what a call reads is ever built: a mixed forward quantizes no weights to 4
bits and lowers the weights of a layer only once its flags set a group.  A
quantized run calls the kernels straight from each layer's state; in mixed
mode the state also memoizes, per prepared set of group flags and weight
rule (planned or naive), the kernel's ``kernels.Lowering``, which holds the
weight operand.  A forward keeps only the tensors a residual_add reads;
``tail`` runs a net from a layer no residual crosses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .bitlower import EXTRACTION_MODES, group_bitwidths, group_slices, plan_extraction
from .qtensor import ChannelRange, calibrate_ranges, derive_scales, first_non_finite, quantize

MATMUL_KINDS = ("linear", "conv2d")
LAYER_KINDS = MATMUL_KINDS + ("relu", "gelu", "residual_add")


@dataclass
class Layer:
    kind: str
    name: str = ""
    weight: np.ndarray | None = None  # [out, in] or [out, in, kh, kw], float32
    source: int | None = None  # residual_add: producer layer index, -1 = input
    perm: np.ndarray | None = None  # residual_add: side input channel c is source channel perm[c]

    def __post_init__(self):
        if self.weight is not None:
            self.weight = np.asarray(self.weight, dtype=np.float32)

    @property
    def n_in(self) -> int:
        return self.weight.shape[1]

    @property
    def n_out(self) -> int:
        return self.weight.shape[0]


def is_permutation(perm: np.ndarray) -> bool:
    """Whether ``perm`` is a 1-D integer array holding 0..n-1 once each."""
    return (perm.dtype.kind == "i" and perm.ndim == 1
            and np.array_equal(np.sort(perm), np.arange(perm.size)))


@dataclass
class NetworkGraph:
    """Layers run in order on one stream, a vector or an image per sample.
    Construction checks every rule ``run`` relies on: a ``ValueError`` names
    the input shape or ``layer N ('kind')`` that breaks one."""

    layers: list[Layer]
    input_shape: tuple[int, ...]  # (features,) or (channels, height, width)
    group_size: int = 32

    def __post_init__(self):
        shape = tuple(self.input_shape)
        if len(shape) not in (1, 3):
            raise ValueError(f"input shape {list(shape)} is neither (features,) nor "
                             f"(channels, height, width)")
        stream = "an image" if len(shape) == 3 else "a vector"
        widths = [shape[0]]  # channels of the input, then of each layer's output
        for idx, layer in enumerate(self.layers):
            where, width = f"layer {idx} ({layer.kind!r})", widths[-1]
            if layer.kind not in LAYER_KINDS:
                raise ValueError(f"{where} has an unknown kind (known: {', '.join(LAYER_KINDS)})")
            if layer.kind in MATMUL_KINDS:
                rank, takes = (2, "a vector") if layer.kind == "linear" else (4, "an image")
                if layer.weight is None:
                    raise ValueError(f"{where} has no weight")
                if layer.weight.ndim != rank:
                    raise ValueError(f"{where} has a weight of shape {list(layer.weight.shape)}, "
                                     f"not of {rank} dimensions")
                if takes != stream or layer.n_in != width:
                    raise ValueError(f"{where} takes {layer.n_in} channels of {takes} stream, "
                                     f"not the {width} of {stream} stream")
                width = layer.n_out
            source, perm = layer.source, layer.perm
            bad_source = not (type(source) is int and -1 <= source < idx)
            if bad_source and (source is not None or layer.kind == "residual_add"):
                raise ValueError(f"{where} has source {source!r}, not -1 (the input) or an "
                                 f"earlier layer")
            if perm is not None and layer.kind != "residual_add":
                raise ValueError(f"{where} has a perm, which only a residual_add takes")
            if perm is not None and not is_permutation(perm):
                raise ValueError(f"{where} has a perm that is not a permutation")
            if layer.kind == "residual_add":
                if widths[source + 1] != width:
                    raise ValueError(f"{where} adds {widths[source + 1]} channels from source "
                                     f"{source} to a stream of {width}")
                if perm is not None and perm.size != width:
                    raise ValueError(f"{where} has a perm of {perm.size} channels, not of the "
                                     f"stream's {width}")
            widths.append(width)

    def matmul_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.kind in MATMUL_KINDS]


# the attributes of a ``QuantState``'s uniform parts, each part built on first read
_PART8 = ("act_scale", "w_scales8", "w_q8")
_PART4 = ("act_scale4", "w_scales4", "w_q4")


@dataclass(eq=False)
class QuantState:
    """Calibrated quantization data for one matmul layer.

    It keeps only its inputs.  Everything else is built once, on the first
    read of any of its attributes, in four parts, each building only what
    it reads of the others:

    - 8-bit: the per-tensor activation scale ``act_scale``, the
      per-output-channel weight scales ``w_scales8`` (1-D float64) and the
      weight codes ``w_q8``;
    - 4-bit, for the uniform-int4 baseline: ``act_scale4``, ``w_scales4``
      and ``w_q4``;
    - ``plan``, the extraction plan of the calibrated shifts (reads the
      8-bit part), whatever the extraction mode;
    - ``w_lo8``, ``w_q8`` with every group lowered per the plan
      (``kernels.lower_weights``).

    So a stage that reads only the ranges quantizes no weights, int8 and
    mixed inference quantize no weights to 4 bits, int8 or int4 inference
    plans no extraction, and a mixed forward lowers only the weights of
    layers whose flags set a group.  ``lowering`` memoizes the constants
    of a mixed kernel's call, its weight operand included.  ``mode`` is
    only the default extraction of a forward that names none.
    """

    weight: np.ndarray  # the layer's float32 weight
    act_range: ChannelRange  # per input channel, float units
    group_size: int
    mode: str  # default extraction mode

    def __post_init__(self):
        if self.mode not in EXTRACTION_MODES:
            raise ValueError(f"unknown extraction mode {self.mode!r}")
        self._lowerings: dict[tuple[bytes, bool], kernels.Lowering] = {}

    def __getattr__(self, name):
        # reached only while ``name`` is unset: build the part it belongs to
        if name in _PART8:
            self.__dict__.update(zip(_PART8, self._uniform_part(8)))
        elif name in _PART4:
            self.__dict__.update(zip(_PART4, self._uniform_part(4)))
        elif name == "plan":
            self.plan = plan_extraction(self.act_q8_bounds(), self.w_q8, self.group_size)
        elif name == "w_lo8":
            self.w_lo8 = kernels.lower_weights(self.w_q8, self.plan.weight_shifts, self.group_size)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__[name]

    def _uniform_part(self, bits: int) -> tuple:
        """(activation scale, weight scales, weight codes) at ``bits``."""
        w = self.weight
        scales = derive_scales(np.abs(w.reshape(w.shape[0], -1)).max(axis=1), bits)
        channels = (-1,) + (1,) * (w.ndim - 1)  # one scale per output channel
        act_scale = float(derive_scales(self.act_range.abs_max().max(), bits))
        return act_scale, scales, quantize(w, scales.reshape(channels), bits)

    def lowering(self, flags, extraction: str | None) -> kernels.Lowering | None:
        """The ``kernels.Lowering`` of this layer's 8-bit activation codes
        under 4-bit group ``flags`` and ``extraction`` (default: ``mode``),
        or None when no group is flagged.

        It is planned once per flags and weight rule, naive or planned, so
        static and dynamic calls on one set of flags share one, and holds
        its own read-only copy of the flags, so changing the caller's array
        later cannot make it stale.
        """
        flags = np.asarray(flags, dtype=bool)
        if not flags.any():
            return None
        key = (flags.tobytes(), (extraction or self.mode) == "naive")
        lowering = self._lowerings.get(key)
        if lowering is None:
            flags = flags.copy()
            flags.flags.writeable = False
            lowering = self._lowerings[key] = self._plan_lowering(flags, extraction)
        return lowering

    def _plan_lowering(self, flags, extraction: str | None) -> kernels.Lowering:
        """``kernels.plan_lowering`` on this layer's 8-bit and lowered weight
        codes as the kernel takes them: a GEMM's [K, N] are views of the
        [N, K] codes.  A naive one reads no ``w_lo8``: ``plan_lowering``
        lowers the weights at shift 4 itself."""
        extraction = extraction or self.mode
        w_q, w_lo = self.w_q8, None if extraction == "naive" else self.w_lo8
        if w_q.ndim == 2:
            w_q, w_lo = w_q.T, (None if w_lo is None else w_lo.T)
        return kernels.plan_lowering(self.plan, self.group_size, flags, w_q, extraction,
                                     w_lo=w_lo)

    def act_q8_bounds(self) -> np.ndarray:
        """[n_channels, 2] int64 (lo, hi) 8-bit activation code bounds of the
        calibrated per-channel ranges."""
        bounds = np.stack([self.act_range.min, self.act_range.max], axis=1)
        return quantize(bounds, self.act_scale, 8).astype(np.int64)


@dataclass
class PreparedModel:
    graph: NetworkGraph
    states: dict[int, QuantState]
    selections: dict[float, dict[int, np.ndarray]] = field(default_factory=dict)
    input_perm: np.ndarray | None = None
    laid_out: bool = False
    active_ratio: float | None = None

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
    if layer.kind == "linear":
        return (h.astype(np.float64) @ layer.weight.astype(np.float64).T).astype(np.float32)
    return kernels._conv_gemm(h, layer.weight, np.float64).astype(np.float32)


def _matmul_quant(layer: Layer, state: QuantState, h, mode: str, group_size: int, flags,
                  extraction, lowering) -> tuple[np.ndarray, kernels.KernelStats | None]:
    if mode == "int4":
        act_scale, bits, w_q, scales = state.act_scale4, 4, state.w_q4, state.w_scales4
    else:
        act_scale, bits, w_q, scales = state.act_scale, 8, state.w_q8, state.w_scales8
    codes = quantize(h, act_scale, bits)
    conv = layer.kind == "conv2d"
    w_q = w_q if conv else w_q.T  # a GEMM takes [K, N], a view of the [N, K] codes
    if mode != "mixed":
        kernel = kernels.int_conv2d if conv else kernels.int_gemm
        return kernel(codes, w_q, act_scale, scales), None
    kernel = kernels.mixed_conv2d if conv else kernels.mixed_gemm
    return kernel(codes, w_q, act_scale, scales, state.plan, group_size, group_flags=flags,
                  extraction=extraction or state.mode, lowering=lowering)


def run(
    model: PreparedModel,
    x: np.ndarray,
    mode: str = "fp32",
    ratio: float | None = None,
    extraction: str | None = None,
    flags_override: dict[int, np.ndarray] | None = None,
    record: dict[int, LayerRecord] | None = None,
) -> np.ndarray:
    """Execute the network on a batch ``x`` of shape [batch, *input_shape]
    and return its output.

    mode: fp32 | int8 | int4 | mixed.  In mixed mode the 4-bit group flags
    come from ``flags_override`` if given, else from the selection
    prepared for ``ratio`` (defaulting to the model's active ratio); a
    layer without flags runs all-8-bit.  The kernels' lowerings of a
    prepared selection come from each state's memo
    (``QuantState.lowering``); those of ``flags_override`` are planned per
    call from the state's lowered weights and not kept.  ``extraction``
    defaults per layer to the mode it was calibrated with; every layer's
    plan holds its calibrated shifts, so any mode applies.  If ``record``
    is given, it gets a
    ``LayerRecord`` per matmul layer index: the layer's float input and
    output, and in mixed mode the flags used and the kernel's stats.
    """
    if mode not in ("fp32", "int8", "int4", "mixed"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "fp32" and not model.states:
        raise ValueError("model is not calibrated; run prepare() first")
    flags_by_layer = flags_override
    if mode == "mixed" and flags_override is None:
        if ratio is None:
            ratio = model.active_ratio
        if ratio is None:
            raise ValueError("mixed mode needs a ratio (or set_ratio() first)")
        flags_by_layer = _selection(model, ratio)

    h = np.asarray(x, dtype=np.float32)
    if h.shape[1:] != tuple(model.graph.input_shape):
        raise ValueError(f"input of shape {list(h.shape)} does not match the model's input "
                         f"shape [batch, {', '.join(map(str, model.graph.input_shape))}]")
    if model.input_perm is not None:
        h = h[:, model.input_perm]
    saved = dict.fromkeys(_sources(model.graph.layers))  # the tensors a residual_add reads
    if -1 in saved:
        saved[-1] = h
    for idx, layer in enumerate(model.graph.layers):
        if layer.kind in MATMUL_KINDS:
            h_in, flags, kstats = h, None, None
            if mode == "fp32":
                h = _matmul_fp32(layer, h)
            else:
                state, lowering = model.states[idx], None
                if mode == "mixed":
                    flags = flags_by_layer.get(idx)
                    if flags is None:
                        flags = np.zeros(model.n_groups(idx), dtype=bool)
                    elif flags_override is None:
                        lowering = state.lowering(flags, extraction)
                        if lowering is not None:
                            flags = lowering.flags
                    elif np.any(flags):
                        lowering = state._plan_lowering(flags, extraction)
                h, kstats = _matmul_quant(
                    layer, state, h, mode, model.group_size, flags, extraction, lowering
                )
            if record is not None:
                record[idx] = LayerRecord(h_in, h, flags, kstats)
        elif layer.kind == "relu":
            h = np.maximum(h, 0.0)
        elif layer.kind == "gelu":
            h = gelu(h)
        else:  # residual_add
            src = saved[layer.source]
            if layer.perm is not None:
                src = src[:, layer.perm]
            h = h + src
        if idx in saved:
            saved[idx] = h
    return h


def _sources(layers: list[Layer]) -> set[int]:
    """What the residual_adds of ``layers`` read: layer outputs, -1 the input."""
    return {layer.source for layer in layers if layer.kind == "residual_add"}


def tail(model: PreparedModel, start: int) -> PreparedModel:
    """The model of ``model``'s layers from ``start`` on, sharing its
    ``QuantState`` objects and selections at the tail's layer indices.  Its
    input is the stream entering layer ``start``: it has no ``input_perm``
    and a source of ``start - 1`` becomes -1.  A cut a residual crosses (a
    source below ``start - 1``, the net's input once ``start > 0``) raises."""
    graph = model.graph
    if not 0 <= start < len(graph.layers):
        raise ValueError(f"cut {start} outside the {len(graph.layers)} layers")
    if min(_sources(graph.layers[start:]), default=start) < start - 1:
        raise ValueError(f"a residual_add from layer {start} on reads a tensor from before "
                         f"layer {start - 1}")
    width = [graph.input_shape[0]] + [l.n_out for l in graph.layers[:start]
                                      if l.kind in MATMUL_KINDS]
    layers = [replace(l, source=l.source - start) if l.kind == "residual_add" else l
              for l in graph.layers[start:]]
    sub = NetworkGraph(layers, (width[-1], *graph.input_shape[1:]), graph.group_size)

    def shift(by_layer: dict) -> dict:
        return {i - start: v for i, v in by_layer.items() if i >= start}

    return replace(model, graph=sub, states=shift(model.states), input_perm=None,
                   selections={r: shift(sel) for r, sel in model.selections.items()})


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


def prepare(
    graph: NetworkGraph,
    calib_batches,
    momentum: float = 0.99,
    coverage_quantile: float | None = None,
    extraction_mode: str = "static",
) -> PreparedModel:
    """Calibrate activation ranges on a batch stream and quantize weights.

    The batches are in ``graph``'s channel order: a laid-out model's
    inputs indexed by its ``input_perm``, as ``run`` reads them.  Batches
    are read one at a time: each batch's fp32 forward records every
    matmul layer's input, which is folded into that layer's running range
    (``calibrate_ranges`` continuing from the range so far) before the next
    batch is read.  So memory does not grow with the number of batches.
    A non-finite value raises a ``ValueError`` naming its sample and index.
    """
    matmuls = graph.matmul_indices()
    ranges: dict[int, ChannelRange | None] = dict.fromkeys(matmuls)
    uncalibrated = PreparedModel(graph, {})
    n_samples = 0
    for batch in calib_batches:
        if (at := first_non_finite(batch)) is not None:
            raise ValueError(f"calibration sample {n_samples + at[0]} is not finite at index "
                             f"{at[1:]}")
        rec: dict[int, LayerRecord] = {}
        run(uncalibrated, batch, record=rec)
        n_samples += len(batch)
        for i in matmuls:
            ranges[i] = calibrate_ranges([rec[i].input], momentum, coverage_quantile, start=ranges[i])
    if not n_samples:
        raise ValueError("calibration stream is empty")
    states = {
        i: QuantState(graph.layers[i].weight, ranges[i], graph.group_size, extraction_mode)
        for i in matmuls
    }
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
