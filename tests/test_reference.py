"""A whole-net reference for ``netsim.run``.

``reference_run`` rebuilds a quantized forward from a model's parts: each
mixed matmul layer through the scalar oracle (``oracle.scalar_mixed_gemm``
or ``scalar_mixed_conv2d``), each int8 or int4 one as an int64 numpy
contraction, and every other layer with the same float ops as ``run``.
It reads each layer's ``QuantState`` only for its scales, its 8- and 4-bit
codes and its plan, so it covers what lies between those and the kernels:
the lowered weights, the lowering memo, the extraction override, the input
order, the residual perms and the ragged last groups.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from mixq import layout, netsim, oracle, synth
from mixq.bitlower import EXTRACTION_MODES, MAX_SHIFT, ExtractionPlan, group_slices
from mixq.qtensor import quantize

RATIOS = [0.25, 0.5, 0.75, 1.0]


def dynamic_shifts(codes: np.ndarray, group_size: int) -> list[int]:
    """Per group of the channels on axis 1: max(0, b - 4) for the widest
    signed bitwidth b of any code in the batch."""
    flat = np.moveaxis(codes, 1, -1).reshape(-1, codes.shape[1])
    return [max(0, max((v if v >= 0 else ~v).bit_length() + 1
                       for v in np.unique(flat[:, sl]).tolist()) - 4)
            for sl in group_slices(codes.shape[1], group_size)]


def conv_windows(codes: np.ndarray, w_q: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 conv of int64 codes: an exact int64 einsum of
    each output pixel's zero-padded input window with the weight taps."""
    kh, kw = w_q.shape[2:]
    padded = np.pad(codes, ((0, 0), (0, 0), (kh // 2, (kh - 1) // 2), (kw // 2, (kw - 1) // 2)))
    windows = sliding_window_view(padded, (kh, kw), axis=(2, 3))  # [B, C, H, W, kh, kw]
    return np.einsum("bchwij,ocij->bohw", windows, w_q)


def reference_matmul(layer, state, h, mode, flags, extraction, group_size):
    conv = layer.kind == "conv2d"
    if mode == "int4":
        act_scale, w_scales, w_q = state.act_scale4, state.w_scales4, state.w_q4
    else:
        act_scale, w_scales, w_q = state.act_scale, state.w_scales8, state.w_q8
    codes = quantize(h, act_scale, 4 if mode == "int4" else 8).astype(np.int64)
    w_q = w_q.astype(np.int64)
    if mode == "mixed":
        plan, shifts = state.plan, None
        if (extraction or state.mode) == "naive":
            plan = ExtractionPlan(np.full_like(plan.act_shifts, MAX_SHIFT),
                                  np.full_like(plan.weight_shifts, MAX_SHIFT), "naive")
        elif (extraction or state.mode) == "dynamic":
            shifts = dynamic_shifts(codes, group_size)
        if conv:
            return oracle.scalar_mixed_conv2d(codes, w_q, act_scale, w_scales, plan, group_size,
                                              flags, act_shifts=shifts)
        return oracle.scalar_mixed_gemm(codes, w_q.T, act_scale, w_scales, plan, group_size,
                                        flags, act_shifts=shifts)
    acc = conv_windows(codes, w_q) if conv else codes @ w_q.T
    scales = float(act_scale) * np.asarray(w_scales, dtype=np.float64)
    return (acc * scales.reshape((-1,) + (1,) * (acc.ndim - 2))).astype(np.float32)


def reference_run(model, x, mode, ratio=None, extraction=None) -> np.ndarray:
    """What ``netsim.run(model, x, mode, ratio, extraction)`` returns."""
    selection = model.selections[netsim.ratio_key(ratio)] if mode == "mixed" else {}
    h = np.asarray(x, dtype=np.float32)
    if model.input_perm is not None:
        h = h[:, model.input_perm]
    x0, outputs = h, []
    for idx, layer in enumerate(model.graph.layers):
        if layer.kind in netsim.MATMUL_KINDS:
            flags = selection.get(idx, np.zeros(model.n_groups(idx), dtype=bool))
            h = reference_matmul(layer, model.states[idx], h, mode, flags, extraction,
                                 model.group_size)
        elif layer.kind == "relu":
            h = np.maximum(h, 0.0)
        elif layer.kind == "gelu":
            h = netsim.gelu(h)
        else:
            src = x0 if layer.source == -1 else outputs[layer.source]
            h = h + (src if layer.perm is None else src[:, layer.perm])
        outputs.append(h)
    return h


def nested_selections(model, rng) -> dict[float, dict[int, np.ndarray]]:
    """Per layer, a random group order flagged up to each ratio; a random
    layer keeps no flags at all."""
    matmuls = model.graph.matmul_indices()
    unflagged = matmuls[rng.integers(len(matmuls))]
    ranks = {i: rng.permutation(model.n_groups(i)) for i in matmuls if i != unflagged}
    return {r: {i: rank < round(r * rank.size) for i, rank in ranks.items()} for r in RATIOS}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    group_size=st.sampled_from([3, 5, 7]),
    calib_mode=st.sampled_from(EXTRACTION_MODES),
    ratio=st.sampled_from(RATIOS),
    extraction=st.sampled_from([None, *EXTRACTION_MODES]),
    warm=st.tuples(st.sampled_from(RATIOS), st.sampled_from([None, *EXTRACTION_MODES])),
    scale=st.floats(1.0, 3.0),
    laid_out=st.booleans(),
)
def test_run_equals_the_reference_bit_for_bit(seed, group_size, calib_mode, ratio, extraction,
                                              warm, scale, laid_out):
    """On a random net whose group size leaves ragged groups, with eval
    inputs up to 3x wider than calibration's (so static extraction clips),
    every quantized ``run`` equals ``reference_run`` bit for bit, after a
    mixed forward at another ratio and extraction has filled the memo."""
    graph = synth.random_net(seed, group_size)
    if len(graph.input_shape) == 1:
        x, _ = synth.make_dataset(seed, graph.input_shape[0], 4, 10)
    else:
        x, _ = synth.make_image_dataset(seed, graph.input_shape[0], graph.input_shape[1], 4, 9)
    model = netsim.prepare(graph, [x[:8]], extraction_mode=calib_mode)
    model.selections = nested_selections(model, np.random.default_rng(seed))
    if laid_out:
        model = layout.apply_layout(model, layout.plan_layout(model))
    if calib_mode == "naive":  # its plan holds no other shifts
        extraction, warm = None, (warm[0], None)
    x_ev = x[8:] * np.float32(scale)
    netsim.run(model, x_ev, mode="mixed", ratio=warm[0], extraction=warm[1])
    for mode in ("int8", "int4", "mixed"):
        got = netsim.run(model, x_ev, mode=mode, ratio=ratio, extraction=extraction)
        want = reference_run(model, x_ev, mode, ratio, extraction)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (mode, ratio, extraction)
