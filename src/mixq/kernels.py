"""Bit-exact integer kernels for mixed 4/8-bit GEMM and conv2d.

A 4-bit channel keeps the four most significant used bits of its 8-bit
code: x4 = clip(x >> px, -8, 7), and it stands for x4 << px.  Because
(x4 << px) * (w4 << pw) = (x4 * w4) << (px + pw), a mixed matmul is the
ordinary 8-bit matmul on operands lowered elementwise: each flagged
group's codes are replaced by clip(q >> p, -8, 7) << p.  So every kernel
is one lowering step (mixed kernels only) followed by one contraction, a
plain GEMM or a same-padded conv.  A conv contracts as one GEMM over an
im2col patch matrix (``_conv_gemm``), built and contracted in row blocks
of at most ``PATCH_BYTES``; it is also the fp32 conv path of ``netsim``.

The constants of a mixed kernel for one set of group flags and weight rule
(the plan's shifts, or shift 4 for naive extraction) are planned once by
the caller and passed in as one ``Lowering`` (``plan_lowering``; planned
per call when omitted): the per-channel shift and clip vectors of the
activations, and the weight operand, the 8-bit codes with the flagged
channels' codes lowered (with every group flagged, a view of the fully
lowered codes).  ``netsim`` keeps one per layer, flags and weight rule on
the layer's ``QuantState``, planned from the layer's fully lowered weights
(``lower_weights``), which it keeps too.  A call then only lowers the
activation codes in one vectorized pass, contracts them with the planned
weights and scales.  The contraction's
bound comes from the operands' dtypes and shapes, and the output scales
act_scale * w_scales are fused per call; both cost next to nothing.

The contraction is a float BLAS product of the integer codes, and it is
exact: every product and partial sum is an integer no larger than
K * max|x| * max|w| (K products per output, kh * kw * C for a conv).
float32 holds every integer up to 2^24 and float64 every integer up to
2^53, so ``_contract`` runs in float32 while that bound is at most 2^24
(K <= 1024 for 8-bit codes) and in float64 up to 2^53; beyond that a
kernel raises ``OverflowError``.  Neither BLAS's order of summation nor
a conv's tap order or blocking can change an accumulator.  A lowered
code still lies in [-128, 127], so 8-bit products stay below K * 2^14,
and the 32-bit accumulator check (also ``OverflowError``) trips long
before 2^53.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bitlower import MAX_SHIFT, Q4_MAX, Q4_MIN, ExtractionPlan, group_shifts, group_slices

INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1
F32_EXACT_LIMIT = 1 << 24  # float32 represents every integer of at most this magnitude
EXACT_LIMIT = 1 << 53  # float64 represents every integer of at most this magnitude
# bytes of one block of a conv's patch matrix: ~1 MiB stays in a core's L2
# between its copy and its GEMM, and was the fastest of 0.5-4 MiB measured
PATCH_BYTES = 1 << 20


@dataclass
class KernelStats:
    """Per-call extraction statistics.

    ``saturated_channels`` marks input channels whose activation codes
    clipped during 4-bit extraction; ``act_shifts_used`` records the
    shift in force per group (differs from the plan in dynamic mode).
    """

    saturated_channels: np.ndarray
    act_shifts_used: np.ndarray


def lower_weights(w_q: np.ndarray, weight_shifts: np.ndarray, group_size: int) -> np.ndarray:
    """Weight codes with every group lowered: clip(w >> pw, -8, 7) << pw.

    ``w_q`` has its outputs on axis 0 and its input channels on axis 1
    (a GEMM's [K, N] codes are passed as their transposed view);
    ``weight_shifts`` is [n_groups, n_out].  The result has the dtype,
    shape and memory order of ``w_q``.  Full groups are lowered in one
    broadcast pass over [n_out, n_groups, group_size, ...], a ragged last
    group in a second one.
    """
    w = np.asarray(w_q)
    shifts = np.asarray(weight_shifts).astype(w.dtype).T  # [n_out, n_groups]
    lowered = np.empty_like(w)
    C = w.shape[1]
    full = C - C % group_size
    for start, stop in ((0, full), (full, C)):
        if start == stop:
            continue
        size = min(group_size, stop - start)
        block = w[:, start:stop]
        p = shifts[:, start // group_size : -(-stop // group_size)]  # [n_out, g]
        p = p.reshape(p.shape + (1,) * (w.ndim - 1))
        split = block.reshape(block.shape[0], -1, size, *block.shape[2:])
        lowered[:, start:stop] = (np.clip(split >> p, Q4_MIN, Q4_MAX) << p).reshape(block.shape)
    return lowered


def _resolve_flags(n_in: int, group_size: int, group_flags) -> np.ndarray:
    if group_size <= 0:
        raise ValueError("group size must be positive")
    n_groups = -(-n_in // group_size)
    flags = np.asarray(group_flags, dtype=bool)
    if flags.size != n_groups:
        raise ValueError(f"expected {n_groups} group flags, got {flags.size}")
    return flags


@dataclass(frozen=True)
class Lowering:
    """The constants of one layer's mixed contraction for one set of group
    flags, weight rule and activation code dtype (built by
    ``plan_lowering``).

    ``naive`` marks shift 4 on flagged groups, else the plan's shifts serve
    static and dynamic calls alike.  ``shifts`` is the activation shift per
    group, ``px`` the per-channel shift (0 on 8-bit channels) and ``mul`` =
    2^px, which undoes it (x4 * mul == x4 << px, and about 3x faster); a
    dynamic call takes all three from its batch.  ``lo``/``hi`` are the
    per-channel clip bounds: [-8, 7] on 4-bit channels, the dtype's range (a
    no-op) on 8-bit ones.  ``channel_group`` maps each channel to its group,
    or to ``n_groups`` on 8-bit channels.  ``w`` is the read-only weight
    operand of the contraction: the lowered codes on flagged channels, the
    8-bit codes elsewhere, in the shape and memory order of the kernel's
    ``w_q``; when every group is flagged, it is a view of the fully lowered
    codes it was planned from, not a copy.
    """

    flags: np.ndarray
    naive: bool
    shifts: np.ndarray
    channel_group: np.ndarray
    px: np.ndarray
    mul: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    w: np.ndarray


def _channel_shifts(shifts: np.ndarray, channel_group: np.ndarray, dtype) -> np.ndarray:
    """Per-channel shift: the group's shift on 4-bit channels, 0 elsewhere."""
    return np.append(shifts, 0)[channel_group].astype(dtype)


def plan_lowering(
    plan: ExtractionPlan,
    group_size: int,
    group_flags,
    w_q: np.ndarray,
    mode: str | None = None,
    dtype=np.int8,
    w_lo: np.ndarray | None = None,
) -> Lowering:
    """The ``Lowering`` of a mixed kernel's calls on weight codes ``w_q``
    (as the kernel takes them: [K, N] or [O, C, kh, kw]) and activation
    codes of ``dtype``, under ``group_flags``: naive if extraction ``mode``
    (default: the plan's) is, else planned, for static and dynamic calls.

    ``w_lo`` is ``w_q`` with every group lowered per the plan, as
    ``lower_weights`` builds it; it is built here when omitted, and not read
    by a naive lowering, which lowers with ``MAX_SHIFT``.  When every group
    is flagged, ``w`` is a view of the fully lowered codes, which must then
    stay unchanged.
    """
    axis = 1 if w_q.ndim == 4 else 0  # input channels of [O, C, kh, kw] or [K, N]
    n_in = w_q.shape[axis]
    flags = _resolve_flags(n_in, group_size, group_flags)
    naive = (mode or plan.mode) == "naive"
    shifts = plan.act_shifts.copy()
    if naive:
        shifts[flags] = MAX_SHIFT
    if w_lo is None or naive:
        w_shifts = np.full_like(plan.weight_shifts, MAX_SHIFT) if naive else plan.weight_shifts
        w_lo = lower_weights(w_q if axis else w_q.T, w_shifts, group_size)
        w_lo = w_lo if axis else w_lo.T
    group = np.arange(n_in) // group_size
    on = flags[group]
    channel_shape = (1, n_in) + (1,) * (w_q.ndim - 2)
    channel_group = np.where(on, group, flags.size).reshape(channel_shape)
    info = np.iinfo(dtype)
    lo = np.where(on, Q4_MIN, info.min).astype(dtype).reshape(channel_shape)
    hi = np.where(on, Q4_MAX, info.max).astype(dtype).reshape(channel_shape)
    if flags.all():  # every channel lowered: the operand is ``w_lo`` itself
        w = w_lo.view()
    else:
        # each run of flagged channels is one slice copy, ~5x faster than a
        # masked np.copyto; np.copy keeps the memory order of ``w_q``
        padded = np.concatenate(([False], flags, [False]))
        edges = np.minimum(np.flatnonzero(padded[1:] != padded[:-1]) * group_size, n_in)
        w, index = np.copy(w_q), [slice(None)] * w_q.ndim
        for start, stop in edges.reshape(-1, 2):
            index[axis] = slice(start, stop)
            w[tuple(index)] = w_lo[tuple(index)]
    w.flags.writeable = False
    px = _channel_shifts(shifts, channel_group, dtype)
    return Lowering(flags, naive, shifts, channel_group, px, np.left_shift(1, px), lo, hi, w)


def _resolve_lowering(lowering, x, w, plan, group_size, group_flags, mode) -> Lowering:
    """``lowering`` checked against the call, or planned for it when None."""
    if lowering is None:
        return plan_lowering(plan, group_size, group_flags, w, mode, x.dtype)
    flags = lowering.flags
    if (lowering.naive != (mode == "naive") or lowering.lo.dtype != x.dtype
            or lowering.w.shape != w.shape
            or (flags is not group_flags and not np.array_equal(flags, group_flags))):
        raise ValueError("lowering was planned for other group flags, extraction mode, codes "
                         "or weight shape")
    return lowering


def _lower(x, group_size, lowering, dynamic) -> tuple[np.ndarray, KernelStats]:
    """Activation codes ``x`` (channels on axis 1) with every flagged group
    lowered, in one pass in their own integer dtype with the per-channel
    shift and clip bounds of ``lowering`` (a ``dynamic`` call's shifts from
    its batch), plus the saturated channels and shifts used."""
    shifts_used = lowering.shifts.copy()
    px, mul = lowering.px, lowering.mul
    if dynamic:
        flags = lowering.flags
        shifts_used[flags] = group_shifts(x, group_size, axis=1)[flags]
        px = _channel_shifts(shifts_used, lowering.channel_group, x.dtype)
        mul = np.left_shift(1, px)
    shifted = x >> px
    # np.clip with array bounds is ~5x slower
    x4 = np.minimum(np.maximum(shifted, lowering.lo), lowering.hi)
    sat = (shifted != x4).any(axis=tuple(a for a in range(x.ndim) if a != 1))
    return x4 * mul, KernelStats(sat, shifts_used)


def _magnitude(q: np.ndarray) -> int:
    """Bound on |code| over ``q``: the dtype's range for 8-bit codes (a
    lowered code stays in its dtype), the widest code otherwise."""
    if q.dtype.kind in "iu" and q.dtype.itemsize == 1:
        return 128 if q.dtype.kind == "i" else 255
    return max(-int(q.min(initial=0)), int(q.max(initial=0)))


def _contract(x: np.ndarray, w: np.ndarray, conv: bool) -> np.ndarray:
    """Integer accumulators of codes ``x`` and ``w`` as float BLAS GEMMs,
    checked against the 32-bit accumulator range.

    No partial sum exceeds bound = (products per output) * max|x| * max|w|,
    so the result is exact in float32 while bound <= 2^24 and in float64
    while bound <= 2^53; beyond that it raises.  The GEMM runs as
    (w.T @ x.T).T, which lets BLAS read [N, K] C-ordered weight codes (the
    layout ``netsim`` holds) without a copy; a conv runs as ``_conv_gemm``.
    """
    terms = math.prod(w.shape[1:]) if conv else w.shape[0]
    mx, mw = _magnitude(x), _magnitude(w)
    bound = terms * mx * mw
    if bound > EXACT_LIMIT:
        raise OverflowError(
            f"float64 accumulation is exact only up to 2^53: {terms} products of codes "
            f"up to {mx} x {mw} could exceed it"
        )
    dtype = np.float32 if bound <= F32_EXACT_LIMIT else np.float64
    acc = _conv_gemm(x, w, dtype) if conv else (w.astype(dtype).T @ x.astype(dtype).T).T
    if bound > INT32_MAX and (acc.min(initial=0) < INT32_MIN or acc.max(initial=0) > INT32_MAX):
        raise OverflowError("32-bit accumulator would wrap for this shape")
    return acc


def _conv_gemm(x: np.ndarray, w: np.ndarray, dtype) -> np.ndarray:
    """Same-padded stride-1 conv of ``x`` [B, C, H, W] and ``w``
    [O, C, kh, kw] as GEMMs in float ``dtype`` over an im2col patch matrix.
    The operands are integer codes or, for the fp32 path, float32 values,
    which ``dtype`` float64 multiplies exactly.

    Row (b, y, x) of the [B*H*W, kh*kw*C] patch matrix holds the input
    window of that output pixel in (dy, dx, c) order, read from a copy of
    ``x`` in ``dtype``, channels-last and zero-padded by kh // 2 rows above
    and kw // 2 columns left (so an even kernel pads one less below and
    right); it is contracted with the [kh*kw*C, O] weight taps.  The
    patches are built in blocks of whole images, or of image rows when one
    image exceeds ``PATCH_BYTES``, one strided copy and one GEMM each:
    rows are independent, so blocking cannot change an integer accumulator.
    Returns [B, O, H, W], a view of a channels-last array.
    """
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    K = kh * kw * C
    if 0 in (B, H, W, O, K):  # an empty output, or sums of no products
        return np.zeros((B, H, W, O), dtype).transpose(0, 3, 1, 2)
    xp = np.zeros((B, H + kh - 1, W + kw - 1, C), dtype)
    xp[:, kh // 2 : kh // 2 + H, kw // 2 : kw // 2 + W] = x.transpose(0, 2, 3, 1)
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    taps = np.ascontiguousarray(w.transpose(2, 3, 1, 0), dtype=dtype).reshape(K, O)
    lines = max(1, PATCH_BYTES // (W * K * xp.itemsize))  # image rows per block
    rows, images = min(H, lines), max(1, lines // H)
    # a block is whole images or rows of one image, so it and its output are contiguous
    patches = np.empty((min(images, B), rows, W, kh, kw, C), dtype)
    out = np.empty((B, H, W, O), dtype)
    for b in range(0, B, images):
        for y in range(0, H, rows):
            window = windows[b : b + images, y : y + rows]
            block = patches[: window.shape[0], : window.shape[1]]
            np.copyto(block, window)
            acc = out[b : b + images, y : y + rows].reshape(-1, O)
            np.matmul(block.reshape(-1, K), taps, out=acc)
    return out.transpose(0, 3, 1, 2)


def _scale(acc: np.ndarray, act_scale: float, w_scales: np.ndarray) -> np.ndarray:
    """Apply the per-output scales act_scale * w_scales (outputs on axis 1)
    in float64 and round once to float32.  A GEMM output is C-ordered; a
    conv output keeps the channels-last memory order of ``_conv_gemm``."""
    scales = float(act_scale) * np.asarray(w_scales, dtype=np.float64)
    scales = scales.reshape((-1,) + (1,) * (acc.ndim - 2))
    out = np.empty_like(acc, dtype=np.float32, order="C" if acc.ndim == 2 else "K")
    return np.multiply(acc, scales, out=out, casting="unsafe")


def _mixed(x_q, w_q, act_scale, w_scales, plan, group_size, group_flags, extraction,
           lowering) -> tuple[np.ndarray, KernelStats]:
    flags = _resolve_flags(x_q.shape[1], group_size, group_flags)
    if flags.any():
        mode = extraction or plan.mode
        lowering = _resolve_lowering(lowering, x_q, w_q, plan, group_size, flags, mode)
        (x_q, stats), w_q = _lower(x_q, group_size, lowering, mode == "dynamic"), lowering.w
    else:  # all 8-bit: nothing to lower, and no lowering is needed
        stats = KernelStats(np.zeros(x_q.shape[1], dtype=bool), plan.act_shifts.copy())
    return _scale(_contract(x_q, w_q, conv=w_q.ndim == 4), act_scale, w_scales), stats


def mixed_gemm(
    x_q: np.ndarray,
    w_q: np.ndarray,
    act_scale: float,
    w_scales: np.ndarray,
    plan: ExtractionPlan,
    group_size: int,
    group_flags,
    extraction: str | None = None,
    lowering: Lowering | None = None,
) -> tuple[np.ndarray, KernelStats]:
    """Mixed-precision integer GEMM.

    x_q: [B, K] int8 activation codes; w_q: [K, N] int8 weight codes with
    per-output-channel scales ``w_scales`` [N].  Groups flagged 4-bit are
    lowered per the plan (or per runtime scan when extraction is
    "dynamic"); the rest are multiplied as plain 8-bit.  ``lowering`` is
    ``plan_lowering(plan, group_size, group_flags, w_q, extraction, x_q.dtype)``,
    read only when some group is flagged: a caller that runs the same layer
    again passes the one it planned (``netsim`` keeps one per layer, flags
    and weight rule), and its ``w`` is contracted in place of ``w_q``.  When
    it is omitted the call plans its own, which lowers and copies the weights.

    Returns the float32 output [B, N] and extraction stats.
    """
    x_q, w_q = np.asarray(x_q), np.asarray(w_q)
    K = x_q.shape[1]
    if w_q.shape[0] != K:
        raise ValueError(f"shape mismatch: x has {K} channels, w has {w_q.shape[0]}")
    return _mixed(x_q, w_q, act_scale, w_scales, plan, group_size, group_flags, extraction,
                  lowering)


def mixed_conv2d(
    x_q: np.ndarray,
    w_q: np.ndarray,
    act_scale: float,
    w_scales: np.ndarray,
    plan: ExtractionPlan,
    group_size: int,
    group_flags,
    extraction: str | None = None,
    lowering: Lowering | None = None,
) -> tuple[np.ndarray, KernelStats]:
    """Mixed-precision 2-D convolution (stride 1, same padding).

    x_q: [B, C, H, W] int8 codes; w_q: [O, C, kh, kw] int8 codes.
    Feature channels are input channels; semantics match an im2col GEMM
    where every spatial tap of a channel shares that channel's group
    shift.  ``lowering`` is as for ``mixed_gemm``.
    """
    x_q, w_q = np.asarray(x_q), np.asarray(w_q)
    C, Cw = x_q.shape[1], w_q.shape[1]
    if Cw != C:
        raise ValueError(f"shape mismatch: x has {C} channels, w has {Cw}")
    return _mixed(x_q, w_q, act_scale, w_scales, plan, group_size, group_flags, extraction,
                  lowering)


def int_gemm(x_q: np.ndarray, w_q: np.ndarray, act_scale: float, w_scales: np.ndarray) -> np.ndarray:
    """Plain uniform integer GEMM (8-bit or 4-bit codes)."""
    return _scale(_contract(np.asarray(x_q), np.asarray(w_q), conv=False), act_scale, w_scales)


def int_conv2d(x_q: np.ndarray, w_q: np.ndarray, act_scale: float, w_scales: np.ndarray) -> np.ndarray:
    """Plain uniform integer conv2d (stride 1, same padding)."""
    return _scale(_contract(np.asarray(x_q), np.asarray(w_q), conv=True), act_scale, w_scales)


def accumulator_error_bound(
    x_q: np.ndarray, w_q: np.ndarray, plan: ExtractionPlan, group_size: int, group_flags
) -> np.ndarray:
    """Per-output-channel bound on |mixed - full8| integer accumulators.

    Valid for non-saturating extraction: per 4-bit channel the truncation
    residuals rx <= 2^px - 1 and rw <= 2^pw - 1 give
    |x*w - (x-rx)(w-rw)| <= |x|*rw + |w|*rx + rx*rw.
    """
    x_q = np.asarray(x_q, dtype=np.int64)
    w_q = np.asarray(w_q, dtype=np.int64)
    K, N = w_q.shape
    bound = np.zeros(N, dtype=np.int64)
    for g, sl in enumerate(group_slices(K, group_size)):
        if not group_flags[g]:
            continue
        rx = (1 << int(plan.act_shifts[g])) - 1
        rw = (1 << plan.weight_shifts[g]) - 1  # [N]
        x_max = np.abs(x_q[:, sl]).max(axis=0)  # [k]
        w_max = np.abs(w_q[sl, :])  # [k, N]
        bound += (x_max[:, None] * rw[None, :] + w_max * rx + rx * rw[None, :]).sum(axis=0)
    return bound
