"""Bit-exact integer kernels for mixed 4/8-bit GEMM and conv2d.

A 4-bit channel keeps the four most significant used bits of its 8-bit
code: x4 = clip(x >> px, -8, 7), and it stands for x4 << px.  Because
(x4 << px) * (w4 << pw) = (x4 * w4) << (px + pw), a mixed matmul is the
ordinary 8-bit matmul on operands lowered elementwise: each flagged
group's codes are replaced by clip(q >> p, -8, 7) << p.  So every kernel
is one lowering step (mixed kernels only) followed by one contraction, a
plain GEMM or a same-padded conv.

The contraction is a float64 BLAS product of the integer codes, and it is
exact: every product and partial sum is an integer, and float64 holds
every integer up to 2^53, so BLAS's order of summation cannot change an
accumulator.  A lowered code still lies in [-128, 127], so K 8-bit
products stay below K * 2^14; ``_contract`` raises ``OverflowError``
where wider codes could pass 2^53, and the 32-bit accumulator check
(also ``OverflowError``) trips long before that for 8-bit codes.  With
contiguous layout the 4-bit groups are simply the first
``max_4bit_ch / group_size``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitlower import MAX_SHIFT, Q4_MAX, Q4_MIN, ExtractionPlan, group_shifts, group_slices

INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1
EXACT_LIMIT = 1 << 53  # float64 represents every integer of at most this magnitude


@dataclass
class KernelStats:
    """Per-call extraction statistics.

    ``saturated_channels`` marks input channels whose activation codes
    clipped during 4-bit extraction; ``act_shifts_used`` records the
    shift in force per group (differs from the plan in dynamic mode).
    """

    saturated_channels: np.ndarray
    act_shifts_used: np.ndarray


def _resolve_flags(n_in: int, group_size: int, group_flags, max_4bit_ch) -> np.ndarray:
    stops = np.array([sl.stop for sl in group_slices(n_in, group_size)])
    if group_flags is not None:
        flags = np.asarray(group_flags, dtype=bool)
        if flags.size != stops.size:
            raise ValueError(f"expected {stops.size} group flags, got {flags.size}")
        return flags
    if max_4bit_ch is None:
        raise ValueError("either group_flags or max_4bit_ch is required")
    if not 0 <= max_4bit_ch <= n_in:
        raise ValueError(f"max_4bit_ch {max_4bit_ch} outside [0, {n_in}]")
    if max_4bit_ch and max_4bit_ch not in stops:
        raise ValueError(f"max_4bit_ch {max_4bit_ch} is not group-aligned")
    return stops <= max_4bit_ch


def _lower(x, w, w_axis, plan, group_size, flags, mode):
    """Copies of activation codes ``x`` (channels on axis 1) and weight
    codes ``w`` (channels on ``w_axis``, outputs on the other of its first
    two axes) with every flagged group lowered, plus the saturated channels
    and shifts used.

    Lowering runs in the codes' own integer dtype: a lowered code never
    needs more bits than the code it replaces, and on int8 codes the
    elementwise passes move an eighth of the bytes.
    """
    x, w = np.copy(x), np.copy(w)
    sat = np.zeros(x.shape[1], dtype=bool)
    shifts_used = plan.act_shifts.copy()
    w_shifts = plan.weight_shifts.astype(w.dtype)
    if mode == "dynamic":
        shifts_used[flags] = group_shifts(x, group_size, axis=1)[flags]
    elif mode == "naive":
        shifts_used[flags] = MAX_SHIFT
        w_shifts[:] = MAX_SHIFT
    reduced = tuple(a for a in range(x.ndim) if a != 1)
    out_shape = [1] * w.ndim
    out_shape[1 - w_axis] = -1
    w_index = [slice(None)] * w.ndim
    slices = group_slices(x.shape[1], group_size)
    for g in np.flatnonzero(flags):
        sl = slices[g]
        px = int(shifts_used[g])
        shifted = x[:, sl] >> px
        x4 = np.clip(shifted, Q4_MIN, Q4_MAX)
        sat[sl] = (shifted != x4).any(axis=reduced)
        x[:, sl] = x4 << px
        pw = w_shifts[g].reshape(out_shape)
        w_index[w_axis] = sl
        wg = tuple(w_index)
        w[wg] = np.clip(w[wg] >> pw, Q4_MIN, Q4_MAX) << pw
    return x, w, KernelStats(sat, shifts_used)


def _magnitude(q: np.ndarray) -> int:
    """Bound on |code| over ``q``: the dtype's range for 8-bit codes (a
    lowered code stays in its dtype), the widest code otherwise."""
    if q.dtype.kind in "iu" and q.dtype.itemsize == 1:
        info = np.iinfo(q.dtype)
        return max(-int(info.min), int(info.max))
    return max(-int(q.min(initial=0)), int(q.max(initial=0)))


def _contract(x: np.ndarray, w: np.ndarray, conv: bool) -> np.ndarray:
    """Integer accumulators of codes ``x`` and ``w`` as one float64 BLAS
    GEMM or same-padded conv.

    float64 holds every integer up to 2^53, so the result is exact while
    (products per output) * max|x| * max|w| stays within it; beyond that
    it raises.
    """
    terms = math.prod(w.shape[1:]) if conv else x.shape[1]
    mx, mw = _magnitude(x), _magnitude(w)
    if terms * mx * mw > EXACT_LIMIT:
        raise OverflowError(
            f"float64 accumulation is exact only up to 2^53: {terms} products of codes "
            f"up to {mx} x {mw} could exceed it"
        )
    x, w = x.astype(np.float64), w.astype(np.float64)
    return conv2d_same(x, w) if conv else x @ w


def conv2d_same(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1, same-padded 2-D convolution in the operands' dtype.

    x: [B, C, H, W]; w: [O, C, kh, kw]; returns [B, O, H, W] (a view of a
    channels-last array).  Each of the kh * kw taps is one matmul of the
    shifted channels-last input [B*H*W, C] with that tap's [C, O] weights,
    so float operands run through BLAS; no im2col buffer is built.
    """
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    taps = w.transpose(2, 3, 1, 0)  # [kh, kw, C, O]
    out = np.zeros((B * H * W, O), dtype=np.result_type(x, w))
    for dy in range(kh):
        for dx in range(kw):
            out += xp[:, dy : dy + H, dx : dx + W].reshape(-1, C) @ taps[dy, dx]
    return out.reshape(B, H, W, O).transpose(0, 3, 1, 2)


def _scale(acc: np.ndarray, act_scale: float, w_scales: np.ndarray) -> np.ndarray:
    """Check the int32 accumulator range, then apply the per-output scales
    (outputs on axis 1)."""
    if acc.min(initial=0) < INT32_MIN or acc.max(initial=0) > INT32_MAX:
        raise OverflowError("32-bit accumulator would wrap for this shape")
    scales = float(act_scale) * np.asarray(w_scales, dtype=np.float64)
    scales = scales.reshape((-1,) + (1,) * (acc.ndim - 2))
    return (acc * scales).astype(np.float32)


def mixed_gemm(
    x_q: np.ndarray,
    w_q: np.ndarray,
    act_scale: float,
    w_scales: np.ndarray,
    plan: ExtractionPlan,
    group_size: int,
    max_4bit_ch: int | None = None,
    group_flags=None,
    extraction: str | None = None,
) -> tuple[np.ndarray, KernelStats]:
    """Mixed-precision integer GEMM.

    x_q: [B, K] int8 activation codes; w_q: [K, N] int8 weight codes with
    per-output-channel scales ``w_scales`` [N].  Groups flagged 4-bit are
    lowered per the plan (or per runtime scan when extraction is
    "dynamic"); the rest are multiplied as plain 8-bit.  Returns the
    float32 output [B, N] and extraction stats.
    """
    x_q, w_q = np.asarray(x_q), np.asarray(w_q)
    K = x_q.shape[1]
    if w_q.shape[0] != K:
        raise ValueError(f"shape mismatch: x has {K} channels, w has {w_q.shape[0]}")
    flags = _resolve_flags(K, group_size, group_flags, max_4bit_ch)
    x_lo, w_lo, stats = _lower(x_q, w_q, 0, plan, group_size, flags, extraction or plan.mode)
    return _scale(_contract(x_lo, w_lo, conv=False), act_scale, w_scales), stats


def mixed_conv2d(
    x_q: np.ndarray,
    w_q: np.ndarray,
    act_scale: float,
    w_scales: np.ndarray,
    plan: ExtractionPlan,
    group_size: int,
    max_4bit_ch: int | None = None,
    group_flags=None,
    extraction: str | None = None,
) -> tuple[np.ndarray, KernelStats]:
    """Mixed-precision 2-D convolution (stride 1, same padding).

    x_q: [B, C, H, W] int8 codes; w_q: [O, C, kh, kw] int8 codes.
    Feature channels are input channels; semantics match an im2col GEMM
    where every spatial tap of a channel shares that channel's group
    shift.
    """
    x_q, w_q = np.asarray(x_q), np.asarray(w_q)
    C, Cw = x_q.shape[1], w_q.shape[1]
    if Cw != C:
        raise ValueError(f"shape mismatch: x has {C} channels, w has {Cw}")
    flags = _resolve_flags(C, group_size, group_flags, max_4bit_ch)
    x_lo, w_lo, stats = _lower(x_q, w_q, 1, plan, group_size, flags, extraction or plan.mode)
    return _scale(_contract(x_lo, w_lo, conv=True), act_scale, w_scales), stats


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
