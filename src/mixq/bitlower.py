"""Effective-bit extraction: lowering 8-bit codes to 4-bit codes.

A channel group whose codes never use the high bits of the 8-bit field can
drop those sign-replica bits and keep the four most significant *used*
bits.  The number of discarded low-order bits is the extraction shift;
dequantization multiplies the 4-bit code by 2^shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Q4_MIN, Q4_MAX = -8, 7
MAX_SHIFT = 4
EXTRACTION_MODES = ("static", "dynamic", "naive")
_POW2 = np.left_shift(1, np.arange(63, dtype=np.int64))  # 2^0 .. 2^62


def group_bitwidths(codes, group_size: int, axis: int = 0, keep: int | None = None) -> np.ndarray:
    """Effective signed bitwidth of each feature group of signed integer ``codes``.

    Signs fold with ~q (a negative code needs the bits of its one's
    complement), the widest folded code decides, and b = bit_length + 1.
    Groups are the blocks of ``group_slices`` along ``axis``; every other
    axis except ``keep`` is reduced away.
    """
    q = np.asarray(codes)
    axis %= q.ndim
    reduced = tuple(a for a in range(q.ndim) if a not in (axis, keep))
    # q >> (bits - 1) is -1 where q < 0 and 0 elsewhere: the xor gives ~q or q
    mags = (q ^ (q >> (8 * q.dtype.itemsize - 1))).max(axis=reduced, keepdims=True)
    starts = [sl.start for sl in group_slices(q.shape[axis], group_size)]
    widest = np.maximum.reduceat(mags, starts, axis=axis)
    return np.searchsorted(_POW2, widest.squeeze(axis=reduced), side="right") + 1


def group_shifts(codes, group_size: int, axis: int = 0, keep: int | None = None) -> np.ndarray:
    """Extraction shift of each feature group: max(0, b - 4) for its bitwidth b."""
    return np.maximum(group_bitwidths(codes, group_size, axis, keep) - 4, 0)


def signed_bitwidth(value: int) -> int:
    """Minimal signed bitwidth containing a single integer value."""
    return int(group_bitwidths([value], 1)[0])


def effective_bitwidth(values) -> int:
    """Minimal b in [1, 8] such that all values fit the signed b-bit range."""
    arr = np.asarray(values).ravel()
    if arr.size == 0:
        raise ValueError("effective_bitwidth of an empty group")
    if arr.min() < -128 or arr.max() > 127:
        raise ValueError("codes outside the 8-bit range")
    return int(group_bitwidths(arr, arr.size)[0])


def static_shift(b: int) -> int:
    """Extraction shift for a group whose codes need b bits: max(0, b - 4)."""
    if not 1 <= b <= 8:
        raise ValueError(f"effective bitwidth {b} out of range")
    return max(0, b - 4)


def extract4(q8, shift: int):
    """Lower 8-bit codes to 4-bit: clip(q8 >> shift, -8, 7).

    The shift is arithmetic (truncating toward -inf); saturation is a
    counted event, not an error.  Works on scalars and arrays.
    """
    if not 0 <= shift <= MAX_SHIFT:
        raise ValueError(f"shift {shift} out of range [0, {MAX_SHIFT}]")
    arr = np.asarray(q8)
    shifted = arr >> shift
    clipped = np.clip(shifted, Q4_MIN, Q4_MAX)
    if np.isscalar(q8) or arr.ndim == 0:
        return int(clipped)
    return clipped


def dynamic_shift(group_values) -> int:
    """Runtime extraction shift from the actual codes of a group; equals
    static_shift(effective_bitwidth(group_values))."""
    arr = np.asarray(group_values).ravel()
    if arr.size == 0:
        raise ValueError("dynamic_shift of an empty group")
    return int(group_shifts(arr, arr.size)[0])


@dataclass(frozen=True)
class ExtractionPlan:
    """Static extraction shifts for one matmul layer.

    ``act_shifts`` has one entry per feature group; ``weight_shifts`` is
    [n_groups, n_out] with independent positions across output channels.
    ``mode`` is "static", "dynamic" (static shifts kept as fallback) or
    "naive" (every activation shift forced to 4, the plain high-nibble
    baseline).
    """

    act_shifts: np.ndarray
    weight_shifts: np.ndarray
    mode: str = "static"

    def __post_init__(self):
        act = np.asarray(self.act_shifts, dtype=np.int64)
        wgt = np.asarray(self.weight_shifts, dtype=np.int64)
        if act.min(initial=0) < 0 or act.max(initial=0) > MAX_SHIFT:
            raise ValueError("activation shift out of [0, 4]")
        if wgt.min(initial=0) < 0 or wgt.max(initial=0) > MAX_SHIFT:
            raise ValueError("weight shift out of [0, 4]")
        if self.mode not in EXTRACTION_MODES:
            raise ValueError(f"unknown extraction mode {self.mode!r}")
        object.__setattr__(self, "act_shifts", act)
        object.__setattr__(self, "weight_shifts", wgt)

    @property
    def n_groups(self) -> int:
        return self.act_shifts.size


def group_slices(n_channels: int, group_size: int) -> list[slice]:
    """Partition channels into contiguous feature groups.

    A layer with fewer channels than one group contributes a single group;
    a trailing remainder forms a final short group.
    """
    if group_size <= 0:
        raise ValueError("group size must be positive")
    return [slice(i, min(i + group_size, n_channels)) for i in range(0, n_channels, group_size)]


def plan_extraction(
    act_q8_bounds: np.ndarray,
    weight_codes: np.ndarray,
    group_size: int,
    mode: str = "static",
) -> ExtractionPlan:
    """Build the complete extraction plan for one layer.

    ``act_q8_bounds`` is [n_channels, 2] integer (lo, hi) bounds of the
    calibrated activation codes.  ``weight_codes`` is [n_out, n_in] int8
    (convolution kernels flattened over the spatial dims per input
    channel are accepted as [n_out, n_in, ...]).
    """
    act_q8_bounds = np.asarray(act_q8_bounds)
    n_in = act_q8_bounds.shape[0]
    if weight_codes.shape[1] != n_in:
        raise ValueError(
            f"weight input channels {weight_codes.shape[1]} do not match "
            f"activation channels {n_in}"
        )
    for codes in (act_q8_bounds, weight_codes):
        if codes.min(initial=0) < -128 or codes.max(initial=0) > 127:
            raise ValueError("codes outside the 8-bit range")
    act_shifts = group_shifts(act_q8_bounds, group_size)
    weight_shifts = group_shifts(weight_codes, group_size, axis=1, keep=0).T
    if mode == "naive":
        act_shifts = np.full_like(act_shifts, MAX_SHIFT)
        weight_shifts = np.full_like(weight_shifts, MAX_SHIFT)
    return ExtractionPlan(act_shifts, weight_shifts, mode=mode)
