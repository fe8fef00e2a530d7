"""Channel-wise symmetric quantization and range calibration.

Conventions used throughout the package:
  - A scale is a plain float64 value: a float, or an array that
    broadcasts against the tensor it quantizes.
  - Weights are quantized channel-wise: one scale per output channel.
  - Activations are quantized with a single per-tensor scale.
  - Quantization is symmetric signed, round-half-to-even, no zero point;
    codes are int8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Scale assigned to degenerate (all-zero) channels to avoid division by zero.
EPS_SCALE = 1e-8


def qrange(bitwidth: int) -> tuple[int, int]:
    """Signed integer range [q_min, q_max] for a bitwidth."""
    return -(1 << (bitwidth - 1)), (1 << (bitwidth - 1)) - 1


@dataclass
class ChannelRange:
    """Per-channel observed min/max, tracked as an EMA over batches."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        self.min = np.asarray(self.min, dtype=np.float64)
        self.max = np.asarray(self.max, dtype=np.float64)
        if np.any(self.min > self.max):
            raise ValueError("channel range min exceeds max")

    def abs_max(self) -> np.ndarray:
        return np.maximum(np.abs(self.min), np.abs(self.max))


def first_non_finite(x: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first non-finite value of ``x`` in C order, or None."""
    finite = np.isfinite(x)
    if finite.all():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmin(finite), finite.shape))


def quantize(x: np.ndarray, scale, bits: int) -> np.ndarray:
    """Map float values to int8 codes: clip(round_half_even(x / scale), q_min, q_max).

    ``scale`` is a float or an array that broadcasts against ``x``.
    float32/float64 arrays are divided straight into one float64 buffer,
    which is rounded and clipped in place (float32 widens exactly).
    """
    if bits not in (4, 8):
        raise ValueError(f"unsupported bitwidth {bits}")
    if not (isinstance(x, np.ndarray) and x.dtype in (np.float32, np.float64)):
        x = np.asarray(x, dtype=np.float64)
    if (at := first_non_finite(x)) is not None:
        raise ValueError(f"non-finite input value at index {at}")
    codes = np.asarray(np.divide(x, scale, dtype=np.float64))  # 0-d input gives a scalar
    np.rint(codes, out=codes)
    np.clip(codes, *qrange(bits), out=codes)
    return codes.astype(np.int8)


def dequantize(codes: np.ndarray, scale) -> np.ndarray:
    """Inverse map: code * scale, ``scale`` broadcasting as in ``quantize``."""
    return np.asarray(codes).astype(np.float64) * scale


def calibrate_ranges(
    batches,
    momentum: float = 0.99,
    coverage_quantile: float | None = None,
    start: ChannelRange | None = None,
) -> ChannelRange:
    """EMA of per-channel batch min/max over a stream of activation batches
    ([batch, channels, ...]).

    Update rule: new = momentum * old + (1 - momentum) * batch.  Without
    ``start`` the first batch initializes the EMA directly; with it, the
    EMA continues from that running range and every batch is an update.
    So folding a stream one batch at a time, each call passing on the last
    result as ``start``, gives the same bytes as one call over the whole
    stream, and a caller need not keep the batches.  ``coverage_quantile``
    switches min/max to symmetric quantiles over the sampled values.

    Min and max are taken in the batch's own dtype, over all axes but the
    channel axis, and only the per-channel results are widened to float64
    (widening commutes with min and max), so a float32 batch is neither
    widened nor copied.  The quantile path works on a float64 copy.
    """
    if not 0 <= momentum < 1:
        raise ValueError("momentum must be in [0, 1)")
    if coverage_quantile is not None and not 0.5 <= coverage_quantile <= 1:
        raise ValueError(f"coverage_quantile must be in [0.5, 1], got {coverage_quantile}: "
                         f"below 0.5 the lower quantile lies above the upper")
    ema_min, ema_max = (None, None) if start is None else (start.min, start.max)
    for batch in batches:
        batch = np.asarray(batch)
        if coverage_quantile is not None:
            wide = np.asarray(batch, dtype=np.float64)
            moved = np.moveaxis(wide, 1, 0).reshape(batch.shape[1], -1)
            lo = np.quantile(moved, 1.0 - coverage_quantile, axis=1)
            hi = np.quantile(moved, coverage_quantile, axis=1)
        else:  # exact in the batch's own dtype: only the per-channel results widen
            others = (0,) + tuple(range(2, batch.ndim))
            lo = batch.min(axis=others).astype(np.float64)
            hi = batch.max(axis=others).astype(np.float64)
        if ema_min is None:
            ema_min, ema_max = lo, hi
        else:
            ema_min = momentum * ema_min + (1.0 - momentum) * lo
            ema_max = momentum * ema_max + (1.0 - momentum) * hi
    if ema_min is None:
        raise ValueError("calibration stream is empty")
    return ChannelRange(ema_min, ema_max)


def derive_scales(abs_max, bitwidth: int) -> np.ndarray:
    """Symmetric scales S = abs_max / (2^(bitwidth-1) - 1), EPS_SCALE where
    abs_max is 0: one per weight output channel from its largest |weight|,
    or one per tensor from the largest calibrated |activation|."""
    abs_max = np.asarray(abs_max, dtype=np.float64)
    return np.where(abs_max > 0, abs_max / qrange(bitwidth)[1], EPS_SCALE)
