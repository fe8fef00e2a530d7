"""Quantized tensor types, channel-wise symmetric quantization, and range calibration.

Conventions used throughout the package:
  - Weights are quantized channel-wise: one scale per output channel.
  - Activations are quantized with a single per-tensor scale by default
    (per-group scales are available through ``derive_scales`` but the
    mixed kernels assume a per-tensor activation scale).
  - Quantization is symmetric signed, round-half-to-even, no zero point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Scale assigned to degenerate (all-zero) channels to avoid division by zero.
EPS_SCALE = 1e-8


def qrange(bitwidth: int) -> tuple[int, int]:
    """Signed integer range [q_min, q_max] for a bitwidth."""
    return -(1 << (bitwidth - 1)), (1 << (bitwidth - 1)) - 1


@dataclass(frozen=True)
class QuantParams:
    """Scale factor(s) and integer range for one tensor.

    ``scale`` is a scalar for per-tensor quantization or a 1-D array with
    one entry per channel along ``channel_axis``.
    """

    scale: np.ndarray
    bitwidth: int
    channel_axis: int | None = None

    def __post_init__(self):
        scale = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        if self.bitwidth not in (4, 8):
            raise ValueError(f"unsupported bitwidth {self.bitwidth}")
        if not np.all(scale > 0):
            raise ValueError("scale must be positive")
        object.__setattr__(self, "scale", scale)

    @property
    def q_min(self) -> int:
        return qrange(self.bitwidth)[0]

    @property
    def q_max(self) -> int:
        return qrange(self.bitwidth)[1]

    def broadcast_scale(self, ndim: int) -> np.ndarray:
        """Scale shaped for broadcasting against an ndim-dimensional tensor."""
        if self.channel_axis is None or self.scale.size == 1:
            return self.scale.reshape(()) if self.scale.size == 1 else self.scale
        shape = [1] * ndim
        shape[self.channel_axis] = -1
        return self.scale.reshape(shape)


@dataclass(frozen=True)
class QuantizedTensor:
    """Signed integer codes stored in 8-bit containers plus their params."""

    data: np.ndarray
    params: QuantParams

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.int8)
        object.__setattr__(self, "data", data)


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


def quantize(x: np.ndarray, params: QuantParams) -> QuantizedTensor:
    """Map float values to integer codes: clip(round_half_even(x / S), qmin, qmax).

    float32/float64 arrays are divided straight into one float64 buffer,
    which is rounded and clipped in place (float32 widens exactly).
    """
    if not (isinstance(x, np.ndarray) and x.dtype in (np.float32, np.float64)):
        x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        bad = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(f"non-finite input value at index {tuple(int(i) for i in bad)}")
    scale = params.broadcast_scale(x.ndim)
    codes = np.asarray(np.divide(x, scale, dtype=np.float64))  # 0-d input gives a scalar
    np.rint(codes, out=codes)
    np.clip(codes, params.q_min, params.q_max, out=codes)
    return QuantizedTensor(codes.astype(np.int8), params)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Inverse map: code * S with the channel-appropriate scale."""
    scale = q.params.broadcast_scale(q.data.ndim)
    return q.data.astype(np.float64) * scale


def calibrate_ranges(
    batches,
    momentum: float = 0.99,
    channel_axis: int = 1,
    coverage_quantile: float | None = None,
) -> ChannelRange:
    """EMA of per-channel batch min/max over a stream of activation batches.

    Update rule: new = momentum * old + (1 - momentum) * batch, with the
    first batch initializing the EMA directly.  ``coverage_quantile``
    switches min/max to symmetric quantiles over the sampled values.
    """
    if not 0 <= momentum < 1:
        raise ValueError("momentum must be in [0, 1)")
    ema_min = ema_max = None
    for batch in batches:
        batch = np.asarray(batch, dtype=np.float64)
        moved = np.moveaxis(batch, channel_axis, 0).reshape(batch.shape[channel_axis], -1)
        if coverage_quantile is not None:
            lo = np.quantile(moved, 1.0 - coverage_quantile, axis=1)
            hi = np.quantile(moved, coverage_quantile, axis=1)
        else:
            lo = moved.min(axis=1)
            hi = moved.max(axis=1)
        if ema_min is None:
            ema_min, ema_max = lo, hi
        else:
            ema_min = momentum * ema_min + (1.0 - momentum) * lo
            ema_max = momentum * ema_max + (1.0 - momentum) * hi
    if ema_min is None:
        raise ValueError("calibration stream is empty")
    return ChannelRange(ema_min, ema_max)


def derive_scales(
    ranges: ChannelRange,
    bitwidth: int,
    per_channel: bool = True,
    channel_axis: int | None = 0,
) -> QuantParams:
    """Symmetric scales S = max(|min|, |max|) / (2^(bitwidth-1) - 1).

    With ``per_channel=False`` a single scale from the global absolute max
    is returned (used for activations).
    """
    abs_max = ranges.abs_max()
    if not per_channel:
        abs_max = np.atleast_1d(abs_max.max())
        channel_axis = None
    q_max = qrange(bitwidth)[1]
    scale = np.where(abs_max > 0, abs_max / q_max, EPS_SCALE)
    return QuantParams(scale=scale, bitwidth=bitwidth, channel_axis=channel_axis)
