import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixq.qtensor import (
    EPS_SCALE,
    ChannelRange,
    calibrate_ranges,
    dequantize,
    derive_scales,
    qrange,
    quantize,
)


def scalar_quantize(x, scale, bitwidth):
    """Independent scalar reference: banker's rounding then clip."""
    import decimal

    q = decimal.Decimal(x / scale).quantize(0, rounding=decimal.ROUND_HALF_EVEN)
    lo, hi = qrange(bitwidth)
    return int(min(max(int(q), lo), hi))


def test_qrange():
    assert qrange(8) == (-128, 127)
    assert qrange(4) == (-8, 7)


def test_quantize_golden_example():
    assert quantize(np.array([0.957]), 0.033, 8)[0] == 29


def test_quantize_matches_scalar_reference():
    rng = np.random.default_rng(0)
    x = rng.uniform(-6, 6, size=500)
    for bitwidth in (4, 8):
        got = quantize(x, 0.033, bitwidth)
        for i, v in enumerate(x):
            assert got[i] == scalar_quantize(v, 0.033, bitwidth), v


def test_round_half_to_even():
    got = quantize(np.array([0.5, 1.5, 2.5, -0.5, -1.5]), 1.0, 8)
    assert got.tolist() == [0, 2, 2, 0, -2]


def test_quantize_clips_to_range():
    got = quantize(np.array([100.0, -100.0]), 0.01, 8)
    assert got.tolist() == [127, -128]


def test_quantize_rejects_non_finite():
    with pytest.raises(ValueError, match=r"non-finite input value at index \(1,\)$"):
        quantize(np.array([1.0, np.nan]), 1.0, 8)
    with pytest.raises(ValueError, match=r"non-finite input value at index \(1, 0\)$"):
        quantize(np.array([[1.0, 2.0], [np.inf, 3.0]]), 1.0, 8)


def test_quantize_rejects_unsupported_bitwidth():
    with pytest.raises(ValueError, match="unsupported bitwidth 16"):
        quantize(np.array([1.0]), 1.0, 16)


def test_per_channel_scale_broadcast():
    x = np.array([[2.0, 2.0], [3.0, 3.0]])
    got = quantize(x, np.array([[1.0], [0.5]]), 8)  # one scale per row
    assert got.tolist() == [[2, 2], [6, 6]]


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-4.0, 4.0, allow_nan=False),
    st.floats(0.01, 1.0, allow_nan=False),
)
def test_roundtrip_error_bounded(x, scale):
    q = quantize(np.array([x]), scale, 8)
    if abs(x) <= scale * qrange(8)[1]:  # in representable range
        assert abs(dequantize(q, scale)[0] - x) <= scale / 2 + 1e-12


def test_ema_update_rule():
    batches = [np.array([[-1.0, 1.0]]).T, np.array([[-2.0, 2.0]]).T]
    cr = calibrate_ranges(batches, momentum=0.99)
    # new = 0.99 * old + 0.01 * batch
    assert np.allclose(cr.min, [-1.01])
    assert np.allclose(cr.max, [1.01])


def test_ema_first_batch_initializes():
    cr = calibrate_ranges([np.array([[3.0, -5.0]]).T], momentum=0.9)
    assert cr.min[0] == -5.0 and cr.max[0] == 3.0


def test_ema_per_channel():
    batch = np.array([[1.0, -2.0], [3.0, 4.0]])  # channels along axis 1
    cr = calibrate_ranges([batch])
    assert cr.min.tolist() == [1.0, -2.0]
    assert cr.max.tolist() == [3.0, 4.0]


def test_ema_empty_stream_rejected():
    with pytest.raises(ValueError, match="empty"):
        calibrate_ranges([])


def test_coverage_quantile_tightens_range():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4096, 1))
    full = calibrate_ranges([x])
    clipped = calibrate_ranges([x], coverage_quantile=0.99)
    assert clipped.max[0] < full.max[0]
    assert clipped.min[0] > full.min[0]


@pytest.mark.parametrize("quantile", [0.3, 0.0, 1.5])
def test_coverage_quantile_outside_its_range_named(quantile):
    """Below 0.5 the lower quantile lies above the upper one: once this
    failed only in ChannelRange, with "channel range min exceeds max"."""
    with pytest.raises(ValueError, match=f"coverage_quantile must be in \\[0.5, 1\\], got {quantile}"):
        calibrate_ranges([np.zeros((4, 2))], coverage_quantile=quantile)


def test_derive_scales_symmetric_absmax():
    cr = ChannelRange(np.array([-3.0, -0.5]), np.array([1.0, 2.0]))
    assert np.allclose(derive_scales(cr.abs_max(), 8), [3.0 / 127.0, 2.0 / 127.0])
    assert np.allclose(derive_scales(cr.abs_max(), 4), [3.0 / 7.0, 2.0 / 7.0])


def test_derive_scales_per_tensor():
    cr = ChannelRange(np.array([-3.0, -0.5]), np.array([1.0, 2.0]))
    scale = derive_scales(cr.abs_max().max(), 8)
    assert scale.shape == () and scale == 3.0 / 127.0


def test_derive_scales_degenerate_channel():
    cr = ChannelRange(np.array([0.0]), np.array([0.0]))
    assert derive_scales(cr.abs_max(), 8)[0] == EPS_SCALE


def test_channel_range_validation():
    with pytest.raises(ValueError):
        ChannelRange(np.array([1.0]), np.array([0.0]))


@st.composite
def quantize_cases(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    bitwidth = draw(st.sampled_from([4, 8]))
    scale_of = st.one_of(st.sampled_from([0.5, 0.25, 0.033, 1.0, 3.0]), st.floats(1e-3, 10.0))
    if draw(st.booleans()):
        scale = np.array([[draw(scale_of)] for _ in range(rows)])  # one per row
    else:
        scale = draw(scale_of)
    row_scale = np.broadcast_to(scale, (rows, 1))[:, 0]
    # exact (k + 0.5)·scale ties, anything inside or beyond the range, and zeros
    values = [
        [draw(st.one_of(
            st.integers(-140, 140).map(lambda k, s=row_scale[r]: (k + 0.5) * s),
            st.floats(-200.0, 200.0, allow_nan=False),
            st.just(0.0),
        )) for _ in range(cols)]
        for r in range(rows)
    ]
    kind = draw(st.sampled_from(["float32", "float64", "int", "list"]))
    x = {
        "float32": lambda: np.array(values, dtype=np.float32),
        "float64": lambda: np.array(values, dtype=np.float64),
        "int": lambda: np.rint(np.array(values)).astype(np.int64),
        "list": lambda: values,
    }[kind]()
    return x, scale, bitwidth


@settings(max_examples=300, deadline=None)
@given(quantize_cases())
def test_quantize_equals_float64_reference(case):
    x, scale, bitwidth = case
    want = np.clip(np.rint(np.asarray(x, np.float64) / scale), *qrange(bitwidth)).astype(np.int8)
    got = quantize(x, scale, bitwidth)
    assert got.dtype == np.int8 and got.shape == want.shape
    assert np.array_equal(got, want)


def test_quantize_leaves_its_input_unchanged():
    x = np.array([[0.26, -1.3], [2.0, 0.75]], dtype=np.float32)
    before = x.copy()
    assert quantize(x, 0.5, 4).tolist() == [[1, -3], [4, 2]]
    assert np.array_equal(x, before) and x.dtype == np.float32


@st.composite
def calibration_streams(draw):
    channels = draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 5)), channels)
    if draw(st.booleans()):  # conv activations: [batch, channels, h, w]
        shape += (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    value = st.floats(-1e3, 1e3, allow_nan=False)
    batches = [
        np.array(draw(st.lists(value, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
                 dtype=draw(st.sampled_from([np.float32, np.float64]))).reshape(shape)
        for _ in range(draw(st.integers(1, 5)))
    ]
    momentum = draw(st.one_of(st.just(0.0), st.just(0.99), st.floats(0.0, 1.0, exclude_max=True)))
    # below 0.5 the lower quantile lies above the upper one: not a range
    quantile = draw(st.one_of(st.none(), st.floats(0.5, 1.0)))
    return batches, momentum, quantile


@settings(max_examples=200, deadline=None)
@given(calibration_streams())
def test_folding_batches_one_at_a_time_equals_one_call(case):
    batches, momentum, quantile = case
    whole = calibrate_ranges(batches, momentum, coverage_quantile=quantile)
    running = None
    for batch in batches:
        running = calibrate_ranges([batch], momentum, coverage_quantile=quantile, start=running)
    for got, want in ((running.min, whole.min), (running.max, whole.max)):
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_continuing_from_a_range_updates_on_every_batch():
    start = ChannelRange(np.array([-1.0]), np.array([1.0]))
    cr = calibrate_ranges([np.array([[-2.0, 2.0]]).T], momentum=0.99, start=start)
    assert cr.min.tolist() == [0.99 * -1.0 + 0.01 * -2.0]
    assert cr.max.tolist() == [0.99 * 1.0 + 0.01 * 2.0]
    empty = calibrate_ranges([], start=start)  # nothing to fold: the start range
    assert (empty.min.tolist(), empty.max.tolist()) == ([-1.0], [1.0])


def test_calibrating_a_float32_batch_neither_widens_nor_copies_it():
    """Min and max run in the batch's own dtype, so one call on a float32
    conv activation peaks below the batch's size (it used to widen the batch
    to float64 and copy it again, 4x its size), with the bytes of the
    widened formula."""
    x = np.random.default_rng(3).standard_normal((16, 32, 12, 12)).astype(np.float32)
    tracemalloc.start()
    try:
        cr = calibrate_ranges([x])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes
    wide = np.moveaxis(x.astype(np.float64), 1, 0).reshape(32, -1)
    assert cr.min.tobytes() == wide.min(axis=1).tobytes()
    assert cr.max.tobytes() == wide.max(axis=1).tobytes()
