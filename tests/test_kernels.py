import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixq import kernels, oracle
from mixq.bitlower import group_slices, plan_extraction, signed_bitwidth
from mixq.kernels import (
    accumulator_error_bound,
    int_conv2d,
    int_gemm,
    lower_weights,
    mixed_conv2d,
    mixed_gemm,
    plan_lowering,
)


def random_case(rng, group_size=4, max_dim=16):
    K = group_size * int(rng.integers(1, max_dim // group_size + 1))
    N = int(rng.integers(1, max_dim + 1))
    B = int(rng.integers(1, 9))
    x_q = rng.integers(-128, 128, size=(B, K)).astype(np.int64)
    w_q = rng.integers(-128, 128, size=(K, N)).astype(np.int64)
    w_scales = rng.uniform(1e-3, 1e-1, size=N)
    act_scale = float(rng.uniform(1e-3, 1e-1))
    bounds = np.stack([x_q.min(axis=0), x_q.max(axis=0)], axis=1)
    flags = rng.integers(0, 2, size=len(group_slices(K, group_size))).astype(bool)
    return x_q, w_q, act_scale, w_scales, bounds, flags


def oracle_dynamic_shifts(x_q, group_size):
    """Independent per-group shifts: widest batch value decides."""
    return [
        max(0, max(signed_bitwidth(int(v)) for v in x_q[:, sl].ravel()) - 4)
        for sl in group_slices(x_q.shape[1], group_size)
    ]


@pytest.mark.parametrize("mode", ["static", "naive", "dynamic"])
def test_mixed_gemm_matches_scalar_oracle(mode):
    rng = np.random.default_rng(hash(mode) % 2**32)
    for _ in range(25):
        x_q, w_q, act_scale, w_scales, bounds, flags = random_case(rng)
        plan = plan_extraction(bounds, w_q.T.copy(), 4, mode=mode)
        got, _ = mixed_gemm(x_q, w_q, act_scale, w_scales, plan, 4, group_flags=flags)
        shifts = oracle_dynamic_shifts(x_q, 4) if mode == "dynamic" else None
        want = oracle.scalar_mixed_gemm(
            x_q, w_q, act_scale, w_scales, plan, 4, flags, act_shifts=shifts
        )
        assert np.array_equal(got, want)


def test_mixed_gemm_integer_accumulators_exact():
    rng = np.random.default_rng(5)
    x_q, w_q, act_scale, w_scales, bounds, flags = random_case(rng)
    plan = plan_extraction(bounds, w_q.T.copy(), 4)
    got, _ = mixed_gemm(x_q, w_q, act_scale, w_scales, plan, 4, group_flags=flags)
    acc = oracle.scalar_mixed_gemm_acc(x_q, w_q, plan, 4, flags)
    want = acc.astype(np.float64) * (act_scale * w_scales)
    assert np.array_equal(got, want.astype(np.float32))


def test_ratio_zero_is_pure_int8():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x_q, w_q, act_scale, w_scales, bounds, _ = random_case(rng)
        plan = plan_extraction(bounds, w_q.T.copy(), 4)
        flags = np.zeros(plan.n_groups, dtype=bool)
        got, _ = mixed_gemm(x_q, w_q, act_scale, w_scales, plan, 4, group_flags=flags)
        want = int_gemm(x_q, w_q, act_scale, w_scales)
        assert np.array_equal(got, want)


def test_mixed_conv2d_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    for _ in range(6):
        B, C, H, W = 2, 4, int(rng.integers(2, 5)), int(rng.integers(2, 5))
        O, k = int(rng.integers(1, 5)), int(rng.choice([1, 3]))
        x_q = rng.integers(-128, 128, size=(B, C, H, W)).astype(np.int64)
        w_q = rng.integers(-128, 128, size=(O, C, k, k)).astype(np.int64)
        w_scales = rng.uniform(1e-3, 1e-1, size=O)
        act_scale = float(rng.uniform(1e-3, 1e-1))
        moved = x_q.transpose(1, 0, 2, 3).reshape(C, -1)
        bounds = np.stack([moved.min(axis=1), moved.max(axis=1)], axis=1)
        flags = rng.integers(0, 2, size=len(group_slices(C, 2))).astype(bool)
        plan = plan_extraction(bounds, w_q, 2)
        got, _ = mixed_conv2d(x_q, w_q, act_scale, w_scales, plan, 2, group_flags=flags)
        want = oracle.scalar_mixed_conv2d(x_q, w_q, act_scale, w_scales, plan, 2, flags)
        assert np.array_equal(got, want)


def test_conv_1x1_equals_gemm():
    rng = np.random.default_rng(6)
    B, C, H, W, O = 2, 4, 3, 3, 5
    x_q = rng.integers(-128, 128, size=(B, C, H, W)).astype(np.int64)
    w_q = rng.integers(-128, 128, size=(O, C, 1, 1)).astype(np.int64)
    w_scales = rng.uniform(1e-3, 1e-1, size=O)
    moved = x_q.transpose(1, 0, 2, 3).reshape(C, -1)
    bounds = np.stack([moved.min(axis=1), moved.max(axis=1)], axis=1)
    flags = np.array([True, False])
    plan = plan_extraction(bounds, w_q, 2)
    conv_out, _ = mixed_conv2d(x_q, w_q, 0.01, w_scales, plan, 2, group_flags=flags)
    # flatten spatial positions into a batch of GEMM rows
    x_flat = x_q.transpose(0, 2, 3, 1).reshape(-1, C)
    # dynamic shifts differ between layouts, so compare static only
    gemm_out, _ = mixed_gemm(x_flat, w_q[:, :, 0, 0].T, 0.01, w_scales, plan, 2, group_flags=flags)
    assert np.array_equal(conv_out.transpose(0, 2, 3, 1).reshape(-1, O), gemm_out)


def test_int_conv2d_matches_fp_reference():
    rng = np.random.default_rng(8)
    x_q = rng.integers(-128, 128, size=(1, 2, 3, 3)).astype(np.int64)
    w_q = rng.integers(-128, 128, size=(2, 2, 3, 3)).astype(np.int64)
    out = int_conv2d(x_q, w_q, 1.0, np.ones(2))
    # brute-force same-padding convolution
    xp = np.pad(x_q, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for o in range(2):
        for i in range(3):
            for j in range(3):
                acc = 0
                for c in range(2):
                    for dy in range(3):
                        for dx in range(3):
                            acc += int(xp[0, c, i + dy, j + dx]) * int(w_q[o, c, dy, dx])
                assert out[0, o, i, j] == np.float32(acc)


def test_saturation_stats_flag_out_of_plan_channels():
    # calibrated bounds say 3 bits, runtime value needs 8 -> channel clips
    x_cal = np.array([[3, -3, 3, -3]], dtype=np.int64)
    bounds = np.stack([x_cal.min(axis=0), x_cal.max(axis=0)], axis=1)
    w_q = np.ones((4, 2), dtype=np.int64)
    plan = plan_extraction(bounds, w_q.T.copy(), 4)
    assert plan.act_shifts.tolist() == [0]
    x_run = np.array([[100, 1, 1, 1]], dtype=np.int64)
    _, stats = mixed_gemm(x_run, w_q, 0.1, np.ones(2), plan, 4, group_flags=[True])
    assert stats.saturated_channels.tolist() == [True, False, False, False]
    _, stats_dyn = mixed_gemm(
        x_run, w_q, 0.1, np.ones(2), plan, 4, group_flags=[True], extraction="dynamic"
    )
    assert not stats_dyn.saturated_channels.any()


def test_error_bound_holds():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x_q, w_q, act_scale, w_scales, bounds, flags = random_case(rng)
        plan = plan_extraction(bounds, w_q.T.copy(), 4)
        got, _ = mixed_gemm(x_q, w_q, act_scale, w_scales, plan, 4, group_flags=flags)
        exact = int_gemm(x_q, w_q, act_scale, w_scales)
        bound = accumulator_error_bound(x_q, w_q, plan, 4, flags)
        limit = bound.astype(np.float64) * (act_scale * w_scales)
        assert np.all(np.abs(got.astype(np.float64) - exact.astype(np.float64)) <= limit + 1e-9)


def test_accumulator_overflow_detected():
    # codes far outside int8 force the int32 guard to trip
    x_q = np.full((1, 4), 2**20, dtype=np.int64)
    w_q = np.full((4, 1), 2**20, dtype=np.int64)
    with pytest.raises(OverflowError):
        int_gemm(x_q, w_q, 1.0, np.ones(1))


def test_shape_mismatch_rejected():
    plan = plan_extraction(np.zeros((4, 2), dtype=int), np.zeros((1, 4), dtype=np.int8), 4)
    with pytest.raises(ValueError, match="channels"):
        mixed_gemm(np.zeros((1, 5), dtype=np.int64), np.zeros((4, 1), dtype=np.int64),
                   1.0, np.ones(1), plan, 4, group_flags=[False])


@st.composite
def kernel_cases(draw, conv):
    """Tiny operands with ragged last groups, random or prefix 4-bit flags,
    calibration bounds narrow enough for static extraction to saturate."""
    group_size = draw(st.integers(1, 4))
    C = draw(st.integers(1, 9))
    n_out = draw(st.integers(1, 4))
    B = draw(st.integers(1, 2 if conv else 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if conv:
        k = draw(st.sampled_from([1, 3]))
        x_q = rng.integers(-128, 128, size=(B, C, draw(st.integers(1, 3)), draw(st.integers(1, 3))))
        w_q = rng.integers(-128, 128, size=(n_out, C, k, k))
    else:
        x_q = rng.integers(-128, 128, size=(B, C))
        w_q = rng.integers(-128, 128, size=(C, n_out))
    calib = np.moveaxis(x_q >> draw(st.integers(0, 4)), 1, 0).reshape(C, -1)
    bounds = np.stack([calib.min(axis=1), calib.max(axis=1)], axis=1)
    slices = group_slices(C, group_size)
    if draw(st.booleans()):
        flags = np.array(draw(st.lists(st.booleans(), min_size=len(slices), max_size=len(slices))))
        select = {"group_flags": flags}
    else:
        n4 = draw(st.integers(0, len(slices)))
        flags = np.arange(len(slices)) < n4
        select = {"group_flags": flags}
    mode = draw(st.sampled_from(["static", "dynamic", "naive"]))
    extraction = draw(st.sampled_from([None, mode, "naive"]))
    return x_q, w_q, bounds, group_size, flags, select, mode, extraction, draw(st.booleans())


def check_against_oracle(case, conv):
    x_q, w_q, bounds, group_size, flags, select, mode, extraction, pass_lowering = case
    n_out = w_q.shape[0] if conv else w_q.shape[1]
    w_scales = np.linspace(1e-3, 1e-1, n_out)
    plan = plan_extraction(bounds, w_q if conv else w_q.T, group_size, mode=mode)
    kernel = mixed_conv2d if conv else mixed_gemm
    got, stats = kernel(x_q, w_q, 0.02, w_scales, plan, group_size, extraction=extraction, **select)
    if pass_lowering:
        # a lowering planned once from the lowered weights a caller keeps gives
        # byte-identical results, also where naive extraction overrides the
        # plan and must lower the weights again
        w_lo = lower_weights(w_q if conv else w_q.T, plan.weight_shifts, group_size)
        lowering = plan_lowering(plan, group_size, flags, w_q, extraction, x_q.dtype,
                                 w_lo=w_lo if conv else w_lo.T)
        cached, cached_stats = kernel(x_q, w_q, 0.02, w_scales, plan, group_size,
                                      extraction=extraction, lowering=lowering, **select)
        assert cached.tobytes() == got.tobytes() and cached.strides == got.strides
        for field in ("saturated_channels", "act_shifts_used"):
            a, b = getattr(cached_stats, field), getattr(stats, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if extraction == "naive":  # the override lowers both operands with shift 4
        plan = plan_extraction(bounds, w_q if conv else w_q.T, group_size, mode="naive")
        mode = "naive"
    shifts = None
    if mode == "dynamic":
        shifts = oracle_dynamic_shifts(np.moveaxis(x_q, 1, -1).reshape(-1, x_q.shape[1]), group_size)
        assert stats.act_shifts_used[flags].tolist() == np.asarray(shifts)[flags].tolist()
    scalar = oracle.scalar_mixed_conv2d if conv else oracle.scalar_mixed_gemm
    want = scalar(x_q, w_q, 0.02, w_scales, plan, group_size, flags, act_shifts=shifts)
    assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(kernel_cases(conv=False))
def test_mixed_gemm_property_matches_scalar_oracle(case):
    check_against_oracle(case, conv=False)


@settings(max_examples=40, deadline=None)
@given(kernel_cases(conv=True))
def test_mixed_conv2d_property_matches_scalar_oracle(case):
    check_against_oracle(case, conv=True)


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_int_gemm_exact_up_to_the_int32_boundary(dtype):
    # K * 128 * 128 = 2^31 - 2^14 still fits the 32-bit accumulator
    k = 131071
    x_q = np.full((1, k), -128, dtype=dtype)
    w_q = np.full((k, 1), -128, dtype=dtype)
    out = int_gemm(x_q, w_q, 1.0, np.ones(1))
    assert out.tolist() == [[np.float32(k * 128 * 128)]]
    with pytest.raises(OverflowError, match="32-bit"):
        int_gemm(np.full((1, k + 1), -128, dtype=dtype), np.full((k + 1, 1), -128, dtype=dtype),
                 1.0, np.ones(1))


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_int_gemm_float32_contraction_exact_up_to_2_24(dtype):
    # K * 128 * 128 = 2^24: every partial sum is an integer float32 holds
    k = 1024
    out = int_gemm(np.full((1, k), -128, dtype=dtype), np.full((k, 1), -128, dtype=dtype),
                   1.0, np.ones(1))
    assert out.tolist() == [[float(2**24)]]


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_int_gemm_above_2_24_contracts_in_float64(dtype):
    # the accumulator 2^24 + 1 has no float32 value (a float32 contraction
    # gives 2^24 or 2^24 + 2); through the scale 3 the float32 outputs of
    # those three accumulators are all different
    x_q = np.array([[-128] * 1024 + [1]], dtype=dtype)
    w_q = np.array([[-128]] * 1024 + [[1]], dtype=dtype)
    out = int_gemm(x_q, w_q, 1.0, np.array([3.0]))
    want = np.float32((2**24 + 1) * 3.0)
    assert len({float(np.float32(a * 3.0)) for a in (2**24, 2**24 + 1, 2**24 + 2)}) == 3
    assert out.tolist() == [[float(want)]]


@pytest.mark.parametrize("conv", [False, True])
def test_float64_inexact_contraction_raises(conv):
    # the exact sum is 1, but partial sums pass 2^53, where float64 drops
    # the low bits, so a float64 contraction could return 0 or 2
    a = 2**26 + 1
    x_q = np.array([[a, a, 1, a, a]], dtype=np.int64)
    w_q = np.array([[a], [a], [1], [-a], [-a]], dtype=np.int64)
    assert sum(int(x) * int(w) for x, w in zip(x_q[0], w_q[:, 0])) == 1
    with pytest.raises(OverflowError, match="float64"):
        if conv:
            int_conv2d(x_q[:, :, None, None], w_q.T[:, :, None, None], 1.0, np.ones(1))
        else:
            int_gemm(x_q, w_q, 1.0, np.ones(1))


def conv_reference(x, w):
    """Same-padded stride-1 convolution, one output pixel at a time, summed
    in Python numbers (the indexing of ``oracle.scalar_mixed_conv2d_acc``)."""
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    out = np.zeros((B, O, H, W), dtype=object)
    for b in range(B):
        for o in range(O):
            for y in range(H):
                for xx in range(W):
                    total = 0
                    for c in range(C):
                        for dy in range(kh):
                            for dx in range(kw):
                                yy, xs = y + dy - kh // 2, xx + dx - kw // 2
                                if 0 <= yy < H and 0 <= xs < W:
                                    total += x[b, c, yy, xs].item() * w[o, c, dy, dx].item()
                    out[b, o, y, xx] = total
    return out


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 3)] * 3, st.integers(1, 4), st.integers(1, 4)),
    kernel=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    channels_last=st.booleans(),
    budget=st.integers(1, 2048),
    seed=st.integers(0, 2**32 - 1),
)
def test_fp32_conv_contraction_property_matches_direct_reference(shape, kernel, channels_last,
                                                                 budget, seed):
    """The fp32 conv path, the im2col contraction of float32 values in
    float64, equals the direct reference bit for bit on integer-valued
    operands, whose every partial sum is exact in any order, and is close
    to it on random ones; on the channels-last inputs ``netsim.run``
    passes, and with patch budgets small enough to split the patch matrix
    into many row blocks."""
    (B, C, O, H, W), (kh, kw) = shape, kernel
    rng = np.random.default_rng(seed)
    x_q = rng.integers(-128, 128, size=(B, C, H, W))
    w_q = rng.integers(-128, 128, size=(O, C, kh, kw))
    x = rng.standard_normal((B, C, H, W)).astype(np.float32)
    w = rng.standard_normal((O, C, kh, kw)).astype(np.float32)
    if channels_last:
        x_q, x = (np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
                  for a in (x_q, x))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "PATCH_BYTES", budget)
        exact = kernels._conv_gemm(x_q.astype(np.float32), w_q.astype(np.float32), np.float64)
        close = kernels._conv_gemm(x, w, np.float64)
    want = conv_reference(x_q, w_q).astype(np.float64)
    assert exact.dtype == np.float64 and exact.shape == want.shape
    assert np.array_equal(exact, want)
    assert close.shape == want.shape and np.allclose(close, conv_reference(x, w).astype(np.float64))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 3)] * 3, st.integers(1, 4), st.integers(1, 4)),
    kernel=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    bits=st.sampled_from([4, 8]),
    channels_last=st.booleans(),
    budget=st.integers(1, 2048),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_contraction_property_matches_direct_reference(shape, kernel, bits, channels_last,
                                                            budget, seed):
    """The im2col contraction of integer codes equals the direct reference
    bit for bit, on 4- and 8-bit code ranges, on the channels-last inputs
    ``netsim.run`` passes, and with a patch budget small enough to split
    the patch matrix into many row blocks."""
    (B, C, O, H, W), (kh, kw) = shape, kernel
    rng = np.random.default_rng(seed)
    q = 1 << (bits - 1)
    x_q = rng.integers(-q, q, size=(B, C, H, W))
    w_q = rng.integers(-q, q, size=(O, C, kh, kw))
    if channels_last:
        x_q = np.ascontiguousarray(x_q.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "PATCH_BYTES", budget)
        got = kernels._contract(x_q, w_q, conv=True)
    want = conv_reference(x_q, w_q).astype(np.int64)
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("mode", ["static", "dynamic", "naive"])
def test_planned_constants_give_the_same_results_and_must_fit_the_call(mode):
    """A kernel given the lowering a caller planned once returns the bytes
    and stats it computes without it, and one planned lowering serves static
    and dynamic calls alike; a lowering planned for other flags or the other
    weight rule (naive or planned) is rejected when the call flags some
    group, as only then is it read."""
    rng = np.random.default_rng(12)
    fits = ("naive",) if mode == "naive" else ("static", "dynamic")
    for _ in range(10):
        x_q, w_q, act_scale, w_scales, bounds, flags = random_case(rng)
        x8, w8 = x_q.astype(np.int8), w_q.astype(np.int8)
        plan = plan_extraction(bounds, w_q.T.copy(), 4, mode=mode)
        planned = {"lowering": plan_lowering(plan, 4, flags, w8)}
        for e in fits:
            want, want_stats = mixed_gemm(x8, w8, act_scale, w_scales, plan, 4, group_flags=flags,
                                          extraction=e)
            got, stats = mixed_gemm(x8, w8, act_scale, w_scales, plan, 4, group_flags=flags,
                                    extraction=e, **planned)
            assert got.tobytes() == want.tobytes() and got.strides == want.strides
            for field in ("saturated_channels", "act_shifts_used"):
                assert getattr(stats, field).tobytes() == getattr(want_stats, field).tobytes()
        others = ("static", "dynamic") if mode == "naive" else ("naive",)
        for f, e in [(~flags, None)] + [(flags, o) for o in others]:
            if f.any():
                with pytest.raises(ValueError, match="lowering was planned"):
                    mixed_gemm(x8, w8, act_scale, w_scales, plan, 4, group_flags=f, extraction=e,
                               **planned)


def test_a_lowering_planned_for_another_weight_shape_is_rejected():
    """A lowering holds the weight operand it was planned for: a call on
    weights of another shape does not contract it."""
    rng = np.random.default_rng(13)
    x_q, w_q, act_scale, w_scales, bounds, flags = random_case(rng)
    flags[0] = True
    wider = np.concatenate([w_q, w_q], axis=1)
    plan = plan_extraction(bounds, w_q.T.copy(), 4)
    other = plan_lowering(plan_extraction(bounds, wider.T.copy(), 4), 4, flags, wider,
                          dtype=x_q.dtype)
    with pytest.raises(ValueError, match="lowering was planned"):
        mixed_gemm(x_q, w_q, act_scale, w_scales, plan, 4, group_flags=flags, lowering=other)
