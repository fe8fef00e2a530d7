import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixq.bitlower import (
    MAX_SHIFT,
    Q4_MAX,
    Q4_MIN,
    ExtractionPlan,
    dynamic_shift,
    effective_bitwidth,
    extract4,
    group_bitwidths,
    group_slices,
    plan_extraction,
    signed_bitwidth,
    static_shift,
)


def oracle_bitwidth(v: int) -> int:
    """Smallest b with -2^(b-1) <= v <= 2^(b-1) - 1, by trying every b."""
    for b in range(1, 9):
        if -(1 << (b - 1)) <= v <= (1 << (b - 1)) - 1:
            return b
    raise AssertionError(v)


def test_signed_bitwidth_matches_oracle_exhaustively():
    for v in range(-128, 128):
        assert signed_bitwidth(v) == oracle_bitwidth(v), v


def test_effective_bitwidth_goldens():
    assert effective_bitwidth([29]) == 6
    assert effective_bitwidth([-9]) == 5
    assert effective_bitwidth([0, 0]) == 1
    assert effective_bitwidth([-128]) == 8
    assert effective_bitwidth([7, -8]) == 4


def test_static_shift():
    assert static_shift(6) == 2
    assert static_shift(5) == 1
    assert [static_shift(b) for b in range(1, 9)] == [0, 0, 0, 0, 1, 2, 3, 4]


def test_extract4_goldens():
    # 29 with shift 2 -> 7, representing 28 (relative error 3.4% < 4%)
    assert extract4(29, 2) == 7
    assert abs(29 - (7 << 2)) / 29 < 0.04
    # -9 with shift 1 -> -5, representing -10
    assert extract4(-9, 1) == -5
    assert (-5 << 1) == -10
    # plain high-nibble baseline loses the value almost entirely
    assert extract4(29, 4) == 1


def test_extract4_saturates():
    assert extract4(127, 0) == Q4_MAX
    assert extract4(-128, 0) == Q4_MIN
    arr = extract4(np.array([127, -128, 3]), 0)
    assert arr.tolist() == [7, -8, 3]


def oracle_dynamic_shift(values) -> int:
    return max(0, max(oracle_bitwidth(int(v)) for v in np.asarray(values).ravel()) - 4)


def reference_group_bitwidths(q, group_size, axis, keep):
    """Group bitwidths with the sign fold np.where(q >= 0, q, ~q) and a
    Python bit_length per group (and per ``keep`` index)."""
    folded = np.where(q >= 0, q, ~q)
    out = []
    for sl in group_slices(q.shape[axis], group_size):
        block = folded[(slice(None),) * (axis % q.ndim) + (sl,)]
        if keep is None:
            out.append(int(block.max()).bit_length() + 1)
        else:
            per_keep = np.moveaxis(block, keep, 0).reshape(block.shape[keep], -1).max(axis=1)
            out.append([int(m).bit_length() + 1 for m in per_keep])
    got = np.array(out)
    return got if keep is None or axis % q.ndim < keep else got.T


@st.composite
def fold_cases(draw):
    dtype = np.dtype(draw(st.sampled_from([np.int8, np.int16, np.int64])))
    info = np.iinfo(dtype)
    extremes = [v for v in (info.min, info.min + 1, -129, -128, -1, 0, 127, 128, info.max)
                if info.min <= v <= info.max]
    elements = st.one_of(st.sampled_from(extremes), st.integers(info.min, info.max))
    q = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=3, max_side=7),
                        elements=elements))
    axis = draw(st.integers(-q.ndim, q.ndim - 1))
    others = [a for a in range(q.ndim) if a != axis % q.ndim]
    keep = draw(st.sampled_from([None] + others))
    return q, draw(st.integers(1, 8)), axis, keep


@settings(max_examples=300, deadline=None)
@given(fold_cases())
def test_group_bitwidths_matches_where_fold(case):
    """The shift-and-xor sign fold equals np.where(q >= 0, q, ~q) on every
    signed dtype, extremes included, along either axis, with or without a
    kept axis and with ragged last groups."""
    q, group_size, axis, keep = case
    got = group_bitwidths(q, group_size, axis=axis, keep=keep)
    assert np.array_equal(got, reference_group_bitwidths(q, group_size, axis, keep))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.int64, st.integers(1, 32), elements=st.integers(-128, 127)))
def test_dynamic_shift_matches_oracle(values):
    assert dynamic_shift(values) == oracle_dynamic_shift(values)


@settings(max_examples=500, deadline=None)
@given(hnp.arrays(np.int64, st.integers(1, 16), elements=st.integers(-8, 7)))
def test_lossless_roundtrip_when_4bit_effective(values):
    # effective bitwidth <= 4: extraction at the static shift is exact
    b = effective_bitwidth(values)
    assert b <= 4
    p = static_shift(b)
    assert p == 0
    assert np.array_equal(extract4(values, p) << p, values)


@settings(max_examples=500, deadline=None)
@given(hnp.arrays(np.int64, st.integers(1, 16), elements=st.integers(-128, 127)))
def test_truncation_error_bound(values):
    p = static_shift(effective_bitwidth(values))
    q4 = extract4(values, p)
    err = np.abs(values - (q4.astype(np.int64) << p))
    # the static shift never saturates calibrated values, so error < 2^p
    assert np.all(err <= (1 << p) - 1)


def test_losslessness_bulk():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        vals = rng.integers(-8, 8, size=rng.integers(1, 9))
        assert np.array_equal(extract4(vals, 0), vals)


def test_group_slices():
    assert group_slices(8, 4) == [slice(0, 4), slice(4, 8)]
    assert group_slices(7, 4) == [slice(0, 4), slice(4, 7)]  # short tail group
    assert group_slices(3, 8) == [slice(0, 3)]
    with pytest.raises(ValueError):
        group_slices(8, 0)


def test_plan_extraction_shapes_and_values():
    bounds = np.array([[-9, 3], [-9, 3], [0, 29], [0, 29]])
    w = np.array([[29, 1, -9, 2], [3, -3, 5, -5]])  # [n_out=2, n_in=4]
    plan = plan_extraction(bounds, w, group_size=2)
    assert plan.act_shifts.tolist() == [1, 2]  # bitwidths 5 and 6
    # group 0 weights: out0 {29,1}->b6->2, out1 {3,-3}->b3->0
    assert plan.weight_shifts[0].tolist() == [2, 0]
    # group 1 weights: out0 {-9,2}->b5->1, out1 {5,-5}->b4->0
    assert plan.weight_shifts[1].tolist() == [1, 0]


def test_plan_extraction_naive_forces_max_shift():
    bounds = np.array([[0, 3]])
    w = np.array([[2]])
    plan = plan_extraction(bounds, w, group_size=1, mode="naive")
    assert plan.act_shifts.tolist() == [MAX_SHIFT]
    assert plan.weight_shifts[0].tolist() == [MAX_SHIFT]


def test_plan_validation():
    with pytest.raises(ValueError):
        ExtractionPlan(np.array([5]), np.array([[0]]))
    with pytest.raises(ValueError):
        ExtractionPlan(np.array([0]), np.array([[0]]), mode="bogus")
    with pytest.raises(ValueError, match="channels"):
        plan_extraction(np.zeros((3, 2), dtype=int), np.zeros((2, 2), dtype=np.int8), 2)
