import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixq import evoselect, kernels, layout, modelio, netsim, oracle, scoring, synth
from mixq.bitlower import EXTRACTION_MODES, MAX_SHIFT, ExtractionPlan, plan_extraction
from mixq.kernels import int_gemm
from mixq.netsim import (
    Layer,
    LossInputs,
    NetworkGraph,
    l2_distance,
    relative_l2,
    run,
    softmax,
    top1_accuracy,
    total_loss,
)
from mixq.qtensor import ChannelRange, calibrate_ranges, derive_scales, quantize
from conftest import DERIVED, assert_same, small_conv_model, small_model


def one_layer_model(seed=41, features=8, group_size=4):
    graph = synth.make_linear_net(seed, 1, features, 4, group_size)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((64, features)).astype(np.float32)
    model = netsim.prepare(graph, [x])
    return model, x


def test_fp32_run_matches_manual_composition():
    graph = NetworkGraph(
        [
            Layer("linear", weight=np.array([[1.0, -1.0], [0.5, 2.0]], dtype=np.float32)),
            Layer("relu"),
            Layer("linear", weight=np.array([[1.0, 1.0]], dtype=np.float32)),
        ],
        (2,),
        group_size=2,
    )
    x = np.array([[1.0, 2.0], [-3.0, 0.5]], dtype=np.float32)
    model = netsim.prepare(graph, [x])
    got = run(model, x, mode="fp32")
    h = np.maximum(x @ graph.layers[0].weight.T, 0.0)
    want = h @ graph.layers[2].weight.T
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_residual_add_from_source_layer():
    w = np.eye(2, dtype=np.float32)
    graph = NetworkGraph(
        [
            Layer("linear", weight=w),
            Layer("relu"),
            Layer("residual_add", source=0),  # adds the linear output back in
            Layer("linear", weight=w),
        ],
        (2,),
        group_size=2,
    )
    x = np.array([[1.0, -2.0]], dtype=np.float32)
    model = netsim.prepare(graph, [x])
    got = run(model, x, mode="fp32")
    lin = x @ w.T
    want = (np.maximum(lin, 0.0) + lin) @ w.T
    np.testing.assert_allclose(got, want, rtol=1e-6)


def eager_state(weight, act_range, group_size) -> dict:
    """Every attribute a QuantState derives, by the formula that built them
    all when the state was made."""
    flat = weight.reshape(weight.shape[0], -1)
    w_ranges = ChannelRange(flat.min(axis=1), flat.max(axis=1))
    s8 = derive_scales(w_ranges.abs_max(), 8)
    s4 = derive_scales(w_ranges.abs_max(), 4)
    channels = (-1,) + (1,) * (weight.ndim - 1)
    q8 = quantize(weight, s8.reshape(channels), 8)
    q4 = quantize(weight, s4.reshape(channels), 4)
    abs_max = float(act_range.abs_max().max())
    act_scale = abs_max / 127.0 if abs_max > 0 else 1e-8
    act_scale4 = abs_max / 7.0 if abs_max > 0 else 1e-8
    lo = np.clip(np.rint(act_range.min / act_scale), -128, 127)
    hi = np.clip(np.rint(act_range.max / act_scale), -128, 127)
    bounds = np.stack([lo, hi], axis=1).astype(np.int64)
    plan = plan_extraction(bounds, q8, group_size)
    w_lo8 = kernels.lower_weights(q8, plan.weight_shifts, group_size)
    return dict(act_scale=act_scale, act_scale4=act_scale4, w_scales8=s8, w_q8=q8,
                w_scales4=s4, w_q4=q4, plan=plan, w_lo8=w_lo8)


# the parts of a QuantState, and what a first read of each attribute builds:
# its own part and the parts that part reads
PART8 = ("act_scale", "w_scales8", "w_q8")
PART4 = ("act_scale4", "w_scales4", "w_q4")
BUILT_BY_FIRST_READ = {**dict.fromkeys(PART8, PART8), **dict.fromkeys(PART4, PART4),
                       "plan": PART8 + ("plan",), "w_lo8": PART8 + ("plan", "w_lo8")}


@settings(max_examples=60, deadline=None)
@given(
    conv=st.booleans(),
    n_out=st.integers(1, 6),
    n_in=st.integers(1, 13),
    group_size=st.integers(1, 5),
    mode=st.sampled_from(EXTRACTION_MODES),
    first=st.sampled_from(DERIVED),
    zero_range=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lazy_state_equals_the_eager_formula(conv, n_out, n_in, group_size, mode, first,
                                             zero_range, seed):
    """Whichever attribute is read first, a QuantState builds the same arrays,
    scales and plan as the formula that built them all at once, for linear
    and conv layers, ragged last groups and every extraction mode, whose
    plan always holds the calibrated shifts.  The
    first read builds exactly the part it belongs to and the parts that part
    reads: the 8- and 4-bit parts read none, the plan reads the 8-bit part
    and the lowered weights read the plan."""
    rng = np.random.default_rng(seed)
    shape = (n_out, n_in, 3, 3) if conv else (n_out, n_in)
    weight = (rng.standard_normal(shape) * rng.uniform(0.01, 4.0)).astype(np.float32)
    weight[rng.random(n_out) < 0.2] = 0.0  # all-zero output channels take EPS_SCALE
    lo = rng.standard_normal(n_in) * rng.uniform(0.01, 4.0)
    hi = lo + rng.exponential(size=n_in)
    act_range = ChannelRange(np.zeros(n_in), np.zeros(n_in)) if zero_range else ChannelRange(lo, hi)
    state = netsim.QuantState(weight, act_range, group_size, mode)
    getattr(state, first)
    assert set(DERIVED) & set(vars(state)) == set(BUILT_BY_FIRST_READ[first])
    for name, want in eager_state(weight, act_range, group_size).items():
        assert_same(getattr(state, name), want, f"{name} after {first}")


def test_int8_run_matches_manual_kernel_chain():
    model, x = one_layer_model()
    idx = model.graph.matmul_indices()[0]
    state = model.states[idx]
    got = run(model, x, mode="int8")
    x_q = np.clip(np.rint(x.astype(np.float64) / state.act_scale), -128, 127).astype(np.int64)
    want = int_gemm(x_q, state.w_q8.T.astype(np.int64), state.act_scale, state.w_scales8)
    assert np.array_equal(got, want)


def test_mixed_ratio_zero_equals_int8():
    model, (x_cal, _), (x_ev, _) = small_model(seed=42)
    scores = scoring.score_groups(model)
    chrom = evoselect.select_greedy(model, scores, 0.0)
    out = run(model, x_ev, mode="mixed", flags_override=chrom)
    assert np.array_equal(out, run(model, x_ev, mode="int8"))


def test_int4_uniform_uses_4bit_scale():
    model, x = one_layer_model()
    idx = model.graph.matmul_indices()[0]
    state = model.states[idx]
    got = run(model, x, mode="int4")
    x_q = np.clip(np.rint(x.astype(np.float64) / state.act_scale4), -8, 7).astype(np.int64)
    want = int_gemm(x_q, state.w_q4.T.astype(np.int64), state.act_scale4, state.w_scales4)
    assert np.array_equal(got, want)


def test_run_validation_errors():
    model, x = one_layer_model()
    with pytest.raises(ValueError, match="mode"):
        run(model, x, mode="int2")
    with pytest.raises(ValueError, match="ratio"):
        run(model, x, mode="mixed")
    bare = netsim.PreparedModel(model.graph, {})
    with pytest.raises(ValueError, match="calibrated"):
        run(bare, x, mode="int8")


@pytest.mark.parametrize("mode", ["fp32", "int8", "int4", "mixed"])
@pytest.mark.parametrize("conv", [False, True], ids=["linear", "conv"])
def test_run_rejects_an_input_of_another_shape(mode, conv):
    """A batch must be [batch, *input_shape]: the GEMM would broadcast over
    extra axes, and numpy's own errors name neither shape."""
    if conv:
        model = small_conv_model(seed=4)[0]  # input [8, 5, 5]
        bad = [(4, 8), (4, 8, 5), (4, 8, 4, 5), (4, 5, 5, 8)]
        want = r"\[batch, 8, 5, 5\]"
    else:
        model = one_layer_model()[0]  # input [8]
        bad = [(8,), (8, 8, 2, 2), (8, 30), (8, 1, 8)]
        want = r"\[batch, 8\]"
    for shape in bad:
        x = np.ones(shape, dtype=np.float32)
        with pytest.raises(ValueError, match=re.escape(str(list(shape))) + ".*" + want):
            run(model, x, mode=mode, flags_override={} if mode == "mixed" else None)


def test_gelu_layer(tmp_path):
    """linear -> gelu -> linear: the gelu output is the tanh formula to
    float32 rounding, the quantized forwards run, and a save/load round
    trip keeps the kind and every output."""
    rng = np.random.default_rng(8)
    graph = NetworkGraph([
        Layer("linear", weight=rng.standard_normal((8, 8)).astype(np.float32)),
        Layer("gelu"),
        Layer("linear", weight=rng.standard_normal((4, 8)).astype(np.float32)),
    ], (8,), group_size=4)
    x = rng.standard_normal((32, 8)).astype(np.float32) * 2
    model = netsim.prepare(graph, [x])
    rec: dict = {}
    fp32 = run(model, x, mode="fp32", record=rec)
    h = rec[0].output.astype(np.float64)
    want = 0.5 * h * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (h + 0.044715 * h**3)))
    eps = np.finfo(np.float32).eps
    assert np.all(np.abs(rec[2].input - want) <= 8 * eps * (np.abs(h) + np.abs(want)))
    assert np.any(h < -1.0) and np.any(h > 1.0)  # both tails of the curve
    flags = {0: np.array([True, False]), 2: np.array([False, True])}
    outs = {"fp32": fp32, "int8": run(model, x, mode="int8"), "int4": run(model, x, mode="int4"),
            "mixed": run(model, x, mode="mixed", flags_override=flags)}
    for out in outs.values():
        assert out.shape == (32, 4) and np.all(np.isfinite(out))
    assert np.array_equal(run(model, x, mode="mixed", flags_override={}), outs["int8"])
    modelio.save_model(tmp_path, model)
    loaded = modelio.load_model(tmp_path)
    assert [l.kind for l in loaded.graph.layers] == ["linear", "gelu", "linear"]
    for mode, out in outs.items():
        got = run(loaded, x, mode=mode, flags_override=flags if mode == "mixed" else None)
        assert got.tobytes() == out.tobytes(), mode


def test_prepare_rejects_empty_stream():
    graph = synth.make_linear_net(1, 2, 8, 4, 4)
    with pytest.raises(ValueError, match="empty"):
        netsim.prepare(graph, [])


def test_prepare_peak_memory_does_not_grow_with_calibration_batches():
    # prepare once kept every batch's recorded inputs to the end: 16 batches
    # of 64 samples peaked at 2.7x the peak of 4 on this net
    graph = synth.make_linear_net(0, 4, 128, 8, 8)
    x, _ = synth.make_dataset(1, 128, 8, 16 * 64)

    def peak(n_batches):
        batches = (x[i : i + 64] for i in range(0, n_batches * 64, 64))
        tracemalloc.start()
        try:
            netsim.prepare(graph, batches)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) < 1.1 * peak(4)


def test_metrics_helpers():
    a = np.array([[3.0, 4.0]])
    b = np.zeros((1, 2))
    assert l2_distance(a, b) == 5.0
    assert relative_l2(np.array([[2.0, 0.0]]), np.array([[1.0, 0.0]])) == 1.0
    with pytest.raises(ValueError):
        relative_l2(a, b)
    logits = np.array([[0.1, 0.9], [0.8, 0.2]])
    assert top1_accuracy(logits, np.array([1, 0])) == 1.0
    assert top1_accuracy(logits, np.array([0, 0])) == 0.5


def test_top1_accuracy_averages_conv_logits_and_checks_labels():
    logits = np.zeros((2, 3, 2, 2))
    logits[0, 2, 0, 0] = 4.0  # one pixel outvotes the other three
    logits[0, 1, 1:, :] = 1.0
    logits[1, 0] = 1.0
    assert top1_accuracy(logits, np.array([2, 0])) == 1.0
    with pytest.raises(ValueError, match=r"labels of shape \(3,\) do not match logits of shape \(2, 3, 2, 2\)"):
        top1_accuracy(logits, np.array([2, 0, 1]))


def test_softmax_matches_direct_formula():
    z = np.array([[1.0, 2.0, 3.0]])
    want = np.exp(z) / np.exp(z).sum()
    np.testing.assert_allclose(softmax(z), want, rtol=1e-12)
    big = softmax(np.array([[1000.0, 1000.0]]))
    np.testing.assert_allclose(big, [[0.5, 0.5]])


def loss_inputs(lam):
    low = np.array([[2.0, 0.0], [0.5, 1.5]])
    high = np.array([[1.0, 1.0], [0.0, 2.0]])
    fp = np.array([[3.0, -1.0], [1.0, 1.0]])
    hard = np.array([0, 1])
    return LossInputs(low, high, fp, hard, lam)


def branch_loss_by_hand(logits, hard, fp):
    total = 0.0
    for i in range(len(hard)):
        exp = [math.exp(v) for v in logits[i]]
        p = [e / sum(exp) for e in exp]
        expf = [math.exp(v) for v in fp[i]]
        q = [e / sum(expf) for e in expf]
        total += -math.log(p[hard[i]])
        total += -sum(qj * math.log(pj) for qj, pj in zip(q, p))
    return total / len(hard)


def test_loss_lambda_identities():
    inp0, inp1, inp_half = loss_inputs(0.0), loss_inputs(1.0), loss_inputs(0.5)
    low = branch_loss_by_hand(inp0.logits_low, inp0.hard_labels, inp0.logits_fp32)
    high = branch_loss_by_hand(inp0.logits_high, inp0.hard_labels, inp0.logits_fp32)
    assert total_loss(inp1) == pytest.approx(low, abs=1e-9)
    assert total_loss(inp0) == pytest.approx(high, abs=1e-9)
    assert total_loss(inp_half) == pytest.approx(0.5 * (low + high), abs=1e-9)


def test_loss_closed_form_case():
    # symmetric two-class case: p = softmax([a, 0]) known in closed form
    a = 1.0
    low = np.array([[a, 0.0]])
    inp = LossInputs(low, low, np.array([[0.0, 0.0]]), np.array([0]), 0.5)
    p0 = 1.0 / (1.0 + math.exp(-a))
    p1 = 1.0 - p0
    want = -math.log(p0) + -(0.5 * math.log(p0) + 0.5 * math.log(p1))
    assert total_loss(inp) == pytest.approx(want, abs=1e-9)


def test_loss_validation():
    with pytest.raises(ValueError):
        loss_inputs(1.5)
    with pytest.raises(ValueError):
        LossInputs(np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 2)), np.array([0]))


def test_unused_bit_report_hand_case():
    # weights quantize to +/-127 on channel 0 (0 unused bits) and
    # +/-1 -> code 4 on channel 1/2/3 given channel-0 dominated scale
    w = np.array([[16.0, 1.0, 1.0, 1.0], [-16.0, -1.0, -1.0, -1.0]], dtype=np.float32)
    graph = NetworkGraph([Layer("linear", weight=w)], (4,), group_size=4)
    x = np.array([[10.0, 0.07, 0.07, 0.07]], dtype=np.float32) * np.ones((8, 1), np.float32)
    model = netsim.prepare(graph, [x])
    report = netsim.unused_bit_report(model)[0]
    # weight codes: ch0 -> 127 (8 bits, 0 unused); ch1..3 -> 8 (5 bits, 3 unused)
    assert report["weight"][0] == pytest.approx(0.25)
    assert report["weight"][3] == pytest.approx(0.75)
    # activation codes: ch0 -> 127; ch1..3 -> 1 (2 bits -> >=4 unused)
    assert report["activation"][0] == pytest.approx(0.25)
    assert report["activation"][4] == pytest.approx(0.75)


def test_saturation_report_static_vs_dynamic():
    model, (x_cal, _), (x_ev, _) = small_model(seed=43)
    scores = scoring.score_groups(model)
    sel = evoselect.chained_selection(
        model, scores, [1.0], evoselect.EvoConfig(population=8, generations=2, elite=2,
                                                  parents=4, fitness_samples=16, seed=0),
        x_cal[:16], algo="greedy",
    )
    evoselect.install_selections(model, sel)
    hot = x_ev * 3.0  # far outside the calibrated ranges
    static = netsim.saturation_report(model, hot, 1.0, extraction="static")
    dynamic = netsim.saturation_report(model, hot, 1.0, extraction="dynamic")
    assert any(v > 0.0 for v in static.values())
    assert all(v == 0.0 for v in dynamic.values())
    calm = netsim.saturation_report(model, x_cal[:16], 1.0, extraction="static")
    assert all(v == 0.0 for v in calm.values())


@pytest.mark.parametrize("mode", ["int8", "int4", "mixed"])
def test_quantized_forward_rejects_non_finite_input(mode):
    model, x = one_layer_model()
    x = x.copy()
    x[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run(model, x, mode=mode, flags_override={})


def test_one_kernel_call_per_matmul_layer(monkeypatch):
    """netsim.run makes exactly one public kernel call per matmul layer, and
    no public kernel calls another; tracing and the kernel probes of the
    benchmark rely on both."""
    calls, active, nested = [], [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if active:
                nested.append((active[-1], name))
            calls.append((name, kwargs))
            active.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()
        return wrapper

    for name in ("mixed_gemm", "int_gemm", "mixed_conv2d", "int_conv2d"):
        monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
    linear, _, (x_lin, _) = small_model(seed=44)
    conv, _, (x_conv, _) = small_conv_model(seed=45)
    for model, x, kind in ((linear, x_lin, "gemm"), (conv, x_conv, "conv2d")):
        matmuls = model.graph.matmul_indices()
        runs = [("fp32", None), ("int8", None), ("int4", None)] + [
            ("mixed", {i: np.full(model.n_groups(i), on) for i in matmuls}) for on in (False, True)
        ]
        for mode, flags in runs:
            calls.clear()
            run(model, x, mode=mode, flags_override=flags)
            if mode == "fp32":
                assert calls == []
                continue
            want = f"mixed_{kind}" if mode == "mixed" else f"int_{kind}"
            assert [name for name, _ in calls] == [want] * len(matmuls)
            if mode == "mixed":
                assert all(kw.get("group_flags") is not None for _, kw in calls)
    assert nested == []


def test_one_conv_contraction_per_conv_layer_in_every_precision(monkeypatch):
    """Every precision contracts a conv layer through ``kernels._conv_gemm``,
    once per conv layer and forward: fp32 in float64 on the float values,
    int8, int4 and mixed on their codes."""
    model, _, (x, _) = small_conv_model(seed=45)
    convs = [i for i in model.graph.matmul_indices() if model.graph.layers[i].kind == "conv2d"]
    assert convs
    rng = np.random.default_rng(3)
    flags = {i: rng.random(model.n_groups(i)) < 0.5 for i in convs}
    for i in convs:
        flags[i][0] = True
    calls = []
    conv_gemm = kernels._conv_gemm

    def counted(x, w, dtype):
        calls.append(dtype)
        return conv_gemm(x, w, dtype)

    monkeypatch.setattr(kernels, "_conv_gemm", counted)
    for mode, override in (("fp32", None), ("int8", None), ("int4", None), ("mixed", flags)):
        calls.clear()
        run(model, x, mode=mode, flags_override=override)
        assert len(calls) == len(convs), mode
        if mode == "fp32":
            assert calls == [np.float64] * len(convs)


def test_mixed_forward_reuses_the_lowered_weights(monkeypatch):
    """Each flagged layer's weights are lowered exactly once, when the first
    mixed forward builds the mixed part of its state; no uniform forward
    lowers them, and no later static or dynamic forward or ratio switch
    lowers them again.  Naive extraction on a static-plan model lowers them
    with shift 4 and matches the oracle."""
    model, _, (x, _) = small_model(seed=46)
    matmuls = model.graph.matmul_indices()
    rng = np.random.default_rng(0)
    flags = {i: rng.integers(0, 2, model.n_groups(i)).astype(bool) for i in matmuls}
    for i in matmuls:
        flags[i][0] = True
    model.selections = {0.5: flags, 1.0: {i: np.ones(model.n_groups(i), bool) for i in matmuls}}
    lowered = []

    def counted(*args, **kwargs):
        lowered.append(args)
        return lower_weights(*args, **kwargs)

    lower_weights = kernels.lower_weights
    monkeypatch.setattr(kernels, "lower_weights", counted)
    for mode in ("int8", "int4"):
        run(model, x, mode=mode)
    assert lowered == []
    run(model, x, mode="mixed", flags_override=flags)
    assert len(lowered) == len(matmuls)
    assert all(args[0] is model.states[i].w_q8 for args, i in zip(lowered, matmuls))
    for extraction in ("static", "dynamic"):
        run(model, x, mode="mixed", flags_override=flags, extraction=extraction)
        for ratio in (0.5, 1.0, 0.5):
            netsim.set_ratio(model, ratio)
            run(model, x, mode="mixed", extraction=extraction)
    assert len(lowered) == len(matmuls)
    lowered.clear()

    calls = []
    mixed_gemm = kernels.mixed_gemm

    def caught(*args, **kwargs):
        out = mixed_gemm(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(kernels, "mixed_gemm", caught)
    run(model, x[:4], mode="mixed", flags_override=flags, extraction="naive")
    assert len(lowered) == len(calls) == len(matmuls)
    for (x_q, w_q, act_scale, w_scales, plan, group_size), kwargs, (got, _) in calls:
        assert plan.mode == "static" and kwargs["lowering"].naive
        n_groups, n_out = plan.weight_shifts.shape
        naive = ExtractionPlan(np.full(n_groups, MAX_SHIFT), np.full((n_groups, n_out), MAX_SHIFT),
                               mode="naive")
        want = oracle.scalar_mixed_gemm(x_q, w_q, act_scale, w_scales, naive, group_size,
                                        kwargs["group_flags"])
        assert np.array_equal(got, want)


def test_lowerings_are_planned_once_per_prepared_flags(monkeypatch):
    """set_ratio cycles over prepared ratios, under static and dynamic
    extraction, plan each flagged layer's lowering once per flags and weight
    rule, so once per set of flags; flags_override forwards plan theirs per
    call and leave every state's memo as it was."""
    model, _, (x, _) = small_model(seed=48)
    matmuls = model.graph.matmul_indices()
    rng = np.random.default_rng(6)
    model.selections = {r: {i: rng.random(model.n_groups(i)) < 0.5 for i in matmuls}
                        for r in (0.25, 0.5)}
    planned = []
    plan_lowering = kernels.plan_lowering

    def counted(*args, **kwargs):
        planned.append(args)
        return plan_lowering(*args, **kwargs)

    monkeypatch.setattr(kernels, "plan_lowering", counted)
    distinct = {(i, sel[i].tobytes()) for sel in model.selections.values() for i in matmuls
                if sel[i].any()}
    assert distinct
    for extraction in ("static", "dynamic"):
        for ratio in (0.25, 0.5) * 3:
            netsim.set_ratio(model, ratio)
            run(model, x, mode="mixed", extraction=extraction)
    assert len(planned) == len(distinct)
    rec = {}
    run(model, x, mode="mixed", extraction="dynamic", record=rec)
    i = next(i for i in matmuls if model.selections[0.5][i].any())
    kept = rec[i].flags.copy()
    model.selections[0.5][i][:] = ~kept  # the memo's flags are its own
    assert np.array_equal(rec[i].flags, kept) and not rec[i].flags.flags.writeable
    model.selections[0.5][i][:] = kept

    sizes ={i: len(model.states[i]._lowerings) for i in matmuls}
    offsets = np.cumsum([0] + [model.n_groups(i) for i in matmuls])
    planned.clear()
    for k in range(1, 51):  # 50 distinct flag sets, each flagging some group
        bits = (k >> np.arange(offsets[-1])) & 1 == 1
        flags = {i: bits[a:b] for i, a, b in zip(matmuls, offsets[:-1], offsets[1:])}
        run(model, x, mode="mixed", flags_override=flags, extraction="dynamic")
    assert len(planned) >= 50
    assert {i: len(model.states[i]._lowerings) for i in matmuls} == sizes


def greedy_model():
    """small_model(seed=4) with a greedy selection at 0.5."""
    model, _, (x, _) = small_model(seed=4)
    selection = evoselect.select_greedy(model, scoring.score_groups(model), 0.5)
    evoselect.install_selections(model, {0.5: selection})
    return model, selection, x


def test_the_plan_mode_and_its_name_share_one_lowering():
    """On a static plan, extraction None and "static" are one mode, so
    their forwards keep one lowering, and one weight operand, per flagged
    layer."""
    model, selection, x = greedy_model()
    for extraction in (None, "static", None):
        run(model, x, mode="mixed", ratio=0.5, extraction=extraction)
    flagged = [i for i, flags in selection.items() if flags.any()]
    assert flagged
    assert {i: len(model.states[i]._lowerings) for i in flagged} == dict.fromkeys(flagged, 1)


def test_naive_forwards_at_a_prepared_ratio_lower_the_weights_once(monkeypatch):
    """Naive extraction on a static plan lowers each flagged layer's weights
    once, with shift 4, when its lowering is planned: never at the plan's
    shifts (``w_lo8``, which those forwards do not read), and not again on
    later calls."""
    model, selection, x = greedy_model()
    shifts = []
    lower_weights = kernels.lower_weights

    def counted(w_q, weight_shifts, *args, **kwargs):
        shifts.append(weight_shifts)
        return lower_weights(w_q, weight_shifts, *args, **kwargs)

    monkeypatch.setattr(kernels, "lower_weights", counted)
    run(model, x, mode="mixed", ratio=0.5, extraction="naive")
    assert len(shifts) == sum(1 for flags in selection.values() if flags.any())
    assert all(np.all(s == MAX_SHIFT) for s in shifts)
    shifts.clear()
    for _ in range(3):
        run(model, x, mode="mixed", ratio=0.5, extraction="naive")
    assert shifts == []


@pytest.mark.parametrize("conv", [False, True], ids=["linear", "conv"])
def test_a_fully_flagged_layer_contracts_a_view_of_its_lowered_weights(conv):
    """With every group flagged, a layer's lowering holds a read-only view
    of ``w_lo8`` as its weight operand, not a copy; with some group 8-bit,
    it holds its own copy.  Either way ``w_lo8`` stays writable."""
    model, _, (x, _) = small_conv_model(seed=4) if conv else small_model(seed=4)
    matmuls = model.graph.matmul_indices()
    model.selections = {r: {i: np.arange(model.n_groups(i)) < max(1, r * model.n_groups(i))
                            for i in matmuls} for r in (0.5, 1.0)}
    for ratio in (0.5, 1.0):
        run(model, x, mode="mixed", ratio=ratio)
        for i in matmuls:
            state, flags = model.states[i], model.selections[ratio][i]
            lowering = state.lowering(flags, None)
            assert np.shares_memory(lowering.w, state.w_lo8) == flags.all()
            assert not lowering.w.flags.writeable and state.w_lo8.flags.writeable


@pytest.mark.parametrize("conv", [False, True], ids=["linear", "conv"])
@pytest.mark.parametrize("first", ["static", "dynamic"])
def test_static_and_dynamic_lowerings_of_one_flag_set_share_their_weight_operand(conv, first):
    """Static and dynamic forwards on one set of flags, in either order,
    share one lowering; a naive one, lowered with shift 4, holds its own
    weight operand.  Every forward returns the bytes of a fresh model whose
    memo holds only its own lowering."""
    def fresh():
        model, _, (x, _) = small_conv_model(seed=4) if conv else small_model(seed=4)
        matmuls = model.graph.matmul_indices()
        # some group 4-bit and some 8-bit: an operand of its own, not a view of w_lo8
        model.selections = {0.5: {i: np.arange(model.n_groups(i)) % 2 == 0 for i in matmuls}}
        return model, x, matmuls

    order = [first, "dynamic" if first == "static" else "static", "naive"]
    want = {e: fresh()[0] for e in order}
    model, x, matmuls = fresh()
    for extraction in order:
        got = run(model, x, mode="mixed", ratio=0.5, extraction=extraction)
        assert got.tobytes() == run(want[extraction], x, mode="mixed", ratio=0.5,
                                    extraction=extraction).tobytes(), extraction
    for i in matmuls:
        state, flags = model.states[i], model.selections[0.5][i]
        static, dynamic, naive = (state.lowering(flags, e) for e in ("static", "dynamic", "naive"))
        assert len(state._lowerings) == 2 and static is dynamic
        assert not np.shares_memory(static.w, state.w_lo8)
        assert not np.shares_memory(naive.w, static.w)


def test_record_holds_one_entry_per_matmul_layer():
    model, (x_cal, _), (x_ev, _) = small_model(seed=36, residual=True)
    sel = evoselect.chained_selection(
        model, scoring.score_groups(model), [0.25, 0.5],
        evoselect.EvoConfig(seed=4), x_cal[:16], algo="random", protect_edges=True,
    )
    evoselect.install_selections(model, sel)
    laid = layout.apply_layout(model, layout.plan_layout(model))
    assert any(l.perm is not None for l in laid.graph.layers)  # a residual edge is reordered
    matmuls = laid.graph.matmul_indices()
    for extraction in ("static", "dynamic"):
        rec = {}
        out = run(laid, x_ev, mode="mixed", ratio=0.5, extraction=extraction, record=rec)
        assert sorted(rec) == matmuls
        assert np.array_equal(rec[matmuls[-1]].output, out)
        for idx in matmuls:
            want = laid.selections[0.5].get(idx, np.zeros(laid.n_groups(idx), dtype=bool))
            assert np.array_equal(rec[idx].flags, want)
            if extraction == "static":
                assert np.array_equal(rec[idx].stats.act_shifts_used,
                                      laid.states[idx].plan.act_shifts)
    assert all(not rec[i].flags.any() for i in (matmuls[0], matmuls[-1]))
    rec = {}
    out = run(laid, x_ev, mode="int8", record=rec)
    assert sorted(rec) == matmuls and np.array_equal(rec[matmuls[-1]].output, out)
    assert all(r.flags is None and r.stats is None for r in rec.values())


def test_fp32_record_inputs_reproduce_calibration():
    model, (x_cal, _), _ = small_model(seed=12, residual=True)
    recs = []
    for i in range(0, len(x_cal), 32):  # the batches small_model calibrates on
        recs.append({})
        run(model, x_cal[i : i + 32], record=recs[-1])
    for idx, state in model.states.items():
        cr = calibrate_ranges([r[idx].input for r in recs], 0.99)
        assert np.array_equal(cr.min, state.act_range.min)
        assert np.array_equal(cr.max, state.act_range.max)


def assert_same_records(got, want):
    assert sorted(got) == sorted(want)
    for idx in got:
        a, b = got[idx], want[idx]
        assert a.flags.tobytes() == b.flags.tobytes()
        for field in ("saturated_channels", "act_shifts_used"):
            x, y = getattr(a.stats, field), getattr(b.stats, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("extraction", ["static", "dynamic", "naive"])
def test_replaced_flags_are_never_served_stale(tmp_path, extraction):
    """Once set_ratio cycles have built a ratio's steps, flags replaced with
    install_selections, by a new array or in place run byte-identically to
    the same flags as flags_override and to a freshly loaded model."""
    model, _, (x, _) = small_model(seed=47)
    matmuls = model.graph.matmul_indices()
    rng = np.random.default_rng(3)

    def random_flags():
        return {i: rng.random(model.n_groups(i)) < 0.5 for i in matmuls}

    model.selections = {0.25: random_flags(), 0.5: random_flags()}
    for r in (0.25, 0.5, 0.25, 0.5):
        netsim.set_ratio(model, r)
        run(model, x, mode="mixed", extraction=extraction)

    def replace_by_install():
        evoselect.install_selections(model, {0.5: random_flags()})

    def replace_one_array():
        model.selections[0.5][matmuls[1]] = ~model.selections[0.5][matmuls[1]]

    def flip_in_place():
        model.selections[0.5][matmuls[2]][0] ^= True

    for replace in (replace_by_install, replace_one_array, flip_in_place):
        replace()
        netsim.set_ratio(model, 0.25)
        run(model, x, mode="mixed", extraction=extraction)
        netsim.set_ratio(model, 0.5)
        got_rec, want_rec, fresh_rec = {}, {}, {}
        got = run(model, x, mode="mixed", extraction=extraction, record=got_rec)
        flags = {i: f.copy() for i, f in model.selections[0.5].items()}
        want = run(model, x, mode="mixed", flags_override=flags, extraction=extraction,
                   record=want_rec)
        modelio.save_model(tmp_path, model)
        fresh = run(modelio.load_model(tmp_path), x, mode="mixed", ratio=0.5,
                    extraction=extraction, record=fresh_rec)
        for out, rec in ((want, want_rec), (fresh, fresh_rec)):
            assert out.tobytes() == got.tobytes() and out.strides == got.strides, replace
            assert_same_records(rec, got_rec)


def test_kernels_patched_after_a_forward_are_called(monkeypatch):
    """A quantized forward looks its kernels up when it calls them, so a
    kernel patched after the first forward (as the benchmark's tracer does)
    gets one call per matmul layer in the next one."""
    linear, _, (x_lin, _) = small_model(seed=49)
    conv, _, (x_conv, _) = small_conv_model(seed=50)
    for model, x, kind in ((linear, x_lin, "gemm"), (conv, x_conv, "conv2d")):
        matmuls = model.graph.matmul_indices()
        model.selections = {0.5: {i: np.arange(model.n_groups(i)) % 2 == 0 for i in matmuls}}
        for mode, name in (("int8", "int"), ("int4", "int"), ("mixed", "mixed")):
            run(model, x, mode=mode, ratio=0.5)
            calls = []
            kernel = getattr(kernels, f"{name}_{kind}")

            def patched(*args, kernel=kernel, **kwargs):
                calls.append(args)
                return kernel(*args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(kernels, f"{name}_{kind}", patched)
                run(model, x, mode=mode, ratio=0.5)
            assert len(calls) == len(matmuls), (kind, mode)


def _w(*shape):
    return np.ones(shape, dtype=np.float32)


@pytest.mark.parametrize("layers, shape, want", [
    # the stream rules
    ([Layer("linear", weight=_w(5, 4)), Layer("linear", weight=_w(3, 6))], (4,),
     "layer 1 ('linear') takes 6 channels of a vector stream, not the 5 of a vector stream"),
    ([Layer("linear", weight=_w(1, 4)), Layer("linear", weight=_w(4, 1)),
      Layer("residual_add", source=0)], (4,),
     "layer 2 ('residual_add') adds 1 channels from source 0 to a stream of 4"),
    ([Layer("linear", weight=_w(5, 6))], (3, 2, 6),
     "layer 0 ('linear') takes 6 channels of a vector stream, not the 3 of an image stream"),
    ([Layer("conv2d", weight=_w(5, 4, 3, 3))], (4,),
     "layer 0 ('conv2d') takes 4 channels of an image stream, not the 4 of a vector stream"),
    ([Layer("linear", weight=_w(5, 4))], (4, 4),
     "input shape [4, 4] is neither (features,) nor (channels, height, width)"),
    # the rules a loaded manifest was held to before a graph checked itself
    ([Layer("softmax")], (4,), "layer 0 ('softmax') has an unknown kind"),
    ([Layer("linear")], (4,), "layer 0 ('linear') has no weight"),
    ([Layer("conv2d", weight=_w(5, 4))], (4, 3, 3),
     "layer 0 ('conv2d') has a weight of shape [5, 4], not of 4 dimensions"),
    ([Layer("relu"), Layer("residual_add", source=1)], (4,),
     "layer 1 ('residual_add') has source 1, not -1 (the input) or an earlier layer"),
    ([Layer("relu", perm=np.arange(4))], (4,),
     "layer 0 ('relu') has a perm, which only a residual_add takes"),
    ([Layer("residual_add", source=-1, perm=np.array([0, 0, 1, 2]))], (4,),
     "layer 0 ('residual_add') has a perm that is not a permutation"),
    ([Layer("residual_add", source=-1, perm=np.arange(3))], (4,),
     "layer 0 ('residual_add') has a perm of 3 channels, not of the stream's 4"),
], ids=["matmul width", "residual width", "linear on image", "conv on vector", "input rank",
        "kind", "no weight", "weight rank", "source", "perm on relu", "perm values",
        "perm short"])
def test_graph_built_in_code_is_checked(layers, shape, want):
    """A graph built in code is held to the rules a loaded one is; the
    stream rules once let a broken graph run to numpy's own error, or to a
    broadcast output of the wrong shape."""
    with pytest.raises(ValueError, match=re.escape(want)):
        NetworkGraph(layers, shape)


MUTATIONS = ["none", "swap", "source", "kind", "perm", "input shape"]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_a_mutated_graph_is_rejected_or_runs(seed, mutation, data):
    """A random net with at most one mutation either fails construction,
    naming a layer or the input shape, or runs fp32 and int8 to the output
    shape its last matmul layer implies."""
    base = synth.random_net(seed, group_size=4)
    layers, shape = [dataclasses.replace(l) for l in base.layers], tuple(base.input_shape)
    residuals = [i for i, l in enumerate(layers) if l.kind == "residual_add"]
    if mutation == "swap":
        a, b = data.draw(st.lists(st.sampled_from(base.matmul_indices()), min_size=2,
                                  max_size=2, unique=True))
        layers[a], layers[b] = layers[b], layers[a]
    elif mutation == "source":
        source = data.draw(st.integers(-2, len(layers)))
        if residuals:
            layers[residuals[0]].source = source
        else:
            layers.insert(data.draw(st.integers(0, len(layers))),
                          Layer("residual_add", source=source))
    elif mutation == "kind":
        idx = data.draw(st.integers(0, len(layers) - 1))
        layers[idx].kind = data.draw(st.sampled_from(netsim.LAYER_KINDS + ("softmax",)))
    elif mutation == "perm":  # a permutation of fewer channels than the stream's
        idx = residuals[0] if residuals else data.draw(st.integers(0, len(layers) - 1))
        layers[idx].perm = np.arange(data.draw(st.integers(0, shape[0] - 1)))
    elif mutation == "input shape":
        shape = tuple(data.draw(st.lists(st.sampled_from([1, 5, 8, 16, 24, 32]), min_size=1,
                                         max_size=4)))
    try:
        graph = NetworkGraph(layers, shape, base.group_size)
    except ValueError as exc:
        assert re.match(r"layer \d+ \(|input shape \[", str(exc)), str(exc)
        return
    x = np.random.default_rng(seed).standard_normal((3,) + shape).astype(np.float32)
    model = netsim.prepare(graph, [x])
    want = (3, graph.layers[graph.matmul_indices()[-1]].n_out) + shape[1:]
    for mode in ("fp32", "int8"):
        assert run(model, x, mode=mode).shape == want


def test_calibration_sample_not_finite_named():
    """prepare names the first non-finite calibration value, counting
    samples over the batch stream; it once calibrated NaN ranges."""
    graph = synth.make_linear_net(3, 2, 8, 4, 4)
    x, _ = synth.make_dataset(4, 8, 4, 16)
    x[5, 6] = np.inf
    with pytest.raises(ValueError, match=re.escape("calibration sample 5 is not finite at "
                                                   "index (6,)")):
        netsim.prepare(graph, [x[:4], x[4:]])


def calibrated_twins(conv, laid_out):
    """A naive-calibrated and a static-calibrated model of one net, with
    the same nested selections at 0.5 and 1.0, plus eval inputs twice as
    wide as calibration's (so static extraction clips)."""
    if conv:
        graph = synth.make_conv_net(4, 3, 8, 5, 8, 3, 2)
        x, _ = synth.make_image_dataset(5, 8, 5, 8, 48)
    else:
        graph = synth.make_linear_net(4, 4, 16, 8, 4)
        x, _ = synth.make_dataset(5, 16, 8, 64)
    twins = []
    for mode in ("naive", "static"):
        model = netsim.prepare(graph, [x[:32]], extraction_mode=mode)
        ranks = {i: np.random.default_rng(i).permutation(model.n_groups(i))
                 for i in graph.matmul_indices()}
        model.selections = {r: {i: rank < math.ceil(r * rank.size) for i, rank in ranks.items()}
                            for r in (0.5, 1.0)}
        twins.append(layout.apply_layout(model, layout.plan_layout(model)) if laid_out else model)
    return twins, x[32:] * np.float32(2)


def assert_same_forward(a, b, x, ratio, extraction_a, extraction_b):
    """Mixed forwards of ``a`` and ``b`` at ``ratio`` with equal outputs,
    records and kernel stats."""
    recs = {}, {}
    outs = [run(model, x, mode="mixed", ratio=ratio, extraction=e, record=rec)
            for model, e, rec in zip((a, b), (extraction_a, extraction_b), recs)]
    where = (ratio, extraction_a, extraction_b)
    assert outs[0].tobytes() == outs[1].tobytes(), where
    assert recs[0].keys() == recs[1].keys()
    for i, got in recs[0].items():
        want = recs[1][i]
        for name in ("input", "output", "flags"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (where, i, name)
        for name, value in vars(got.stats).items():
            assert value.tobytes() == getattr(want.stats, name).tobytes(), (where, i, name)


@pytest.mark.parametrize("laid_out", [False, True], ids=["plain", "laid-out"])
@pytest.mark.parametrize("conv", [False, True], ids=["linear", "conv"])
def test_the_calibrated_extraction_only_sets_the_default(conv, laid_out):
    """Every layer's plan holds its calibrated shifts, whatever extraction
    it was calibrated with.  So a naive-calibrated model's static and
    dynamic forwards equal those of a static-calibrated twin: outputs,
    records and kernel stats.  Its default forward is the twin's naive one,
    and each flagged layer keeps one lowering per flag set and weight rule,
    at most two per flag set.  (A naive-calibrated layer once refused
    static and dynamic extraction.)"""
    (naive, static), x = calibrated_twins(conv, laid_out)
    for ratio in (0.5, 1.0):
        for extraction in ("static", "dynamic"):
            assert_same_forward(naive, static, x, ratio, extraction, extraction)
        assert_same_forward(naive, static, x, ratio, None, "naive")
    for model in (naive, static):
        for i, state in model.states.items():
            flag_sets = {sel[i].tobytes() for sel in model.selections.values() if sel[i].any()}
            assert len(state._lowerings) == 2 * len(flag_sets), i


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), calib_mode=st.sampled_from(["static", "dynamic"]),
       laid_out=st.booleans())
def test_a_tail_resumes_every_forward_bit_for_bit(seed, calib_mode, laid_out):
    """On a random net, ``tail`` raises exactly on the cuts a residual
    crosses, and at every matmul cut it accepts, the tail's run on the
    stream entering the cut equals the whole forward bit for bit: int8,
    int4, and mixed at a prepared ratio and with ``flags_override``, under
    static and dynamic extraction, laid out or not."""
    graph = synth.random_net(seed, 4)
    if len(graph.input_shape) == 1:
        x, _ = synth.make_dataset(seed, graph.input_shape[0], 4, 10)
    else:
        x, _ = synth.make_image_dataset(seed, graph.input_shape[0], graph.input_shape[1], 4, 9)
    model = netsim.prepare(graph, [x[:8]], extraction_mode=calib_mode)
    rng = np.random.default_rng(seed)
    matmuls = graph.matmul_indices()
    ranks = {i: rng.permutation(model.n_groups(i)) for i in matmuls}
    model.selections = {r: {i: rank < round(r * rank.size) for i, rank in ranks.items()}
                        for r in (0.25, 0.5)}
    if laid_out:
        model = layout.apply_layout(model, layout.plan_layout(model))
    override = {i: rng.random(model.n_groups(i)) < 0.5 for i in matmuls}
    runs = [("int8", {}), ("int4", {})] + [
        ("mixed", {"extraction": e, **kw}) for e in ("static", "dynamic")
        for kw in ({"ratio": 0.5}, {"flags_override": override})]
    layers = model.graph.layers
    for outside in (-1, len(layers)):
        with pytest.raises(ValueError, match=f"cut {outside} outside the {len(layers)} layers"):
            netsim.tail(model, outside)
    for start in range(len(layers)):
        crossed = any(l.kind == "residual_add" and l.source < start - 1 for l in layers[start:])
        if crossed:
            with pytest.raises(ValueError, match="reads a tensor from before"):
                netsim.tail(model, start)
            continue
        part = netsim.tail(model, start)
        assert part.input_perm is None and all(part.states[i - start] is model.states[i]
                                               for i in matmuls if i >= start)
        if start not in matmuls:
            continue
        for mode, kw in runs:
            rec = {}
            want = run(model, x[8:], mode, record=rec, **kw)
            if "flags_override" in kw:
                kw = {**kw, "flags_override": {i - start: f for i, f in override.items()
                                               if i >= start}}
            got = run(part, rec[start].input, mode, **kw)
            assert got.tobytes() == want.tobytes(), (start, mode, kw)
