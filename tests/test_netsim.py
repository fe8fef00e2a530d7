import math

import numpy as np
import pytest

from mixq import evoselect, kernels, layout, modelio, netsim, oracle, scoring, synth
from mixq.bitlower import MAX_SHIFT, ExtractionPlan
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
from mixq.qtensor import calibrate_ranges, quantize
from conftest import small_conv_model, small_model


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


def test_int8_run_matches_manual_kernel_chain():
    model, x = one_layer_model()
    idx = model.graph.matmul_indices()[0]
    state = model.states[idx]
    got = run(model, x, mode="int8")
    x_q = np.clip(np.rint(x.astype(np.float64) / state.act_scale), -128, 127).astype(np.int64)
    want = int_gemm(x_q, state.w_q8.T.astype(np.int64), state.act_scale,
                    state.w_params8.scale)
    assert np.array_equal(got, want)


def test_mixed_ratio_zero_equals_int8():
    model, (x_cal, _), (x_ev, _) = small_model(seed=42)
    scores = scoring.score_groups(model)
    chrom = evoselect.select_greedy(model, scores, 0.0)
    out = run(model, x_ev, mode="mixed", flags_override=chrom.as_override())
    assert np.array_equal(out, run(model, x_ev, mode="int8"))


def test_int4_uniform_uses_4bit_scale():
    model, x = one_layer_model()
    idx = model.graph.matmul_indices()[0]
    state = model.states[idx]
    got = run(model, x, mode="int4")
    x_q = np.clip(np.rint(x.astype(np.float64) / state.act_scale4), -8, 7).astype(np.int64)
    want = int_gemm(x_q, state.w_q4.T.astype(np.int64), state.act_scale4,
                    state.w_params4.scale)
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


def test_prepare_rejects_empty_stream():
    graph = synth.make_linear_net(1, 2, 8, 4, 4)
    with pytest.raises(ValueError, match="empty"):
        netsim.prepare(graph, [])


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


def test_mixed_forward_reuses_the_lowered_weights(monkeypatch):
    """A static or dynamic mixed forward of a prepared model lowers no weights
    (they were lowered once when the state was built); naive extraction on
    a static-plan model lowers them with shift 4 and matches the oracle."""
    model, _, (x, _) = small_model(seed=46)
    matmuls = model.graph.matmul_indices()
    rng = np.random.default_rng(0)
    flags = {i: rng.integers(0, 2, model.n_groups(i)).astype(bool) for i in matmuls}
    for i in matmuls:
        flags[i][0] = True
    lowered = []

    def counted(*args, **kwargs):
        lowered.append(args)
        return lower_weights(*args, **kwargs)

    lower_weights = kernels.lower_weights
    monkeypatch.setattr(kernels, "lower_weights", counted)
    for extraction in ("static", "dynamic"):
        run(model, x, mode="mixed", flags_override=flags, extraction=extraction)
    assert lowered == []

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
        assert plan.mode == "static" and kwargs["w_lo"] is not None
        n_groups, n_out = plan.weight_shifts.shape
        naive = ExtractionPlan(np.full(n_groups, MAX_SHIFT), np.full((n_groups, n_out), MAX_SHIFT),
                               mode="naive")
        want = oracle.scalar_mixed_gemm(x_q, w_q, act_scale, w_scales, naive, group_size,
                                        kwargs["group_flags"])
        assert np.array_equal(got, want)


def test_record_holds_one_entry_per_matmul_layer():
    model, (x_cal, _), (x_ev, _) = small_model(seed=36, residual=True)
    sel = evoselect.chained_selection(
        model, scoring.score_groups(model), [0.25, 0.5],
        evoselect.EvoConfig(seed=4), x_cal[:16], algo="random", protect_edges=True,
    )
    evoselect.install_selections(model, sel)
    laid = layout.apply_layout(model, layout.plan_layout(model))
    assert "reorder" in [l.kind for l in laid.graph.layers]
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
        cr = calibrate_ranges([r[idx].input for r in recs], 0.99, channel_axis=1)
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

    def replace_by_chromosome():
        new = random_flags()
        chrom = evoselect.Chromosome(tuple(matmuls), tuple(new[i] for i in matmuls), 0.5)
        evoselect.install_selections(model, {0.5: chrom})

    def replace_one_array():
        model.selections[0.5][matmuls[1]] = ~model.selections[0.5][matmuls[1]]

    def flip_in_place():
        model.selections[0.5][matmuls[2]][0] ^= True

    for replace in (replace_by_chromosome, replace_one_array, flip_in_place):
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
