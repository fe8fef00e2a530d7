"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion; run with
``pytest tests/test_acceptance.py -v -s`` to see the report.
"""

import contextlib
import filecmp
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mixq import cli, evoselect, layout, netsim, oracle, scoring, serve, synth
from mixq.bitlower import (
    dynamic_shift,
    effective_bitwidth,
    extract4,
    group_slices,
    plan_extraction,
    signed_bitwidth,
    static_shift,
)
from mixq.evoselect import EvoConfig
from mixq.kernels import int_gemm, mixed_conv2d, mixed_gemm
from mixq.netsim import LossInputs, run, total_loss
from mixq.qtensor import quantize
from conftest import includes, set_count, small_model, total_groups


@contextlib.contextmanager
def criterion(n, desc):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d}: FAIL - {desc}")
        raise
    print(f"criterion {n:2d}: PASS - {desc} ({time.time() - start:.1f}s)")


def test_criterion_1_extraction_goldens():
    with criterion(1, "8-bit quantization and 4-bit extraction goldens"):
        start = time.time()
        assert quantize(np.array([0.957]), 0.033, 8)[0] == 29
        assert effective_bitwidth([29]) == 6
        assert static_shift(6) == 2
        assert extract4(29, 2) == 7
        assert (7 << 2) == 28 and abs(29 - 28) / 29 < 0.04
        assert effective_bitwidth([-9]) == 5
        assert static_shift(5) == 1
        assert extract4(-9, 1) == -5
        assert time.time() - start < 1.0


def test_criterion_2_losslessness_property():
    with criterion(2, "extraction losslessness and truncation bound, 10^4 groups each"):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            vals = rng.integers(-8, 8, size=int(rng.integers(1, 17)))
            assert effective_bitwidth(vals) <= 4
            p = static_shift(effective_bitwidth(vals))
            assert np.array_equal(extract4(vals, p).astype(np.int64) << p, vals)
        for _ in range(10_000):
            vals = rng.integers(-128, 128, size=int(rng.integers(1, 17)))
            p = static_shift(effective_bitwidth(vals))
            q4 = extract4(vals, p).astype(np.int64)
            # the shift is derived from these values, so no code saturates
            assert np.all(np.abs(vals - (q4 << p)) <= (1 << p) - 1)


def _oracle_dynamic_shifts(x_2d, group_size):
    return [
        max(0, max(signed_bitwidth(int(v)) for v in x_2d[:, sl].ravel()) - 4)
        for sl in group_slices(x_2d.shape[1], group_size)
    ]


def test_criterion_3_kernel_oracle_equivalence():
    with criterion(3, "200 random kernel cases match the scalar oracle exactly"):
        start = time.time()
        rng = np.random.default_rng(3)
        fracs = [0.0, 0.25, 0.5, 0.75, 1.0]
        modes = ["static", "dynamic", "naive"]
        for case in range(160):  # GEMM
            B, K, N = (int(rng.integers(1, 65)) for _ in range(3))
            gs = int(rng.choice([8, 16, 32]))
            x_q = rng.integers(-128, 128, size=(B, K)).astype(np.int64)
            w_q = rng.integers(-128, 128, size=(K, N)).astype(np.int64)
            w_scales = rng.uniform(1e-3, 1e-1, size=N)
            act_scale = float(rng.uniform(1e-3, 1e-1))
            bounds = np.stack([x_q.min(axis=0), x_q.max(axis=0)], axis=1)
            G = len(group_slices(K, gs))
            k = round(fracs[case % 5] * G)
            flags = np.zeros(G, dtype=bool)
            flags[rng.choice(G, size=k, replace=False)] = True
            mode = modes[case % 3]
            plan = plan_extraction(bounds, w_q.T.copy(), gs, mode=mode)
            got, _ = mixed_gemm(x_q, w_q, act_scale, w_scales, plan, gs, group_flags=flags)
            shifts = _oracle_dynamic_shifts(x_q, gs) if mode == "dynamic" else None
            want = oracle.scalar_mixed_gemm(
                x_q, w_q, act_scale, w_scales, plan, gs, flags, act_shifts=shifts
            )
            assert np.array_equal(got, want), f"gemm case {case}"
            if k == 0:  # no 4-bit groups: bit-identical to pure int8
                assert np.array_equal(got, int_gemm(x_q, w_q, act_scale, w_scales))
        for case in range(40):  # conv
            B = int(rng.integers(1, 3))
            C = int(rng.choice([4, 8, 16]))
            H, W = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            O, kk = int(rng.integers(1, 9)), int(rng.choice([1, 3]))
            gs = 4
            x_q = rng.integers(-128, 128, size=(B, C, H, W)).astype(np.int64)
            w_q = rng.integers(-128, 128, size=(O, C, kk, kk)).astype(np.int64)
            w_scales = rng.uniform(1e-3, 1e-1, size=O)
            act_scale = float(rng.uniform(1e-3, 1e-1))
            moved = x_q.transpose(1, 0, 2, 3).reshape(C, -1)
            bounds = np.stack([moved.min(axis=1), moved.max(axis=1)], axis=1)
            G = len(group_slices(C, gs))
            k = round(fracs[case % 5] * G)
            flags = np.zeros(G, dtype=bool)
            flags[rng.choice(G, size=k, replace=False)] = True
            plan = plan_extraction(bounds, w_q, gs)
            got, _ = mixed_conv2d(x_q, w_q, act_scale, w_scales, plan, gs, group_flags=flags)
            want = oracle.scalar_mixed_conv2d(x_q, w_q, act_scale, w_scales, plan, gs, flags)
            assert np.array_equal(got, want), f"conv case {case}"
        assert time.time() - start < 30.0


def _prepare_random_net(seed):
    graph = synth.random_net(seed)
    conv = len(graph.input_shape) == 3
    if conv:
        x_cal, _ = synth.make_image_dataset(seed + 1, graph.input_shape[0],
                                            graph.input_shape[1], 8, 32)
        x_ev, _ = synth.make_image_dataset(seed + 2, graph.input_shape[0],
                                           graph.input_shape[1], 8, 8)
    else:
        x_cal, _ = synth.make_dataset(seed + 1, graph.input_shape[0], 8, 128)
        x_ev, _ = synth.make_dataset(seed + 2, graph.input_shape[0], 8, 16)
    model = netsim.prepare(graph, [x_cal])
    scores = scoring.score_groups(model)
    total = sum(model.n_groups(i) for i in graph.matmul_indices())
    counts = sorted({max(1, total // 4), total // 2, (3 * total) // 4, total})
    ratios = [k / total for k in counts if k > 0]
    cfg = EvoConfig(population=6, generations=2, elite=1, parents=3,
                    fitness_samples=8, seed=seed)
    sel = evoselect.chained_selection(model, scores, ratios, cfg, x_cal[:8], algo="greedy")
    evoselect.install_selections(model, sel)
    return model, x_ev, ratios


def test_criterion_4_layout_preservation():
    with criterion(4, "50 random nets bit-identical before/after layout"):
        for seed in range(50):
            model, x_ev, ratios = _prepare_random_net(1000 + 17 * seed)
            before = {r: run(model, x_ev, mode="mixed", ratio=r) for r in ratios}
            before8 = run(model, x_ev, mode="int8")
            laid = layout.apply_layout(model, layout.plan_layout(model))
            for r in ratios:
                assert np.array_equal(before[r], run(laid, x_ev, mode="mixed", ratio=r)), (
                    seed, r)
            assert np.array_equal(before8, run(laid, x_ev, mode="int8")), seed


def test_criterion_5_inclusivity_and_switching():
    with criterion(5, "nested 25->100% selections and bit-exact ratio round-trip"):
        model, (x_cal, _), (x_ev, _) = small_model(seed=55)
        scores = scoring.score_groups(model)
        cfg = EvoConfig(population=8, generations=3, elite=2, parents=4,
                        fitness_samples=32, seed=0)
        ratios = [0.0, 0.25, 0.5, 0.75, 1.0]
        sel = evoselect.chained_selection(model, scores, ratios, cfg, x_cal[:32])
        for lo, hi in zip(ratios, ratios[1:]):
            assert includes(sel[hi], sel[lo]), (lo, hi)
            assert set_count(sel[lo]) == evoselect.target_count(lo, total_groups(sel[lo]))
        evoselect.install_selections(model, sel)
        laid = layout.apply_layout(model, layout.plan_layout(model))
        netsim.set_ratio(laid, 0.0)
        out0 = run(laid, x_ev, mode="mixed")
        assert np.array_equal(out0, run(laid, x_ev, mode="int8"))
        netsim.set_ratio(laid, 1.0)
        run(laid, x_ev, mode="mixed")
        netsim.set_ratio(laid, 0.0)
        assert np.array_equal(out0, run(laid, x_ev, mode="mixed"))


def test_criterion_6_selection_quality(monkeypatch):
    with criterion(6, "evolutionary <= greedy <= random over 10 seeds; tiny-net optimum"):
        start = time.time()
        ratios = [0.25, 0.5, 0.75]
        fits = {a: {r: [] for r in ratios} for a in ("evo", "greedy", "random")}
        evo_beats_random = 0
        for seed in range(10):
            model, (x_cal, _), _ = small_model(seed=600 + seed, n_layers=3,
                                               features=16, group_size=4)
            scores = scoring.score_groups(model)
            samples = x_cal[:32]
            ref = run(model, samples, mode="int8")
            rng = np.random.default_rng(seed)
            cfg = EvoConfig(population=10, generations=6, elite=2, parents=5,
                            fitness_samples=32, seed=seed)
            evo_sum = rand_sum = 0.0
            for r in ratios:
                chrom_e = evoselect.select_channels(model, scores, r, cfg, samples)
                chrom_g = evoselect.select_greedy(model, scores, r)
                chrom_r = evoselect.select_random(model, r, rng)
                fe = evoselect.fitness(model, chrom_e, samples, ref)
                fg = evoselect.fitness(model, chrom_g, samples, ref)
                fr = evoselect.fitness(model, chrom_r, samples, ref)
                fits["evo"][r].append(fe)
                fits["greedy"][r].append(fg)
                fits["random"][r].append(fr)
                evo_sum += fe
                rand_sum += fr
            if evo_sum < rand_sum:
                evo_beats_random += 1
        for r in ratios:
            assert np.median(fits["evo"][r]) <= np.median(fits["greedy"][r]) + 1e-12, r
            assert np.median(fits["greedy"][r]) <= np.median(fits["random"][r]) + 1e-12, r
        assert evo_beats_random >= 8

        # tiny net: evolutionary matches exhaustive search
        import itertools

        model, (x_cal, _), _ = small_model(seed=66, n_layers=2, features=16, group_size=4)
        scores = scoring.score_groups(model)
        samples = x_cal[:32]
        cfg = EvoConfig(population=30, generations=30, elite=2, parents=10,
                        fitness_samples=32, seed=1)
        monkeypatch.setattr(evoselect, "MUTATION_PROB", 0.05)
        evo = evoselect.select_channels(model, scores, 0.5, cfg, samples)
        layers = tuple(evo)
        sizes = [model.n_groups(i) for i in layers]
        slots = [(li, g) for li, n in enumerate(sizes) for g in range(n)]
        assert len(slots) <= 12
        ref = run(model, samples, mode="int8")
        best = np.inf
        for combo in itertools.combinations(slots, len(slots) // 2):
            c = {i: np.zeros(n, dtype=bool) for i, n in zip(layers, sizes)}
            for li, g in combo:
                c[layers[li]][g] = True
            best = min(best, evoselect.fitness(model, c, samples, ref))
        assert evoselect.fitness(model, evo, samples, ref) <= best + 1e-9
        assert time.time() - start < 600.0


def test_criterion_7_l2_trend(tmp_path):
    with criterion(7, "per-layer L2 drift: mixed <= uniform 4-bit at 25% and 50%"):
        rows = ["seed,ratio,layer,mixed_rel_l2,int4_rel_l2"]
        for seed in range(5):
            model, (x_cal, _), (x_ev, _) = small_model(seed=700 + seed)
            scores = scoring.score_groups(model)
            cfg = EvoConfig(population=8, generations=3, elite=2, parents=4,
                            fitness_samples=32, seed=seed)
            sel = evoselect.chained_selection(model, scores, [0.25, 0.5], cfg, x_cal[:32])
            evoselect.install_selections(model, sel)
            ref_rec, int4_rec = {}, {}
            run(model, x_ev, mode="int8", record=ref_rec)
            run(model, x_ev, mode="int4", record=int4_rec)
            ref_caps = {i: rec.output for i, rec in ref_rec.items()}
            int4_caps = {i: rec.output for i, rec in int4_rec.items()}
            for r in (0.25, 0.5):
                mixed_rec = {}
                run(model, x_ev, mode="mixed", ratio=r, record=mixed_rec)
                mixed_caps = {i: rec.output for i, rec in mixed_rec.items()}
                for idx in sorted(ref_caps):
                    m = netsim.relative_l2(mixed_caps[idx], ref_caps[idx])
                    u = netsim.relative_l2(int4_caps[idx], ref_caps[idx])
                    rows.append(f"{seed},{r},{idx},{m!r},{u!r}")
                    assert m <= u + 1e-12, (seed, r, idx)
        (tmp_path / "l2_trend.csv").write_text("\n".join(rows) + "\n")
        assert (tmp_path / "l2_trend.csv").exists()


def test_criterion_8_dynamic_extraction():
    with criterion(8, "dynamic extraction: zero saturation and error dominance"):
        for seed in range(5):
            graph = synth.make_linear_net(800 + seed, 4, 16, 8, 4)
            x_cal, _ = synth.make_dataset(801 + seed, 16, 8, 128)
            # single calibration batch: ranges cover it exactly
            model = netsim.prepare(graph, [x_cal])
            scores = scoring.score_groups(model)
            sel = evoselect.chained_selection(
                model, scores, [1.0],
                EvoConfig(population=6, generations=2, elite=1, parents=3,
                          fitness_samples=8, seed=0),
                x_cal[:8], algo="greedy",
            )
            evoselect.install_selections(model, sel)
            hot = x_cal[:32] * 4.0  # far out of calibration
            for batch in (x_cal[:32], hot):
                dyn = netsim.saturation_report(model, batch, 1.0, extraction="dynamic")
                assert all(v == 0.0 for v in dyn.values())
            static_hot = netsim.saturation_report(model, hot, 1.0, extraction="static")
            assert any(v > 0.0 for v in static_hot.values())
            # per-group truncation error, dynamic <= static, on in-range data
            cal_rec = {}
            run(model, x_cal, record=cal_rec)  # fp32: the calibration forward
            caps = {i: rec.input for i, rec in cal_rec.items()}
            for idx, h in caps.items():
                st = model.states[idx]
                q8 = np.clip(np.rint(h.astype(np.float64) / st.act_scale),
                             -128, 127).astype(np.int64)
                for g, sl in enumerate(group_slices(h.shape[1], model.group_size)):
                    ps = int(st.plan.act_shifts[g])
                    pd = dynamic_shift(q8[:, sl])
                    assert pd <= ps
                    es = np.abs(q8[:, sl] - (extract4(q8[:, sl], ps).astype(np.int64) << ps)).sum()
                    ed = np.abs(q8[:, sl] - (extract4(q8[:, sl], pd).astype(np.int64) << pd)).sum()
                    assert ed <= es, (seed, idx, g)


def test_criterion_9_serving_simulator():
    with criterion(9, "adaptive serving rides the 3x peak; fixed 8-bit does not"):
        start = time.time()
        trace, cost, policy = serve.shipped_scenario(seed=7)
        assert cost.speedup == pytest.approx(1.43)
        adaptive = serve.simulate(trace, cost, policy)
        under = sum(1 for w in adaptive.windows if w["median"] <= policy.threshold)
        assert under / len(adaptive.windows) >= 0.95
        fixed = serve.simulate(trace, cost, 0.0, window=policy.window)
        over = sum(1 for w in fixed.windows if w["median"] > policy.threshold)
        assert over / len(fixed.windows) >= 0.30
        quality = {0.0: 0.95, 0.25: 0.92, 0.5: 0.89, 0.75: 0.86, 1.0: 0.80}
        eff = serve.effective_accuracy(adaptive.ratio_timeline, trace.duration, quality)
        # degradation is strictly less than the full-4-bit quality gap
        assert quality[0.0] - eff < quality[0.0] - quality[1.0]
        # deterministic given the seed
        trace2, cost2, policy2 = serve.shipped_scenario(seed=7)
        again = serve.simulate(trace2, cost2, policy2)
        assert again.ratio_timeline == adaptive.ratio_timeline
        assert np.array_equal(again.latencies, adaptive.latencies)
        assert time.time() - start < 60.0


def test_criterion_10_loss_identities():
    with criterion(10, "blended distillation loss identities and closed form"):
        rng = np.random.default_rng(10)
        low = rng.standard_normal((8, 5))
        high = rng.standard_normal((8, 5))
        fp = rng.standard_normal((8, 5))
        hard = rng.integers(0, 5, size=8)
        l1 = total_loss(LossInputs(low, high, fp, hard, 1.0))
        l0 = total_loss(LossInputs(low, high, fp, hard, 0.0))
        lh = total_loss(LossInputs(low, high, fp, hard, 0.5))
        assert abs(lh - 0.5 * (l0 + l1)) < 1e-9
        # swapping branches at lambda flips the blend
        assert abs(total_loss(LossInputs(high, low, fp, hard, 0.0)) - l1) < 1e-9
        # closed form: two-class symmetric case
        a = 1.0
        inp = LossInputs(np.array([[a, 0.0]]), np.array([[a, 0.0]]),
                         np.array([[0.0, 0.0]]), np.array([0]), 0.5)
        p0 = 1.0 / (1.0 + math.exp(-a))
        want = -math.log(p0) - 0.5 * (math.log(p0) + math.log(1.0 - p0))
        assert abs(total_loss(inp) - want) < 1e-9


def test_criterion_11_demo_determinism(tmp_path):
    with criterion(11, "demo --seed N twice yields byte-identical trees"):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["demo", "--out", str(a), "--seed", "9"]) == 0
        assert cli.main(["demo", "--out", str(b), "--seed", "9"]) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            assert filecmp.cmp(a / rel, b / rel, shallow=False), rel
