import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixq import evoselect, layout, netsim, scoring, synth
from mixq.bitlower import EXTRACTION_MODES
from mixq.evoselect import EvoConfig
from conftest import small_conv_model, small_model

RATIOS = [0.25, 0.5, 0.75, 1.0]


def prepare_with_selections(model, x_cal, algo="greedy", seed=0):
    scores = scoring.score_groups(model)
    cfg = EvoConfig(population=8, generations=3, elite=2, parents=4,
                    fitness_samples=32, seed=seed)
    sel = evoselect.chained_selection(model, scores, RATIOS, cfg, x_cal[:32], algo=algo)
    evoselect.install_selections(model, sel)
    return model


def test_plan_orders_by_first_selected_ratio():
    model, (x_cal, _), _ = small_model(seed=31)
    prepare_with_selections(model, x_cal)
    plans = layout.plan_layout(model)
    for idx, plan in plans.items():
        order = plan.group_order
        first_ratio = np.full(order.size, np.inf)
        for r in sorted(model.selections):
            flags = model.selections[r].get(idx)
            if flags is None:
                continue
            newly = (first_ratio == np.inf) & flags
            first_ratio[newly] = r
        ranks = first_ratio[order]
        assert np.all(np.diff(ranks) >= 0)  # earliest-selected groups lead


def test_layout_makes_selections_prefix_contiguous():
    model, (x_cal, _), _ = small_model(seed=32)
    prepare_with_selections(model, x_cal)
    model = layout.apply_layout(model, layout.plan_layout(model))
    for r in sorted(model.selections):
        counts = netsim.set_ratio(model, r)
        for idx, flags in model.selections[r].items():
            k = int(flags.sum())
            assert flags[:k].all() and not flags[k:].any()
            # set_ratio reports the count of 4-bit channels
            assert counts[idx] == sum(
                sl.stop - sl.start
                for sl, f in zip(
                    netsim.group_slices(model.graph.layers[idx].n_in, model.group_size), flags
                )
                if f
            )


@pytest.mark.parametrize("residual", [False, True])
def test_layout_preserves_quantized_outputs_bit_exactly(residual):
    model, (x_cal, _), (x_ev, _) = small_model(seed=33, residual=residual)
    prepare_with_selections(model, x_cal)
    before = {
        r: netsim.run(model, x_ev, mode="mixed", ratio=r) for r in RATIOS
    }
    before_int8 = netsim.run(model, x_ev, mode="int8")
    laid = layout.apply_layout(model, layout.plan_layout(model))
    assert laid.laid_out
    for r in RATIOS:
        after = netsim.run(laid, x_ev, mode="mixed", ratio=r)
        assert np.array_equal(before[r], after), f"ratio {r}"
    assert np.array_equal(before_int8, netsim.run(laid, x_ev, mode="int8"))


def test_layout_preserves_conv_residual_net():
    model, (x_cal, _), (x_ev, _) = small_conv_model(seed=34, residual=True)
    prepare_with_selections(model, x_cal)
    before = netsim.run(model, x_ev, mode="mixed", ratio=0.5)
    laid = layout.apply_layout(model, layout.plan_layout(model))
    after = netsim.run(laid, x_ev, mode="mixed", ratio=0.5)
    assert np.array_equal(before, after)


def test_layout_fp32_transparent_within_float_tolerance():
    model, (x_cal, _), (x_ev, _) = small_model(seed=35, residual=True)
    prepare_with_selections(model, x_cal)
    before = netsim.run(model, x_ev, mode="fp32")
    laid = layout.apply_layout(model, layout.plan_layout(model))
    after = netsim.run(laid, x_ev, mode="fp32")
    np.testing.assert_allclose(after, before, rtol=1e-5, atol=1e-5)


def test_residual_order_mismatch_sets_a_residual_perm():
    model, (x_cal, _), _ = small_model(seed=36, residual=True)
    prepare_with_selections(model, x_cal, algo="random", seed=4)
    laid = layout.apply_layout(model, layout.plan_layout(model))
    kinds = [l.kind for l in laid.graph.layers]
    assert kinds == [l.kind for l in model.graph.layers]  # no layer inserted
    # random selections disagree across the skip, so the add reorders its side input
    assert [i for i, l in enumerate(laid.graph.layers) if l.perm is not None] == [
        kinds.index("residual_add")]


def test_non_nested_selections_rejected():
    model, (x_cal, _), _ = small_model(seed=37)
    prepare_with_selections(model, x_cal)
    # corrupt nesting: unset a group at the highest ratio that lower ones use
    lo = sorted(model.selections)[0]
    hi = sorted(model.selections)[-1]
    idx = next(iter(model.selections[lo]))
    g = int(np.flatnonzero(model.selections[lo][idx])[0]) if model.selections[lo][idx].any() else 0
    if not model.selections[lo][idx].any():
        model.selections[lo][idx][g] = True
    model.selections[hi][idx][g] = False
    with pytest.raises(ValueError, match="inclusive"):
        layout.plan_layout(model)


def test_set_ratio_switches_by_boundary_only():
    model, (x_cal, _), (x_ev, _) = small_model(seed=38)
    prepare_with_selections(model, x_cal)
    laid = layout.apply_layout(model, layout.plan_layout(model))
    first = sorted(laid.selections)[0]
    out_before = netsim.run(laid, x_ev, mode="mixed", ratio=first)
    netsim.set_ratio(laid, 1.0)
    netsim.set_ratio(laid, first)
    out_after = netsim.run(laid, x_ev, mode="mixed")
    assert np.array_equal(out_before, out_after)


@pytest.mark.parametrize("make", [small_model, small_conv_model])
def test_set_ratio_reports_the_same_counts_before_and_after_layout(make):
    model, (x_cal, _), _ = make(seed=39)
    scores = scoring.score_groups(model)
    cfg = EvoConfig(population=8, generations=3, elite=2, parents=4,
                    fitness_samples=32, seed=0)
    sel = evoselect.chained_selection(model, scores, RATIOS, cfg, x_cal[:32], algo="greedy",
                                      protect_edges=True)
    evoselect.install_selections(model, sel)
    laid = layout.apply_layout(model, layout.plan_layout(model))
    for r in sorted(model.selections):
        before, after = netsim.set_ratio(model, r), netsim.set_ratio(laid, r)
        # one entry per matmul layer, 0 for the protected edge layers
        assert before == after
        assert sorted(after) == laid.graph.matmul_indices()


def test_layout_keeps_a_ragged_last_group_last():
    """A ragged last group flagged before the full groups stays last: moved
    ahead of them, the laid-out layer would regroup its channels by position
    (here a 10-wide net with group size 4, groups of 4, 4 and 2 channels)."""
    graph = synth.make_linear_net(61, 3, 10, 4, 4)
    x, _ = synth.make_dataset(62, 10, 4, 64)
    model = netsim.prepare(graph, [x])
    matmuls = model.graph.matmul_indices()
    model.selections = {
        0.5: {i: np.array([False, False, True]) for i in matmuls},
        1.0: {i: np.ones(3, dtype=bool) for i in matmuls},
    }
    laid = layout.apply_layout(model, layout.plan_layout(model))
    for r in sorted(model.selections):
        counts = netsim.set_ratio(model, r)
        assert netsim.set_ratio(laid, r) == counts
        before = netsim.run(model, x, mode="mixed", ratio=r)
        assert np.array_equal(netsim.run(laid, x, mode="mixed", ratio=r), before), r
    assert netsim.set_ratio(laid, 0.5) == {i: 2 for i in matmuls}


def _random_nested_selections(model, protect_edges, data):
    """One to three nested selections over the selectable layers: one random
    ranking of all their groups, cut at increasing counts."""
    matmuls = model.graph.matmul_indices()
    layers = matmuls[1:-1] if protect_edges and len(matmuls) > 2 else matmuls
    groups = [(i, g) for i in layers for g in range(model.n_groups(i))]
    ranking = data.draw(st.permutations(groups))
    counts = data.draw(st.lists(st.integers(1, len(groups)), min_size=1, max_size=3, unique=True))
    selections = {}
    for k in sorted(counts):
        flags = {i: np.zeros(model.n_groups(i), dtype=bool) for i in layers}
        for i, g in ranking[:k]:
            flags[i][g] = True
        selections[netsim.ratio_key(k / len(groups))] = flags
    return selections


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), protect_edges=st.booleans(), data=st.data())
def test_a_second_layout_composes_with_the_first(seed, protect_edges, data):
    """select -> layout -> select -> layout keeps the int8 outputs of the
    model never laid out, and the mixed outputs of the second selection at
    each of its ratios; layer indices, and so the selection keys and the
    counts set_ratio reports, do not move."""
    graph = synth.random_net(seed)
    if len(graph.input_shape) == 1:
        x, _ = synth.make_dataset(seed, graph.input_shape[0], 8, 32)
    else:
        x, _ = synth.make_image_dataset(seed, graph.input_shape[0], graph.input_shape[1], 8, 8)
    model = netsim.prepare(graph, [x])
    int8 = netsim.run(model, x, mode="int8")
    extraction = data.draw(st.sampled_from(EXTRACTION_MODES))
    for _ in range(2):
        model.selections = _random_nested_selections(model, protect_edges, data)
        mixed = {r: netsim.run(model, x, mode="mixed", ratio=r, extraction=extraction)
                 for r in model.selections}
        laid = layout.apply_layout(model, layout.plan_layout(model))
        assert [l.kind for l in laid.graph.layers] == [l.kind for l in graph.layers]
        assert {r: sorted(s) for r, s in laid.selections.items()} == {
            r: sorted(s) for r, s in model.selections.items()}
        for r in model.selections:
            assert netsim.set_ratio(laid, r) == netsim.set_ratio(model, r)
            out = netsim.run(laid, x, mode="mixed", ratio=r, extraction=extraction)
            assert np.array_equal(out, mixed[r]), r
        assert np.array_equal(netsim.run(laid, x, mode="int8"), int8)
        model = laid


@pytest.mark.parametrize("source", [-1, 1])
def test_a_residual_add_after_the_last_matmul_keeps_its_outputs(source):
    """An add past the last matmul, whose side stream comes from before it:
    the side stream is laid out, the main stream keeps its order, and the
    add's perm must map one to the other, once laid out and twice."""
    rng = np.random.default_rng(40 + source)
    layers = [
        netsim.Layer("linear", name="fc0", weight=rng.standard_normal((32, 32))),
        netsim.Layer("relu"),
        netsim.Layer("linear", name="fc1", weight=rng.standard_normal((32, 32))),
        netsim.Layer("residual_add", source=source),
    ]
    graph = netsim.NetworkGraph(layers, (32,), group_size=8)
    x, _ = synth.make_dataset(source + 2, 32, 8, 32)
    model = netsim.prepare(graph, [x])
    fp32 = netsim.run(model, x, mode="fp32")
    int8 = netsim.run(model, x, mode="int8")
    for seed in range(2):
        model.selections = {0.5: {i: rng.permutation(4) < 2 for i in (0, 2)}}
        mixed = netsim.run(model, x, mode="mixed", ratio=0.5)
        model = layout.apply_layout(model, layout.plan_layout(model))
        assert model.graph.layers[3].perm is not None, seed
        np.testing.assert_allclose(netsim.run(model, x, mode="fp32"), fp32, rtol=1e-5, atol=1e-5)
        assert np.array_equal(netsim.run(model, x, mode="int8"), int8), seed
        assert np.array_equal(netsim.run(model, x, mode="mixed", ratio=0.5), mixed), seed
