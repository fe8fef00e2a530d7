import numpy as np
import pytest

from mixq import scoring
from mixq.bitlower import group_slices
from conftest import small_conv_model, small_model


def brute_force_scores(model):
    """Scalar-loop reference for the group error scores."""
    out = []
    for idx in model.graph.matmul_indices():
        layer = model.graph.layers[idx]
        state = model.states[idx]
        w = layer.weight.reshape(layer.n_out, layer.n_in, -1)
        for g, sl in enumerate(group_slices(layer.n_in, model.group_size)):
            a_lo = min(float(state.act_range.min[c]) for c in range(sl.start, sl.stop))
            a_hi = max(float(state.act_range.max[c]) for c in range(sl.start, sl.stop))
            w_range = 0.0
            for o in range(layer.n_out):
                vals = [float(v) for c in range(sl.start, sl.stop) for v in w[o, c]]
                w_range = max(w_range, max(vals) - min(vals))
            out.append((idx, g, (a_hi - a_lo) * w_range))
    return out


def test_scores_match_brute_force():
    model, _, _ = small_model(seed=11)
    got = {(s.layer, s.group): s.score for s in scoring.score_groups(model)}
    for idx, g, want in brute_force_scores(model):
        assert got[(idx, g)] == pytest.approx(want, rel=1e-12)


def test_scores_sorted_ascending_with_tie_break():
    model, _, _ = small_model(seed=12)
    scores = scoring.score_groups(model)
    keys = [(s.score, s.layer, s.group) for s in scores]
    assert keys == sorted(keys)


def test_uncalibrated_model_rejected():
    model, _, _ = small_model(seed=14)
    model.states = {}
    with pytest.raises(ValueError, match="calibrated"):
        scoring.score_groups(model)


def test_csv_round_trips_floats():
    model, _, _ = small_model(seed=15)
    scores = scoring.score_groups(model)
    text = scoring.scores_to_csv(scores)
    lines = text.strip().splitlines()
    assert lines[0] == "layer,group,activation_range,max_weight_range,score"
    first = lines[1].split(",")
    assert float(first[4]) == scores[0].score


@pytest.mark.parametrize("build", [
    lambda: small_model(seed=13, features=18, group_size=4)[0],  # ragged last group
    lambda: small_conv_model(seed=3, channels=8, group_size=3)[0],
], ids=["linear", "conv"])
def test_scores_bit_identical_to_brute_force(build):
    """Each range is a float64 difference of exact float32 extremes, so the
    grouped reduction gives the scalar loop's floats to the last bit."""
    model = build()
    got = {(s.layer, s.group): s.score for s in scoring.score_groups(model)}
    want = brute_force_scores(model)
    assert len(got) == len(want)
    for idx, g, score in want:
        assert got[(idx, g)] == score, (idx, g)
