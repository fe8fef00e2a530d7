"""Per-feature-group error-estimation scores.

A group's score is the calibrated activation value range times the
largest weight value range among the output channels touching that
group.  Low score means low expected quantization error, so low-score
groups are the first candidates for 4-bit computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitlower import group_slices
from .netsim import PreparedModel


@dataclass(frozen=True)
class ErrorScore:
    layer: int  # graph layer index
    group: int
    activation_range: float
    max_weight_range: float

    @property
    def score(self) -> float:
        return self.activation_range * self.max_weight_range


def score_groups(model: PreparedModel) -> list[ErrorScore]:
    """Score every feature group of the model's matmul layers.

    Ranges are the post-calibration float ranges.  Returned sorted
    ascending by (score, layer, group) so ties break deterministically.
    """
    if not model.states:
        raise ValueError("model is not calibrated")
    scores = []
    for idx in model.graph.matmul_indices():
        layer = model.graph.layers[idx]
        rng = model.states[idx].act_range
        starts = [sl.start for sl in group_slices(layer.n_in, model.group_size)]
        act_ranges = np.maximum.reduceat(rng.max, starts) - np.minimum.reduceat(rng.min, starts)
        # max/min are exact in the weights' float32; each range subtracts in float64
        w = layer.weight.reshape(layer.n_out, layer.n_in, -1)
        w_hi = np.maximum.reduceat(w.max(axis=2), starts, axis=1).astype(np.float64)
        w_lo = np.minimum.reduceat(w.min(axis=2), starts, axis=1)
        w_ranges = (w_hi - w_lo).max(axis=0)
        scores.extend(ErrorScore(idx, g, a, r)
                      for g, (a, r) in enumerate(zip(act_ranges.tolist(), w_ranges.tolist())))
    scores.sort(key=lambda s: (s.score, s.layer, s.group))
    return scores


def scores_to_csv(scores: list[ErrorScore]) -> str:
    lines = ["layer,group,activation_range,max_weight_range,score"]
    for s in scores:
        lines.append(f"{s.layer},{s.group},{s.activation_range!r},{s.max_weight_range!r},{s.score!r}")
    return "\n".join(lines) + "\n"
