"""Post-processing layout: permute channels so 4-bit groups are contiguous.

Groups are placed in order of the ratio at which they first become 4-bit,
so every prepared ratio's 4-bit flags on each layer's full groups form a
prefix.  A ragged last group (narrower than the group size) stays last:
the kernels group channels by position, so moving it would regroup them.

The layout inserts no layer.  Each matmul layer's weight is permuted on
both axes (its input channels to its own order, its output channels to
the next matmul's), the first matmul's order is folded into the model's
``input_perm``, and a residual add whose two streams end up in different
orders gets a ``perm``, the channel order of its side input in the main
stream's order.  Layer indices, and so the keys of states and
selections, stay as they were, and a second layout composes with the
first.  The laid-out network is functionally equivalent: quantized
outputs are bit-identical at every ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitlower import group_slices
from .netsim import MATMUL_KINDS, Layer, NetworkGraph, PreparedModel, QuantState


@dataclass
class ChannelPermutation:
    """Per-layer feature-channel permutation and the group order it follows."""

    perm: np.ndarray  # new order: channel c of the laid-out layer is old channel perm[c]
    group_order: np.ndarray  # new group g is old group group_order[g]


def _validate_nested(model: PreparedModel):
    ratios = sorted(model.selections)
    for lo, hi in zip(ratios, ratios[1:]):
        for idx in model.graph.matmul_indices():
            f_lo = model.selections[lo].get(idx)
            f_hi = model.selections[hi].get(idx)
            if f_lo is None:
                continue
            if f_hi is None or np.any(f_lo & ~f_hi):
                raise ValueError(
                    f"selections are not inclusive: ratio {lo} is not a subset of {hi} "
                    f"at layer {idx}; chain baselines when selecting"
                )


def plan_layout(model: PreparedModel) -> dict[int, ChannelPermutation]:
    """Channel permutation per matmul layer from the prepared selections."""
    if not model.selections:
        raise ValueError("no selections prepared")
    _validate_nested(model)
    ratios = sorted(model.selections)
    plans: dict[int, ChannelPermutation] = {}
    for idx in model.graph.matmul_indices():
        layer = model.graph.layers[idx]
        slices = group_slices(layer.n_in, model.group_size)
        n_groups = len(slices)
        first_ratio = np.full(n_groups, np.inf)
        for r in ratios:
            flags = model.selections[r].get(idx)
            if flags is None:
                continue
            newly = (first_ratio == np.inf) & flags
            first_ratio[newly] = r
        movable = n_groups - 1 if layer.n_in % model.group_size else n_groups
        order = sorted(range(movable), key=lambda g: (first_ratio[g], g))
        group_order = np.array(order + list(range(movable, n_groups)), dtype=np.int64)
        perm = np.concatenate([np.arange(slices[g].start, slices[g].stop) for g in group_order])
        plans[idx] = ChannelPermutation(perm, group_order)
    return plans


def _unless_identity(perm: np.ndarray) -> np.ndarray | None:
    """``perm``, or None if it keeps every channel in place."""
    return None if np.array_equal(perm, np.arange(perm.size)) else perm


def apply_layout(model: PreparedModel, plans: dict[int, ChannelPermutation]) -> PreparedModel:
    """Produce the laid-out model: permuted weights, ranges and selections,
    the input permutation, and a ``perm`` on each residual add whose two
    streams end up in different orders.  The graph keeps its layers and
    their indices, so a laid-out model can be laid out again."""
    graph = model.graph
    matmuls = graph.matmul_indices()

    def order_after(pos: int) -> np.ndarray | None:
        """New stream channel order, in the old one, just after layer
        ``pos`` (-1 = input); None past the last matmul, which keeps it."""
        for m in matmuls:
            if m > pos:
                return plans[m].perm
        return None

    layers: list[Layer] = []
    for idx, layer in enumerate(graph.layers):
        perm = layer.perm
        if layer.kind in MATMUL_KINDS:
            pin = plans[idx].perm
            if pin.size != layer.n_in:
                raise ValueError(f"permutation length {pin.size} != {layer.n_in} at layer {idx}")
            w = layer.weight[:, pin]
            pout = order_after(idx)
            if pout is not None:
                if pout.size != layer.n_out:
                    raise ValueError(
                        f"consumer permutation length {pout.size} != {layer.n_out} output "
                        f"channels at layer {idx}"
                    )
                w = w[pout]
            layers.append(Layer(layer.kind, name=layer.name, weight=w))
            continue
        if layer.kind == "residual_add" and (there := order_after(layer.source)) is not None:
            # the new side input holds old side channel there[j] at j; new
            # stream channel c is old channel here[c] (the main stream keeps
            # its order past the last matmul), which took old side channel
            # old[here[c]].  With no matmul after the source there is none
            # after the add either, and the old perm still holds.
            identity = np.arange(there.size)
            here = order_after(idx)
            here = identity if here is None else here
            old = identity if perm is None else perm
            perm = _unless_identity(np.argsort(there)[old[here]])
        layers.append(Layer(layer.kind, name=layer.name, source=layer.source, perm=perm))

    input_perm, first = model.input_perm, order_after(-1)
    if first is not None:
        input_perm = _unless_identity(first if input_perm is None else input_perm[first])

    # quantized states of the permuted weights and ranges; they build the
    # original codes and shifts in permuted order exactly
    states = {}
    selections: dict[float, dict[int, np.ndarray]] = {r: {} for r in model.selections}
    for idx in matmuls:
        plan = plans[idx]
        old_state = model.states[idx]
        cr = old_state.act_range
        permuted_range = type(cr)(cr.min[plan.perm], cr.max[plan.perm])
        states[idx] = QuantState(layers[idx].weight, permuted_range, graph.group_size,
                                 old_state.mode)
        for r in model.selections:
            flags = model.selections[r].get(idx)
            if flags is not None:
                selections[r][idx] = flags[plan.group_order]

    return PreparedModel(
        graph=NetworkGraph(layers, graph.input_shape, graph.group_size),
        states=states,
        selections=selections,
        input_perm=input_perm,
        laid_out=True,
        active_ratio=model.active_ratio,
    )
