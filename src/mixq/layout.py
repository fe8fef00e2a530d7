"""Post-processing layout: reorder channels so 4-bit groups are contiguous.

Groups are placed in order of the ratio at which they first become 4-bit,
so every prepared ratio's 4-bit flags on each layer's full groups form a
prefix.  A ragged last group (narrower than the group size) stays last:
the kernels group channels by position, so moving it would regroup them.
Steps 1-2 are static weight permutations; step 3
inserts runtime reorder operators on residual edges whose two sides end
up in different orders.  The laid-out network is functionally equivalent:
quantized outputs are bit-identical at every ratio.
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


def apply_layout(model: PreparedModel, plans: dict[int, ChannelPermutation]) -> PreparedModel:
    """Produce the laid-out model: permuted weights, prefix selections and
    reorder operators on residual edges."""
    graph = model.graph
    matmuls = graph.matmul_indices()
    n_layers = len(graph.layers)

    def order_after(pos: int) -> np.ndarray | None:
        """Stream channel order in force just after layer ``pos`` (-1 = input)."""
        for m in matmuls:
            if m > pos:
                return plans[m].perm
        return None  # past the last matmul: original order

    # input permutation = first matmul's input order
    input_perm = plans[matmuls[0]].perm if matmuls else None
    if input_perm is not None and np.array_equal(input_perm, np.arange(input_perm.size)):
        input_perm = None

    new_layers: list[Layer] = []
    idx_map: dict[int, int] = {-1: -1}
    for idx, layer in enumerate(graph.layers):
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
            new_layers.append(Layer(layer.kind, name=layer.name, weight=w))
        elif layer.kind == "residual_add":
            src = layer.source
            o_here = order_after(idx)
            o_src = input_perm if src == -1 else order_after(src)
            here = np.arange(_width_at(graph, idx)) if o_here is None else o_here
            there = np.arange(here.size) if o_src is None else o_src
            if not np.array_equal(here, there):
                inv_src = np.argsort(there)
                new_layers.append(Layer("reorder", source=idx_map[src], perm=inv_src[here]))
                new_layers.append(Layer("residual_add", source=len(new_layers) - 1))
            else:
                new_layers.append(Layer("residual_add", source=idx_map[src]))
        elif layer.kind == "reorder":
            new_layers.append(
                Layer("reorder", source=None if layer.source is None else idx_map[layer.source],
                      perm=layer.perm)
            )
        else:
            new_layers.append(Layer(layer.kind, name=layer.name, source=None))
        idx_map[idx] = len(new_layers) - 1

    new_graph = NetworkGraph(new_layers, graph.input_shape, graph.group_size)
    new_matmuls = new_graph.matmul_indices()

    # quantized states of the permuted weights and ranges; they build the
    # original codes and shifts in permuted order exactly
    states = {}
    selections: dict[float, dict[int, np.ndarray]] = {r: {} for r in model.selections}
    for old_idx, new_idx in zip(matmuls, new_matmuls):
        plan = plans[old_idx]
        old_state = model.states[old_idx]
        cr = old_state.act_range
        permuted_range = type(cr)(cr.min[plan.perm], cr.max[plan.perm])
        states[new_idx] = QuantState(
            new_graph.layers[new_idx].weight, permuted_range, new_graph.group_size, old_state.mode
        )
        for r in model.selections:
            flags = model.selections[r].get(old_idx)
            if flags is not None:
                selections[r][new_idx] = flags[plan.group_order]

    return PreparedModel(
        graph=new_graph,
        states=states,
        selections=selections,
        input_perm=input_perm,
        laid_out=True,
        active_ratio=model.active_ratio,
    )


def _width_at(graph: NetworkGraph, pos: int) -> int:
    """Channel width of the stream at layer position ``pos``."""
    width = graph.input_shape[0]
    for idx, layer in enumerate(graph.layers):
        if idx >= pos:
            break
        if layer.kind in MATMUL_KINDS:
            width = layer.n_out
    return width
