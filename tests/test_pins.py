"""Forward pins: sha256 of every ``netsim.run`` output, every ``LayerRecord``
and every ``KernelStats`` field of three small seeded nets, at fp32, int8,
int4 and mixed at every prepared ratio x extraction, before and after one
layout.  A change that means to keep outputs bit-identical leaves these
digests as they are; one that changes outputs on purpose updates them and
says why.

Records are hashed in matmul order, not by layer index, so a change of the
graph's indexing alone does not move a digest.
"""

import hashlib

import numpy as np
import pytest

from mixq import evoselect, layout, netsim, scoring, synth
from mixq.bitlower import EXTRACTION_MODES
from mixq.evoselect import EvoConfig
from conftest import small_conv_model, small_model

RATIOS = [0.25, 0.5, 0.75, 1.0]


def ragged_linear():
    """A 4-layer linear net 10 wide with group size 4: groups of 4, 4 and 2."""
    graph = synth.make_linear_net(61, 4, 10, 4, 4)
    x, _ = synth.make_dataset(62, 10, 4, 64)
    return netsim.prepare(graph, [x[:32], x[32:]]), x


def residual_linear():
    model, (x_cal, _), (x_ev, _) = small_model(seed=36, residual=True)
    return model, x_ev


def residual_conv():
    model, (x_cal, _), (x_ev, _) = small_conv_model(seed=34, residual=True)
    return model, x_ev


NETS = {"ragged_linear": ragged_linear, "residual_linear": residual_linear,
        "residual_conv": residual_conv}

# sha256 per (net, laid out), taken before layout stopped inserting layers
FORWARD_PINS = {
    ("ragged_linear", False):
        "c21364bdd352604a74b408712c33df45bd8dd4a62d644a76a8e4ac12ea0a8095",
    ("ragged_linear", True):
        "1e1fbb5b8b01999233fc0ee95d7bdad4caafa412331509a762633428fb6a1d06",
    ("residual_linear", False):
        "c3f8a3e67cf7a410e33fafa60ed681488eea90faee9999de7b4f909f14017885",
    ("residual_linear", True):
        "0fa42af0484ce05ce1d7b6e233ed9550a197641f7888eb2d2ae2b8dba9dbbc52",
    ("residual_conv", False):
        "a009716da52fddb525cf06fcf4e7f4ed8dc2023096bdadc73f3c12943884177e",
    ("residual_conv", True):
        "5487df0c702081efcabdfe9605193c6320d53db85487cca9f9e8ab9e1b365fa2",
}


def _update(h, arr):
    arr = np.asarray(arr)
    h.update(repr((str(arr.dtype), arr.shape)).encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def forward_digest(model, x) -> str:
    """One sha256 over every run of ``model`` on ``x`` that the pins cover."""
    runs = [("fp32", None, None), ("int8", None, None), ("int4", None, None)]
    runs += [("mixed", r, e) for r in sorted(model.selections) for e in EXTRACTION_MODES]
    h = hashlib.sha256()
    for mode, ratio, extraction in runs:
        rec: dict[int, netsim.LayerRecord] = {}
        out = netsim.run(model, x, mode=mode, ratio=ratio, extraction=extraction, record=rec)
        h.update(repr((mode, ratio, extraction)).encode())
        _update(h, out)
        assert sorted(rec) == model.graph.matmul_indices()
        for idx in sorted(rec):  # matmul order
            r = rec[idx]
            _update(h, r.input)
            _update(h, r.output)
            h.update(repr(r.flags is None).encode())
            if r.flags is not None:
                _update(h, r.flags)
            h.update(repr(r.stats is None).encode())
            if r.stats is not None:
                _update(h, r.stats.saturated_channels)
                _update(h, r.stats.act_shifts_used)
    return h.hexdigest()


@pytest.mark.parametrize("net", list(NETS))
def test_forward_outputs_records_and_stats_are_pinned(net):
    """Random selections without edge protection, so the residual nets'
    skips join streams the layout orders differently."""
    model, x = NETS[net]()
    cfg = EvoConfig(population=4, generations=1, elite=1, parents=2, fitness_samples=16, seed=9)
    sel = evoselect.chained_selection(model, scoring.score_groups(model), RATIOS, cfg, x[:16],
                                      algo="random")
    evoselect.install_selections(model, sel)
    got = {False: forward_digest(model, x)}
    got[True] = forward_digest(layout.apply_layout(model, layout.plan_layout(model)), x)
    assert got == {laid: FORWARD_PINS[net, laid] for laid in (False, True)}
