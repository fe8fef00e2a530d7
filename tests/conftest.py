import dataclasses

import numpy as np
import pytest

from mixq import netsim, synth


def small_model(seed=0, n_layers=4, features=16, group_size=4, residual=False,
                n_samples=128, **net_kwargs):
    """Prepared linear model plus (calib, eval) data for tests."""
    graph = synth.make_linear_net(seed, n_layers, features, 8, group_size,
                                  residual=residual, **net_kwargs)
    x_cal, y_cal = synth.make_dataset(seed + 1, features, 8, n_samples)
    x_ev, y_ev = synth.make_dataset(seed + 2, features, 8, 64)
    batches = [x_cal[i : i + 32] for i in range(0, len(x_cal), 32)]
    model = netsim.prepare(graph, batches)
    return model, (x_cal, y_cal), (x_ev, y_ev)


def small_conv_model(seed=0, channels=8, hw=5, group_size=2, residual=False):
    graph = synth.make_conv_net(seed, 3, channels, hw, 8, 3, group_size, residual=residual)
    x_cal, y_cal = synth.make_image_dataset(seed + 1, channels, hw, 8, 48)
    x_ev, y_ev = synth.make_image_dataset(seed + 2, channels, hw, 8, 16)
    batches = [x_cal[i : i + 16] for i in range(0, len(x_cal), 16)]
    model = netsim.prepare(graph, batches)
    return model, (x_cal, y_cal), (x_ev, y_ev)


def set_count(selection):
    """4-bit groups of a ``{layer: flags}`` selection."""
    return sum(int(f.sum()) for f in selection.values())


def total_groups(selection):
    return sum(f.size for f in selection.values())


def includes(outer, inner):
    """Every group ``inner`` flags is flagged in ``outer``."""
    return list(outer) == list(inner) and all(np.all(outer[i] | ~inner[i]) for i in inner)


@pytest.fixture(scope="session")
def prepared_model():
    return small_model(seed=7)


# what a QuantState builds from its inputs (its dataclass fields) on first read
DERIVED = ("act_scale", "act_scale4", "w_scales8", "w_q8", "w_scales4", "w_q4", "plan", "w_lo8")


def assert_same(a, b, where="state"):
    """Equal dataclass trees: arrays equal in dtype, shape and bytes, other
    leaves equal.  A ``QuantState`` is compared on its inputs and on every
    attribute it builds from them."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        names = [f.name for f in dataclasses.fields(a)]
        if isinstance(a, netsim.QuantState):
            names += DERIVED
        for name in names:
            assert_same(getattr(a, name), getattr(b, name), f"{where}.{name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), where
    else:
        assert a == b and type(a) is type(b), where
