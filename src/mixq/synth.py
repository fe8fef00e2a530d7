"""Seeded synthetic networks and toy classification sets.

Weight input channels get magnitudes log-uniform in [1/32, 1] and dataset
input channels scales log-uniform in [1/16, 1], so that effective
bitwidths vary across groups, which is what the channel selection
machinery exploits.  Everything is reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

from .netsim import Layer, NetworkGraph


def _hetero(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Weights of ``shape`` [out, in, ...] whose per-input-channel magnitude
    is log-uniform in [1/32, 1]."""
    chan_scale = np.exp(rng.uniform(np.log(1.0 / 32.0), 0.0, size=shape[1]))
    w = rng.standard_normal(shape) * chan_scale.reshape((-1,) + (1,) * (len(shape) - 2))
    return w.astype(np.float32)


def make_linear_net(
    seed: int,
    n_layers: int = 3,
    features: int = 32,
    n_classes: int = 8,
    group_size: int = 8,
    residual: bool = False,
) -> NetworkGraph:
    """Stack of linear layers with ReLUs and an optional skip."""
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    for i in range(n_layers):
        n_out = n_classes if i == n_layers - 1 else features
        layers.append(Layer("linear", name=f"fc{i}", weight=_hetero(rng, (n_out, features))))
        if i < n_layers - 1:
            if residual and i == n_layers - 2 and n_layers >= 3:
                # skip from the first block's activation output
                layers.append(Layer("residual_add", source=1))
            layers.append(Layer("relu"))
    return NetworkGraph(layers, (features,), group_size)


def make_conv_net(
    seed: int,
    n_layers: int = 3,
    channels: int = 16,
    hw: int = 6,
    n_classes: int = 8,
    kernel: int = 3,
    group_size: int = 8,
    residual: bool = False,
) -> NetworkGraph:
    """Conv stack (stride 1, same padding) ending in a 1x1 projection."""
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    for i in range(n_layers - 1):
        w = _hetero(rng, (channels, channels, kernel, kernel))
        layers.append(Layer("conv2d", name=f"conv{i}", weight=w))
        if residual and i == n_layers - 2 and n_layers >= 3:
            layers.append(Layer("residual_add", source=1))
        layers.append(Layer("relu"))
    layers.append(Layer("conv2d", name="head", weight=_hetero(rng, (n_classes, channels, 1, 1))))
    return NetworkGraph(layers, (channels, hw, hw), group_size)


def random_net(seed: int, group_size: int = 8) -> NetworkGraph:
    """A random small net (2-6 layers, linear or conv, maybe residual)."""
    rng = np.random.default_rng(seed)
    n_layers = int(rng.integers(2, 7))
    residual = bool(rng.integers(0, 2)) and n_layers >= 3
    if rng.integers(0, 2):
        features = int(rng.choice([16, 24, 32]))
        return make_linear_net(seed + 1, n_layers, features, 8, group_size, residual)
    channels = int(rng.choice([8, 16]))
    return make_conv_net(seed + 1, max(2, min(n_layers, 4)), channels, 5, 6, 3, group_size, residual)


def make_dataset(
    seed: int,
    n_features: int,
    n_classes: int = 8,
    n_samples: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Four-mode Gaussian-mixture inputs with a planted linear-teacher labeling.

    Input channels get log-uniform scales in [1/16, 1] so activation ranges
    vary per channel, mirroring what calibration sees in real models.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((4, n_features)) * 0.5
    assign = rng.integers(0, 4, size=n_samples)
    x = centers[assign] + rng.standard_normal((n_samples, n_features)) * 0.5
    chan_scale = np.exp(rng.uniform(np.log(1.0 / 16.0), 0.0, size=n_features))
    x = (x * chan_scale[np.newaxis, :]).astype(np.float32)
    teacher = rng.standard_normal((n_classes, n_features)).astype(np.float32)
    y = np.argmax(x @ teacher.T, axis=1)
    return x, y


def make_image_dataset(
    seed: int, channels: int, hw: int, n_classes: int = 8, n_samples: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    chan_scale = np.exp(rng.uniform(np.log(1.0 / 16.0), 0.0, size=channels))
    x = rng.standard_normal((n_samples, channels, hw, hw)) * chan_scale[np.newaxis, :, np.newaxis, np.newaxis]
    x = x.astype(np.float32)
    teacher = rng.standard_normal((n_classes, channels * hw * hw)).astype(np.float32)
    y = np.argmax(x.reshape(n_samples, -1) @ teacher.T, axis=1)
    return x, y
