"""Model directory format: manifest.json plus raw little-endian binaries.

Float tensors are stored as ``<name>.f32bin``, quantized codes as
``<name>.i8bin``; binary files carry no header, all shapes live in the
manifest.  Serialization is byte-deterministic: identical inputs always
produce identical trees.

The manifest stores the graph (layer kinds, names, weight files, shapes,
sources, permutations), the group size and input shape, each quantized
layer's calibrated ``act_min``/``act_max`` and ``codes_file``, each
layer's extraction mode, the per-ratio group flags, the input permutation
and the laid-out flag.  Everything else (activation and weight scales,
the 8- and 4-bit weight codes, the extraction shifts and lowered weights)
is rebuilt from the float weights and ranges, not on load but on its first
read (``netsim.QuantState``), one part at a time, so a stage that reads
only the ranges quantizes no weights and a mixed forward no 4-bit ones;
keys that older manifests carry for them are ignored.  ``codes_file`` is
written for readers of the tree and never read back; writing it builds
each layer's 8-bit part (scales and codes) and nothing else.  Every file
is written atomically (``write_atomic``), the manifest last, so an
interrupted save leaves each file whole, old or new.
``load_model`` checks that each range lists one finite number per input
channel with min <= max, that each extraction mode is a known one and
that ``input_perm`` permutes the input channels; a failed check raises a
``ValueError`` naming the manifest and the key.  It checks the graph the
same way, naming the layer index: every kind is a known one, a matmul
layer has a weight, a ``source`` is -1 (the input) or an earlier layer and
a ``perm`` is a permutation.  A weight with a non-finite value raises one
naming its ``.f32bin`` file and the layer index.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .bitlower import EXTRACTION_MODES, group_slices
from .netsim import (LAYER_KINDS, MATMUL_KINDS, Layer, NetworkGraph, PreparedModel, QuantState,
                     ratio_key)
from .qtensor import ChannelRange

MANIFEST = "manifest.json"
FORMAT = "mixq-model-v1"


class MissingArtifactError(FileNotFoundError):
    """A pipeline stage's prerequisite file is absent."""


def _weight_file(idx: int, layer: Layer) -> str:
    return f"{layer.name or f'layer{idx}'}.f32bin"


def _codes_file(idx: int, layer: Layer) -> str:
    return f"{layer.name or f'layer{idx}'}.i8bin"


def write_atomic(path, data) -> None:
    """Write ``data`` (bytes, or a C-contiguous array, whose buffer is
    written without a copy) to a temporary sibling of ``path``, then move it
    over ``path``: an interrupted write leaves the previous file, never part
    of ``data``.  The temporary file is removed when the write fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """``obj`` as indented JSON with sorted keys, written atomically."""
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def save_array(path: Path, arr: np.ndarray):
    dtype = {"float32": "<f4", "int8": "i1", "int64": "<i8"}[str(arr.dtype)]
    write_atomic(path, np.ascontiguousarray(arr, dtype=dtype))


def load_array(path: Path, dtype: str, shape) -> np.ndarray:
    if not path.exists():
        raise MissingArtifactError(f"missing binary file {path}")
    native = {"<f4": np.float32, "i1": np.int8, "<i8": np.int64}[dtype]
    want, size = math.prod(shape), path.stat().st_size
    itemsize = np.dtype(dtype).itemsize
    if size != want * itemsize:
        raise ValueError(
            f"{path}: shape {list(shape)} needs {want} elements, "
            f"found {size // itemsize} ({size} bytes)"
        )
    return np.fromfile(path, dtype=dtype).astype(native, copy=False).reshape(shape)


def save_model(path, model: PreparedModel):
    """Write the manifest and tensor binaries for a (possibly prepared) model."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    graph = model.graph
    layers_json = []
    for idx, layer in enumerate(graph.layers):
        rec: dict = {"kind": layer.kind}
        if layer.name:
            rec["name"] = layer.name
        if layer.weight is not None:
            rec["weight_file"] = _weight_file(idx, layer)
            rec["shape"] = list(layer.weight.shape)
            save_array(path / rec["weight_file"], layer.weight)
        if layer.source is not None:
            rec["source"] = layer.source
        if layer.perm is not None:
            rec["perm"] = [int(v) for v in layer.perm]
        layers_json.append(rec)

    quant = {}
    for idx, state in model.states.items():
        layer = graph.layers[idx]
        quant[str(idx)] = {
            "act_min": [float(v) for v in state.act_range.min],
            "act_max": [float(v) for v in state.act_range.max],
            "codes_file": _codes_file(idx, layer),
        }
        save_array(path / _codes_file(idx, layer), state.w_q8)

    manifest = {
        "format": FORMAT,
        "group_size": graph.group_size,
        "input_shape": list(graph.input_shape),
        "layers": layers_json,
        "quant": quant,
        # the extraction plan is rebuilt after load; only its mode is stored
        "bit_lowering": {str(idx): {"mode": st.mode} for idx, st in model.states.items()},
        "selections": {
            f"{r}": {str(i): [int(b) for b in f] for i, f in sel.items()}
            for r, sel in model.selections.items()
        },
        "input_perm": None if model.input_perm is None else [int(v) for v in model.input_perm],
        "laid_out": model.laid_out,
    }
    write_json(path / MANIFEST, manifest)


def load_model(path) -> PreparedModel:
    """Load a model directory.  Each layer's quantized state is rebuilt
    deterministically from the stored float weights and calibrated ranges,
    on its first read (see ``netsim.QuantState``)."""
    path = Path(path)
    mpath = path / MANIFEST
    if not mpath.exists():
        raise MissingArtifactError(f"no {MANIFEST} in {path}; run the generation stage first")
    manifest = json.loads(mpath.read_text())
    if manifest.get("format") != FORMAT:
        raise ValueError(
            f"{mpath} has format {manifest.get('format')!r}, expected {FORMAT!r}"
        )
    try:
        return _parse_manifest(path, manifest)
    except KeyError as exc:
        raise ValueError(f"{mpath} is missing key {exc.args[0]!r}") from None


def _vector(mpath: Path, what: str, value, n: int, kinds: str = "iuf") -> np.ndarray:
    """A manifest list of ``n`` finite numbers, one per input channel, whose
    dtype kind is one of ``kinds``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in kinds or arr.shape != (n,):
        noun = "integers" if kinds == "i" else "numbers"
        raise ValueError(
            f"{mpath}: {what} must list {n} {noun}, one per input channel "
            f"(found {arr.dtype} of shape {list(arr.shape)})"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{mpath}: {what} is not finite at channel {np.argmin(np.isfinite(arr))}")
    return arr


def _check_layer(mpath: Path, idx: int, layer: Layer) -> None:
    """The graph rules ``netsim.run`` relies on, for layer ``idx``."""
    where = f"{mpath}: layer {idx} ({layer.kind!r})"
    if layer.kind not in LAYER_KINDS:
        raise ValueError(f"{where} has an unknown kind (known: {', '.join(LAYER_KINDS)})")
    if layer.kind in MATMUL_KINDS and layer.weight is None:
        raise ValueError(f"{where} has no weight_file")
    source, perm = layer.source, layer.perm
    bad_source = not (type(source) is int and -1 <= source < idx)
    if bad_source and (source is not None or layer.kind == "residual_add"):
        raise ValueError(f"{where} has source {source!r}, not -1 (the input) or an earlier layer")
    bad_perm = (perm is None or perm.dtype.kind != "i"
                or not np.array_equal(np.sort(perm), np.arange(perm.size)))
    if bad_perm and (perm is not None or layer.kind == "reorder"):
        raise ValueError(f"{where} has a perm that is not a permutation")


def _parse_manifest(path: Path, manifest: dict) -> PreparedModel:
    mpath = path / MANIFEST
    layers = []
    for idx, rec in enumerate(manifest["layers"]):
        weight = None
        if "weight_file" in rec:
            wpath = path / rec["weight_file"]
            weight = load_array(wpath, "<f4", rec["shape"])
            finite = np.isfinite(weight)
            if not finite.all():
                at = tuple(int(i) for i in np.unravel_index(np.argmin(finite), weight.shape))
                raise ValueError(f"{wpath}: layer {idx} weight is not finite at index {at}")
        layers.append(
            Layer(
                rec["kind"],
                name=rec.get("name", ""),
                weight=weight,
                source=rec.get("source"),
                perm=None if rec.get("perm") is None else np.asarray(rec["perm"]),
            )
        )
        _check_layer(mpath, idx, layers[-1])
    graph = NetworkGraph(layers, tuple(manifest["input_shape"]), manifest["group_size"])
    input_perm = manifest.get("input_perm")
    if input_perm is not None:
        width = graph.input_shape[0]
        input_perm = _vector(mpath, "input_perm", input_perm, width, kinds="i").astype(np.int64)
        if not np.array_equal(np.sort(input_perm), np.arange(width)):
            raise ValueError(f"{mpath}: input_perm is not a permutation of the {width} input channels")

    matmuls = {str(i): i for i in graph.matmul_indices()}
    states = {}
    for key, q in manifest.get("quant", {}).items():
        if key not in matmuls:
            raise ValueError(
                f"{mpath}: quant key {key!r} names no matmul layer "
                f"(matmul layers: {sorted(matmuls.values())})"
            )
        idx = matmuls[key]
        lo, hi = (_vector(mpath, f"quant key {key!r} {name}", q[name], graph.layers[idx].n_in)
                  for name in ("act_min", "act_max"))
        if np.any(lo > hi):
            raise ValueError(f"{mpath}: quant key {key!r} act_min exceeds act_max "
                             f"at channel {np.argmax(lo > hi)}")
        cr = ChannelRange(lo, hi)
        mode = manifest["bit_lowering"][key]["mode"]
        if mode not in EXTRACTION_MODES:
            raise ValueError(f"{mpath}: bit_lowering key {key!r} has unknown extraction mode "
                             f"{mode!r} (known: {', '.join(EXTRACTION_MODES)})")
        states[idx] = QuantState(graph.layers[idx].weight, cr, graph.group_size, mode)

    n_groups = {key: len(group_slices(graph.layers[i].n_in, graph.group_size))
                for key, i in matmuls.items()}
    selections = {}
    for r, sel in manifest.get("selections", {}).items():
        ratio = _selection_ratio(path, r)
        selections[ratio] = {}
        for key, f in sel.items():
            if key not in matmuls:
                raise ValueError(
                    f"{mpath}: selection for ratio {r} names layer {key!r}, "
                    f"no matmul layer (matmul layers: {sorted(matmuls.values())})"
                )
            flags = np.asarray(f, dtype=bool)
            if flags.shape != (n_groups[key],):
                raise ValueError(
                    f"{mpath}: selection for ratio {r} has {flags.size} group "
                    f"flags for layer {key}, which has {n_groups[key]} groups"
                )
            selections[ratio][matmuls[key]] = flags
    return PreparedModel(
        graph=graph,
        states=states,
        selections=selections,
        input_perm=input_perm,
        laid_out=manifest.get("laid_out", False),
    )


def _selection_ratio(path: Path, text: str) -> float:
    """A selection key of the manifest as a ratio key in [0, 1]."""
    try:
        ratio = float(text)
    except ValueError:
        ratio = math.nan
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"{path / MANIFEST}: selection key {text!r} is not a ratio in [0, 1]")
    return ratio_key(ratio)


def save_dataset(path, name: str, x: np.ndarray, y: np.ndarray | None = None):
    """Store a dataset next to the model; shapes go into data.json."""
    path = Path(path)
    meta_path = path / "data.json"
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    save_array(path / f"{name}_x.f32bin", x.astype(np.float32))
    meta[name] = {"x_shape": list(x.shape)}
    if y is not None:
        save_array(path / f"{name}_y.i64bin", y.astype(np.int64))
        meta[name]["y_shape"] = list(y.shape)
    write_json(meta_path, meta)


def load_dataset(path, name: str):
    path = Path(path)
    meta_path = path / "data.json"
    if not meta_path.exists():
        raise MissingArtifactError(f"no data.json in {path}; run the demo/generation stage first")
    meta = json.loads(meta_path.read_text())
    if name not in meta:
        raise MissingArtifactError(f"dataset {name!r} not present in {path}")
    x = load_array(path / f"{name}_x.f32bin", "<f4", meta[name]["x_shape"])
    y = None
    if "y_shape" in meta[name]:
        y = load_array(path / f"{name}_y.i64bin", "<i8", meta[name]["y_shape"])
    return x, y
