"""Model directory format: manifest.json plus raw little-endian binaries.

Float tensors are stored as ``<name>.f32bin``, quantized codes as
``<name>.i8bin``; binary files carry no header, all shapes live in the
manifest.  Serialization is byte-deterministic: identical inputs always
produce identical trees.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .bitlower import group_slices
from .netsim import Layer, NetworkGraph, PreparedModel, _build_state
from .qtensor import ChannelRange

MANIFEST = "manifest.json"
FORMAT = "mixq-model-v1"


class MissingArtifactError(FileNotFoundError):
    """A pipeline stage's prerequisite file is absent."""


def _weight_file(idx: int, layer: Layer) -> str:
    return f"{layer.name or f'layer{idx}'}.f32bin"


def _codes_file(idx: int, layer: Layer) -> str:
    return f"{layer.name or f'layer{idx}'}.i8bin"


def save_array(path: Path, arr: np.ndarray):
    dtype = {"float32": "<f4", "int8": "i1", "int64": "<i8"}[str(arr.dtype)]
    arr.astype(dtype).tofile(path)


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
    return np.fromfile(path, dtype=dtype).astype(native).reshape(shape)


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
            "act_scale": state.act_scale,
            "act_scale4": state.act_scale4,
            "act_min": [float(v) for v in state.act_range.min],
            "act_max": [float(v) for v in state.act_range.max],
            "weight_scales8": [float(v) for v in state.w_params8.scale],
            "weight_scales4": [float(v) for v in state.w_params4.scale],
            "codes_file": _codes_file(idx, layer),
        }
        save_array(path / _codes_file(idx, layer), state.w_q8)

    manifest = {
        "format": FORMAT,
        "group_size": graph.group_size,
        "input_shape": list(graph.input_shape),
        "layers": layers_json,
        "quant": quant,
        # the extraction plan is rebuilt on load; only its mode is stored
        "bit_lowering": {str(idx): {"mode": st.plan.mode} for idx, st in model.states.items()},
        "selections": {
            f"{r}": {str(i): [int(b) for b in f] for i, f in sel.items()}
            for r, sel in model.selections.items()
        },
        "input_perm": None if model.input_perm is None else [int(v) for v in model.input_perm],
        "laid_out": model.laid_out,
    }
    (path / MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_model(path) -> PreparedModel:
    """Load a model directory; quantized state is rebuilt deterministically
    from the stored float weights and calibrated ranges."""
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


def _parse_manifest(path: Path, manifest: dict) -> PreparedModel:
    layers = []
    for idx, rec in enumerate(manifest["layers"]):
        weight = None
        if "weight_file" in rec:
            weight = load_array(path / rec["weight_file"], "<f4", rec["shape"])
        layers.append(
            Layer(
                rec["kind"],
                name=rec.get("name", ""),
                weight=weight,
                source=rec.get("source"),
                perm=None if rec.get("perm") is None else np.asarray(rec["perm"], dtype=np.int64),
            )
        )
    graph = NetworkGraph(layers, tuple(manifest["input_shape"]), manifest["group_size"])

    matmuls = {str(i): i for i in graph.matmul_indices()}
    states = {}
    for key, q in manifest.get("quant", {}).items():
        if key not in matmuls:
            raise ValueError(
                f"{path / MANIFEST}: quant key {key!r} names no matmul layer "
                f"(matmul layers: {sorted(matmuls.values())})"
            )
        idx = matmuls[key]
        cr = ChannelRange(np.asarray(q["act_min"]), np.asarray(q["act_max"]))
        mode = manifest["bit_lowering"][key]["mode"]
        states[idx] = _build_state(graph.layers[idx], cr, graph.group_size, mode)

    n_groups = {key: len(group_slices(graph.layers[i].n_in, graph.group_size))
                for key, i in matmuls.items()}
    selections = {}
    for r, sel in manifest.get("selections", {}).items():
        selections[float(r)] = {}
        for key, f in sel.items():
            if key not in matmuls:
                raise ValueError(
                    f"{path / MANIFEST}: selection for ratio {r} names layer {key!r}, "
                    f"no matmul layer (matmul layers: {sorted(matmuls.values())})"
                )
            flags = np.asarray(f, dtype=bool)
            if flags.shape != (n_groups[key],):
                raise ValueError(
                    f"{path / MANIFEST}: selection for ratio {r} has {flags.size} group "
                    f"flags for layer {key}, which has {n_groups[key]} groups"
                )
            selections[float(r)][matmuls[key]] = flags
    input_perm = manifest.get("input_perm")
    return PreparedModel(
        graph=graph,
        states=states,
        selections=selections,
        input_perm=None if input_perm is None else np.asarray(input_perm, dtype=np.int64),
        laid_out=manifest.get("laid_out", False),
    )


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
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


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
