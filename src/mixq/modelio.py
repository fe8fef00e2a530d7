"""Model directory format: manifest.json plus raw little-endian binaries.

Float weights are stored as ``<name>.f32bin``, 8-bit weight codes as
``<name>.i8bin`` and each quantized layer's calibrated activation range as
``<name>.range.f64bin``, a float64 [2, n_in] array: the min row, then the
max row.  Binary files carry no header, all shapes live in the manifest.
Serialization is byte-deterministic: identical inputs always produce
identical trees.

The manifest stores the graph (layer kinds, names, weight files, shapes,
residual sources and the ``perm`` of each residual add whose side input
a layout permuted), the group size and input shape, each quantized
layer's ``range_file`` and ``codes_file``, each layer's extraction mode,
the per-ratio group flags, the input permutation and the laid-out flag; it
holds no per-channel floats.  Everything else (activation and weight
scales, the 8- and 4-bit weight codes, the extraction shifts and lowered
weights) is rebuilt from the float weights and ranges, not on load but on
its first read (``netsim.QuantState``), one part at a time, so a stage that
reads only the ranges quantizes no weights and a mixed forward no 4-bit
ones.  ``codes_file`` is written for readers of the tree and never read
back; writing it builds each layer's 8-bit part (scales and codes) and
nothing else.  Every file is written atomically (``write_atomic``), the manifest last, so an
interrupted save leaves each file whole, old or new; a file that already
holds the bytes to write is left alone, so a stage rewrites only what it
changed.

``load_model`` checks every manifest field it reads; a failed check raises
a ``ValueError`` naming the manifest and the key (CLI exit 4).
``group_size`` must be a positive integer, ``input_shape`` and each
``shape`` a list of positive integers, ``quant``, ``bit_lowering`` and
``selections`` objects and ``laid_out`` a boolean.  Each range must hold
one finite number per input channel in each row with min <= max, each
extraction mode must be a known one and ``input_perm`` must permute the
input channels; these messages name the range file or the manifest.  The
graph checks itself (``netsim.NetworkGraph``); its message follows the
manifest's path.  A weight with a non-finite value raises one naming its
``.f32bin`` file and the layer index.  A file the manifest names (weight,
codes or range) must be a file in the model directory: a name that leads
out of it is a ``ValueError``, a missing file or a directory a
``MissingArtifactError`` (exit 3) naming the file.  ``save_dataset`` and
``load_dataset`` check ``data.json``, the dataset index, the same way,
naming it in each message, and a dataset name is a file name too.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from pathlib import Path

import numpy as np

from .bitlower import EXTRACTION_MODES, group_slices
from .netsim import (MATMUL_KINDS, Layer, NetworkGraph, PreparedModel, QuantState, is_permutation,
                     ratio_key)
from .qtensor import ChannelRange, first_non_finite

MANIFEST = "manifest.json"
FORMAT = "mixq-model-v3"


class MissingArtifactError(FileNotFoundError):
    """A pipeline stage's prerequisite file is absent."""


def _file_name(idx: int, layer: Layer, suffix: str) -> str:
    return f"{layer.name or f'layer{idx}'}{suffix}"


def _holds(path: Path, data: np.ndarray) -> bool:
    """Whether the file at ``path`` holds exactly the bytes ``data`` (a uint8
    array): the sizes are compared first, then the bytes."""
    try:
        return (path.stat().st_size == data.size
                and np.array_equal(np.fromfile(path, dtype=np.uint8), data))
    except OSError:
        return False


def write_atomic(path, data) -> None:
    """Write ``data`` (bytes, or a C-contiguous array, whose buffer is
    written without a copy) to a temporary sibling of ``path``, then move it
    over ``path``: an interrupted write leaves the previous file, never part
    of ``data``.  The temporary file is removed when the write fails.  A file
    that already holds exactly ``data`` is left alone."""
    path = Path(path)
    if _holds(path, np.frombuffer(data, dtype=np.uint8)):
        return
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


_DTYPES = {"<f4": np.float32, "<f8": np.float64, "i1": np.int8, "<i8": np.int64}


def save_array(path: Path, arr: np.ndarray):
    dtype = {"float32": "<f4", "float64": "<f8", "int8": "i1", "int64": "<i8"}[str(arr.dtype)]
    write_atomic(path, np.ascontiguousarray(arr, dtype=dtype))


def load_array(path: Path, dtype: str, shape) -> np.ndarray:
    if not path.is_file():
        raise MissingArtifactError(f"missing binary file {path}")
    want, size = math.prod(shape), path.stat().st_size
    itemsize = np.dtype(dtype).itemsize
    if size != want * itemsize:
        raise ValueError(
            f"{path}: shape {list(shape)} needs {want} elements, "
            f"found {size // itemsize} ({size} bytes)"
        )
    return np.fromfile(path, dtype=dtype).astype(_DTYPES[dtype], copy=False).reshape(shape)


def save_model(path, model: PreparedModel):
    """Write the manifest and tensor binaries for a (possibly prepared) model;
    files whose bytes are unchanged are not rewritten."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    graph = model.graph
    layers_json = []
    for idx, layer in enumerate(graph.layers):
        rec: dict = {"kind": layer.kind}
        if layer.name:
            rec["name"] = layer.name
        if layer.weight is not None:
            rec["weight_file"] = _file_name(idx, layer, ".f32bin")
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
        q = quant[str(idx)] = {"codes_file": _file_name(idx, layer, ".i8bin"),
                               "range_file": _file_name(idx, layer, ".range.f64bin")}
        save_array(path / q["range_file"], np.stack([state.act_range.min, state.act_range.max]))
        save_array(path / q["codes_file"], state.w_q8)

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
    if not mpath.is_file():
        raise MissingArtifactError(f"no {MANIFEST} in {path}; run the generation stage first")
    try:
        manifest = json.loads(mpath.read_bytes())
    except ValueError as exc:  # not JSON, or not in a Unicode encoding
        raise ValueError(f"{mpath} is not a JSON manifest: {exc}") from None
    _expect(mpath, "the manifest", manifest, "an object")
    if manifest.get("format") != FORMAT:
        raise ValueError(
            f"{mpath} has format {manifest.get('format')!r}, expected {FORMAT!r}"
        )
    try:
        return _parse_manifest(path, manifest)
    except KeyError as exc:
        raise ValueError(f"{mpath} is missing key {exc.args[0]!r}") from None


_KINDS = {
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a boolean": lambda v: isinstance(v, bool),
    "a positive integer": lambda v: type(v) is int and v > 0,
    "a list of positive integers": lambda v: (isinstance(v, list) and len(v) > 0
                                              and all(type(d) is int and d > 0 for d in v)),
    # a name that stays in the model directory
    "a file name": lambda v: isinstance(v, str) and "/" not in v and v != "..",
}


def _expect(mpath: Path, what: str, value, kind: str):
    """``value``, if it is ``kind`` (a key of ``_KINDS``); else a ``ValueError``
    naming the manifest and ``what``."""
    if not _KINDS[kind](value):
        raise ValueError(f"{mpath}: {what} must be {kind}, not {reprlib.repr(value)}")
    return value


def _asarray(value) -> np.ndarray:
    """``value`` as an array; a ragged nesting becomes an object scalar,
    which no check accepts."""
    try:
        return np.asarray(value)
    except ValueError:
        return np.asarray(None)


def _load_range(rpath: Path, key: str, n: int) -> ChannelRange:
    """The calibrated range of quant entry ``key`` from its range file: one
    finite min and max per input channel, min <= max."""
    lo, hi = load_array(rpath, "<f8", (2, n))
    for row, values in (("act_min", lo), ("act_max", hi)):
        if (at := first_non_finite(values)) is not None:
            raise ValueError(f"{rpath}: quant key {key!r} {row} is not finite at channel {at[0]}")
    if np.any(lo > hi):
        raise ValueError(f"{rpath}: quant key {key!r} act_min exceeds act_max "
                         f"at channel {np.argmax(lo > hi)}")
    return ChannelRange(lo, hi)


def _parse_manifest(path: Path, manifest: dict) -> PreparedModel:
    mpath = path / MANIFEST
    layers = []
    for idx, rec in enumerate(_expect(mpath, "layers", manifest["layers"], "a list")):
        _expect(mpath, f"layer {idx}", rec, "an object")
        weight = None
        if rec.get("kind") in MATMUL_KINDS and "weight_file" not in rec:
            raise ValueError(f"{mpath}: layer {idx} ({rec['kind']!r}) has no weight_file")
        if "weight_file" in rec:
            shape = _expect(mpath, f"layer {idx} shape", rec["shape"], "a list of positive integers")
            wpath = path / _expect(mpath, f"layer {idx} weight_file", rec["weight_file"],
                                   "a file name")
            weight = load_array(wpath, "<f4", shape)
            if (at := first_non_finite(weight)) is not None:
                raise ValueError(f"{wpath}: layer {idx} weight is not finite at index {at}")
        perm = rec.get("perm")
        layers.append(
            Layer(
                rec["kind"],
                name=_expect(mpath, f"layer {idx} name", rec.get("name", ""), "a file name"),
                weight=weight,
                source=rec.get("source"),
                perm=None if perm is None else _asarray(perm),
            )
        )
    input_shape = tuple(_expect(mpath, "input_shape", manifest["input_shape"],
                                "a list of positive integers"))
    group_size = _expect(mpath, "group_size", manifest["group_size"], "a positive integer")
    try:
        graph = NetworkGraph(layers, input_shape, group_size)
    except ValueError as exc:
        raise ValueError(f"{mpath}: {exc}") from None
    input_perm = manifest.get("input_perm")
    if input_perm is not None:
        width = graph.input_shape[0]
        input_perm = _asarray(input_perm)
        if not (is_permutation(input_perm) and input_perm.size == width):
            raise ValueError(f"{mpath}: input_perm is not a permutation of the {width} input channels")
        input_perm = input_perm.astype(np.int64)

    matmuls = {str(i): i for i in graph.matmul_indices()}
    bit_lowering = _expect(mpath, "bit_lowering", manifest["bit_lowering"], "an object")
    states = {}
    for key, q in _expect(mpath, "quant", manifest.get("quant", {}), "an object").items():
        if key not in matmuls:
            raise ValueError(
                f"{mpath}: quant key {key!r} names no matmul layer "
                f"(matmul layers: {sorted(matmuls.values())})"
            )
        idx = matmuls[key]
        _expect(mpath, f"quant key {key!r}", q, "an object")
        cpath, rpath = (path / _expect(mpath, f"quant key {key!r} {name}", q[name], "a file name")
                        for name in ("codes_file", "range_file"))
        if not cpath.is_file():  # written for readers of the tree, never read back
            raise MissingArtifactError(f"missing binary file {cpath}")
        cr = _load_range(rpath, key, graph.layers[idx].n_in)
        mode = _expect(mpath, f"bit_lowering key {key!r}", bit_lowering[key], "an object")["mode"]
        if mode not in EXTRACTION_MODES:
            raise ValueError(f"{mpath}: bit_lowering key {key!r} has unknown extraction mode "
                             f"{mode!r} (known: {', '.join(EXTRACTION_MODES)})")
        states[idx] = QuantState(graph.layers[idx].weight, cr, graph.group_size, mode)

    n_groups = {key: len(group_slices(graph.layers[i].n_in, graph.group_size))
                for key, i in matmuls.items()}
    selections = {}
    for r, sel in _expect(mpath, "selections", manifest.get("selections", {}), "an object").items():
        ratio = _selection_ratio(path, r)
        selections[ratio] = {}
        for key, f in _expect(mpath, f"selection for ratio {r}", sel, "an object").items():
            if key not in matmuls:
                raise ValueError(
                    f"{mpath}: selection for ratio {r} names layer {key!r}, "
                    f"no matmul layer (matmul layers: {sorted(matmuls.values())})"
                )
            if not (isinstance(f, list) and all(v in (0, 1) for v in f)):
                raise ValueError(f"{mpath}: selection for ratio {r} layer {key} flags must "
                                 f"be a list of 0s and 1s")
            flags = np.array(f, dtype=bool)
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
        laid_out=_expect(mpath, "laid_out", manifest.get("laid_out", False), "a boolean"),
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


def _read_index(meta_path: Path) -> dict:
    """``data.json``, the dataset index: a JSON object, else a ``ValueError``
    naming it."""
    try:
        meta = json.loads(meta_path.read_bytes())
    except ValueError as exc:  # not JSON, or not in a Unicode encoding
        raise ValueError(f"{meta_path} is not a JSON dataset index: {exc}") from None
    return _expect(meta_path, "the dataset index", meta, "an object")


def save_dataset(path, name: str, x: np.ndarray, y: np.ndarray | None = None):
    """Store a dataset next to the model; shapes go into data.json, whose
    other entries are kept.  ``name`` must be a file name, as for ``load_dataset``."""
    path = Path(path)
    meta_path = path / "data.json"
    _expect(meta_path, "a dataset name", name, "a file name")
    meta = _read_index(meta_path) if meta_path.exists() else {}
    save_array(path / f"{name}_x.f32bin", x.astype(np.float32))
    meta[name] = {"x_shape": list(x.shape)}
    if y is not None:
        save_array(path / f"{name}_y.i64bin", y.astype(np.int64))
        meta[name]["y_shape"] = list(y.shape)
    write_json(meta_path, meta)


def load_dataset(path, name: str):
    """Dataset ``name`` of a model directory, as (inputs, labels or None).
    ``data.json`` is checked as the manifest is: a failed check raises a
    ``ValueError`` naming it and the key.  So is ``name``, before anything is
    read: it must be a file name, so its files stay in the directory."""
    path = Path(path)
    meta_path = path / "data.json"
    _expect(meta_path, "a dataset name", name, "a file name")
    if not meta_path.exists():
        raise MissingArtifactError(f"no data.json in {path}; run the demo/generation stage first")
    meta = _read_index(meta_path)
    if name not in meta:
        raise MissingArtifactError(f"dataset {name!r} not present in {path}")
    entry = _expect(meta_path, f"dataset {name!r}", meta[name], "an object")
    x_shape = _expect(meta_path, f"dataset {name!r} x_shape", entry.get("x_shape"),
                      "a list of positive integers")
    x = load_array(path / f"{name}_x.f32bin", "<f4", x_shape)
    y = None
    if "y_shape" in entry:
        if entry["y_shape"] != x_shape[:1]:
            raise ValueError(f"{meta_path}: dataset {name!r} y_shape must be [{x_shape[0]}], "
                             f"one label per sample, not {reprlib.repr(entry['y_shape'])}")
        y = load_array(path / f"{name}_y.i64bin", "<i8", x_shape[:1])
    return x, y
