import copy
import json
import os
import re
import resource
import shutil
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixq import cli, evoselect, layout, modelio, netsim, scoring, synth
from mixq.evoselect import EvoConfig
from mixq.modelio import MissingArtifactError
from mixq.qtensor import ChannelRange
from conftest import assert_same, small_model


def full_pipeline_model(seed=51):
    model, (x_cal, _), (x_ev, _) = small_model(seed=seed)
    scores = scoring.score_groups(model)
    cfg = EvoConfig(population=8, generations=2, elite=2, parents=4,
                    fitness_samples=16, seed=0)
    sel = evoselect.chained_selection(model, scores, [0.25, 0.5, 0.75, 1.0],
                                      cfg, x_cal[:16], algo="greedy")
    evoselect.install_selections(model, sel)
    model = layout.apply_layout(model, layout.plan_layout(model))
    return model, x_ev


def test_round_trip_preserves_outputs_bit_exactly(tmp_path):
    model, x_ev = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    loaded = modelio.load_model(tmp_path)
    for mode, ratio in [("int8", None), ("int4", None), ("mixed", 0.25), ("mixed", 1.0)]:
        a = netsim.run(model, x_ev, mode=mode, ratio=ratio)
        b = netsim.run(loaded, x_ev, mode=mode, ratio=ratio)
        assert np.array_equal(a, b), (mode, ratio)


def test_cold_start_quantizes_each_weight_once_and_lowers_only_flagged_layers(
        tmp_path, monkeypatch):
    """A cold start (load, set the lowest ratio, one mixed batch) quantizes
    each weight once, to 8 bits, builds no 4-bit part and lowers the weights
    of only the layers that ratio flags."""
    model, (x_cal, _), (x_ev, _) = small_model(seed=51)
    cfg = EvoConfig(population=8, generations=2, elite=2, parents=4, fitness_samples=16, seed=0)
    sel = evoselect.chained_selection(model, scoring.score_groups(model), [0.25, 1.0], cfg,
                                      x_cal[:16], algo="greedy", protect_edges=True)
    evoselect.install_selections(model, sel)
    modelio.save_model(tmp_path, model)
    loaded = modelio.load_model(tmp_path)
    states = loaded.states
    quantized, lowered = [], []
    quantize, lower_weights = netsim.quantize, netsim.kernels.lower_weights

    def counted_quantize(x, scale, bits):
        quantized.extend((i, bits) for i, s in states.items() if x is s.weight)
        return quantize(x, scale, bits)

    def counted_lower_weights(w_q, *args, **kwargs):
        lowered.extend(i for i, s in states.items() if w_q is vars(s).get("w_q8"))
        return lower_weights(w_q, *args, **kwargs)

    monkeypatch.setattr(netsim, "quantize", counted_quantize)
    monkeypatch.setattr(netsim.kernels, "lower_weights", counted_lower_weights)
    netsim.set_ratio(loaded, 0.25)
    netsim.run(loaded, x_ev, mode="mixed")
    flagged = sorted(i for i, flags in loaded.selections[0.25].items() if flags.any())
    assert 0 < len(flagged) < len(states)
    assert sorted(quantized) == [(i, 8) for i in sorted(states)]
    assert sorted(lowered) == flagged
    assert not any({"act_scale4", "w_scales4", "w_q4"} & set(vars(s)) for s in states.values())


def test_round_trip_preserves_metadata(tmp_path):
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    loaded = modelio.load_model(tmp_path)
    assert loaded.laid_out == model.laid_out
    assert sorted(loaded.selections) == sorted(model.selections)
    for r in model.selections:
        for idx, flags in model.selections[r].items():
            assert np.array_equal(loaded.selections[r][idx], flags)
    for idx, state in model.states.items():
        got = loaded.states[idx]
        assert got.act_scale == state.act_scale
        assert np.array_equal(got.w_q8, state.w_q8)
        assert np.array_equal(got.plan.act_shifts, state.plan.act_shifts)
        assert np.array_equal(got.plan.weight_shifts, state.plan.weight_shifts)


def test_manifest_bytes_deterministic(tmp_path):
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path / "a", model)
    modelio.save_model(tmp_path / "b", model)
    a = (tmp_path / "a" / "manifest.json").read_bytes()
    b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert a == b
    meta = json.loads(a)
    assert meta["format"] == "mixq-model-v3"


def test_weight_binaries_raw_little_endian(tmp_path):
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    meta = json.loads((tmp_path / "manifest.json").read_text())
    rec = next(l for l in meta["layers"] if "weight_file" in l)
    raw = (tmp_path / rec["weight_file"]).read_bytes()
    arr = np.frombuffer(raw, dtype="<f4").reshape(rec["shape"])
    idx = meta["layers"].index(rec)
    assert np.array_equal(arr, model.graph.layers[idx].weight)


def test_dataset_round_trip(tmp_path):
    x = np.arange(12, dtype=np.float32).reshape(3, 4)
    y = np.array([0, 1, 2], dtype=np.int64)
    modelio.save_dataset(tmp_path, "calib", x, y)
    gx, gy = modelio.load_dataset(tmp_path, "calib")
    assert np.array_equal(gx, x) and np.array_equal(gy, y)
    modelio.save_dataset(tmp_path, "unlabeled", x)
    gx, gy = modelio.load_dataset(tmp_path, "unlabeled")
    assert gy is None


@pytest.mark.parametrize("name", ["../outside", "sub/eval", ".."])
def test_a_dataset_name_stays_in_the_directory(tmp_path, name):
    """load_dataset and save_dataset take a dataset name only if it is a
    file name, before reading or writing anything (a data.json key
    "../outside" once read <dir>/../outside_x.f32bin)."""
    model_dir = tmp_path / "model"
    (model_dir / "sub").mkdir(parents=True)
    x = np.ones((2, 3), dtype=np.float32)
    modelio.save_array(tmp_path / "outside_x.f32bin", x)
    modelio.save_array(model_dir / "sub" / "eval_x.f32bin", x)
    modelio.save_array(model_dir / ".._x.f32bin", x)
    (model_dir / "data.json").write_text(json.dumps({name: {"x_shape": [2, 3]}}))
    before = sorted((p, p.read_bytes()) for p in tmp_path.rglob("*") if p.is_file())
    want = f"{model_dir / 'data.json'}: a dataset name must be a file name, not {name!r}"
    with pytest.raises(ValueError, match=re.escape(want)):
        modelio.load_dataset(model_dir, name)
    with pytest.raises(ValueError, match=re.escape(want)):
        modelio.save_dataset(model_dir, name, x)
    assert sorted((p, p.read_bytes()) for p in tmp_path.rglob("*") if p.is_file()) == before


def test_missing_artifacts_raise(tmp_path):
    with pytest.raises(MissingArtifactError):
        modelio.load_model(tmp_path / "nope")
    with pytest.raises(MissingArtifactError):
        modelio.load_dataset(tmp_path, "calib")
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    next(tmp_path.glob("*.f32bin")).unlink()
    with pytest.raises(MissingArtifactError):
        modelio.load_model(tmp_path)


@pytest.mark.parametrize("found", ["mixq-model-v0", "mixq-model-v1", "mixq-model-v2", None])
def test_load_model_checks_format(tmp_path, found):
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    if found is None:
        del manifest["format"]
    else:
        manifest["format"] = found
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"format {found!r}, expected 'mixq-model-v3'"):
        modelio.load_model(tmp_path)


@pytest.mark.parametrize("extra", [None, 1])  # truncated to 25 elements, or one too many
def test_binary_size_mismatch_names_file_and_counts(tmp_path, extra):
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    meta = json.loads((tmp_path / "manifest.json").read_text())
    rec = next(l for l in meta["layers"] if "weight_file" in l)
    path = tmp_path / rec["weight_file"]
    data = path.read_bytes()
    path.write_bytes(data[:100] if extra is None else data + b"\0" * 4 * extra)
    want = int(np.prod(rec["shape"]))
    found = 25 if extra is None else want + extra
    with pytest.raises(ValueError, match=f"{rec['weight_file']}.*needs {want} elements, found {found}"):
        modelio.load_model(tmp_path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_names_file_and_layer(tmp_path, capsys, value):
    # once caught only by quantize, as "non-finite input value at index (0, 3)"
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    meta = json.loads((tmp_path / "manifest.json").read_text())
    idx, rec = [(i, l) for i, l in enumerate(meta["layers"]) if "weight_file" in l][1]
    path = tmp_path / rec["weight_file"]
    w = np.fromfile(path, dtype="<f4").reshape(rec["shape"])
    w[1, 2] = value
    w.tofile(path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: layer {idx} weight is not finite "
                                                   "at index (1, 2)")):
        modelio.load_model(tmp_path)
    assert cli.main(["infer", "--model", str(tmp_path), "--mode", "fp32"]) == 4
    assert f"{path}: layer {idx}" in capsys.readouterr().err


def test_write_failing_part_way_leaves_the_previous_files(tmp_path):
    """A save whose writes fail after their first bytes (a 16-byte file
    size limit) leaves every file of the previous save byte-identical and
    no temporary file behind; writing in place once truncated them."""
    model, x_ev = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    modelio.save_dataset(tmp_path, "eval", x_ev)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    other, _ = full_pipeline_model(seed=52)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # fail with EFBIG instead
    resource.setrlimit(resource.RLIMIT_FSIZE, (16, hard))
    try:
        with pytest.raises(OSError):
            modelio.save_model(tmp_path, other)
        with pytest.raises(OSError):
            modelio.save_dataset(tmp_path, "eval", x_ev * 2)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_manifest_stores_only_the_extraction_mode(tmp_path):
    """Extraction shifts are rebuilt on load, so a manifest carries only the
    plan's mode; one that still lists the shifts loads the same model."""
    model, x_ev = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert all(v == {"mode": "static"} for v in manifest["bit_lowering"].values())
    for key, entry in manifest["bit_lowering"].items():
        plan = model.states[int(key)].plan
        entry["act_shifts"] = plan.act_shifts.tolist()
        entry["weight_shifts"] = plan.weight_shifts.tolist()
    (tmp_path / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    loaded = modelio.load_model(tmp_path)
    for idx, state in model.states.items():
        assert np.array_equal(loaded.states[idx].plan.act_shifts, state.plan.act_shifts)
        assert np.array_equal(loaded.states[idx].plan.weight_shifts, state.plan.weight_shifts)
    for ratio in model.selections:
        assert np.array_equal(netsim.run(model, x_ev, mode="mixed", ratio=ratio),
                              netsim.run(loaded, x_ev, mode="mixed", ratio=ratio))


@pytest.mark.parametrize("bad", ["99", "-1", "relu", "01"])
def test_quant_key_must_name_a_matmul_layer(tmp_path, bad):
    """A quant entry under a key that is out of range, negative, on a relu
    layer or not in canonical form is rejected, naming key and manifest."""
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    if bad == "relu":
        bad = str(next(i for i, l in enumerate(manifest["layers"]) if l["kind"] == "relu"))
    first = min(manifest["quant"], key=int)
    manifest["quant"][bad] = manifest["quant"][first]
    manifest["bit_lowering"][bad] = manifest["bit_lowering"][first]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"manifest.json: quant key {bad!r} names no matmul layer"):
        modelio.load_model(tmp_path)


def test_manifest_with_dropped_keys_loads_like_a_fresh_save(tmp_path):
    """Older manifests carry per-ratio boundary markers and a per-layer
    coverage quantile; both are ignored on load."""
    model, x_ev = full_pipeline_model()
    modelio.save_model(tmp_path / "fresh", model)
    modelio.save_model(tmp_path / "old", model)
    path = tmp_path / "old" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["ratio_boundaries"] = {
        f"{r}": {str(i): c for i, c in netsim.set_ratio(model, r).items()}
        for r in model.selections
    }
    for q in manifest["quant"].values():
        q["coverage_quantile"] = 0.99
    path.write_text(json.dumps(manifest))
    old, fresh = modelio.load_model(tmp_path / "old"), modelio.load_model(tmp_path / "fresh")
    for mode, ratio in [("int8", None), ("int4", None)] + [("mixed", r) for r in model.selections]:
        a = netsim.run(old, x_ev, mode=mode, ratio=ratio)
        b = netsim.run(fresh, x_ev, mode=mode, ratio=ratio)
        assert a.tobytes() == b.tobytes() and a.strides == b.strides, (mode, ratio)
    modelio.save_model(tmp_path / "resaved", old)
    assert (tmp_path / "resaved" / "manifest.json").read_bytes() == \
        (tmp_path / "fresh" / "manifest.json").read_bytes()


@pytest.mark.parametrize("bad", ["short", "relu"])
def test_selection_must_fit_a_matmul_layer(tmp_path, bad):
    """A selection with a flag count other than its layer's group count, or
    keyed to a layer that is no matmul layer, is rejected on load, naming
    the manifest, ratio, layer and counts."""
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    ratio = min(manifest["selections"], key=float)
    sel = manifest["selections"][ratio]
    key = min(sel, key=int)
    n_groups = model.n_groups(int(key))
    if bad == "short":
        sel[key] = sel[key][:-1]
        want = (f"manifest.json: selection for ratio {ratio} has {n_groups - 1} group flags "
                f"for layer {key}, which has {n_groups} groups")
    else:
        relu = str(next(i for i, l in enumerate(manifest["layers"]) if l["kind"] == "relu"))
        sel[relu] = sel[key]
        want = f"manifest.json: selection for ratio {ratio} names layer {relu!r}, no matmul layer"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(want)):
        modelio.load_model(tmp_path)


def test_manifest_with_stored_scales_loads_like_a_fresh_save(tmp_path):
    """Older manifests also store each layer's activation and weight scales;
    they are rebuilt on load, so such a manifest loads to the same states
    and the same outputs and kernel stats in every mode and extraction."""
    model, x_ev = full_pipeline_model()
    modelio.save_model(tmp_path / "fresh", model)
    modelio.save_model(tmp_path / "old", model)
    path = tmp_path / "old" / "manifest.json"
    manifest = json.loads(path.read_text())
    for key, q in manifest["quant"].items():
        st = model.states[int(key)]
        q["act_scale"], q["act_scale4"] = st.act_scale, st.act_scale4
        q["weight_scales8"] = [float(v) for v in st.w_scales8]
        q["weight_scales4"] = [float(v) for v in st.w_scales4]
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    old, fresh = modelio.load_model(tmp_path / "old"), modelio.load_model(tmp_path / "fresh")
    assert sorted(old.states) == sorted(fresh.states) == sorted(model.states)
    for idx in model.states:
        assert_same(old.states[idx], fresh.states[idx], f"state {idx}")
        assert_same(old.states[idx], model.states[idx], f"state {idx}")
    runs = [("int8", None, None), ("int4", None, None)] + [
        ("mixed", r, e) for r in model.selections for e in ("static", "dynamic", "naive")]
    for mode, ratio, extraction in runs:
        rec_old, rec_fresh = {}, {}
        a = netsim.run(old, x_ev, mode=mode, ratio=ratio, extraction=extraction, record=rec_old)
        b = netsim.run(fresh, x_ev, mode=mode, ratio=ratio, extraction=extraction, record=rec_fresh)
        assert a.tobytes() == b.tobytes(), (mode, ratio, extraction)
        for idx in rec_old:
            assert_same(rec_old[idx].stats, rec_fresh[idx].stats, f"{mode} {ratio} {extraction}")


def test_quant_entries_hold_only_keys_that_are_read(tmp_path):
    """A quant entry names the calibrated range's file, which load_model
    reads, and the codes file, which the benchmark's size count reads."""
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["quant"]
    for q in manifest["quant"].values():
        assert set(q) == {"codes_file", "range_file"}
        assert (tmp_path / q["codes_file"]).is_file()
        assert (tmp_path / q["range_file"]).is_file()


def _corrupt(path, manifest, case):
    """Break one field of a saved model, or its first range file; returns the
    text the error must hold."""
    mpath = path / "manifest.json"
    key = min(manifest["quant"], key=int)
    q = manifest["quant"][key]
    rpath = path / q["range_file"]
    ranges = np.fromfile(rpath, dtype="<f8").reshape(2, -1)
    n = ranges.shape[1]
    if case == "short_act_min":  # the range file cut to 3 values
        rpath.write_bytes(rpath.read_bytes()[:24])
        return f"{rpath}: shape [2, {n}] needs {2 * n} elements, found 3"
    if case == "oversized_range":
        rpath.write_bytes(rpath.read_bytes() + bytes(8))
        return f"{rpath}: shape [2, {n}] needs {2 * n} elements, found {2 * n + 1}"
    if case in ("min_above_max", "nan_act_max", "inf_act_min"):
        row, channel, value, want = {
            "min_above_max": (0, 1, ranges[1, 1] + 1.0, "act_min exceeds act_max at channel 1"),
            "nan_act_max": (1, 2, np.nan, "act_max is not finite at channel 2"),
            "inf_act_min": (0, 0, -np.inf, "act_min is not finite at channel 0"),
        }[case]
        ranges[row, channel] = value
        ranges.tofile(rpath)
        return f"{rpath}: quant key '{key}' {want}"
    if case == "no_range_file_key":
        del q["range_file"]
        return f"{mpath} is missing key 'range_file'"
    if case == "range_file_out_of_dir":
        q["range_file"] = f"../{q['range_file']}"
        return f"{mpath}: quant key '{key}' range_file must be a file name"
    if case == "bad_mode":
        manifest["bit_lowering"][key]["mode"] = "bogus"
        return f"{mpath}: bit_lowering key '{key}' has unknown extraction mode 'bogus'"
    perm = manifest["input_perm"] or list(range(manifest["input_shape"][0]))
    manifest["input_perm"] = {"short_perm": perm[:-1], "repeated_perm": [perm[0]] * len(perm),
                              "float_perm": [float(v) for v in perm]}[case]
    return f"{mpath}: input_perm"


@pytest.mark.parametrize("case", [
    "short_act_min", "oversized_range", "min_above_max", "nan_act_max", "inf_act_min",
    "no_range_file_key", "range_file_out_of_dir", "bad_mode", "short_perm", "repeated_perm",
    "float_perm",
])
def test_malformed_quant_entry_rejected_naming_key(tmp_path, case):
    """Each quant entry, its range file and the input permutation are
    checked against the graph before any state is built; the error names
    the file at fault (range file or manifest) and the key."""
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    mpath = tmp_path / "manifest.json"
    manifest = json.loads(mpath.read_text())
    want = _corrupt(tmp_path, manifest, case)
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(want)):
        modelio.load_model(tmp_path)


def test_missing_range_file_exit_3(tmp_path, capsys):
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    key = min(manifest["quant"], key=int)
    rpath = tmp_path / manifest["quant"][key]["range_file"]
    rpath.unlink()
    with pytest.raises(MissingArtifactError, match=re.escape(f"missing binary file {rpath}")):
        modelio.load_model(tmp_path)
    assert cli.main(["infer", "--model", str(tmp_path), "--mode", "int8"]) == 3
    assert str(rpath) in capsys.readouterr().err


def test_save_replaces_only_the_files_that_changed(tmp_path, monkeypatch):
    """A save back to an unchanged directory replaces no file; one that
    changes only the selections replaces only the manifest.  A file of the
    same size but other bytes is replaced."""
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)
    replaced = []
    replace = os.replace

    def counted(src, dst):
        replaced.append(Path(dst).name)
        replace(src, dst)

    monkeypatch.setattr(modelio.os, "replace", counted)
    modelio.save_model(tmp_path, modelio.load_model(tmp_path))
    assert replaced == []
    model.selections.pop(max(model.selections))
    modelio.save_model(tmp_path, model)
    assert replaced == ["manifest.json"]
    replaced.clear()
    modelio.write_atomic(tmp_path / "x.bin", b"abcd")
    modelio.write_atomic(tmp_path / "x.bin", np.frombuffer(b"abcd", dtype=np.uint8))
    modelio.write_atomic(tmp_path / "x.bin", b"abce")
    assert replaced == ["x.bin", "x.bin"]
    assert (tmp_path / "x.bin").read_bytes() == b"abce"


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               -1.7976931348623157e308, 1.7976931348623157e308, 1e300])
FINITE = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ranges_round_trip_bit_exactly(data):
    """Each range file holds the float64 min and max rows bit for bit
    (signed zeros, subnormals, huge values), and loads back to them."""
    graph = synth.make_linear_net(0, 2, 8, 4, 4)
    ranges = {}
    for i in graph.matmul_indices():
        pairs = data.draw(st.lists(st.tuples(FINITE, FINITE), min_size=graph.layers[i].n_in,
                                   max_size=graph.layers[i].n_in))
        ranges[i] = ChannelRange([min(p) for p in pairs], [max(p) for p in pairs])
    states = {i: netsim.QuantState(graph.layers[i].weight, cr, graph.group_size, "static")
              for i, cr in ranges.items()}
    with tempfile.TemporaryDirectory() as tmp:
        modelio.save_model(tmp, netsim.PreparedModel(graph, states))
        manifest = json.loads((Path(tmp) / "manifest.json").read_text())
        loaded = modelio.load_model(tmp)
        for i, cr in ranges.items():
            raw = (Path(tmp) / manifest["quant"][str(i)]["range_file"]).read_bytes()
            assert raw == np.stack([cr.min, cr.max]).astype("<f8").tobytes()
            got = loaded.states[i].act_range
            assert got.min.tobytes() == cr.min.tobytes() and got.max.tobytes() == cr.max.tobytes()


def test_manifest_holds_no_float_list(tmp_path):
    """Per-channel floats live in binaries: no list in the manifest holds a
    float."""
    model, _ = full_pipeline_model()
    modelio.save_model(tmp_path, model)

    def lists(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            yield node
            for v in node:
                yield from lists(v)

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["quant"] and manifest["selections"]
    assert not [l for l in lists(manifest) if any(isinstance(v, float) for v in l)]


@pytest.fixture(scope="module")
def fuzz_template(tmp_path_factory):
    """A saved, selected and laid-out small model, and its manifest."""
    path = tmp_path_factory.mktemp("fuzz") / "model"
    model, _ = full_pipeline_model()
    modelio.save_model(path, model)
    return path, json.loads((path / "manifest.json").read_text())


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids,
                                                               max_size=4),
    max_leaves=8,
)

LAYER_FIELDS = ["kind", "name", "perm", "shape", "source", "weight_file"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_model_directory_loads_or_names_its_path(fuzz_template, data):
    """With one manifest value (top level, layer field or quant field)
    replaced by any JSON value, or one binary truncated or extended,
    load_model loads or raises a ValueError or MissingArtifactError whose
    message names a path in the directory."""
    template, manifest = fuzz_template
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model"
        shutil.copytree(template, path)
        site = data.draw(st.sampled_from(["top", "layer", "quant", "binary"]))
        if site == "binary":
            binaries = sorted(p.name for p in path.iterdir() if p.suffix != ".json")
            fpath = path / data.draw(st.sampled_from(binaries))
            raw = fpath.read_bytes()
            size = data.draw(st.integers(0, len(raw) + 16))
            fpath.write_bytes(raw[:size] + bytes(max(0, size - len(raw))))
        else:
            edited = copy.deepcopy(manifest)
            node = {"top": edited, "layer": st.sampled_from(edited["layers"]),
                    "quant": st.sampled_from(list(edited["quant"].values()))}[site]
            if site != "top":
                node = data.draw(node)
            keys = sorted(node) if site != "layer" else LAYER_FIELDS  # a layer may lack some
            node[data.draw(st.sampled_from(keys))] = data.draw(JSON_VALUES)
            (path / "manifest.json").write_text(json.dumps(edited))
        try:
            modelio.load_model(path)
        except (ValueError, MissingArtifactError) as exc:
            assert str(path) in str(exc)


@pytest.fixture(scope="module")
def dataset_template(tmp_path_factory):
    """A directory holding a labelled and an unlabelled dataset, and its
    data.json."""
    path = tmp_path_factory.mktemp("datasets")
    x = np.arange(24, dtype=np.float32).reshape(6, 4)
    modelio.save_dataset(path, "calib", x, np.arange(6))
    modelio.save_dataset(path, "eval", x[:3])
    return path, json.loads((path / "data.json").read_text())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_dataset_loads_or_names_its_path(dataset_template, data):
    """With data.json, one dataset entry or one of its fields replaced by
    any JSON value, data.json not JSON, or one binary truncated or extended,
    load_dataset loads or raises a ValueError or MissingArtifactError whose
    message names a path in the directory."""
    template, meta = dataset_template
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model"
        shutil.copytree(template, path)
        site = data.draw(st.sampled_from(["top", "entry", "field", "text", "binary"]))
        if site == "binary":
            fpath = path / data.draw(st.sampled_from(
                sorted(p.name for p in path.iterdir() if p.suffix != ".json")))
            raw = fpath.read_bytes()
            size = data.draw(st.integers(0, len(raw) + 16))
            fpath.write_bytes(raw[:size] + bytes(max(0, size - len(raw))))
        elif site == "text":
            (path / "data.json").write_bytes(data.draw(st.binary(max_size=16)))
        else:
            edited = copy.deepcopy(meta)
            name = data.draw(st.sampled_from(sorted(edited)))
            if site == "top":
                edited = data.draw(JSON_VALUES)
            elif site == "entry":
                edited[name] = data.draw(JSON_VALUES)
            else:
                edited[name][data.draw(st.sampled_from(["x_shape", "y_shape"]))] = data.draw(
                    JSON_VALUES)
            (path / "data.json").write_text(json.dumps(edited))
        for name in ("calib", "eval"):
            try:
                modelio.load_dataset(path, name)
            except (ValueError, MissingArtifactError) as exc:
                assert str(path) in str(exc)
