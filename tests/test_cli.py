import argparse
import json
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixq import cli, evoselect, kernels, modelio, netsim, serve, synth
from conftest import small_conv_model


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "run"
    assert run_cli("demo", "--out", str(out), "--seed", "5", "--algo", "greedy") == 0
    return out


def test_demo_writes_all_artifacts(demo_dir):
    for name in [
        "manifest.json", "data.json", "demo_config.json", "score.csv",
        "selection.json", "fitness.csv", "gemm_check.txt", "infer.csv",
        "bits.csv", "saturation.csv", "l2.csv", "serve.csv", "serve_summary.json",
    ]:
        assert (demo_dir / name).exists(), name


def test_select_fitness_csv_evo_not_worse_than_greedy(demo_dir):
    def best_final(path):
        rows = [l.split(",") for l in Path(path).read_text().strip().splitlines()[1:]]
        by_ratio = {}
        for ratio, gen, fit in rows:
            by_ratio[ratio] = float(fit)  # last generation row wins
        return by_ratio

    assert run_cli("select", "--model", str(demo_dir), "--ratios", "0.5",
                   "--algo", "greedy", "--seed", "1") == 0
    greedy = best_final(demo_dir / "fitness.csv")
    assert run_cli("select", "--model", str(demo_dir), "--ratios", "0.5",
                   "--algo", "evo", "--seed", "1") == 0
    evo = best_final(demo_dir / "fitness.csv")
    for ratio in evo:
        assert evo[ratio] <= greedy[ratio] + 1e-12
    # restore the demo model's multi-ratio selections for later tests
    assert run_cli("select", "--model", str(demo_dir), "--ratios",
                   "0.25,0.5,0.75,1.0", "--algo", "greedy", "--seed", "5") == 0
    assert run_cli("layout", "--model", str(demo_dir)) == 0


def test_stage_seed_named_streams():
    assert cli.stage_seed(3, "net") == cli.stage_seed(3, "net")
    assert cli.stage_seed(3, "net") != cli.stage_seed(3, "calib")
    assert cli.stage_seed(3, "net") != cli.stage_seed(4, "net")


def test_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as e:
        run_cli("no-such-command")
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        run_cli("infer", "--mode", "int7")
    assert e.value.code == 2


def test_missing_artifacts_exit_3(tmp_path):
    assert run_cli("score", "--model", str(tmp_path / "void")) == 3
    assert run_cli("infer", "--model", str(tmp_path / "void")) == 3


def test_unknown_model_format_exit_4(demo_dir, tmp_path, capsys):
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    for path in demo_dir.iterdir():
        if path.suffix in (".json", ".f32bin", ".f64bin", ".i8bin", ".i64bin"):
            (model_dir / path.name).write_bytes(path.read_bytes())
    manifest = json.loads((model_dir / "manifest.json").read_text())
    manifest["format"] = "mixq-model-v2"  # no reader is kept for the reorder layers of v2
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("infer", "--model", str(model_dir), "--mode", "int8") == 4
    assert "'mixq-model-v2', expected 'mixq-model-v3'" in capsys.readouterr().err


def test_validation_failure_exit_4(demo_dir):
    # 0.3 of the group total is not a whole number of groups
    assert run_cli("select", "--model", str(demo_dir), "--ratios", "0.3") == 4
    # mixed inference needs a prepared ratio
    assert run_cli("infer", "--model", str(demo_dir), "--mode", "mixed", "--ratio", "0.1") == 4


def test_stage_commands_rerun_on_demo_dir(demo_dir, capsys):
    assert run_cli("score", "--model", str(demo_dir)) == 0
    assert run_cli("report-bits", "--model", str(demo_dir)) == 0
    assert run_cli("report-l2", "--model", str(demo_dir)) == 0
    assert run_cli("report-saturation", "--model", str(demo_dir)) == 0
    assert run_cli("infer", "--model", str(demo_dir), "--mode", "mixed", "--ratio", "0.5") == 0
    out = capsys.readouterr().out
    assert "l2_to_int8" in out


def test_gemm_check_passes(capsys):
    assert run_cli("gemm-check", "--cases", "5", "--seed", "1") == 0
    assert "PASS" in capsys.readouterr().out


def test_serve_sim_policies(tmp_path, capsys):
    out = tmp_path / "serve"
    assert run_cli("serve-sim", "--out", str(out), "--seed", "2") == 0
    adaptive = json.loads((out / "serve_summary.json").read_text())
    assert run_cli("serve-sim", "--out", str(out), "--seed", "2",
                   "--policy", "fixed", "--ratio", "0.0") == 0
    fixed = json.loads((out / "serve_summary.json").read_text())
    assert adaptive["windows_over_threshold"] < fixed["windows_over_threshold"]


def test_serve_sim_fixed_policy_defaults_to_ratio_0(tmp_path):
    outputs = []
    for ratio in ((), ("--ratio", "0")):
        assert run_cli("serve-sim", "--out", str(tmp_path), "--rate", "300", "--duration", "5",
                       "--policy", "fixed", *ratio) == 0
        outputs.append((tmp_path / "serve.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_infer_metrics_consistent(demo_dir, capsys):
    assert run_cli("infer", "--model", str(demo_dir), "--mode", "int8") == 0
    out = capsys.readouterr().out
    assert "l2_to_int8: 0.0" in out  # int8 against itself


def test_ablate_prints_ladder(capsys):
    assert run_cli("ablate", "--seed", "5") == 0
    out = capsys.readouterr().out
    assert "evolutionary selection, dynamic extraction" in out


def test_default_model_dir_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MIXQ_OUT", str(tmp_path / "envdir"))
    assert cli._default_dir() == str(tmp_path / "envdir")


def test_infer_non_finite_input_exit_4(demo_dir, capsys):
    x, y = modelio.load_dataset(demo_dir, "eval")
    x = x.copy()
    x[0, 0] = np.nan
    modelio.save_dataset(demo_dir, "nan_eval", x, y)
    assert run_cli("infer", "--model", str(demo_dir), "--mode", "mixed", "--ratio", "0.5",
                   "--dataset", "nan_eval") == 4
    assert "non-finite" in capsys.readouterr().err


def test_infer_input_of_another_shape_exit_4(demo_dir, capsys):
    # a rank-4 batch on the linear demo net once ran in int8 and printed
    # rel_l2 0.0, broadcast over the extra axes
    _, y = modelio.load_dataset(demo_dir, "eval")
    modelio.save_dataset(demo_dir, "rank4_eval", np.ones((8, 32, 2, 2), np.float32), y[:8])
    assert run_cli("infer", "--model", str(demo_dir), "--mode", "int8",
                   "--dataset", "rank4_eval") == 4
    assert "[8, 32, 2, 2]" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--threshold", "--window", "--duration"])
@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_serve_sim_rejects_non_positive(tmp_path, flag, value):
    with pytest.raises(SystemExit) as e:
        run_cli("serve-sim", "--out", str(tmp_path), "--rate", "100", flag, value)
    assert e.value.code == 2


def test_serve_sim_threshold_and_window_are_used(tmp_path):
    assert run_cli("serve-sim", "--out", str(tmp_path), "--threshold", "0.125",
                   "--window", "5") == 0
    summary = json.loads((tmp_path / "serve_summary.json").read_text())
    assert summary["threshold"] == 0.125
    assert summary["windows"] == 24  # the shipped 120-s trace in 5-s windows


def test_serve_sim_empty_trace_names_file(tmp_path, capsys):
    trace = tmp_path / "empty.txt"
    trace.write_text("")
    assert run_cli("serve-sim", "--out", str(tmp_path), "--trace", str(trace)) == 4
    assert str(trace) in capsys.readouterr().err


def test_serve_sim_duration_needs_a_generated_trace(tmp_path):
    with pytest.raises(SystemExit) as e:
        run_cli("serve-sim", "--out", str(tmp_path), "--duration", "10")
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    ("--rate", "10", "--min-rate", "400"),
    ("--rate", "700", "--trace", "TRACE"),
    ("--peak-factor", "5"),
])
def test_serve_sim_rejects_flags_it_would_ignore(tmp_path, argv):
    # each once exited 0, serving one arrival source and dropping the other
    # flag, or writing the default scenario
    trace = tmp_path / "arrivals.txt"
    trace.write_text("0.5\n1.5\n")
    with pytest.raises(SystemExit) as e:
        run_cli("serve-sim", "--out", str(tmp_path),
                *[str(trace) if a == "TRACE" else a for a in argv])
    assert e.value.code == 2
    assert not (tmp_path / "serve.csv").exists()


@pytest.mark.parametrize("sources", [
    {"rate": 10.0, "min_rate": 400.0},
    {"trace_file": "TRACE", "rate": 700.0},
    {"trace_file": "TRACE", "rate": 1.0, "min_rate": 2.0},
])
def test_do_serve_sim_rejects_more_than_one_arrival_source(tmp_path, sources):
    # rate=10 with min_rate=400 once served the Poisson trace over 60 windows
    trace = tmp_path / "arrivals.txt"
    trace.write_text("0.5\n1.5\n")
    kwargs = {k: str(trace) if v == "TRACE" else v for k, v in sources.items()}
    with pytest.raises(ValueError, match=f"at most one arrival source, got {', '.join(sources)}$"):
        cli.do_serve_sim(0, tmp_path, "adaptive", None, **kwargs)
    assert not (tmp_path / "serve.csv").exists()


def test_serve_sim_missing_trace_exit_3(tmp_path, capsys):
    trace = tmp_path / "no-such-trace.txt"
    assert run_cli("serve-sim", "--out", str(tmp_path), "--trace", str(trace)) == 3
    assert str(trace) in capsys.readouterr().err


def test_infer_defaults_to_highest_prepared_ratio(demo_dir, capsys):
    assert run_cli("infer", "--model", str(demo_dir)) == 0
    default = capsys.readouterr().out
    assert "ratio: 1.0\n" in default
    assert run_cli("infer", "--model", str(demo_dir), "--ratio", "1.0") == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("argv", [
    ("--mode", "int8", "--ratio", "0.3"),
    ("--mode", "fp32", "--extraction", "dynamic"),
    ("--mode", "int4", "--ratio", "1.0", "--extraction", "static"),
])
def test_infer_rejects_flags_it_would_ignore(demo_dir, capsys, argv):
    # `--mode int8 --ratio 0.3` once exited 0 and printed "ratio: 0.3"
    with pytest.raises(SystemExit) as e:
        run_cli("infer", "--model", str(demo_dir), *argv)
    assert e.value.code == 2
    assert "needs --mode mixed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["infer", "report-saturation"])
@pytest.mark.parametrize("ratio", ["nan", "inf", "1.5", "-0.25"])
def test_ratio_outside_unit_interval_exit_2(demo_dir, capsys, command, ratio):
    # `infer --ratio nan` once exited 4 with "ratio nan not prepared"
    with pytest.raises(SystemExit) as e:
        run_cli(command, "--model", str(demo_dir), "--ratio", ratio)
    assert e.value.code == 2
    assert f"must lie in [0, 1], got {ratio}" in capsys.readouterr().err


def test_infer_without_selections_exit_4(tmp_path, capsys):
    """Once "pass --ratio or run select first", though every --ratio then
    failed with "ratio 0.5 not prepared; available: []" and report-l2
    takes no --ratio."""
    graph = synth.make_linear_net(3, 2, 16, 4, 8)
    x, y = synth.make_dataset(4, 16, 4, 32)
    modelio.save_model(tmp_path, netsim.prepare(graph, [x]))
    modelio.save_dataset(tmp_path, "eval", x, y)
    # report-l2 once exited 0 with an l2.csv holding only its header
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for argv in [("infer",), ("infer", "--ratio", "0.5"), ("report-saturation",),
                 ("report-saturation", "--ratio", "0.5"), ("report-l2",)]:
        assert run_cli(argv[0], "--model", str(tmp_path), *argv[1:]) == 4, argv
        assert (f"{tmp_path}: no selections prepared; run mixq select first"
                in capsys.readouterr().err), argv
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert run_cli("infer", "--model", str(tmp_path), "--mode", "int8") == 0


def test_a_dataset_outside_the_model_directory_exit_4(tmp_path, capsys):
    """`infer --dataset ../outside` once read <dir>/../outside_x.f32bin,
    which data.json listed."""
    graph = synth.make_linear_net(3, 2, 16, 4, 8)
    x, y = synth.make_dataset(4, 16, 4, 32)
    model_dir = tmp_path / "model"
    modelio.save_model(model_dir, netsim.prepare(graph, [x]))
    modelio.save_array(tmp_path / "outside_x.f32bin", x)
    meta_path = model_dir / "data.json"
    meta_path.write_text(json.dumps({"../outside": {"x_shape": list(x.shape)}}))
    assert run_cli("infer", "--model", str(model_dir), "--mode", "int8",
                   "--dataset", "../outside") == 4
    assert (f"{meta_path}: a dataset name must be a file name, not '../outside'"
            in capsys.readouterr().err)


def test_a_naive_calibrated_model_takes_every_extraction(tmp_path, capsys):
    """`calibrate --extraction naive` only sets the default: `infer` and
    `report-saturation` with static or dynamic extraction on a naive-calibrated
    model print and write what they do on a static-calibrated twin (once
    they exited 4, naming the layer)."""
    graph = synth.make_linear_net(3, 3, 16, 4, 4)
    x, y = synth.make_dataset(4, 16, 4, 64)
    seen = {}
    for mode in ("naive", "static"):
        model = netsim.prepare(graph, [x[:32]], extraction_mode=mode)
        evoselect.install_selections(model, {0.5: {i: np.arange(model.n_groups(i)) % 2 == 0
                                                   for i in graph.matmul_indices()}})
        out = tmp_path / mode
        modelio.save_model(out, model)
        modelio.save_dataset(out, "eval", x[32:] * np.float32(2), y[32:])
        for extraction in ("static", "dynamic"):
            for command in ("infer", "report-saturation"):
                assert run_cli(command, "--model", str(out), "--extraction", extraction) == 0
                printed = capsys.readouterr().out.replace(str(out), "<dir>")
                written = (out / "saturation.csv").read_bytes() if command != "infer" else b""
                seen.setdefault((command, extraction), []).append((printed, written))
    assert all(naive == static for naive, static in seen.values())


@pytest.mark.parametrize("argv", [
    ("infer", "--mode", "int8"), ("infer", "--mode", "fp32"), ("infer",), ("report-saturation",),
    ("report-l2",), ("report-bits",), ("score",), ("select", "--algo", "greedy"),
])
def test_uncalibrated_model_names_its_directory_and_calibrate_exit_4(tmp_path, capsys, argv):
    """Once netsim's "run prepare() first" or scoring's bare "model is not
    calibrated", naming neither the directory nor the stage to run."""
    graph = synth.make_linear_net(3, 2, 16, 4, 8)
    x, y = synth.make_dataset(4, 16, 4, 32)
    modelio.save_model(tmp_path, netsim.PreparedModel(graph, {}))
    for name in ("calib", "eval"):
        modelio.save_dataset(tmp_path, name, x, y)
    assert run_cli(argv[0], "--model", str(tmp_path), *argv[1:]) == 4
    assert f"{tmp_path}: model is not calibrated; run mixq calibrate first" in (
        capsys.readouterr().err)


@pytest.fixture
def forward_count(monkeypatch):
    calls = []
    run = netsim.run

    def counting(*args, **kwargs):
        calls.append(kwargs.get("mode", args[2] if len(args) > 2 else "fp32"))
        return run(*args, **kwargs)

    monkeypatch.setattr(netsim, "run", counting)
    return calls


def test_reports_run_one_reference_forward(demo_dir, forward_count):
    n_ratios = len(modelio.load_model(demo_dir).selections)
    cli.do_report_l2(demo_dir, "eval", None)
    assert forward_count == ["int8"] + ["mixed"] * n_ratios
    forward_count.clear()
    cli.do_infer(demo_dir, "int8", None, None, "eval")
    assert forward_count == ["int8"]
    forward_count.clear()
    cli.do_infer(demo_dir, "mixed", 0.5, None, "eval")
    assert forward_count == ["mixed", "int8"]


@pytest.mark.parametrize("path", [("quant", "0", "range_file"), ("bit_lowering",)])
def test_manifest_missing_key_exit_4(demo_dir, tmp_path, capsys, path):
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    for src in demo_dir.iterdir():
        if src.suffix in (".json", ".f32bin", ".f64bin", ".i8bin", ".i64bin"):
            (model_dir / src.name).write_bytes(src.read_bytes())
    manifest = json.loads((model_dir / "manifest.json").read_text())
    node = manifest
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("infer", "--model", str(model_dir), "--mode", "int8") == 4
    err = capsys.readouterr().err
    assert str(model_dir / "manifest.json") in err and repr(path[-1]) in err


@pytest.mark.parametrize("argv", [
    ("gemm-check", "--group-size", "0"),
    ("gemm-check", "--cases", "-1"),
    ("gemm-check", "--max-dim", "0"),
    ("select", "--samples", "-5"),
    ("calibrate", "--batch-size", "0"),
    ("serve-sim", "--min-rate", "100", "--peak-factor", "-2"),
    ("serve-sim", "--rate", "nan"),
    ("serve-sim", "--rate", "inf"),
    ("serve-sim", "--rate", "-1"),
    ("serve-sim", "--min-rate", "-1"),
    ("serve-sim", "--min-rate", "nan"),
    ("calibrate", "--momentum", "1"),
    ("calibrate", "--momentum", "-0.5"),
    ("calibrate", "--quantile", "1.5"),
    ("serve-sim", "--rate", "10", "--duration", "inf"),
    ("serve-sim", "--min-rate", "10", "--peak-factor", "inf", "--duration", "5"),
    ("report-saturation", "--scale", "nan"),
    ("report-saturation", "--scale", "inf"),
    ("serve-sim", "--policy", "adaptive", "--ratio", "0.5"),  # the adaptive policy ignores it
    ("select", "--population", "0"),
    ("select", "--generations", "-2"),
    ("select", "--elite", "-1"),
    ("select", "--parents", "0"),
    ("calibrate", "--quantile", "0.3"),  # the lower quantile would lie above the upper
    ("calibrate", "--quantile", "0"),
    ("select", "--ratios", "abc"),  # once exit 4, "could not parse ratio list"
    ("select", "--ratios", ","),  # once exit 4, "ratios must lie in [0, 1]"
    ("select", "--ratios", ""),
    ("select", "--ratios", "0.5,1.5"),
    ("select", "--ratios", "0.5,nan"),
])
def test_non_positive_counts_exit_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # the default model and output directory
    with pytest.raises(SystemExit) as e:
        run_cli(*argv)
    assert e.value.code == 2


def test_manifest_quant_key_out_of_range_exit_4(demo_dir, tmp_path, capsys):
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    for src in demo_dir.iterdir():
        if src.suffix in (".json", ".f32bin", ".f64bin", ".i8bin", ".i64bin"):
            (model_dir / src.name).write_bytes(src.read_bytes())
    manifest = json.loads((model_dir / "manifest.json").read_text())
    manifest["quant"]["99"] = manifest["quant"]["0"]
    manifest["bit_lowering"]["99"] = manifest["bit_lowering"]["0"]
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("infer", "--model", str(model_dir), "--mode", "int8") == 4
    err = capsys.readouterr().err
    assert str(model_dir / "manifest.json") in err and "'99'" in err


@pytest.mark.parametrize("field", ["act_min", "input_perm"])
def test_manifest_wrong_width_exit_4(demo_dir, tmp_path, capsys, field):
    """A range or input permutation one entry short exits 4 on load, naming
    its file (the range file or the manifest) and key, instead of failing
    inside the first forward."""
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    for src in demo_dir.iterdir():
        if src.suffix in (".json", ".f32bin", ".f64bin", ".i8bin", ".i64bin"):
            (model_dir / src.name).write_bytes(src.read_bytes())
    manifest = json.loads((model_dir / "manifest.json").read_text())
    if field == "input_perm":
        width = manifest["input_shape"][0]
        manifest["input_perm"] = (manifest["input_perm"] or list(range(width)))[:-1]
    else:
        rpath = model_dir / manifest["quant"]["0"]["range_file"]
        rpath.write_bytes(rpath.read_bytes()[:-8])  # the max row one channel short
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("infer", "--model", str(model_dir), "--mode", "int8") == 4
    err = capsys.readouterr().err
    if field == "input_perm":
        assert str(model_dir / "manifest.json") in err and field in err
    else:
        assert f"{rpath}: shape [2, " in err


def test_serve_sim_negative_arrival_exit_4(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text("-0.5\n1.0\n")
    assert run_cli("serve-sim", "--out", str(tmp_path), "--trace", str(trace)) == 4
    assert "finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["nan", "inf", "-1", "abc"])
def test_serve_sim_bad_arrival_names_the_trace_file(tmp_path, capsys, line):
    trace = tmp_path / "trace.txt"
    trace.write_text(f"0.5\n{line}\n")
    assert run_cli("serve-sim", "--out", str(tmp_path), "--trace", str(trace)) == 4
    assert f"trace file {trace}: " in capsys.readouterr().err


def test_serve_sim_trace_puts_every_arrival_in_a_window(tmp_path):
    # the last arrival lies on the closing edge of the 2-s windows
    trace = tmp_path / "trace.txt"
    trace.write_text("0.5\n3\n7\n10\n")
    assert run_cli("serve-sim", "--out", str(tmp_path), "--trace", str(trace),
                   "--policy", "fixed") == 0
    lines = (tmp_path / "serve.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    assert sum(int(row[header.index("n")]) for row in rows) == 4


def test_serve_sim_trace_past_duration_exit_4(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text("0.5\n3\n7\n10\n")
    assert run_cli("serve-sim", "--out", str(tmp_path), "--trace", str(trace),
                   "--duration", "10") == 4
    assert str(trace) in capsys.readouterr().err


def test_serve_sim_reads_the_trace_before_building_anything(tmp_path, monkeypatch):
    calls = {"build_profile": 0, "gen_fluctuating": 0}
    for name in calls:
        original = getattr(serve, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(serve, name, counted)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert run_cli("serve-sim", "--out", str(tmp_path), "--trace", str(tmp_path / "no")) == 3
    assert run_cli("serve-sim", "--out", str(tmp_path), "--trace", str(empty)) == 4
    assert calls == {"build_profile": 0, "gen_fluctuating": 0}
    # a given trace still needs the latency profile, but no generated trace
    trace = tmp_path / "trace.txt"
    trace.write_text("0.5\n3\n")
    assert run_cli("serve-sim", "--out", str(tmp_path), "--trace", str(trace)) == 0
    assert calls == {"build_profile": 1, "gen_fluctuating": 0}


def test_manifest_selection_with_wrong_flag_count_exit_4(demo_dir, tmp_path, capsys):
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    for src in demo_dir.iterdir():
        if src.suffix in (".json", ".f32bin", ".f64bin", ".i8bin", ".i64bin"):
            (model_dir / src.name).write_bytes(src.read_bytes())
    manifest = json.loads((model_dir / "manifest.json").read_text())
    sel = manifest["selections"]["0.5"]
    key = min(sel, key=int)
    n_groups = len(sel[key])
    sel[key] = sel[key][:-1]
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("infer", "--model", str(model_dir)) == 4
    err = capsys.readouterr().err
    assert str(model_dir / "manifest.json") in err
    assert (f"selection for ratio 0.5 has {n_groups - 1} group flags for layer {key}, "
            f"which has {n_groups} groups") in err


@pytest.mark.parametrize("rate", ["0", "100"])
@pytest.mark.parametrize("ratio", ["1.5", "-0.25", "nan"])
def test_serve_sim_fixed_ratio_outside_unit_interval_exit_2(tmp_path, rate, ratio):
    # with no arrivals the ratio once reached serve.csv unchecked; with
    # arrivals it failed later, in CostModel, with exit 4
    with pytest.raises(SystemExit) as e:
        run_cli("serve-sim", "--out", str(tmp_path), "--policy", "fixed",
                "--ratio", ratio, "--rate", rate)
    assert e.value.code == 2
    assert not (tmp_path / "serve.csv").exists()


def _copy_model(demo_dir, model_dir):
    model_dir.mkdir()
    for src in demo_dir.iterdir():
        if src.suffix in (".json", ".f32bin", ".f64bin", ".i8bin", ".i64bin"):
            (model_dir / src.name).write_bytes(src.read_bytes())
    return json.loads((model_dir / "manifest.json").read_text())


@pytest.mark.parametrize("key", ["7.5", "abc", "nan"])
def test_manifest_selection_key_not_a_ratio_exit_4(demo_dir, tmp_path, capsys, key):
    model_dir = tmp_path / "model"
    manifest = _copy_model(demo_dir, model_dir)
    manifest["selections"][key] = manifest["selections"]["0.5"]
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("infer", "--model", str(model_dir), "--ratio", "0.5") == 4
    err = capsys.readouterr().err
    assert str(model_dir / "manifest.json") in err and repr(key) in err


def test_manifest_selection_key_loads_as_ratio_key(demo_dir, tmp_path):
    model_dir = tmp_path / "model"
    manifest = _copy_model(demo_dir, model_dir)
    manifest["selections"]["0.5000000001"] = manifest["selections"].pop("0.5")
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    assert sorted(modelio.load_model(model_dir).selections) == [0.25, 0.5, 0.75, 1.0]
    assert run_cli("infer", "--model", str(model_dir), "--ratio", "0.5") == 0


@pytest.mark.parametrize("mode", ["fp32", "int8", "int4"])
def test_infer_conv_model_top1(tmp_path, mode):
    model, _, (x_ev, y_ev) = small_conv_model(seed=3)
    modelio.save_model(tmp_path, model)
    modelio.save_dataset(tmp_path, "eval", x_ev, y_ev)
    metrics = cli.do_infer(tmp_path, mode, None, None, "eval")
    logits = netsim.run(model, x_ev, mode=mode)
    assert logits.ndim == 4
    want = np.mean(np.argmax(logits.mean(axis=(2, 3)), axis=1) == y_ev)
    assert metrics["top1"] == want


@pytest.mark.parametrize("flag, value, want", [
    pytest.param("--parents", "1", "parents must be at least 2, got 1", id="parents-1"),
    pytest.param("--elite", "6", "elite must lie in [0, parents) = [0, 6), got 6", id="elite-6"),
    pytest.param("--population", "4", "parents (6) must not exceed population (4)",
                 id="population-4"),
])
def test_select_bad_evolution_config_exit_2(tmp_path, capsys, flag, value, want):
    """The rules that tie the evolution counts together are argument errors,
    reported before the model is read."""
    with pytest.raises(SystemExit) as e:
        run_cli("select", "--model", str(tmp_path), flag, value)
    assert e.value.code == 2
    assert want in capsys.readouterr().err


def test_do_select_still_raises_on_a_bad_evolution_config(tmp_path):
    with pytest.raises(ValueError, match="parents must be at least 2"):
        cli.do_select(tmp_path, [0.5], "greedy", 0, dict(parents=1), protect_edges=True,
                      extraction=None)


def test_score_and_layout_loads_build_no_quantized_state(tmp_path, monkeypatch):
    """Loading a model builds no layer state, and scoring reads only the
    ranges: do_score and do_layout's load and layout quantize no weights,
    plan no extraction and lower no weights.  do_select's fitness forwards
    resume at the first selectable layer, so it plans the extraction of
    every later layer and lowers only the weights of layers it flags.  do_layout's
    save then quantizes each layer's weights once, to the 8-bit codes it
    writes."""
    graph = synth.make_linear_net(3, 4, 16, 8, 4)
    x, y = synth.make_dataset(4, 16, 8, 64)
    modelio.save_model(tmp_path, netsim.PreparedModel(graph, {}))
    modelio.save_dataset(tmp_path, "calib", x, y)
    cli.do_calibrate(tmp_path, 0.99, None, "static", 32)
    n = len(graph.matmul_indices())
    calls = []

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in [(netsim, "quantize"), (netsim, "plan_extraction"),
                         (kernels, "lower_weights"), (modelio, "save_model")]:
        count(module, name)
    cli.do_score(tmp_path)
    assert calls == []
    cfg_kwargs = dict(population=4, generations=1, elite=1, parents=2, fitness_samples=16)
    cli.do_select(tmp_path, [0.5, 1.0], "greedy", 0, cfg_kwargs, protect_edges=True,
                  extraction=None)
    assert calls.count("plan_extraction") == n - 1  # the protected first layer runs no mixed
    assert calls.count("lower_weights") == n - 2  # the protected edge layers are never flagged
    calls.clear()
    cli.do_layout(tmp_path)
    assert calls == ["save_model"] + ["quantize"] * n


def test_calibrate_reads_a_laid_out_model_s_inputs_in_its_order(tmp_path):
    """Calibrating a laid-out model again feeds it the calibration set in the
    order its forward reads inputs: the first layer's ranges stay bit for
    bit, and so do the int8 logits."""
    graph = synth.make_linear_net(3, 4, 32, 8, 8)
    x, y = synth.make_dataset(4, 32, 8, 128)
    modelio.save_model(tmp_path, netsim.PreparedModel(graph, {}))
    modelio.save_dataset(tmp_path, "calib", x, y)
    cli.do_calibrate(tmp_path, 0.99, None, "static", 32)
    cfg_kwargs = dict(population=4, generations=1, elite=1, parents=2, fitness_samples=16)
    cli.do_select(tmp_path, [0.5, 1.0], "random", 0, cfg_kwargs, protect_edges=False,
                  extraction=None)
    laid = cli.do_layout(tmp_path)
    assert laid.input_perm is not None
    again = cli.do_calibrate(tmp_path, 0.99, None, "static", 32)
    first = graph.matmul_indices()[0]
    for bound in ("min", "max"):
        assert (getattr(again.states[first].act_range, bound).tobytes()
                == getattr(laid.states[first].act_range, bound).tobytes())
    assert np.array_equal(netsim.run(again, x, mode="int8"), netsim.run(laid, x, mode="int8"))


def _layer_edit(rule, layers):
    """Break one graph rule in a copy of the demo manifest's ``layers``;
    returns the index of the broken layer and a part of the message."""
    relu = next(i for i, l in enumerate(layers) if l["kind"] == "relu")
    if rule == "kind":
        layers[relu] = {"kind": "softmax"}
        return relu, "has an unknown kind"
    if rule == "weight":
        linear = next(i for i, l in enumerate(layers) if l["kind"] == "linear")
        del layers[linear]["weight_file"]
        return linear, "has no weight_file"
    if rule in ("source 99", "source forward"):
        source = 99 if rule == "source 99" else relu + 1
        layers[relu] = {"kind": "residual_add", "source": source}
        return relu, f"has source {source}, not -1 (the input) or an earlier layer"
    if rule == "perm on relu":
        layers[relu]["perm"] = list(range(32))
        return relu, "has a perm, which only a residual_add takes"
    if rule == "perm short":  # a permutation, of half the 32 stream channels
        layers[relu] = {"kind": "residual_add", "source": -1, "perm": list(range(16))}
        return relu, "has a perm of 16 channels, not of the stream's 32"
    perm = [99] * 32 if rule == "perm" else [c + 0.5 for c in range(32)]  # not integers
    layers[relu] = {"kind": "residual_add", "source": -1, "perm": perm}
    return relu, "has a perm that is not a permutation"


@pytest.mark.parametrize("rule", ["kind", "weight", "source 99", "source forward", "perm",
                                  "perm floats", "perm on relu", "perm short"])
def test_manifest_graph_checked_on_load_exit_4(demo_dir, tmp_path, capsys, rule):
    """A broken graph is rejected on load, naming manifest and layer, not
    with a traceback or a failure inside the first forward."""
    model_dir = tmp_path / "model"
    manifest = _copy_model(demo_dir, model_dir)
    idx, want = _layer_edit(rule, manifest["layers"])
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("infer", "--model", str(model_dir), "--mode", "int8") == 4
    err = capsys.readouterr().err
    assert f"{model_dir / 'manifest.json'}: layer {idx}" in err and want in err


def _stream_edit(rule, manifest):
    """Break one stream rule in a copy of the demo manifest; returns the
    message, less the manifest's path."""
    layers = manifest["layers"]
    if rule == "matmul width":  # a [32, 32] and the [8, 32] linear swapped
        layers[4], layers[6] = layers[6], layers[4]
        return "layer 6 ('linear') takes 32 channels of a vector stream, not the 8"
    if rule == "residual width":  # the 32-channel input added to the 8 logits
        layers.append({"kind": "residual_add", "source": -1})
        return "layer 7 ('residual_add') adds 32 channels from source -1 to a stream of 8"
    if rule == "linear on image":
        manifest["input_shape"] = [32, 2, 2]
        return "layer 0 ('linear') takes 32 channels of a vector stream, not the 32 of an image"
    if rule == "conv on vector":
        layers[0].update(kind="conv2d", shape=[32, 32, 1, 1])
        return "layer 0 ('conv2d') takes 32 channels of an image stream, not the 32 of a vector"
    manifest["input_shape"] = [32, 1]
    return "input shape [32, 1] is neither (features,) nor (channels, height, width)"


@pytest.mark.parametrize("rule", ["matmul width", "residual width", "linear on image",
                                  "conv on vector", "input rank"])
def test_manifest_stream_checked_on_load_exit_4(demo_dir, tmp_path, capsys, rule):
    """A graph whose stream does not fit a layer is rejected on load, naming
    the manifest and the layer or the input shape.  Each once loaded: the
    swapped linears then failed in infer with numpy's matmul message, the
    residual add broadcast 32 channels over 8, and the others ran to
    another message or to an output of the wrong shape."""
    model_dir = tmp_path / "model"
    manifest = _copy_model(demo_dir, model_dir)
    want = _stream_edit(rule, manifest)
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("infer", "--model", str(model_dir), "--mode", "int8") == 4
    assert f"{model_dir / 'manifest.json'}: {want}" in capsys.readouterr().err


def _field_edit(case, manifest, model_dir):
    """Break one field of a copy of the demo manifest, or a file that it
    names; returns the exit code and a part of the message."""
    mpath = model_dir / "manifest.json"
    idx = next(i for i, l in enumerate(manifest["layers"]) if "weight_file" in l)
    if case in ("shape text", "shape negative"):
        manifest["layers"][idx]["shape"] = "abc" if case == "shape text" else [-32, -32]
        return 4, f"{mpath}: layer {idx} shape must be a list of positive integers"
    if case in ("group_size float", "group_size text"):
        manifest["group_size"] = 2.5 if case == "group_size float" else "8"
        return 4, f"{mpath}: group_size must be a positive integer"
    if case in ("quant", "bit_lowering", "selections"):
        manifest[case] = []
        return 4, f"{mpath}: {case} must be an object"
    if case == "laid_out":
        manifest["laid_out"] = "yes"
        return 4, f"{mpath}: laid_out must be a boolean"
    if case == "weight_file dir":
        manifest["layers"][idx]["weight_file"] = "."
        return 3, f"missing binary file {model_dir}\n"  # the directory itself
    key, what = case.split()  # a file of the first quant entry, removed or made a directory
    fpath = model_dir / manifest["quant"][str(idx)][key]
    fpath.unlink()
    if what == "dir":
        fpath.mkdir()
    return 3, f"missing binary file {fpath}"


@pytest.mark.parametrize("case", [
    "shape text", "shape negative", "group_size float", "group_size text", "quant",
    "bit_lowering", "selections", "laid_out", "weight_file dir", "range_file missing",
    "range_file dir", "codes_file missing", "codes_file dir",
])
def test_manifest_field_of_the_wrong_type_exit_3_or_4(demo_dir, tmp_path, capsys, case):
    """A manifest field of the wrong type exits 4 naming manifest and key,
    and a file it names that is missing or a directory exits 3 naming the
    file: once a traceback (exit 1), a silent load or a numpy message."""
    model_dir = tmp_path / "model"
    manifest = _copy_model(demo_dir, model_dir)
    code, want = _field_edit(case, manifest, model_dir)
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("infer", "--model", str(model_dir), "--mode", "int8") == code
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("case, want", [
    ("x_shape text", "data.json: dataset 'eval' x_shape must be a list of positive integers, "
                     "not 'abc'"),
    ("not JSON", "data.json is not a JSON dataset index: Expecting value"),
    ("top-level list", "data.json: the dataset index must be an object, not []"),
    ("y_shape short", "data.json: dataset 'eval' y_shape must be [128], one label per sample"),
])
def test_data_json_checked_on_load_exit_4(demo_dir, tmp_path, capsys, case, want):
    """A malformed data.json exits 4 naming it: once a traceback (exit 1), a
    JSON message naming no file, or a dataset "not present" (exit 3)."""
    model_dir = tmp_path / "model"
    _copy_model(demo_dir, model_dir)
    meta = json.loads((model_dir / "data.json").read_text())
    if case == "x_shape text":
        meta["eval"]["x_shape"] = "abc"
    elif case == "top-level list":
        meta = []
    elif case == "y_shape short":
        meta["eval"]["y_shape"] = [4]
    text = "not JSON" if case == "not JSON" else json.dumps(meta)
    (model_dir / "data.json").write_text(text)
    assert run_cli("infer", "--model", str(model_dir), "--mode", "int8") == 4
    assert f"{model_dir / want}" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["evo", "greedy"])
def test_do_select_runs_one_int8_reference(tmp_path, monkeypatch, algo):
    """Every fitness of a chained selection, search and history alike,
    compares against one int8 forward of the fitness samples."""
    graph = synth.make_linear_net(3, 4, 16, 8, 4)
    x, y = synth.make_dataset(4, 16, 8, 64)
    modelio.save_model(tmp_path, netsim.PreparedModel(graph, {}))
    modelio.save_dataset(tmp_path, "calib", x, y)
    cli.do_calibrate(tmp_path, 0.99, None, "static", 32)
    modes = []
    run = evoselect.run

    def counted(model, x, mode="fp32", **kwargs):
        modes.append(mode)
        return run(model, x, mode=mode, **kwargs)

    monkeypatch.setattr(evoselect, "run", counted)
    cfg_kwargs = dict(population=4, generations=2, elite=1, parents=2, fitness_samples=16)
    cli.do_select(tmp_path, [0.25, 0.5, 1.0], algo, 0, cfg_kwargs, protect_edges=False,
                  extraction=None)
    assert modes.count("int8") == 1
    assert modes.count("mixed") > 0


@pytest.mark.parametrize("laid_out", [False, True])
def test_non_finite_calibration_sample_exit_4_changes_no_file(tmp_path, capsys, laid_out):
    """A NaN in the calibration set once calibrated to a NaN range file,
    which the next stage rejected naming that file.  The message counts in
    the stored channel order, also where a layout permuted the inputs."""
    graph = synth.make_linear_net(3, 4, 32, 8, 8)
    x, y = synth.make_dataset(4, 32, 8, 128)
    modelio.save_model(tmp_path, netsim.PreparedModel(graph, {}))
    modelio.save_dataset(tmp_path, "calib", x, y)
    channel = 5
    if laid_out:
        cli.do_calibrate(tmp_path, 0.99, None, "static", 32)
        cfg_kwargs = dict(population=4, generations=1, elite=1, parents=2, fitness_samples=16)
        cli.do_select(tmp_path, [0.5, 1.0], "random", 0, cfg_kwargs, protect_edges=False,
                      extraction=None)
        perm = cli.do_layout(tmp_path).input_perm
        channel = next(c for c in range(32) if perm[c] != c)  # read at another position
    x[3, channel] = np.nan
    modelio.save_dataset(tmp_path, "calib", x, y)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run_cli("calibrate", "--model", str(tmp_path)) == 4
    want = f"{tmp_path}: calibration set 'calib' sample 3 is not finite at index ({channel},)"
    assert want in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_demo_over_a_data_json_that_is_not_json_exit_4(tmp_path, capsys):
    """save_dataset reads data.json as load_dataset does; it once exited 4
    with json's "Expecting value", naming no file."""
    (tmp_path / "data.json").write_text("not JSON")
    assert run_cli("demo", "--out", str(tmp_path)) == 4
    want = f"{tmp_path / 'data.json'} is not a JSON dataset index: Expecting value"
    assert want in capsys.readouterr().err


def test_ablate_rungs_are_the_search_s_fitness_on_the_eval_set(monkeypatch):
    """Each rung is evoselect.fitness, the mean per-sample logit L2 to 8-bit,
    of its selection and extraction on the 128 eval samples; the rungs
    were once the total L2 over all samples."""
    calls = []
    fitness = evoselect.fitness

    def recording(model, chrom, x, ref_logits=None, extraction=None, prefixes=None):
        if len(x) == 128:  # not the search's own calls, on 64 calibration samples
            calls.append((model, chrom, x, extraction))
        return fitness(model, chrom, x, ref_logits, extraction, prefixes)

    monkeypatch.setattr(evoselect, "fitness", recording)
    ladder = cli.run_ablate(5, verbose=lambda *args: None)
    assert [c[3] for c in calls] == ["naive", "static", "static", "static", "dynamic"]
    for (name, value), (model, chrom, x, extraction) in zip(ladder, calls):
        assert name.endswith(f", {extraction} extraction")
        out = netsim.run(model, x, mode="mixed", flags_override=chrom,
                         extraction=extraction)
        diff = out.astype(np.float64) - netsim.run(model, x, mode="int8")
        assert value == np.linalg.norm(diff, axis=1).mean()


@pytest.mark.parametrize("ratios, want", [
    ("0.25,abc", "argument --ratios: entry 'abc' is not a number"),
    (" , ", "argument --ratios: must list at least one ratio, got ' , '"),
    ("0.25,1.5", "argument --ratios: must lie in [0, 1], got 1.5"),
], ids=["not-a-number", "empty", "out-of-range"])
def test_select_ratio_list_names_its_bad_entry(tmp_path, capsys, ratios, want):
    with pytest.raises(SystemExit) as e:
        run_cli("select", "--model", str(tmp_path), "--ratios", ratios)
    assert e.value.code == 2
    assert want in capsys.readouterr().err


def test_report_saturation_scale_overflowing_float32_is_named(demo_dir, capsys):
    """--scale 1e39 passes the finite check but overflows the float32
    inputs; it once warned from numpy and exited 4 with "non-finite input
    value at index (0, 0)", naming neither the flag nor the dataset."""
    before = (demo_dir / "saturation.csv").read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("report-saturation", "--model", str(demo_dir), "--scale", "1e39") == 4
    want = f"{demo_dir}: dataset 'eval' sample 0 times --scale 1e+39 is not finite at index (0,)"
    assert want in capsys.readouterr().err
    assert (demo_dir / "saturation.csv").read_bytes() == before


# Per-flag values for the fuzzed command line: malformed, empty, negative and
# non-finite strings, plus in-range ones so that stages also run.  A huge
# value is in a pool only where it costs nothing (a rate, duration, window,
# count or group size that large would run for minutes or fill memory).
# "{dir}" is the example's fresh model directory.
BAD = ["", "abc", "-1", "0", "nan", "inf", "-inf", "0x10"]
FLAG_POOLS = {
    "--model": ["{dir}", "{dir}/void"],
    "--out": ["{dir}/serve"],
    "--momentum": BAD + ["0.5", "0.99", "1", "1e39"],
    "--quantile": BAD + ["0.5", "0.99", "1", "1e39"],
    "--extraction": ["static", "dynamic", "naive", "bogus"],
    "--batch-size": BAD + ["1", "3", "1e39", "99999999999999999999"],
    "--ratios": BAD + ["0.25,0.5", "1,0", ",", "0.3", "1e39", "0.5,abc", "0.25,0.25"],
    "--algo": ["evo", "greedy", "random", "bogus"],
    "--seed": BAD + ["3", "99999999999999999999"],
    "--population": BAD + ["1", "2", "3", "1e39"],
    "--generations": BAD + ["1", "2", "1e39"],
    "--elite": BAD + ["1", "2"],
    "--parents": BAD + ["1", "2", "3"],
    "--samples": BAD + ["1", "4", "99999999999999999999"],
    "--cases": BAD + ["1", "2"],
    "--group-size": BAD + ["1", "4"],
    "--max-dim": BAD + ["1", "4"],
    "--mode": ["fp32", "int8", "int4", "mixed", "bogus"],
    "--ratio": BAD + ["0.25", "0.5", "0.3", "1", "1e39"],
    "--dataset": ["eval", "calib", "nope", ""],
    "--scale": BAD + ["1", "1e39", "1e-45", "1e30"],
    "--policy": ["adaptive", "fixed", "bogus"],
    "--trace": ["{dir}/trace_" + name for name in ("void", "empty", "abc", "ok", "neg")],
    "--rate": BAD + ["10", "100"],
    "--min-rate": BAD + ["10", "100"],
    "--peak-factor": BAD + ["1", "3"],
    "--duration": BAD + ["1", "5"],
    "--threshold": BAD + ["1e-9", "0.005", "1e39"],
    "--window": BAD + ["2", "10"],
}
ALWAYS = {"--model", "--out", "--cases"}  # no write to the working directory; 50 cases take 0.1 s


def _commands():
    """{subcommand: [(flag, takes a value)]} of build_parser(), but demo and
    ablate, which run whole pipelines."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [(max(a.option_strings, key=len), a.nargs != 0) for a in sp._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, sp in sub.choices.items() if name not in ("demo", "ablate")}


COMMANDS = _commands()


@st.composite
def fuzzed_argv(draw):
    """A subcommand with its ALWAYS flags and up to three others: with more,
    nearly every draw holds a bad value and exits 2 before a stage runs."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[name]
    chosen = [f for f in flags if f[0] in ALWAYS]
    if optional := [f for f in flags if f[0] not in ALWAYS]:
        chosen += draw(st.lists(st.sampled_from(optional), max_size=3, unique=True))
    argv = [name]
    for flag, takes_value in chosen:
        argv += [flag, draw(st.sampled_from(FLAG_POOLS[flag]))] if takes_value else [flag]
    return argv


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    """A calibrated, selected and laid-out 3x16 model directory, plus trace files."""
    path = tmp_path_factory.mktemp("tiny") / "model"
    x, y = synth.make_dataset(2, 16, 4, 16)
    modelio.save_model(path, netsim.PreparedModel(synth.make_linear_net(1, 3, 16, 4, 4), {}))
    for name in ("calib", "eval"):
        modelio.save_dataset(path, name, x, y)
    cli.do_calibrate(path, 0.99, None, "static", 8)
    cli.do_select(path, list(cli.DEFAULT_RATIOS), "greedy", 0, {}, protect_edges=True,
                  extraction=None)
    cli.do_layout(path)
    for name, text in (("empty", ""), ("abc", "abc\n"), ("ok", "0.5\n1\n1.5\n"), ("neg", "-1\n")):
        (path / f"trace_{name}").write_text(text)
    return path


@settings(max_examples=120, deadline=None)
@given(argv=fuzzed_argv())
def test_fuzzed_command_line_exits_0_2_3_or_4(tiny_dir, argv):
    """Any subcommand with flags drawn from its parser, on a fresh copy of a
    prepared directory, exits 0, 2 (bad argument), 3 (missing artifact) or
    4 (validation failure); no other exception escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model"
        shutil.copytree(tiny_dir, path)
        argv = [v.format(dir=path) for v in argv]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's exit 2
            code = exc.code
        assert code in (0, 2, 3, 4), argv
