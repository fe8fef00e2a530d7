import json
from pathlib import Path

import numpy as np
import pytest

from mixq import cli, modelio, netsim, serve, synth
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
        if path.suffix in (".json", ".f32bin", ".i8bin", ".i64bin"):
            (model_dir / path.name).write_bytes(path.read_bytes())
    manifest = json.loads((model_dir / "manifest.json").read_text())
    manifest["format"] = "mixq-model-v2"
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("infer", "--model", str(model_dir), "--mode", "int8") == 4
    assert "'mixq-model-v2', expected 'mixq-model-v1'" in capsys.readouterr().err


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


def test_infer_without_selections_exit_4(tmp_path, capsys):
    graph = synth.make_linear_net(3, 2, 16, 4, 8)
    x, y = synth.make_dataset(4, 16, 4, 32)
    modelio.save_model(tmp_path, netsim.prepare(graph, [x]))
    modelio.save_dataset(tmp_path, "eval", x, y)
    assert run_cli("infer", "--model", str(tmp_path)) == 4
    assert "no selections prepared; pass --ratio or run select first" in capsys.readouterr().err
    assert run_cli("infer", "--model", str(tmp_path), "--mode", "int8") == 0


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
    cli.do_report_l2(demo_dir, "eval", None, out_name="l2_count.csv")
    assert forward_count == ["int8"] + ["mixed"] * n_ratios
    forward_count.clear()
    cli.do_infer(demo_dir, "int8", None, None, "eval")
    assert forward_count == ["int8"]
    forward_count.clear()
    cli.do_infer(demo_dir, "mixed", 0.5, None, "eval")
    assert forward_count == ["mixed", "int8"]


@pytest.mark.parametrize("path", [("quant", "0", "act_min"), ("bit_lowering",)])
def test_manifest_missing_key_exit_4(demo_dir, tmp_path, capsys, path):
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    for src in demo_dir.iterdir():
        if src.suffix in (".json", ".f32bin", ".i8bin", ".i64bin"):
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
        if src.suffix in (".json", ".f32bin", ".i8bin", ".i64bin"):
            (model_dir / src.name).write_bytes(src.read_bytes())
    manifest = json.loads((model_dir / "manifest.json").read_text())
    manifest["quant"]["99"] = manifest["quant"]["0"]
    manifest["bit_lowering"]["99"] = manifest["bit_lowering"]["0"]
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("infer", "--model", str(model_dir), "--mode", "int8") == 4
    err = capsys.readouterr().err
    assert str(model_dir / "manifest.json") in err and "'99'" in err


def test_serve_sim_negative_arrival_exit_4(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text("-0.5\n1.0\n")
    assert run_cli("serve-sim", "--out", str(tmp_path), "--trace", str(trace)) == 4
    assert "finite and non-negative" in capsys.readouterr().err


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
        if src.suffix in (".json", ".f32bin", ".i8bin", ".i64bin"):
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
        if src.suffix in (".json", ".f32bin", ".i8bin", ".i64bin"):
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
