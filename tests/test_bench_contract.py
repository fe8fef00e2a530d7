"""What the benchmark under ``perfbench/`` needs of the ``mixq`` API.

``perfbench/test_smoke.py`` runs the whole benchmark and takes ~20 s; these
checks catch a rename that breaks it in well under a second.  They read
the benchmark's modules and change none of their files.
"""

import functools
import hashlib
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from mixq import cli, evoselect, kernels, modelio, netsim, scoring, synth
from conftest import small_conv_model, small_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))  # its modules import each other by name

import tracing  # noqa: E402
import workloads  # noqa: E402

SPECS = {"WIDE": workloads.WIDE, "CONV": workloads.CONV,
         **{f"TINY[{name}]": spec for name, spec in workloads.TINY.items()}}


@pytest.mark.parametrize("module, attr", tracing.SPANNED + tracing.COUNTED,
                         ids=lambda v: v)
def test_traced_names_resolve(module, attr):
    mod = importlib.import_module(f"mixq.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), mod))


# sha256 of the fp32 outputs of the seed-11 CONV net on its eval set, batch by
# batch, taken while the fp32 conv still summed one kernel tap at a time
CONV_FP32_PIN = "d63e279a99a08307c0633b609c70d282e0963b9a5172a7a28818e6c3e75908d7"


def test_fp32_outputs_of_the_benchmark_conv_net_are_pinned():
    """The fp32 conv sums float32 products in float64 in BLAS's order,
    which could round an output to the other side of a float32 boundary
    from the order it was pinned in; at the benchmark's size no output of
    the seed-11 CONV net's eval batches does."""
    spec, seed = workloads.CONV, 11
    graph = synth.make_conv_net(cli.stage_seed(seed, "net"), spec.layers, spec.width, spec.hw,
                                spec.classes, 3, spec.group)
    x, _ = synth.make_image_dataset(cli.stage_seed(seed, "eval"), spec.width, spec.hw,
                                    spec.classes, spec.n_eval)
    model, h = netsim.PreparedModel(graph, {}), hashlib.sha256()
    for i in range(0, len(x), spec.batch):
        out = netsim.run(model, x[i : i + spec.batch], mode="fp32")
        assert out.dtype == np.float32
        h.update(np.ascontiguousarray(out).tobytes())
    assert h.hexdigest() == CONV_FP32_PIN


def selected_model(conv):
    """A tiny prepared net with a greedy selection at the ratio check_kernel
    runs, and four eval samples."""
    model, _, (x_ev, _) = small_conv_model(seed=4) if conv else small_model(seed=4)
    ratio = workloads.RATIOS[1]
    chrom = evoselect.select_greedy(model, scoring.score_groups(model), ratio)
    evoselect.install_selections(model, {ratio: chrom})
    return model, x_ev[:4]


@pytest.mark.parametrize("conv", [False, True], ids=["linear", "conv"])
def test_check_kernel_passes_on_a_tiny_prepared_net(conv):
    model, x = selected_model(conv)
    workloads.check_kernel(model, x, conv=conv)


@pytest.mark.parametrize("conv", [False, True], ids=["linear", "conv"])
def test_check_kernel_fails_on_a_kernel_one_ulp_off(conv, monkeypatch):
    """The oracle slice check still reads the kernel it wraps: a mixed
    kernel whose every output moved by one float32 ulp fails it."""
    model, x = selected_model(conv)
    name = "mixed_conv2d" if conv else "mixed_gemm"
    kernel = getattr(kernels, name)

    @functools.wraps(kernel)
    def nudged(*args, **kwargs):
        out, stats = kernel(*args, **kwargs)
        return np.nextafter(out, np.float32(np.inf)), stats

    monkeypatch.setattr(kernels, name, nudged)
    with pytest.raises(workloads.CheckFailed, match="differs from the scalar oracle"):
        workloads.check_kernel(model, x, conv=conv)


@pytest.mark.parametrize("conv", [False, True], ids=["linear", "conv"])
def test_every_quantized_forward_passes_the_traced_coverage_rule(conv):
    """The traced benchmark's ``coverage_errors`` rule holds on a tiny net:
    every int8, int4 and mixed ``netsim.run``, at each prepared ratio and
    with ``flags_override``, makes exactly one kernel call per matmul
    layer, and no kernel runs outside a forward."""
    model, _, (x, _) = small_conv_model(seed=4) if conv else small_model(seed=4)
    scores = scoring.score_groups(model)
    evoselect.install_selections(
        model, {r: evoselect.select_greedy(model, scores, r) for r in workloads.RATIOS})
    rng = np.random.default_rng(0)
    override = {i: rng.random(model.n_groups(i)) < 0.5 for i in model.graph.matmul_indices()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mode in ("int8", "int4"):
            netsim.run(model, x, mode=mode)
        for ratio in workloads.RATIOS:
            netsim.set_ratio(model, ratio)
            netsim.run(model, x, mode="mixed")
        netsim.run(model, x, mode="mixed", flags_override=override)
    finally:
        tracer.uninstall()
    kind = "conv2d" if conv else "gemm"
    assert tracer.coverage_errors([f"kernels.int_{kind}", f"kernels.mixed_{kind}"]) == []
    assert sum(span[0] == "netsim.run" for span in tracer.spans) == 3 + len(workloads.RATIOS)


@pytest.mark.parametrize("protect_edges", [False, True], ids=["all-layers", "protect-edges"])
@pytest.mark.parametrize("conv", [False, True], ids=["linear", "conv"])
def test_a_traced_evo_chain_passes_the_coverage_rule(conv, protect_edges):
    """A fitness forward that resumes from a memoized stream is a
    ``netsim.run`` of the tail model, so a whole traced evo chain keeps
    ``coverage_errors``'s rule, and its fitness forwards make fewer kernel
    calls than the net has matmul layers."""
    model, (x, _), _ = small_conv_model(seed=4) if conv else small_model(seed=4)
    scores = scoring.score_groups(model)
    cfg = evoselect.EvoConfig(population=6, generations=3, elite=2, parents=4, seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        evoselect.chained_selection(model, scores, workloads.RATIOS, cfg, x[:16],
                                    protect_edges=protect_edges, histories={})
    finally:
        tracer.uninstall()
    kind = "conv2d" if conv else "gemm"
    assert tracer.coverage_errors(["evoselect.fitness", f"kernels.mixed_{kind}"]) == []
    per_fitness = tracer.layer_metrics()["evoselect.kernel_calls_per_fitness"]
    assert 0 < per_fitness < len(model.graph.matmul_indices())


def test_saved_bytes_reads_a_fresh_model_directory(tmp_path):
    """The traced benchmark sizes each save from the files the manifest
    names: the manifest plus every weight and codes file."""
    model, _, _ = small_model(seed=4)
    modelio.save_model(tmp_path, model)
    want = sum(p.stat().st_size for p in tmp_path.iterdir()
               if p.name == "manifest.json" or p.suffix in (".f32bin", ".i8bin"))
    assert tracing._saved_bytes(tmp_path) == want


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_evo_fields_build_an_evo_config(spec):
    evoselect.EvoConfig(**dict(spec.evo))


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_prepare_s_stage_calls_bind_to_the_stage_signatures(spec, monkeypatch, tmp_path):
    """workloads.prepare's calls to the cli stages, recorded in place of the
    stages, bind to the stages' signatures."""
    calls = []
    for name in ("do_calibrate", "do_score", "do_select", "do_layout"):
        stage = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, _stage=stage, **kwargs:
                            calls.append((_stage, args, kwargs)))
    workloads.prepare(spec, 0, tmp_path)
    assert [stage.__name__ for stage, _, _ in calls] == [
        "do_calibrate", "do_score", "do_select", "do_layout"]
    for stage, args, kwargs in calls:
        inspect.signature(stage).bind(*args, **kwargs)
