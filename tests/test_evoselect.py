import csv
import hashlib
import itertools

import numpy as np
import pytest

from mixq import cli, evoselect, kernels, modelio, netsim, scoring, synth
from mixq.evoselect import EvoConfig, crossover, mutate, target_count
from conftest import includes, set_count, small_model, total_groups


def make_selection(sizes, set_idx, layers=None):
    """A ``{layer: flags}`` selection with the (layer position, group) pairs
    of ``set_idx`` set."""
    layers = layers or tuple(range(len(sizes)))
    flags = {}
    for li, n in enumerate(sizes):
        f = np.zeros(n, dtype=bool)
        for (lj, g) in set_idx:
            if lj == li:
                f[g] = True
        flags[layers[li]] = f
    return flags


def test_target_count_rounding():
    assert target_count(0.5, 8) == 4
    assert target_count(0.25, 8) == 2
    assert target_count(0.0, 8) == 0
    assert target_count(1.0, 8) == 8


def test_target_count_rejects_unrepresentable():
    with pytest.raises(ValueError, match="not representable"):
        target_count(0.3, 8)


def test_crossover_swaps_layer_suffix():
    a = make_selection([2, 2, 2], [(0, 0), (1, 0), (2, 0)])
    b = make_selection([2, 2, 2], [(0, 1), (1, 1), (2, 1)])
    rng = np.random.default_rng(0)
    c1, c2 = crossover(a, b, rng)
    # every layer of each child comes wholesale from one parent
    for child in (c1, c2):
        for li in range(3):
            assert (
                child[li].tolist() == a[li].tolist()
                or child[li].tolist() == b[li].tolist()
            )
    # the two children partition the parents' layers
    for li in range(3):
        assert sorted(
            [c1[li].tolist(), c2[li].tolist()]
        ) == sorted([a[li].tolist(), b[li].tolist()])


def test_crossover_single_layer_is_identity():
    a = make_selection([4], [(0, 0)])
    b = make_selection([4], [(0, 1)])
    c1, c2 = crossover(a, b, np.random.default_rng(0))
    assert c1 is a and c2 is b


def test_crossover_layer_mismatch_rejected():
    a = make_selection([2], [(0, 0)], layers=(1,))
    b = make_selection([2], [(0, 0)], layers=(2,))
    with pytest.raises(ValueError):
        crossover(a, b, np.random.default_rng(0))


def scores_map(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return {li: rng.uniform(0.1, 10.0, size=n) for li, n in enumerate(sizes)}


def test_mutate_preserves_target_count():
    rng = np.random.default_rng(1)
    sizes = [3, 4, 3]
    smap = scores_map(sizes)
    for trial in range(200):
        k = int(rng.integers(0, 11))
        idx = [(int(li), int(g)) for li in range(3) for g in range(sizes[li])]
        rng.shuffle(idx)
        chrom = make_selection(sizes, idx[:k])
        target = int(rng.integers(0, 11))
        out = mutate(chrom, smap, 0.3, rng, target)
        assert set_count(out) == target


def test_mutate_never_unsets_baseline():
    rng = np.random.default_rng(2)
    sizes = [4, 4]
    smap = scores_map(sizes)
    baseline = make_selection(sizes, [(0, 1), (1, 2)])
    chrom = make_selection(sizes, [(0, 1), (1, 2), (0, 0), (1, 0)])
    for _ in range(200):
        out = mutate(chrom, smap, 0.5, rng, 4, baseline=baseline)
        assert includes(out, baseline)
        assert set_count(out) == 4


def test_mutate_repair_direction_follows_scores():
    # all-probability-zero mutation: repair alone must fix the count
    sizes = [4]
    smap = {0: np.array([1.0, 2.0, 3.0, 4.0])}
    rng = np.random.default_rng(3)
    over = make_selection(sizes, [(0, 0), (0, 1), (0, 2), (0, 3)])
    out = mutate(over, smap, 1e-12, rng, 2)
    assert out[0].tolist() == [True, True, False, False]  # drops highest scores
    under = make_selection(sizes, [])
    out = mutate(under, smap, 1e-12, rng, 2)
    assert out[0].tolist() == [True, True, False, False]  # adds lowest scores


def test_greedy_matches_sorted_score_oracle():
    model, (x_cal, _), _ = small_model(seed=21)
    scores = scoring.score_groups(model)
    chrom = evoselect.select_greedy(model, scores, 0.5)
    pos = {idx: li for li, idx in enumerate(chrom)}
    ranked = sorted(
        (s for s in scores if s.layer in pos), key=lambda s: (s.score, s.layer, s.group)
    )
    want = set()
    for s in ranked[: target_count(0.5, total_groups(chrom))]:
        want.add((s.layer, s.group))
    got = {(idx, g) for idx, f in chrom.items() for g in np.flatnonzero(f)}
    assert got == want


def test_greedy_rejects_scores_missing_for_a_layer():
    # with one layer's scores only, greedy once set 4 of the 8 target groups
    model, _, _ = small_model(seed=13)
    matmuls = model.graph.matmul_indices()
    scores = [s for s in scoring.score_groups(model) if s.layer == matmuls[1]]
    with pytest.raises(ValueError, match=f"scores missing for some groups of layer {matmuls[0]}"):
        evoselect.select_greedy(model, scores, 0.5)


# sha256 of each algorithm's chained flags and fitness histories on a
# 5-layer residual net, taken before the selectors shared one completion
SELECTION_PINS = {
    ("evo", False): "50e8dd6efef386b54bcbf8597b382a98464c29899e267f23ffc4f912e8288a6b",
    ("evo", True): "cc204b77aae789dc45196f91bd22381ca23576b075f2e9e44dc1f9d6b9515fbc",
    ("greedy", False): "6634891f7f4275b2df7c9481e04c2a6205cdec15b7255f21338ac0cc7b560782",
    ("greedy", True): "2f56c30fdb1f49cf53e989ac2c7f9d5cc3e3d9d22ac7787159102448fd43724e",
    ("random", False): "b955577ff052b624896692f384386ab37c4434c144905306888aa722aba76e75",
    ("random", True): "b896467e40b486373600ca3829c11b06ea4e30267f36244759f25bd7c7e5cdb1",
}


@pytest.mark.parametrize("algo, protect_edges", list(SELECTION_PINS))
def test_chained_selection_is_pinned(algo, protect_edges):
    model, (x_cal, _), _ = small_model(seed=5, n_layers=5, residual=True)
    scores = scoring.score_groups(model)
    cfg = EvoConfig(population=8, generations=4, elite=2, parents=4,
                    fitness_samples=32, seed=3)
    histories: dict = {}
    sel = evoselect.chained_selection(model, scores, [0.25, 0.5, 0.75, 1.0], cfg, x_cal[:32],
                                      algo=algo, protect_edges=protect_edges, histories=histories)
    h = hashlib.sha256()
    for ratio in sorted(sel):
        h.update(repr((ratio, tuple(sel[ratio]), histories[ratio])).encode()
                 + evoselect._key(sel[ratio]))
    assert h.hexdigest() == SELECTION_PINS[algo, protect_edges]


def test_protect_edges_excludes_first_and_last_matmul():
    model, _, _ = small_model(seed=22)
    matmuls = model.graph.matmul_indices()
    layers = evoselect._selectable_layers(model, protect_edges=True)
    assert matmuls[0] not in layers and matmuls[-1] not in layers
    assert set(layers) == set(matmuls[1:-1])


def test_evo_not_worse_than_greedy_and_deterministic():
    model, (x_cal, _), _ = small_model(seed=23)
    scores = scoring.score_groups(model)
    cfg = EvoConfig(population=8, generations=4, elite=2, parents=4,
                    fitness_samples=32, seed=5)
    samples = x_cal[:32]
    evo = evoselect.select_channels(model, scores, 0.5, cfg, samples)
    evo2 = evoselect.select_channels(model, scores, 0.5, cfg, samples)
    assert evoselect._key(evo) == evoselect._key(evo2)
    greedy = evoselect.select_greedy(model, scores, 0.5)
    f_evo = evoselect.fitness(model, evo, samples)
    f_greedy = evoselect.fitness(model, greedy, samples)
    assert f_evo <= f_greedy + 1e-12


def test_evo_matches_exhaustive_on_tiny_net():
    model, (x_cal, _), _ = small_model(seed=24, n_layers=2, features=16, group_size=4)
    scores = scoring.score_groups(model)
    samples = x_cal[:32]
    ratio = 0.5  # 8 groups total -> C(8,4) = 70 candidates
    cfg = EvoConfig(population=12, generations=10, elite=2, parents=6,
                    fitness_samples=32, seed=9)
    evo = evoselect.select_channels(model, scores, ratio, cfg, samples)
    layers = tuple(evo)
    sizes = [model.n_groups(i) for i in layers]
    slots = [(li, g) for li, n in enumerate(sizes) for g in range(n)]
    ref = netsim.run(model, samples, mode="int8")
    best = np.inf
    for combo in itertools.combinations(slots, evoselect.target_count(ratio, len(slots))):
        chrom = make_selection(sizes, list(combo), layers=layers)
        best = min(best, evoselect.fitness(model, chrom, samples, ref))
    assert evoselect.fitness(model, evo, samples, ref) <= best + 1e-9


def test_chained_selection_is_nested():
    model, (x_cal, _), _ = small_model(seed=25)
    scores = scoring.score_groups(model)
    cfg = EvoConfig(population=8, generations=3, elite=2, parents=4,
                    fitness_samples=32, seed=1)
    sel = evoselect.chained_selection(model, scores, [0.25, 0.5, 0.75, 1.0], cfg, x_cal[:32])
    ratios = sorted(sel)
    for lo, hi in zip(ratios, ratios[1:]):
        assert includes(sel[hi], sel[lo])
        assert set_count(sel[lo]) == target_count(lo, total_groups(sel[lo]))


def test_ratio_shortcuts():
    model, (x_cal, _), _ = small_model(seed=26)
    scores = scoring.score_groups(model)
    cfg = EvoConfig(population=8, generations=2, elite=2, parents=4,
                    fitness_samples=16, seed=1)
    empty = evoselect.select_channels(model, scores, 0.0, cfg, x_cal[:16])
    assert set_count(empty) == 0
    full = evoselect.select_channels(model, scores, 1.0, cfg, x_cal[:16])
    assert set_count(full) == total_groups(full)


def test_config_validation():
    with pytest.raises(ValueError):
        EvoConfig(population=4, parents=8)
    for bad in (dict(elite=-1), dict(parents=1, elite=0), dict(generations=-2)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            EvoConfig(**bad)
    EvoConfig(population=2, parents=2, elite=0, generations=0)  # the least a search takes


def test_no_fitness_forward_contracts_a_protected_first_layer(monkeypatch):
    """With protect_edges no candidate flags the first matmul layer, so every
    fitness forward of an evo chain resumes after it from the int8
    reference's stream: no kernel under ``evoselect.fitness`` contracts its
    weights (the int8 reference forward, outside any fitness, does)."""
    model, (x_cal, _), _ = small_model(seed=5, n_layers=4)
    first = model.states[model.graph.matmul_indices()[0]]
    inside, calls = [False], []
    fitness = evoselect.fitness

    def flagged(*args, **kwargs):
        inside[0] = True
        try:
            return fitness(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(evoselect, "fitness", flagged)
    for name in ("mixed_gemm", "int_gemm"):
        def counted(x_q, w_q, *args, _kernel=getattr(kernels, name), **kwargs):
            if inside[0]:
                calls.append(np.shares_memory(w_q, first.w_q8))
            return _kernel(x_q, w_q, *args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
    cfg = EvoConfig(population=6, generations=3, elite=2, parents=4, seed=2)
    evoselect.chained_selection(model, scoring.score_groups(model), [0.25, 0.5, 0.75, 1.0],
                                cfg, x_cal[:32], protect_edges=True, histories={})
    assert calls and not any(calls)


def test_the_prefix_memo_stays_within_its_bound(monkeypatch):
    """The memo of a chain's fitness forwards holds at most population x
    selectable layers streams, and on this search it fills up."""
    model, (x_cal, _), _ = small_model(seed=5, n_layers=6)
    sizes = []
    resume = evoselect._Prefixes.run

    def watched(self, selection):
        out = resume(self, selection)
        sizes.append((len(self.streams), self.bound))
        return out

    monkeypatch.setattr(evoselect._Prefixes, "run", watched)
    cfg = EvoConfig(population=4, generations=6, elite=1, parents=2, seed=1)
    evoselect.chained_selection(model, scoring.score_groups(model), [0.25, 0.5, 0.75], cfg,
                                x_cal[:32])
    bound = cfg.population * len(model.graph.matmul_indices())
    assert {b for _, b in sizes} == {bound}
    assert max(n for n, _ in sizes) == bound


@pytest.mark.parametrize("protect_edges", [False, True])
def test_every_fitness_csv_entry_is_the_fitness_of_a_full_forward(tmp_path, monkeypatch,
                                                                   protect_edges):
    """Each fitness the search computes from a resumed forward equals the
    fitness of a full forward, and fitness.csv holds only such values."""
    graph = synth.make_linear_net(3, 5, 16, 8, 4, residual=True)
    x, y = synth.make_dataset(4, 16, 8, 64)
    modelio.save_model(tmp_path, netsim.PreparedModel(graph, {}))
    modelio.save_dataset(tmp_path, "calib", x, y)
    cli.do_calibrate(tmp_path, 0.99, None, "static", 32)
    values = set()
    fitness = evoselect.fitness

    def checked(model, selection, samples, ref_logits=None, extraction=None, prefixes=None):
        value = fitness(model, selection, samples, ref_logits, extraction, prefixes)
        assert value == fitness(model, selection, samples, extraction=extraction)
        values.add(value)
        return value

    monkeypatch.setattr(evoselect, "fitness", checked)
    cfg_kwargs = dict(population=6, generations=3, elite=2, parents=4, fitness_samples=32)
    cli.do_select(tmp_path, [0.25, 0.5, 1.0], "evo", 0, cfg_kwargs,
                  protect_edges=protect_edges, extraction="dynamic")
    with open(tmp_path / "fitness.csv") as fh:
        entries = [float(row["best_fitness"]) for row in csv.DictReader(fh)]
    assert len(entries) == 2 * 4 + 1 and set(entries) <= values
