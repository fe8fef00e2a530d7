"""Evolutionary selection of feature groups for 4-bit computation.

A selection is the model's own type, ``{matmul layer index: bool flag per
feature group}`` in layer order, as ``PreparedModel.selections`` holds it
per ratio; fitness is the mean L2 distance between mixed-precision output
logits and the full 8-bit logits (lower is better).  Inclusivity across
ratios is enforced with a baseline selection whose flags are never unset.

One routine, ``_complete``, fills a baseline up to a group count; a
selector only chooses which unset groups it sets: greedy the lowest
scores, random uniform draws, the evolutionary seed population the greedy
pick plus score-weighted draws, and ``mutate``'s repair greedy's ranking.

A fitness forward runs only the net's tail (``netsim.tail``), from the
latest cut (a selectable layer no residual crosses) whose entering stream
a search's memo (``_Prefixes``) holds for the flags set before it; a layer
with no set flag runs the int8 contraction, so it keys like an absent one.
The int8 reference seeds every cut, and the memo keeps the population x
selectable layers streams last used.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .netsim import PreparedModel, run, tail
from .scoring import ErrorScore

SCORE_EPS = 1e-12
MUTATION_PROB = 0.01  # chance that mutate swaps out each set, non-baseline flag


@dataclass
class EvoConfig:
    population: int = 50
    generations: int = 50
    elite: int = 2
    parents: int = 10
    fitness_samples: int = 256
    seed: int = 0

    def __post_init__(self):
        # crossover draws two distinct parents, and the elite are kept among them
        if self.parents < 2:
            raise ValueError(f"parents must be at least 2, got {self.parents}")
        if self.parents > self.population:
            raise ValueError(f"parents ({self.parents}) must not exceed population "
                             f"({self.population})")
        if not 0 <= self.elite < self.parents:
            raise ValueError(f"elite must lie in [0, parents) = [0, {self.parents}), "
                             f"got {self.elite}")
        if self.generations < 0:
            raise ValueError(f"generations must be non-negative, got {self.generations}")


def target_count(ratio: float, total_groups: int) -> int:
    """Whole-group target for a ratio; rejects unrepresentable ratios."""
    exact = ratio * total_groups
    count = int(round(exact))
    if abs(exact - count) > 1e-9:
        lo, hi = math.floor(exact) / total_groups, math.ceil(exact) / total_groups
        raise ValueError(
            f"ratio {ratio} is not representable in whole groups; nearest: {lo}, {hi}"
        )
    if not 0 <= count <= total_groups:
        raise ValueError(f"ratio {ratio} outside [0, 1]")
    return count


def _key(selection: dict[int, np.ndarray]) -> bytes:
    """The flags packed layer by layer: the fitness cache's key and the
    search's tie-break."""
    return b"".join(np.packbits(f).tobytes() for f in selection.values())


def _scores_map(scores: list[ErrorScore], base: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    by_layer = {idx: np.full(f.size, np.nan) for idx, f in base.items()}
    for s in scores:
        if s.layer in by_layer:
            by_layer[s.layer][s.group] = s.score
    for idx, arr in by_layer.items():
        if np.any(np.isnan(arr)):
            raise ValueError(f"scores missing for some groups of layer {idx}")
    return by_layer


class _Prefixes:
    """The streams a search's fitness forwards on ``x`` resume from, per cut
    and flags set before it; a forward adds the cuts after its own."""

    def __init__(self, model: PreparedModel, x: np.ndarray, layers, extraction: str | None,
                 population: int):
        rec: dict = {}
        self.ref_logits = run(model, x, mode="int8", record=rec)
        self.model, self.x, self.extraction = model, x, extraction
        self.bound, self.tails = population * len(layers), {}
        for i in layers:
            with suppress(ValueError):  # a residual crosses the cut
                self.tails[i] = tail(model, i)
        self.streams = OrderedDict(((i, b""), rec[i].input) for i in self.tails)

    def run(self, selection: dict[int, np.ndarray]) -> np.ndarray:
        """The mixed output of ``selection``, as a full ``run`` gives it."""
        cuts, key = [], b""
        for i, f in sorted(selection.items()):
            if i in self.tails:
                cuts.append((i, key))
            if f.any():
                key += i.to_bytes(4, "little") + np.packbits(f).tobytes()
        start, model, x = 0, self.model, self.x
        if hit := next((cut for cut in reversed(cuts) if cut in self.streams), None):
            self.streams.move_to_end(hit)
            start, model, x = hit[0], self.tails[hit[0]], self.streams[hit]
        rec: dict = {}
        out = run(model, x, mode="mixed", extraction=self.extraction, record=rec,
                  flags_override={i - start: f for i, f in selection.items() if i >= start})
        for cut in cuts:
            if cut[0] > start and cut not in self.streams:
                self.streams[cut] = rec[cut[0] - start].input
                if len(self.streams) > self.bound:
                    self.streams.popitem(last=False)
        return out


def fitness(
    model: PreparedModel,
    selection: dict[int, np.ndarray],
    sample_inputs: np.ndarray,
    ref_logits: np.ndarray | None = None,
    extraction: str | None = None,
    prefixes: _Prefixes | None = None,
) -> float:
    """Mean per-sample L2 distance of mixed logits to the 8-bit logits;
    ``prefixes``, a memo of the same model, samples and extraction, runs
    only the net's tail and holds the 8-bit logits."""
    if ref_logits is None:
        ref_logits = prefixes.ref_logits if prefixes else run(model, sample_inputs, mode="int8")
    out = prefixes.run(selection) if prefixes else run(
        model, sample_inputs, mode="mixed", flags_override=selection, extraction=extraction)
    diff = (out.astype(np.float64) - ref_logits.astype(np.float64)).reshape(out.shape[0], -1)
    return float(np.linalg.norm(diff, axis=1).mean())


def crossover(a: dict[int, np.ndarray], b: dict[int, np.ndarray],
              rng: np.random.Generator) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Swap the suffix layers right of a random layer boundary."""
    layers = list(a)
    if layers != list(b):
        raise ValueError("selections must cover the same layers")
    n = len(layers)
    if n < 2:
        return a, b
    point = int(rng.integers(1, n))
    head, tail = layers[:point], layers[point:]
    return ({**{i: a[i] for i in head}, **{i: b[i] for i in tail}},
            {**{i: b[i] for i in head}, **{i: a[i] for i in tail}})


def mutate(
    selection: dict[int, np.ndarray],
    scores: dict[int, np.ndarray],
    p: float,
    rng: np.random.Generator,
    target: int,
    baseline: dict[int, np.ndarray] | None = None,
) -> dict[int, np.ndarray]:
    """Flip set flags with probability p, swapping in a low-score flag of the
    same layer, then repair the total count to the target.

    Repair unsets highest-score flags first / sets lowest-score flags
    first.  Baseline flags are never unset.
    """
    flags = {idx: f.copy() for idx, f in selection.items()}
    base = baseline or {idx: np.zeros_like(f) for idx, f in flags.items()}
    for idx, f in flags.items():
        s = scores[idx]
        for g in np.flatnonzero(f & ~base[idx]):
            if rng.random() >= p:
                continue
            unset = np.flatnonzero(~f)
            if unset.size == 0:
                continue  # layer fully set, nothing to swap in
            w = 1.0 / (s[unset] + SCORE_EPS)
            pick = unset[rng.choice(unset.size, p=w / w.sum())]
            f[g] = False
            f[pick] = True
    # repair pass: meet the target count exactly
    total = sum(int(f.sum()) for f in flags.values())
    if total > target:
        removable = sorted(
            ((scores[idx][g], idx, g) for idx, f in flags.items()
             for g in np.flatnonzero(f & ~base[idx])),
            key=lambda t: (-t[0], t[1], t[2]),
        )
        for _, idx, g in removable[: total - target]:
            flags[idx][g] = False
    elif total < target:
        flags = _complete(flags, target, _lowest(scores))
    return flags


def _selectable_layers(model: PreparedModel, protect_edges: bool) -> tuple[int, ...]:
    matmuls = model.graph.matmul_indices()
    if protect_edges and len(matmuls) > 2:
        return tuple(matmuls[1:-1])
    return tuple(matmuls)


def _start(model: PreparedModel, ratio: float, baseline: dict[int, np.ndarray] | None,
           protect_edges: bool) -> tuple[dict[int, np.ndarray], int]:
    """``baseline`` (default: no group of ``model``'s selectable layers set)
    and the group count ``ratio`` sets over its layers."""
    base = baseline if baseline is not None else {
        i: np.zeros(model.n_groups(i), dtype=bool)
        for i in _selectable_layers(model, protect_edges)}
    return base, target_count(ratio, sum(f.size for f in base.values()))


def _complete(base: dict[int, np.ndarray], count: int, choose) -> dict[int, np.ndarray]:
    """``base`` with the unset (layer, group) pairs that ``choose(unset,
    need)`` picks set, where ``need`` is the count ``base`` still lacks."""
    need = count - sum(int(f.sum()) for f in base.values())
    if need < 0:
        raise ValueError("baseline exceeds the target ratio")
    flags = {idx: f.copy() for idx, f in base.items()}
    unset = [(idx, g) for idx, f in flags.items() for g in np.flatnonzero(~f)]
    for idx, g in choose(unset, need):
        flags[idx][g] = True
    return flags


def _lowest(scores: dict[int, np.ndarray]):
    """A ``choose`` taking the lowest (score, layer, group)."""
    return lambda unset, need: sorted(unset, key=lambda t: (scores[t[0]][t[1]], t[0], t[1]))[:need]


def select_greedy(
    model: PreparedModel,
    scores: list[ErrorScore],
    ratio: float,
    baseline: dict[int, np.ndarray] | None = None,
    protect_edges: bool = False,
) -> dict[int, np.ndarray]:
    """Pick ascending-score groups model-wide until the target is met.
    Every group of the selectable layers needs a score."""
    base, count = _start(model, ratio, baseline, protect_edges)
    return _complete(base, count, _lowest(_scores_map(scores, base)))


def select_random(
    model: PreparedModel,
    ratio: float,
    rng: np.random.Generator,
    baseline: dict[int, np.ndarray] | None = None,
    protect_edges: bool = False,
) -> dict[int, np.ndarray]:
    """Uniformly random selection at the target ratio."""
    def uniform(unset, need):
        return [unset[i] for i in rng.choice(len(unset), size=need, replace=False)]
    return _complete(*_start(model, ratio, baseline, protect_edges), uniform)


def select_channels(
    model: PreparedModel,
    scores: list[ErrorScore],
    ratio: float,
    cfg: EvoConfig,
    sample_inputs: np.ndarray,
    baseline: dict[int, np.ndarray] | None = None,
    protect_edges: bool = False,
    extraction: str | None = None,
    history: list | None = None,
    prefixes: _Prefixes | None = None,
) -> dict[int, np.ndarray]:
    """Evolutionary search for the 4-bit group selection at one ratio.

    Deterministic given cfg.seed.  ``history``, if provided, collects the
    best fitness per generation.  ``prefixes`` is the memo of a chain's
    fitness forwards, built for this search when not given.
    """
    base, target = _start(model, ratio, baseline, protect_edges)
    if target in (0, sum(f.size for f in base.values())):  # one candidate
        return {i: np.full(f.size, target > 0) for i, f in base.items()}

    rng = np.random.default_rng(cfg.seed)
    smap = _scores_map(scores, base)
    if prefixes is None:
        prefixes = _Prefixes(model, sample_inputs, list(base), extraction, cfg.population)
    cache: dict[bytes, float] = {}

    def fit(sel: dict[int, np.ndarray]) -> float:
        k = _key(sel)
        if k not in cache:
            cache[k] = fitness(model, sel, sample_inputs, extraction=extraction, prefixes=prefixes)
        return cache[k]

    def weighted(unset, need):  # favours low scores
        w = np.array([1.0 / (smap[idx][g] + SCORE_EPS) for idx, g in unset])
        return [unset[i] for i in rng.choice(len(unset), size=need, replace=False, p=w / w.sum())]

    pop = [_complete(base, target, choose)
           for choose in [_lowest(smap)] + [weighted] * (cfg.population - 1)]
    for _ in range(cfg.generations):
        ranked = sorted(pop, key=lambda c: (fit(c), _key(c)))
        if history is not None:
            history.append(fit(ranked[0]))
        elites = ranked[: cfg.elite]
        parents = ranked[: cfg.parents]
        offspring: list[dict[int, np.ndarray]] = []
        while len(offspring) < cfg.population - cfg.elite:
            i, j = rng.choice(len(parents), size=2, replace=False)
            c1, c2 = crossover(parents[i], parents[j], rng)
            offspring.append(mutate(c1, smap, MUTATION_PROB, rng, target, baseline))
            if len(offspring) < cfg.population - cfg.elite:
                offspring.append(mutate(c2, smap, MUTATION_PROB, rng, target, baseline))
        pop = elites + offspring
    best = min(pop, key=lambda c: (fit(c), _key(c)))
    if history is not None:
        history.append(fit(best))
    return best


def chained_selection(
    model: PreparedModel,
    scores: list[ErrorScore],
    ratios: list[float],
    cfg: EvoConfig,
    sample_inputs: np.ndarray,
    algo: str = "evo",
    protect_edges: bool = False,
    extraction: str | None = None,
    histories: dict[float, list[float]] | None = None,
) -> dict[float, dict[int, np.ndarray]]:
    """Selections for ascending ratios with inclusivity enforced by chaining.

    ``histories``, if given, collects best fitness per generation per ratio
    (a single final-fitness entry for the non-evolutionary algorithms).
    """
    result: dict[float, dict[int, np.ndarray]] = {}
    baseline = None
    rng = np.random.default_rng(cfg.seed)
    # one int8 reference, and one memo of the streams it seeds, serve every
    # fitness of the chain
    prefixes = None
    if algo == "evo" or histories is not None:
        prefixes = _Prefixes(model, sample_inputs, _selectable_layers(model, protect_edges),
                             extraction, cfg.population)
    for i, ratio in enumerate(sorted(ratios)):
        history: list[float] | None = None if histories is None else []
        if algo == "evo":
            sub = EvoConfig(**{**cfg.__dict__, "seed": cfg.seed + i})
            c = select_channels(
                model, scores, ratio, sub, sample_inputs,
                baseline=baseline, protect_edges=protect_edges, extraction=extraction,
                history=history, prefixes=prefixes,
            )
        elif algo == "greedy":
            c = select_greedy(model, scores, ratio, baseline=baseline, protect_edges=protect_edges)
        elif algo == "random":
            c = select_random(model, ratio, rng, baseline=baseline, protect_edges=protect_edges)
        else:
            raise ValueError(f"unknown selection algorithm {algo!r}")
        if histories is not None:
            if not history:
                history = [fitness(model, c, sample_inputs, extraction=extraction,
                                   prefixes=prefixes)]
            histories[ratio] = history
        result[ratio] = c
        baseline = c
    return result


def install_selections(model: PreparedModel, selections: dict[float, dict[int, np.ndarray]]):
    """Attach per-ratio selections to the model's ratio table."""
    from .netsim import ratio_key

    for ratio, selection in selections.items():
        model.selections[ratio_key(ratio)] = selection
