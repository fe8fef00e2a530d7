"""Evolutionary selection of feature groups for 4-bit computation.

A chromosome is one bit flag per feature group, ordered by layer; fitness
is the mean L2 distance between mixed-precision output logits and the
full 8-bit logits (lower is better).  Inclusivity across ratios is
enforced with a baseline chromosome whose flags are never unset.

One routine, ``_complete``, fills a baseline up to a ratio's group count;
a selector only chooses which unset groups it sets: greedy the lowest
scores, random uniform draws, the evolutionary seed population the greedy
pick plus score-weighted draws, and ``mutate``'s repair greedy's ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .netsim import PreparedModel, run
from .scoring import ErrorScore

SCORE_EPS = 1e-12


@dataclass(frozen=True)
class Chromosome:
    layers: tuple[int, ...]  # graph indices of the selectable matmul layers
    flags: tuple[np.ndarray, ...]  # bool per feature group, aligned with layers
    target_ratio: float

    def __post_init__(self):
        object.__setattr__(self, "flags", tuple(np.asarray(f, dtype=bool) for f in self.flags))

    def key(self) -> bytes:
        return b"".join(np.packbits(f).tobytes() for f in self.flags)

    def set_count(self) -> int:
        return int(sum(f.sum() for f in self.flags))

    def total_groups(self) -> int:
        return int(sum(f.size for f in self.flags))

    def as_override(self) -> dict[int, np.ndarray]:
        return {idx: f for idx, f in zip(self.layers, self.flags)}

    def includes(self, other: "Chromosome") -> bool:
        return all(bool(np.all(f | ~g)) for f, g in zip(self.flags, other.flags))


@dataclass
class EvoConfig:
    population: int = 50
    generations: int = 50
    elite: int = 2
    parents: int = 10
    mutation_prob: float = 0.01
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
        if not 0.0 < self.mutation_prob < 1.0:
            raise ValueError("mutation probability must be in (0, 1)")


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


def _scores_map(scores: list[ErrorScore], layers: tuple[int, ...], sizes: list[int]) -> dict[int, np.ndarray]:
    by_layer = {idx: np.full(n, np.nan) for idx, n in zip(layers, sizes)}
    for s in scores:
        if s.layer in by_layer:
            by_layer[s.layer][s.group] = s.score
    for idx, arr in by_layer.items():
        if np.any(np.isnan(arr)):
            raise ValueError(f"scores missing for some groups of layer {idx}")
    return by_layer


def fitness(
    model: PreparedModel,
    chrom: Chromosome,
    sample_inputs: np.ndarray,
    ref_logits: np.ndarray | None = None,
    extraction: str | None = None,
) -> float:
    """Mean per-sample L2 distance of mixed logits to the 8-bit logits."""
    if ref_logits is None:
        ref_logits = run(model, sample_inputs, mode="int8")
    out = run(model, sample_inputs, mode="mixed", flags_override=chrom.as_override(), extraction=extraction)
    diff = (out.astype(np.float64) - ref_logits.astype(np.float64)).reshape(out.shape[0], -1)
    return float(np.linalg.norm(diff, axis=1).mean())


def crossover(a: Chromosome, b: Chromosome, rng: np.random.Generator) -> tuple[Chromosome, Chromosome]:
    """Swap the suffix layers right of a random layer boundary."""
    if a.layers != b.layers:
        raise ValueError("chromosomes must cover the same layers")
    n = len(a.layers)
    if n < 2:
        return a, b
    point = int(rng.integers(1, n))
    fa = a.flags[:point] + b.flags[point:]
    fb = b.flags[:point] + a.flags[point:]
    return (
        Chromosome(a.layers, fa, a.target_ratio),
        Chromosome(b.layers, fb, b.target_ratio),
    )


def mutate(
    chrom: Chromosome,
    scores: dict[int, np.ndarray],
    p: float,
    rng: np.random.Generator,
    target: int,
    baseline: Chromosome | None = None,
) -> Chromosome:
    """Flip set flags with probability p, swapping in a low-score flag of the
    same layer, then repair the total count to the target.

    Repair unsets highest-score flags first / sets lowest-score flags
    first.  Baseline flags are never unset.
    """
    flags = [f.copy() for f in chrom.flags]
    base = [b for b in baseline.flags] if baseline else [np.zeros_like(f) for f in flags]
    for li, idx in enumerate(chrom.layers):
        f = flags[li]
        s = scores[idx]
        for g in np.flatnonzero(f & ~base[li]):
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
    total = int(sum(f.sum() for f in flags))
    if total > target:
        removable = sorted(
            ((scores[idx][g], li, g) for li, idx in enumerate(chrom.layers)
             for g in np.flatnonzero(flags[li] & ~base[li])),
            key=lambda t: (-t[0], t[1], t[2]),
        )
        for _, li, g in removable[: total - target]:
            flags[li][g] = False
    elif total < target:
        short = Chromosome(chrom.layers, tuple(flags), chrom.target_ratio)
        flags = _complete(None, target / short.total_groups(), short, False,
                          _lowest(scores, chrom.layers)).flags
    return Chromosome(chrom.layers, tuple(flags), chrom.target_ratio)


def _selectable_layers(model: PreparedModel, protect_edges: bool) -> tuple[int, ...]:
    matmuls = model.graph.matmul_indices()
    if protect_edges and len(matmuls) > 2:
        return tuple(matmuls[1:-1])
    return tuple(matmuls)


def _empty(model: PreparedModel, layers: tuple[int, ...], ratio: float) -> Chromosome:
    return Chromosome(layers, tuple(np.zeros(model.n_groups(i), dtype=bool) for i in layers), ratio)


def _complete(model: PreparedModel | None, ratio: float, baseline: Chromosome | None,
              protect_edges: bool, choose) -> Chromosome:
    """``baseline`` (default: no group of ``model``'s selectable layers set)
    with the unset (layer position, group) pairs that ``choose(unset, need)``
    picks set, where ``need`` is the count the ratio's target still lacks."""
    base = baseline or _empty(model, _selectable_layers(model, protect_edges), ratio)
    need = target_count(ratio, base.total_groups()) - base.set_count()
    if need < 0:
        raise ValueError("baseline exceeds the target ratio")
    flags = [f.copy() for f in base.flags]
    unset = [(li, g) for li, f in enumerate(flags) for g in np.flatnonzero(~f)]
    for li, g in choose(unset, need):
        flags[li][g] = True
    return Chromosome(base.layers, tuple(flags), ratio)


def _lowest(scores: dict[int, np.ndarray], layers: tuple[int, ...]):
    """A ``choose`` taking the lowest (score, layer position, group)."""
    return lambda unset, need: sorted(
        unset, key=lambda t: (scores[layers[t[0]]][t[1]], t[0], t[1]))[:need]


def select_greedy(
    model: PreparedModel,
    scores: list[ErrorScore],
    ratio: float,
    baseline: Chromosome | None = None,
    protect_edges: bool = False,
) -> Chromosome:
    """Pick ascending-score groups model-wide until the target is met.
    Every group of the selectable layers needs a score."""
    layers = baseline.layers if baseline else _selectable_layers(model, protect_edges)
    smap = _scores_map(scores, layers, [model.n_groups(i) for i in layers])
    return _complete(model, ratio, baseline, protect_edges, _lowest(smap, layers))


def select_random(
    model: PreparedModel,
    ratio: float,
    rng: np.random.Generator,
    baseline: Chromosome | None = None,
    protect_edges: bool = False,
) -> Chromosome:
    """Uniformly random selection at the target ratio."""
    def uniform(unset, need):
        return [unset[i] for i in rng.choice(len(unset), size=need, replace=False)]
    return _complete(model, ratio, baseline, protect_edges, uniform)


def select_channels(
    model: PreparedModel,
    scores: list[ErrorScore],
    ratio: float,
    cfg: EvoConfig,
    sample_inputs: np.ndarray,
    baseline: Chromosome | None = None,
    protect_edges: bool = False,
    extraction: str | None = None,
    history: list | None = None,
    ref_logits: np.ndarray | None = None,
) -> Chromosome:
    """Evolutionary search for the 4-bit group selection at one ratio.

    Deterministic given cfg.seed.  ``history``, if provided, collects the
    best fitness per generation.  ``ref_logits`` are the int8 logits of
    ``sample_inputs``, computed when not given.
    """
    layers = baseline.layers if baseline else _selectable_layers(model, protect_edges)
    sizes = [model.n_groups(i) for i in layers]
    total = sum(sizes)
    target = target_count(ratio, total)
    if target == 0:
        return _empty(model, layers, ratio)
    if target == total:
        return Chromosome(layers, tuple(np.ones(n, dtype=bool) for n in sizes), ratio)

    rng = np.random.default_rng(cfg.seed)
    smap = _scores_map(scores, layers, sizes)
    if ref_logits is None:
        ref_logits = run(model, sample_inputs, mode="int8")
    cache: dict[bytes, float] = {}

    def fit(c: Chromosome) -> float:
        k = c.key()
        if k not in cache:
            cache[k] = fitness(model, c, sample_inputs, ref_logits, extraction=extraction)
        return cache[k]

    def weighted(unset, need):  # favours low scores
        w = np.array([1.0 / (smap[layers[li]][g] + SCORE_EPS) for li, g in unset])
        return [unset[i] for i in rng.choice(len(unset), size=need, replace=False, p=w / w.sum())]

    pop = [_complete(model, ratio, baseline, protect_edges, choose)
           for choose in [_lowest(smap, layers)] + [weighted] * (cfg.population - 1)]
    for _ in range(cfg.generations):
        ranked = sorted(pop, key=lambda c: (fit(c), c.key()))
        if history is not None:
            history.append(fit(ranked[0]))
        elites = ranked[: cfg.elite]
        parents = ranked[: cfg.parents]
        offspring: list[Chromosome] = []
        while len(offspring) < cfg.population - cfg.elite:
            i, j = rng.choice(len(parents), size=2, replace=False)
            c1, c2 = crossover(parents[i], parents[j], rng)
            offspring.append(mutate(c1, smap, cfg.mutation_prob, rng, target, baseline))
            if len(offspring) < cfg.population - cfg.elite:
                offspring.append(mutate(c2, smap, cfg.mutation_prob, rng, target, baseline))
        pop = elites + offspring
    best = min(pop, key=lambda c: (fit(c), c.key()))
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
) -> dict[float, Chromosome]:
    """Selections for ascending ratios with inclusivity enforced by chaining.

    ``histories``, if given, collects best fitness per generation per ratio
    (a single final-fitness entry for the non-evolutionary algorithms).
    """
    result: dict[float, Chromosome] = {}
    baseline = None
    rng = np.random.default_rng(cfg.seed)
    # one int8 reference serves every fitness of the chain
    ref_logits = None
    if algo == "evo" or histories is not None:
        ref_logits = run(model, sample_inputs, mode="int8")
    for i, ratio in enumerate(sorted(ratios)):
        history: list[float] | None = None if histories is None else []
        if algo == "evo":
            sub = EvoConfig(**{**cfg.__dict__, "seed": cfg.seed + i})
            c = select_channels(
                model, scores, ratio, sub, sample_inputs,
                baseline=baseline, protect_edges=protect_edges, extraction=extraction,
                history=history, ref_logits=ref_logits,
            )
        elif algo == "greedy":
            c = select_greedy(model, scores, ratio, baseline=baseline, protect_edges=protect_edges)
        elif algo == "random":
            c = select_random(model, ratio, rng, baseline=baseline, protect_edges=protect_edges)
        else:
            raise ValueError(f"unknown selection algorithm {algo!r}")
        if histories is not None:
            if not history:
                history = [fitness(model, c, sample_inputs, ref_logits, extraction=extraction)]
            histories[ratio] = history
        result[ratio] = c
        baseline = c
    return result


def install_selections(model: PreparedModel, selections: dict[float, Chromosome]):
    """Attach chromosome selections to the model's ratio table."""
    from .netsim import ratio_key

    for ratio, chrom in selections.items():
        model.selections[ratio_key(ratio)] = chrom.as_override()
