"""Discrete-event inference-serving simulator.

Single-server FIFO queue fed by Poisson or trace-driven arrivals.
Service time comes from a parametric cost model tied to the 4-bit ratio;
at the end of each monitoring window the adaptive controller steps the
ratio to the adjacent entry of its ratio list whenever the profiled
latency for the observed request rate crosses a threshold.  Simulated
time only; fully deterministic per seed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .netsim import ratio_key

DEFAULT_SPEEDUP = 1.43  # 100% 4-bit vs 8-bit matmul time
DECREASE_MARGIN = 0.7  # step down when profiled latency < margin * threshold
SHIPPED_DURATION = 120.0  # seconds of the reference scenario's trace


@dataclass
class CostModel:
    """Abstract per-inference latency as a function of the 4-bit ratio."""

    matmul_costs: np.ndarray  # per-layer base cost at 8-bit, time units
    speedup: float = DEFAULT_SPEEDUP
    float_cost: float = 0.0
    reorder_costs: np.ndarray | float = 0.0
    dynamic_overhead: float = 0.0  # fraction of matmul cost, dynamic extraction
    switch_cost: float = 0.0  # cost of a ratio switch (negligible by default)

    def __post_init__(self):
        self.matmul_costs = np.atleast_1d(np.asarray(self.matmul_costs, dtype=np.float64))
        self.reorder_costs = np.atleast_1d(np.asarray(self.reorder_costs, dtype=np.float64))

    def service_time(self, ratio: float) -> float:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio {ratio} outside [0, 1]")
        per_layer = self.matmul_costs * (1.0 - ratio * (1.0 - 1.0 / self.speedup))
        matmul = float(per_layer.sum()) * (1.0 + self.dynamic_overhead)
        return matmul + self.float_cost + float(np.sum(self.reorder_costs))


@dataclass
class ServingTrace:
    """Request arrival times (seconds, non-decreasing) plus rate metadata."""

    arrivals: np.ndarray
    duration: float
    intervals: list[tuple[float, float]] = field(default_factory=list)  # (t_start, rate)

    def __post_init__(self):
        self.arrivals = np.asarray(self.arrivals, dtype=np.float64)
        if self.arrivals.size and not (np.all(np.isfinite(self.arrivals)) and self.arrivals.min() >= 0):
            raise ValueError("arrival times must be finite and non-negative")
        if self.arrivals.size and np.any(np.diff(self.arrivals) < 0):
            raise ValueError("arrival times must be non-decreasing")


def gen_poisson(rate: float, duration: float, seed: int) -> ServingTrace:
    """Homogeneous Poisson arrivals at the given requests/second."""
    if rate < 0:
        raise ValueError("rate must be non-negative")
    rng = np.random.default_rng(seed)
    if rate == 0:
        return ServingTrace(np.empty(0), duration, [(0.0, 0.0)])
    n = int(rng.poisson(rate * duration))
    arrivals = np.sort(rng.uniform(0.0, duration, size=n))
    return ServingTrace(arrivals, duration, [(0.0, rate)])


def gen_fluctuating(
    min_rate: float,
    duration: float,
    seed: int,
    peak_factor: float = 3.0,
    period: float | None = None,
    interval: float = 1.0,
) -> ServingTrace:
    """Trace-style fluctuating workload: peak rate = peak_factor x minimum.

    The rate profile is a raised cosine between min_rate and
    peak_factor * min_rate, sampled per interval; arrivals within an
    interval are Poisson at the interval's rate.
    """
    rng = np.random.default_rng(seed)
    period = period or duration
    times = np.arange(0.0, duration, interval)
    rates = min_rate + (peak_factor - 1.0) * min_rate * 0.5 * (
        1.0 - np.cos(2.0 * np.pi * times / period)
    )
    arrivals = []
    intervals = []
    for t, r in zip(times, rates):
        intervals.append((float(t), float(r)))
        n = int(rng.poisson(r * interval))
        arrivals.append(np.sort(rng.uniform(t, t + interval, size=n)))
    return ServingTrace(np.concatenate(arrivals) if arrivals else np.empty(0), duration, intervals)


@dataclass
class LatencyProfile:
    """Profiled latency table mapping (rate, ratio) -> expected latency."""

    rates: np.ndarray
    ratios: tuple[float, ...]
    latency: np.ndarray  # [n_rates, n_ratios]

    def lookup(self, rate: float, ratio: float) -> float:
        key, keys = ratio_key(ratio), [ratio_key(r) for r in self.ratios]
        if key not in keys:
            raise ValueError(f"ratio {ratio} not profiled; profiled ratios: {list(self.ratios)}")
        col = self.latency[:, keys.index(key)]
        return float(np.interp(rate, self.rates, col))


@dataclass
class ControllerPolicy:
    window: float  # monitoring window, seconds
    threshold: float  # latency threshold, seconds
    profile: LatencyProfile
    ratios: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    initial_ratio: float = 0.0


@dataclass
class SimResult:
    windows: list[dict]  # per window: t, rate, ratio, median, p90, n
    ratio_timeline: list[tuple[float, float]]  # (t_start, ratio)
    latencies: np.ndarray
    saturated: bool
    arrivals: np.ndarray
    finishes: np.ndarray

    @property
    def requests(self) -> list[tuple[float, float, float, float]]:
        """(arrival, start, finish, ratio) per request, built on each read.

        A request starts at the later of its arrival and the previous
        finish, as ``max(arrival, free)`` does in ``_fifo``, and is served
        at the ratio in force at its start.
        """
        free = np.concatenate(([0.0], self.finishes[:-1]))
        starts = np.where(free > self.arrivals, free, self.arrivals)
        switch_times = [t for t, _ in self.ratio_timeline]
        k = np.searchsorted(switch_times, starts, side="right") - 1
        ratios = [r for _, r in self.ratio_timeline]
        return [(a, s, f, ratios[i]) for a, s, f, i in zip(
            self.arrivals.tolist(), starts.tolist(), self.finishes.tolist(), k.tolist())]

    def completed(self) -> int:
        return self.latencies.size


def _ratio_timeline(trace: ServingTrace, policy: ControllerPolicy) -> list[tuple[float, float]]:
    """Controller decisions from observed per-window arrival rates.

    The controller consults the profiled latency for the current rate at
    each window boundary and moves the ratio at most one entry along
    ``policy.ratios``.
    """
    timeline = [(0.0, policy.initial_ratio)]
    ratio = policy.initial_ratio
    order = sorted(policy.ratios)
    t = policy.window
    while t <= trace.duration + 1e-12:
        lo, hi = np.searchsorted(trace.arrivals, [t - policy.window, t])
        rate = (hi - lo) / policy.window
        profiled = policy.profile.lookup(rate, ratio)
        i = order.index(ratio)
        if profiled > policy.threshold and i + 1 < len(order):
            ratio = order[i + 1]
            timeline.append((t, ratio))
        elif profiled < DECREASE_MARGIN * policy.threshold and i > 0:
            down = order[i - 1]
            if policy.profile.lookup(rate, down) < DECREASE_MARGIN * policy.threshold:
                ratio = down
                timeline.append((t, ratio))
        t += policy.window
    return timeline


def _fifo(arrivals: list[float], cost_model: CostModel,
          timeline: list[tuple[float, float]]) -> list[float]:
    """Finish time of each request of a single-server FIFO queue.

    A request starts at the later of its arrival and the previous finish
    and is served at the ratio in force at its start; the first request
    served at a new ratio also pays ``switch_cost``.  Start times never
    decrease, so the timeline is only consulted when a start reaches the
    next switch; each ratio's service time is computed once.
    """
    finishes: list[float] = []
    service_of: dict[float, float] = {}
    k, last_ratio = 0, timeline[0][1]
    next_switch = timeline[0][0]  # 0.0: the first start looks its ratio up
    free = service = 0.0
    for a in arrivals:
        start = free if free > a else a
        if start >= next_switch:
            while k + 1 < len(timeline) and timeline[k + 1][0] <= start:
                k += 1
            next_switch = timeline[k + 1][0] if k + 1 < len(timeline) else math.inf
            ratio = timeline[k][1]
            if ratio not in service_of:
                service_of[ratio] = cost_model.service_time(ratio)
            service = service_of[ratio]
            if ratio != last_ratio:
                last_ratio = ratio
                free = start + (service + cost_model.switch_cost)
                finishes.append(free)
                continue
        free = start + service
        finishes.append(free)
    return finishes


def simulate(
    trace: ServingTrace,
    cost_model: CostModel,
    policy: ControllerPolicy | float,
    window: float | None = None,
) -> SimResult:
    """Run the FIFO queue over the trace.

    ``policy`` is either a fixed ratio (float) or a ControllerPolicy.
    Response time includes queueing delay; the service time is set by the
    ratio in force when service starts.
    """
    if isinstance(policy, ControllerPolicy):
        timeline = _ratio_timeline(trace, policy)
        window = window or policy.window
    else:
        timeline = [(0.0, float(policy))]
        window = window or max(trace.duration / 20.0, 1e-9)
    finishes = np.array(_fifo(trace.arrivals.tolist(), cost_model, timeline))
    latencies = finishes - trace.arrivals
    switch_times = [t for t, _ in timeline]
    windows = []
    n_windows = max(1, int(np.ceil(trace.duration / window)))
    # window wi holds the arrivals a with wi*window <= a < (wi+1)*window
    edges = np.searchsorted(trace.arrivals, [wi * window for wi in range(n_windows + 1)])
    for wi in range(n_windows):
        t0 = wi * window
        sel = latencies[edges[wi] : edges[wi + 1]]
        row = {
            "t": t0,
            "rate": sel.size / window,
            "ratio": timeline[bisect.bisect_right(switch_times, t0) - 1][1],
            "median": float(np.median(sel)) if sel.size else 0.0,
            "p90": float(np.percentile(sel, 90)) if sel.size else 0.0,
            "n": sel.size,
        }
        windows.append(row)
    service_min = cost_model.service_time(1.0)
    saturated = bool(
        trace.arrivals.size
        and trace.arrivals.size / max(trace.duration, 1e-12) * service_min > 1.0
    )
    return SimResult(windows, timeline, latencies, saturated, trace.arrivals, finishes)


def build_profile(
    cost_model: CostModel,
    rates,
    ratios=(0.0, 0.25, 0.5, 0.75, 1.0),
    duration: float = 20.0,
    seed: int = 1234,
) -> LatencyProfile:
    """Profiled (rate, ratio) -> median latency table via pre-simulation sweeps.

    Each cell is the median latency of a fixed-ratio FIFO run over a Poisson
    trace; no per-window statistics are computed.
    """
    rates = np.asarray(sorted(rates), dtype=np.float64)
    table = np.zeros((rates.size, len(ratios)))
    for i, rate in enumerate(rates):
        arrivals = gen_poisson(float(rate), duration, seed + i).arrivals
        if not arrivals.size:
            continue  # no request, no latency: the row stays 0
        times = arrivals.tolist()
        for j, ratio in enumerate(ratios):
            finishes = np.array(_fifo(times, cost_model, [(0.0, float(ratio))]))
            table[i, j] = float(np.median(finishes - arrivals))
    return LatencyProfile(rates, tuple(ratios), table)


def shipped_server(seed: int = 7) -> tuple[CostModel, ControllerPolicy]:
    """The reference scenario's server: 8-bit capacity 1200 req/s, and a
    controller on a latency profile swept up to 1700 req/s."""
    cost = CostModel(matmul_costs=np.array([1.0 / 1200.0]))
    profile = build_profile(cost, rates=np.arange(0.0, 1701.0, 200.0), duration=8.0, seed=seed + 1)
    return cost, ControllerPolicy(window=2.0, threshold=0.005, profile=profile)


def shipped_scenario(seed: int = 7):
    """Reference fluctuating-workload scenario used by the demo and tests.

    A 3x-peak trace (500 -> 1500 req/s) against ``shipped_server``: fixed
    8-bit overloads around the peak while the adaptive controller rides it
    out by raising the 4-bit ratio.  Returns (trace, cost_model, policy).
    """
    trace = gen_fluctuating(min_rate=500.0, duration=SHIPPED_DURATION, seed=seed,
                            peak_factor=3.0, period=SHIPPED_DURATION)
    return (trace, *shipped_server(seed))


def effective_accuracy(
    ratio_timeline: list[tuple[float, float]],
    duration: float,
    quality: dict[float, float],
) -> float:
    """Time-weighted mean quality over the ratio timeline."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    total = 0.0
    for i, (t0, ratio) in enumerate(ratio_timeline):
        t1 = ratio_timeline[i + 1][0] if i + 1 < len(ratio_timeline) else duration
        t0, t1 = max(t0, 0.0), min(t1, duration)
        if t1 > t0:
            if ratio not in quality:
                raise ValueError(f"no quality entry for ratio {ratio}; have {sorted(quality)}")
            total += (t1 - t0) * quality[ratio]
    return total / duration
