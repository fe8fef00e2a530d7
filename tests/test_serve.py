import bisect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixq import serve
from mixq.serve import (
    ControllerPolicy,
    CostModel,
    LatencyProfile,
    ServingTrace,
    build_profile,
    effective_accuracy,
    gen_fluctuating,
    gen_poisson,
    simulate,
)


def test_service_time_speedup_endpoints():
    cost = CostModel(matmul_costs=np.array([1.0, 2.0]), speedup=1.43)
    assert cost.service_time(0.0) == pytest.approx(3.0)
    assert cost.service_time(1.0) == pytest.approx(3.0 / 1.43)
    # linear in between
    mid = cost.service_time(0.5)
    assert mid == pytest.approx(0.5 * (cost.service_time(0.0) + cost.service_time(1.0)))
    with pytest.raises(ValueError):
        cost.service_time(1.5)


def test_service_time_overheads():
    cost = CostModel(matmul_costs=np.array([1.0]), float_cost=0.5,
                     reorder_costs=np.array([0.03]), dynamic_overhead=0.1)
    assert cost.service_time(0.0) == pytest.approx(1.0 * 1.1 + 0.5 + 0.03)


def test_poisson_count_within_4_sigma():
    rate, duration = 200.0, 50.0
    trace = gen_poisson(rate, duration, seed=0)
    mean = rate * duration
    assert abs(trace.arrivals.size - mean) < 4.0 * np.sqrt(mean)
    assert np.all(np.diff(trace.arrivals) >= 0)
    assert trace.arrivals.min() >= 0 and trace.arrivals.max() <= duration


def test_poisson_interarrival_mean():
    trace = gen_poisson(500.0, 40.0, seed=1)
    gaps = np.diff(trace.arrivals)
    assert gaps.mean() == pytest.approx(1.0 / 500.0, rel=0.05)


def test_fluctuating_peak_is_three_times_min():
    trace = gen_fluctuating(100.0, 60.0, seed=2, peak_factor=3.0, period=60.0)
    rates = np.array([r for _, r in trace.intervals])
    assert rates.min() == pytest.approx(100.0)
    assert rates.max() == pytest.approx(300.0, rel=0.01)
    # raised cosine: peak mid-trace
    assert abs(np.argmax(rates) - len(rates) // 2) <= 1


def test_simulate_fifo_conservation():
    trace = gen_poisson(100.0, 5.0, seed=3)
    cost = CostModel(matmul_costs=np.array([0.001]))
    res = simulate(trace, cost, 0.0)
    assert res.completed() == trace.arrivals.size
    starts = np.array([s for _, s, _, _ in res.requests])
    finishes = np.array([f for _, _, f, _ in res.requests])
    assert np.all(np.diff(starts) >= 0)  # FIFO
    assert np.all(finishes - starts >= cost.service_time(0.0) - 1e-12)
    assert np.all(res.latencies >= cost.service_time(0.0) - 1e-12)


def test_stable_queue_latency_near_service_time():
    trace = gen_poisson(10.0, 20.0, seed=4)  # utilization 1%
    cost = CostModel(matmul_costs=np.array([0.001]))
    res = simulate(trace, cost, 0.0)
    assert float(np.median(res.latencies)) == pytest.approx(0.001, rel=0.2)


def test_overloaded_queue_flagged_and_grows():
    trace = gen_poisson(2000.0, 10.0, seed=5)
    cost = CostModel(matmul_costs=np.array([0.001]))  # overloaded even at full 4-bit
    res = simulate(trace, cost, 0.0)
    assert res.saturated
    # latency of late arrivals dwarfs that of early ones
    assert res.latencies[-1] > 100 * res.latencies[0]


def test_latency_monotone_in_rate_via_profile():
    cost = CostModel(matmul_costs=np.array([0.001]))
    profile = build_profile(cost, rates=[100.0, 500.0, 900.0], duration=10.0, seed=6)
    col = profile.latency[:, 0]
    assert np.all(np.diff(col) > 0)
    # and monotone decreasing in ratio at high load
    row = profile.latency[-1, :]
    assert row[-1] < row[0]


def test_profile_interpolation():
    prof = LatencyProfile(np.array([0.0, 100.0]), (0.0,), np.array([[1.0], [3.0]]))
    assert prof.lookup(50.0, 0.0) == pytest.approx(2.0)


def test_controller_raises_and_lowers_ratio():
    # synthetic profile: latency high above 100 req/s at ratio 0, low otherwise
    rates = np.array([0.0, 100.0, 200.0])
    table = np.array([[0.001, 0.0001], [0.02, 0.0001], [0.02, 0.0001]])
    prof = LatencyProfile(rates, (0.0, 1.0), table)
    policy = ControllerPolicy(window=1.0, threshold=0.01, profile=prof,
                              ratios=(0.0, 1.0))
    # 3 s busy then 3 s idle
    busy = np.sort(np.random.default_rng(7).uniform(0, 3, 600))
    trace = ServingTrace(np.concatenate([busy, np.array([5.9])]), 6.0)
    timeline = serve._ratio_timeline(trace, policy)
    ratios = dict(timeline)
    assert timeline[0] == (0.0, 0.0)
    assert 1.0 in ratios.values()  # stepped up under load
    assert timeline[-1][1] == 0.0  # stepped back down once idle


def test_controller_steps_one_level_per_window():
    rates = np.array([0.0, 1000.0])
    table = np.tile(np.array([[1.0, 1.0, 1.0, 1.0, 1.0]]), (2, 1))  # always over
    prof = LatencyProfile(rates, (0.0, 0.25, 0.5, 0.75, 1.0), table)
    policy = ControllerPolicy(window=1.0, threshold=0.01, profile=prof)
    trace = ServingTrace(np.linspace(0, 9.99, 1000), 10.0)
    timeline = serve._ratio_timeline(trace, policy)
    steps = [r for _, r in timeline]
    assert steps[:5] == [0.0, 0.25, 0.5, 0.75, 1.0]  # one 25% step per window


def test_effective_accuracy_time_weighted():
    quality = {0.0: 1.0, 0.5: 0.8, 1.0: 0.6}
    timeline = [(0.0, 0.0), (5.0, 1.0), (7.5, 0.5)]
    want = (5.0 * 1.0 + 2.5 * 0.6 + 2.5 * 0.8) / 10.0
    assert effective_accuracy(timeline, 10.0, quality) == pytest.approx(want)
    with pytest.raises(ValueError):
        effective_accuracy(timeline, 0.0, quality)


def test_simulation_deterministic_given_seed():
    trace1 = gen_fluctuating(100.0, 20.0, seed=9)
    trace2 = gen_fluctuating(100.0, 20.0, seed=9)
    assert np.array_equal(trace1.arrivals, trace2.arrivals)
    cost = CostModel(matmul_costs=np.array([0.002]))
    r1 = simulate(trace1, cost, 0.5)
    r2 = simulate(trace2, cost, 0.5)
    assert np.array_equal(r1.latencies, r2.latencies)


# ---------------------------------------------------------------------------
# simulate against the former O(windows x requests) implementation


def reference_simulate(trace, cost_model, policy, window=None):
    """simulate as first written: a bisect and a service_time per request,
    and a scan of every request for every window."""
    if isinstance(policy, ControllerPolicy):
        timeline = serve._ratio_timeline(trace, policy)
        window = window or policy.window
    else:
        timeline = [(0.0, float(policy))]
        window = window or max(trace.duration / 20.0, 1e-9)
    switch_times = [t for t, _ in timeline]

    def ratio_at(t):
        return timeline[bisect.bisect_right(switch_times, t) - 1][1]

    free = 0.0
    requests = []
    last_ratio = timeline[0][1]
    for a in trace.arrivals:
        start = max(float(a), free)
        ratio = ratio_at(start)
        service = cost_model.service_time(ratio)
        if ratio != last_ratio:
            service += cost_model.switch_cost
            last_ratio = ratio
        finish = start + service
        free = finish
        requests.append((float(a), start, finish, ratio))

    latencies = np.array([f - a for a, _, f, _ in requests])
    windows = []
    n_windows = max(1, int(np.ceil(trace.duration / window)))
    for wi in range(n_windows):
        t0, t1 = wi * window, (wi + 1) * window
        sel = [lat for (a, _, f, _), lat in zip(requests, latencies) if t0 <= a < t1]
        windows.append({
            "t": t0,
            "rate": len(sel) / window,
            "ratio": ratio_at(t0),
            "median": float(np.median(sel)) if sel else 0.0,
            "p90": float(np.percentile(sel, 90)) if sel else 0.0,
            "n": len(sel),
        })
    return windows, timeline, latencies, requests


@st.composite
def serving_cases(draw):
    window = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.5]))
    n_windows = draw(st.integers(1, 8))
    duration = window * n_windows - draw(st.sampled_from([0.0, window / 3]))
    # arrivals on window edges, anywhere in the trace, or in bursts; some
    # windows stay empty and the trace may hold no arrival at all
    on_edge = st.integers(0, n_windows).map(lambda k: k * window)
    anywhere = st.floats(0.0, duration, allow_nan=False)
    arrivals = sorted(draw(st.lists(st.one_of(on_edge, anywhere), max_size=60)))
    trace = ServingTrace(np.array(arrivals, dtype=np.float64), duration)
    cost = CostModel(
        matmul_costs=np.array([draw(st.sampled_from([0.01, 0.05, 0.2, 1.0 / 3.0]))]),
        switch_cost=draw(st.sampled_from([0.0, 0.0125, 0.1])),
    )
    if draw(st.booleans()):
        return trace, cost, draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])), \
            draw(st.sampled_from([None, window]))
    ratios = (0.0, 0.25, 0.5, 0.75, 1.0)
    rates = np.array([0.0, 5.0, 20.0])
    table = np.array(draw(st.lists(st.lists(st.sampled_from([0.001, 0.01, 0.05, 0.5]),
                                            min_size=5, max_size=5), min_size=3, max_size=3)))
    profile = LatencyProfile(rates, ratios, table)
    policy = ControllerPolicy(window=window, threshold=draw(st.sampled_from([0.005, 0.02, 0.1])),
                              profile=profile, initial_ratio=draw(st.sampled_from(ratios)))
    return trace, cost, policy, None


@settings(max_examples=200, deadline=None)
@given(serving_cases())
def test_simulate_equals_reference(case):
    trace, cost, policy, window = case
    res = simulate(trace, cost, policy, window=window)
    windows, timeline, latencies, requests = reference_simulate(trace, cost, policy, window)
    assert res.windows == windows
    assert [type(v) for w in res.windows for v in w.values()] == \
        [type(v) for w in windows for v in w.values()]
    assert res.ratio_timeline == timeline
    assert res.latencies.dtype == latencies.dtype
    assert res.latencies.tolist() == latencies.tolist()
    assert res.requests == requests


def test_simulate_equals_reference_on_a_long_switching_trace():
    # 2,000 arrivals whose rate swings across the profile, so the
    # controller switches often and each switch costs service time
    rng = np.random.default_rng(11)
    gaps = rng.exponential(1.0 / np.repeat([20.0, 300.0, 40.0, 300.0, 20.0], [200, 600, 200, 800, 200]))
    arrivals = np.cumsum(gaps)
    trace = ServingTrace(arrivals, float(np.ceil(arrivals[-1])) + 0.5)
    cost = CostModel(matmul_costs=np.array([0.004]), switch_cost=0.0015)
    profile = build_profile(cost, rates=[0.0, 100.0, 200.0, 300.0], duration=5.0, seed=12)
    policy = ControllerPolicy(window=0.5, threshold=0.008, profile=profile)
    res = simulate(trace, cost, policy)
    windows, timeline, latencies, requests = reference_simulate(trace, cost, policy)
    assert len(timeline) > 15
    assert len({r for *_, r in requests}) == 5
    assert res.windows == windows
    assert res.ratio_timeline == timeline
    assert res.latencies.tolist() == latencies.tolist()
    assert res.requests == requests
    assert res.completed() == 2000


def reference_build_profile(cost_model, rates, ratios=(0.0, 0.25, 0.5, 0.75, 1.0),
                            duration=20.0, seed=1234):
    """build_profile as the median of each fixed-ratio simulate run."""
    rates = np.asarray(sorted(rates), dtype=np.float64)
    table = np.zeros((rates.size, len(ratios)))
    for i, rate in enumerate(rates):
        trace = gen_poisson(float(rate), duration, seed + i)
        for j, ratio in enumerate(ratios):
            res = simulate(trace, cost_model, float(ratio))
            table[i, j] = float(np.median(res.latencies)) if res.latencies.size else 0.0
    return LatencyProfile(rates, tuple(ratios), table)


@pytest.mark.parametrize("switch_cost", [0.0, 0.0005])
def test_build_profile_equals_median_of_simulate(switch_cost):
    # 0 req/s has no arrival; 1,500 req/s is above capacity at every ratio
    cost = CostModel(matmul_costs=np.array([0.001]), switch_cost=switch_cost)
    rates = [900.0, 0.0, 300.0, 1500.0]
    got = build_profile(cost, rates, duration=4.0, seed=21)
    want = reference_build_profile(cost, rates, duration=4.0, seed=21)
    assert got.rates.tolist() == want.rates.tolist()
    assert got.ratios == want.ratios
    assert got.latency.tolist() == want.latency.tolist()
    assert got.latency[0].tolist() == [0.0] * 5
    assert got.latency[-1, -1] > 10 * got.latency[1, -1]  # the queue grows


def test_simulate_peak_memory_on_the_shipped_scenario():
    # the simulation once kept an (arrival, start, finish, ratio) tuple per
    # request: a 20.1-MB peak over these 120K requests
    trace, cost, policy = serve.shipped_scenario(7)
    tracemalloc.start()
    try:
        res = simulate(trace, cost, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.completed() == trace.arrivals.size > 100_000
    assert peak < 10e6


def test_simulate_counts_edge_arrivals_in_the_later_window():
    trace = ServingTrace(np.array([0.0, 1.0, 1.0, 2.5]), 3.0)
    res = simulate(trace, CostModel(matmul_costs=np.array([0.01])), 0.0, window=1.0)
    assert [w["n"] for w in res.windows] == [1, 2, 1]


@pytest.mark.parametrize("arrivals", [[-0.5, 1.0], [0.5, np.nan], [0.5, np.inf]])
def test_trace_rejects_negative_or_non_finite_arrivals(arrivals):
    with pytest.raises(ValueError, match="finite and non-negative"):
        ServingTrace(np.array(arrivals), 2.0)


def test_profile_lookup_matches_ratio_by_key():
    prof = LatencyProfile(np.array([0.0, 100.0]), (0.0, 0.1 + 0.2), np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert prof.lookup(50.0, 0.3) == pytest.approx(3.0)
    with pytest.raises(ValueError, match=r"ratio 0\.6 not profiled.*\[0\.0, 0\.30"):
        prof.lookup(50.0, 0.6)


def test_effective_accuracy_names_a_ratio_without_quality():
    with pytest.raises(ValueError, match=r"no quality entry for ratio 0\.75") as e:
        effective_accuracy([(0.0, 0.0), (5.0, 0.75)], 10.0, {0.0: 1.0, 0.5: 0.8})
    assert not isinstance(e.value, KeyError)
    # a ratio that is never in force inside [0, duration) needs no entry
    assert effective_accuracy([(0.0, 0.0), (12.0, 0.75)], 10.0, {0.0: 1.0}) == 1.0
