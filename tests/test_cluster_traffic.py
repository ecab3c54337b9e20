"""Open-loop traffic generation: determinism, arrival shape, sessions."""

import time

from repro.cluster.traffic import (
    Arrival,
    OpenLoopDriver,
    TrafficConfig,
    generate_arrivals,
)


class TestGeneration:
    def test_deterministic_under_seed(self):
        first = generate_arrivals(TrafficConfig(requests=300, seed=3))
        second = generate_arrivals(TrafficConfig(requests=300, seed=3))
        assert first == second

    def test_seed_changes_the_workload(self):
        first = generate_arrivals(TrafficConfig(requests=300, seed=3))
        second = generate_arrivals(TrafficConfig(requests=300, seed=4))
        assert first != second

    def test_arrival_times_nondecreasing(self):
        arrivals = generate_arrivals(TrafficConfig(requests=500, seed=0))
        times = [a.at_s for a in arrivals]
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_mean_rate_near_base_rate(self):
        cfg = TrafficConfig(
            requests=2000, base_rate_rps=200.0, seed=1,
            burst_factor=1.0, diurnal_amplitude=0.0,
        )
        arrivals = generate_arrivals(cfg)
        achieved = len(arrivals) / arrivals[-1].at_s
        # Unmodulated Poisson: the empirical rate concentrates around
        # the configured one (loose 2x band; the draw is seeded).
        assert cfg.base_rate_rps / 2 < achieved < cfg.base_rate_rps * 2

    def test_sides_drawn_from_the_configured_mix(self):
        cfg = TrafficConfig(requests=400, seed=2)
        allowed = {side for side, _ in cfg.sizes}
        for arrival in generate_arrivals(cfg):
            assert arrival.side in allowed
            assert 0 <= arrival.session < cfg.sessions

    def test_side_is_stable_per_tensor_id(self):
        arrivals = generate_arrivals(TrafficConfig(requests=800, seed=5))
        seen = {}
        for arrival in arrivals:
            assert seen.setdefault(arrival.tensor_id, arrival.side) == (
                arrival.side
            )

    def test_full_stickiness_bounds_the_working_set(self):
        cfg = TrafficConfig(
            requests=600, seed=6, sessions=4, session_stickiness=1.0
        )
        arrivals = generate_arrivals(cfg)
        # With stickiness 1.0 each session mints exactly one id and
        # reuses it forever.
        assert len({a.tensor_id for a in arrivals}) <= cfg.sessions

    def test_decode_fraction_extremes(self):
        all_decode = generate_arrivals(
            TrafficConfig(requests=100, seed=0, decode_fraction=1.0)
        )
        assert all(a.kind == "decode" for a in all_decode)
        all_encode = generate_arrivals(
            TrafficConfig(requests=100, seed=0, decode_fraction=0.0)
        )
        assert all(a.kind == "encode" for a in all_encode)


class TestOpenLoopDriver:
    def test_results_in_arrival_order(self):
        arrivals = [
            Arrival(at_s=0.00001 * i, index=i, session=0,
                    tensor_id=f"t{i}", side=16, kind="encode")
            for i in range(32)
        ]
        driver = OpenLoopDriver(lambda a: a.index, client_threads=8)
        assert driver.run(arrivals) == list(range(32))

    def test_issue_times_follow_the_schedule(self):
        arrivals = [
            Arrival(at_s=0.05 * i, index=i, session=0,
                    tensor_id=f"t{i}", side=16, kind="encode")
            for i in range(4)
        ]
        issued = []
        start = time.perf_counter()
        OpenLoopDriver(
            lambda a: issued.append(time.perf_counter() - start),
            client_threads=4,
        ).run(arrivals)
        # Open-loop property: nothing fires before its scheduled time.
        for arrival, at in zip(arrivals, sorted(issued)):
            assert at >= arrival.at_s - 1e-3
