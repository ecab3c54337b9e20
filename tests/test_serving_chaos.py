"""Concealment-soak tests: the injector's hang mode, the timing fault
gate, payload-region damage and the soak invariant."""

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.harness import damage_payload, fault_gate
from repro.resilience.faults import FaultConfig, FaultInjector
from repro.serving.chaos import ChaosConfig, format_report, run_chaos


class TestFaultModes:
    def test_hang_mode_is_seeded_and_bounded(self):
        def draws(seed):
            injector = FaultInjector(
                seed=seed, config=FaultConfig(hang_prob=1.0, hang_s=0.2)
            )
            return [injector.worker_hang_s() for _ in range(50)]

        assert draws(5) == draws(5)
        assert draws(5) != draws(6)
        assert all(0.1 <= s <= 0.3 for s in draws(5))  # hang_s * [0.5, 1.5)

    def test_modes_off_by_default(self):
        injector = FaultInjector(seed=0)
        assert injector.worker_hang_s() == 0.0
        assert injector.straggler_delay() == 0.0
        assert injector.injected == 0

    def test_mode_counters(self):
        with telemetry.session() as registry:
            injector = FaultInjector(
                seed=1, config=FaultConfig(hang_prob=1.0, straggler_prob=1.0)
            )
            assert injector.worker_hang_s() > 0.0
            assert injector.straggler_delay() > 0.0
            counters = dict(registry.counters)
        assert counters["faults.hangs"] == 1
        assert counters["faults.stragglers"] == 1
        assert counters["faults.injected"] == 2
        assert injector.injected == 2

    def test_unread_kinds_count_only_as_injected(self):
        # Link damage, worker crashes and a soak's own kills name no kind.
        with telemetry.session() as registry:
            injector = FaultInjector(
                seed=2, config=FaultConfig(drop_prob=1.0, crash_prob=1.0)
            )
            assert injector.corrupt(b"payload") is None
            assert injector.worker_crashes(step=0, worker=0)
            injector.record()
            counters = dict(registry.counters)
        assert counters == {"faults.injected": 3}
        assert injector.injected == 3

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(config=FaultConfig(hang_prob=1.5))
        with pytest.raises(ValueError):
            FaultInjector(config=FaultConfig(straggler_prob=-0.1))


class TestFaultGate:
    def test_hang_sleeps_for_the_drawn_duration(self):
        sleeps = []
        injector = FaultInjector(
            seed=3, config=FaultConfig(hang_prob=1.0, hang_s=0.2)
        )
        gate = fault_gate(injector, sleep=sleeps.append)
        gate("encode")
        assert len(sleeps) == 1
        assert 0.1 <= sleeps[0] <= 0.3

    def test_healthy_gate_is_a_no_op(self):
        gate = fault_gate(FaultInjector(seed=0))
        gate("encode")  # no exception, no sleep


class TestDamagePayload:
    def _injector(self, **cfg):
        return FaultInjector(seed=4, config=FaultConfig(**cfg))

    def test_damage_never_touches_the_protected_prefix(self):
        blob = bytes(range(256)) * 4
        injector = self._injector(bit_flip_prob=1.0)
        for _ in range(20):
            damaged, changed = damage_payload(blob, 100, injector)
            assert changed
            assert damaged[:100] == blob[:100]
            assert damaged[100:] != blob[100:]

    def test_truncation_keeps_the_prefix_whole(self):
        blob = bytes(1000)
        injector = self._injector(truncate_prob=1.0)
        damaged, changed = damage_payload(blob, 64, injector)
        assert changed
        assert len(damaged) < len(blob)
        assert damaged[:64] == blob[:64]

    def test_no_faults_no_change(self):
        blob = bytes(200)
        damaged, changed = damage_payload(blob, 50, self._injector())
        assert damaged == blob and not changed


class TestChaosSoak:
    def test_small_soak_meets_the_contract(self):
        report = run_chaos(ChaosConfig(requests=80, seed=2))
        invariant = report["invariant"]
        assert invariant["passed"]
        assert invariant["silent_corruptions"] == 0
        assert invariant["untyped_errors"] == 0
        assert invariant["availability"] >= report["config"]["availability_slo"]
        assert report["slo"]["requests"] == 80
        checked = report["checked"]
        assert checked["encode"] + checked["decode"] == 80

    def test_faults_are_actually_injected_and_survived(self):
        report = run_chaos(ChaosConfig(requests=120, seed=0))
        assert report["faults_injected"]["worker"] > 0
        assert report["faults_injected"]["bytes"] > 0
        assert report["checked"]["damaged"] > 0
        # Damaged decodes surface as explicit degradation, never silence.
        assert report["slo"]["outcomes"]["degraded"] > 0
        assert report["invariant"]["passed"]

    def test_soak_is_deterministic_without_timing_faults(self):
        def run():
            return run_chaos(
                ChaosConfig(
                    requests=50, seed=4, hang_prob=0.0, straggler_prob=0.0
                )
            )

        first, second = run(), run()
        assert first["slo"]["outcomes"] == second["slo"]["outcomes"]
        assert first["faults_injected"] == second["faults_injected"]
        assert first["checked"] == second["checked"]

    def test_format_report_carries_the_verdict(self):
        report = run_chaos(ChaosConfig(requests=20, seed=1))
        text = format_report(report)
        assert "PASS" in text or "FAIL" in text
        assert "availability" in text
