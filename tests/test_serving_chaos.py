"""The soak's timing and payload families: the injector's hang mode,
the timing fault gate, payload-region damage, and the shared soak's
report showing both families engaged and survived."""

import numpy as np
import pytest

import repro.cluster.chaos as chaos
import repro.telemetry as telemetry
from repro.cluster.chaos import damage_payload, fault_gate, format_report
from repro.resilience.faults import FaultConfig, FaultInjector


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
        # Payload damage and a soak's own kills name no kind.
        with telemetry.session() as registry:
            injector = FaultInjector(
                seed=2, config=FaultConfig(bit_flip_prob=1.0, truncate_prob=1.0)
            )
            assert damage_payload(b"header" + bytes(64), 6, injector)[1]
            injector.config.bit_flip_prob = 0.0
            assert damage_payload(b"header" + bytes(64), 6, injector)[1]
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
    def test_small_soak_meets_the_contract(self, chaos_report):
        invariant = chaos_report["invariant"]
        assert invariant["passed"], invariant["violations"]
        assert invariant["contract"] == {
            "silent_corruptions": 0, "untyped_errors": 0}
        availability = invariant["availability"]
        assert availability["undamaged"] >= availability["undamaged_floor"]
        assert availability["all"] >= availability["all_floor"]
        requests = chaos_report["config"]["requests"]
        assert chaos_report["slo"]["requests"] == requests
        checked = chaos_report["checked"]
        assert sum(checked[kind] for kind in (
            "encode", "decode", "put", "get")) == requests

    def test_faults_are_actually_injected_and_survived(self, chaos_report):
        faults = chaos_report["faults_injected"]
        assert faults["timing"] > 0
        assert faults["payload"] > 0
        assert chaos_report["checked"]["damaged"] == faults["payload"]
        # Damaged decodes surface as explicit degradation, never silence.
        assert chaos_report["slo"]["outcomes"]["degraded"] > 0
        assert chaos_report["invariant"]["passed"]

    def test_soak_is_deterministic_without_timing_faults(self, monkeypatch):
        # With no per-request hangs or stragglers and no shard kills, the
        # answers themselves repeat, not only the seeded stream.
        monkeypatch.setattr(chaos, "TIMING_FAULTS", dict(
            hang_prob=0.0, hang_s=0.0, straggler_prob=0.0,
            straggler_delay_s=0.0,
        ))

        def run():
            return chaos.run_chaos(
                chaos.ChaosConfig(requests=120, seed=4, kills=0)
            )

        first, second = run(), run()
        assert first["faults_injected"]["timing"] == 0
        assert second["faults_injected"]["timing"] == 0
        assert first["slo"]["outcomes"] == second["slo"]["outcomes"]
        assert first["faults_injected"]["payload"] == (
            second["faults_injected"]["payload"])
        assert first["checked"] == second["checked"]
        assert first["invariant"]["passed"], first["invariant"]["violations"]

    def test_format_report_carries_the_verdict(self, chaos_report):
        text = format_report(chaos_report)
        assert "invariant: " in text and "PASS" in text
        assert "availability: undamaged " in text
