"""The degradation ladder sheds moving parts; it never changes the codec.

(a) Every ``DEFAULT_LADDER`` rung is the same search on a different
    backend / fan-out, so a ``TensorCodec`` built from any rung emits
    the identical container for the same request.
(b) Load does not move requests down the ladder: a shard-configured
    service saturated by closed-loop clients answers every request from
    the top rung.  Rung-based, not time-based, so a slow runner cannot
    flake it.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.cluster.router import ClusterConfig
from repro.codec.profiles import AV1_PROFILE, H264_PROFILE, H265_PROFILE
from repro.serving.ladder import DEFAULT_LADDER, DegradationLadder
from repro.serving.service import CodecService
from repro.tensor.codec import TensorCodec

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]

_PROFILES = {"h264": H264_PROFILE, "h265": H265_PROFILE, "av1": AV1_PROFILE}


def _tensor(shape, seed):
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.normal(0, 0.4, shape[1]))[None, :]
    return (rng.standard_normal(shape) * scales).astype(np.float32)


def _rung_codec(rung, profile, tile):
    return TensorCodec(
        profile=profile,
        tile=tile,
        parallel=rung.parallel,
        encode=rung.encode,
    )


class TestRungsAreByteIdentical:
    def test_ladder_is_one_search_shedding_parts(self):
        assert [
            (r.name, r.rd_search, r.parallel is not None, r.encode)
            for r in DEFAULT_LADDER
        ] == [
            ("turbo", "turbo", True, "native"),
            ("serial", "turbo", False, "native"),
            ("python", "turbo", False, "python"),
        ]
        assert not hasattr(DegradationLadder, "start_for_pressure")

    @pytest.mark.parametrize("profile", sorted(_PROFILES))
    @pytest.mark.parametrize("qp", [18.0, 24.5, 34.0])
    def test_same_container_from_every_rung(self, profile, qp):
        # One tile, a ragged tile, and four tiles (= four slices, which
        # is what the top rung's thread pool fans out).
        for shape in ((64, 64), (50, 70), (256, 256)):
            tensor = _tensor(shape, seed=shape[0] + shape[1])
            blobs = {
                rung.name: _rung_codec(rung, _PROFILES[profile], 128)
                .encode(tensor, qp=qp)
                .to_bytes()
                for rung in DEFAULT_LADDER
            }
            assert len(set(blobs.values())) == 1, (shape, sorted(blobs))

    def test_same_container_under_a_bit_budget(self):
        # The rate search sees the same sizes on every rung, so it
        # walks the same QPs and lands on the same bytes.
        tensor = _tensor((64, 64), seed=9)
        blobs = {
            rung.name: _rung_codec(rung, H265_PROFILE, 64)
            .encode(tensor, bits_per_value=3.0)
            .to_bytes()
            for rung in DEFAULT_LADDER
        }
        assert len(set(blobs.values())) == 1


class TestSaturationStaysOnTheTopRung:
    def test_closed_loop_clients_never_downshift(self):
        clients, per_client = 8, 30
        # Generous budgets: what is asserted is the rung, not the time.
        config = dataclasses.replace(
            ClusterConfig().service_config(0),
            deadline_s=120.0,
            attempt_timeout_s=60.0,
        )
        service = CodecService(config)
        assert clients > config.max_inflight  # the 4th+ request queues
        responses, counters = [], []
        lock = threading.Lock()

        def client(cid):
            with telemetry.session() as registry:
                mine = [
                    service.encode(_tensor((32, 64), seed=cid * 1000 + i))
                    for i in range(per_client)
                ]
            with lock:
                responses.extend(mine)
                counters.append(dict(registry.counters))

        threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(responses) == clients * per_client
        served = [r for r in responses if r.ok]
        assert served, [r.summary() for r in responses[:3]]
        top = DEFAULT_LADDER[0].name
        assert {r.rung for r in served} == {top}
        assert all(r.ladder_steps == 0 for r in served)
        assert all(b["state"] == "closed" for b in service.ladder.stats()["breakers"])
        seen = set().union(*counters)
        assert f"serving.rung.{top}" in seen
        assert not any("pressure" in name for name in seen), sorted(seen)
        assert not any(
            name.startswith("serving.rung.") and name != f"serving.rung.{top}"
            for name in seen
        )
