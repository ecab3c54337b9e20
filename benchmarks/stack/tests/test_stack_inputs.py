"""The generators are pure functions of the seed, and the schedules keep their promises."""

import collections

import numpy as np
import pytest

import inputs

#: blake2b-128 of seed 0's first tensor per workload.  A change here
#: changes every number the benchmark has ever reported.
SEED0_FIRST_TENSOR = {
    "weights_fixed_qp": "8602e861c65f706828c52c3637e76f90",
    "weights_bit_budget": "514cf0d9da3f32a8dcfc0f6e915c3fee",
    "cluster_kv_pages": "4d0b922dedb9b1185a192b92ff9afffe",
    "store_put_get": "f917e08d400bf680e8b556e8e9296d72",
}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_first_tensor_is_pinned_and_seeded(workload):
    first = inputs.first_tensor(0, workload)
    assert first.dtype == np.float32
    assert inputs.tensor_digest(first) == SEED0_FIRST_TENSOR[workload]
    assert inputs.tensor_digest(inputs.first_tensor(0, workload)) == SEED0_FIRST_TENSOR[workload]
    assert inputs.tensor_digest(inputs.first_tensor(1, workload)) != SEED0_FIRST_TENSOR[workload]


def test_tile_ranges_do_not_depend_on_the_seed():
    ranges = set()
    for seed in (0, 1, 2):
        tensor = inputs.weight_tensor(seed, "weights_fixed_qp", seed)
        for y0 in (0, 256):
            for x0 in (0, 256):
                tile = tensor[y0 : y0 + 256, x0 : x0 + 256]
                ranges.add((float(tile.min()), float(tile.max())))
    assert len(ranges) == 1


def test_store_schedule_mix_partition_and_skew():
    clients, ops = 2, 4000
    plans = inputs.store_schedule(7, ops, clients, generation=3)
    assert [len(plan) for plan in plans] == [ops // clients] * clients
    serials = set()
    for client, plan in enumerate(plans):
        puts = [op for op in plan if op.put]
        assert len(puts) == round(len(plan) * inputs.STORE_PUT_SHARE)  # exact, not Bernoulli
        assert all(op.slot % clients == client for op in plan)  # keys partitioned by client
        assert all(0 <= op.slot < inputs.STORE_KEYS for op in plan)
        serials.update(op.serial for op in puts)
        hits = collections.Counter(op.slot for op in plan)
        hottest = hits.most_common(1)[0][1]
        assert hottest > 20 * len(plan) / (inputs.STORE_KEYS // clients)  # Zipf, not uniform
    assert len(serials) == sum(1 for plan in plans for op in plan if op.put)
    assert inputs.store_schedule(7, ops, clients, generation=3) == plans
    assert inputs.store_schedule(8, ops, clients, generation=3) != plans
    # same draw under fresh serials: same keys and mix, other bytes
    replay = inputs.store_schedule(7, ops, clients, generation=4, stream=3)
    assert [(o.put, o.slot) for o in replay[0]] == [(o.put, o.slot) for o in plans[0]]
    assert not serials & {op.serial for plan in replay for op in plan if op.put}


def test_frames_match_the_tensor_layer():
    from repro.tensor.frames import split_tiles
    from repro.tensor.precision import grid_for

    tensor = inputs.kv_page(0, 0, 0)
    frames, values = inputs.frames_of(tensor, inputs.KV_TILE)
    tiles, _ = split_tiles(tensor, inputs.KV_TILE)
    assert values == tensor.size and len(frames) == len(tiles)
    for frame, tile in zip(frames, tiles):
        piece = tile.astype(np.float64)
        assert np.array_equal(frame, grid_for(piece).to_codes(piece))
