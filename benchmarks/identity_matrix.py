"""Stream identity matrix: did a codec change move any bytes or samples?

Every stage of the encoder is order-defined (no BLAS call is on its
path), so a stream is the same bytes on every machine, and four are
pinned as golden vectors (``tests/test_golden_encode.py``).  This
matrix is the wide check: an encoder change is checked by hashing
streams at the parent commit and at the change -- and a decoder change
by hashing what those streams decode to::

    PYTHONPATH=<parent>/src python benchmarks/identity_matrix.py --write parent.json
    PYTHONPATH=src          python benchmarks/identity_matrix.py --against parent.json

Two sets of inputs, each coded by production with ``encode="native"``
and with ``encode="python"``:

* ``matrix`` -- 3 profiles x QP {18, 24.5, 26, 34} x {64x64, 50x70,
  33x17}, three frames each: 36 intra configs.
* ``stack``  -- what the stack benchmark feeds the program at seed 0:
  64 KV pages per client through the service's tile / QP, one
  ``weights_fixed_qp`` tensor (pooled and serial) and two
  ``weights_bit_budget`` containers.  ``benchmarks/stack/inputs.py``
  and ``layers.py`` are imported read-only.

and one more table, ``reference``: the matrix's frames as 36 inter
configs through :class:`repro.codec.reference.ReferenceEncoder` (the
exact search; production refuses inter), which has no backend axis.
The codec tests take the matrix's ``PROFILES`` / ``QPS`` / ``SHAPES``
from here; importing this module loads nothing from
``benchmarks/stack``.

Every config records ``sha256`` + length of the bytes, ``repr`` of the
MSE, and the ``sha256`` of what the production decoder returns for
those bytes, serial (``decoded``) and fanned out with the service's
``ParallelConfig`` (``decoded_pooled``).  ``--against`` prints the
``moved / N`` table CHANGES.md quotes -- streams and decodes counted
apart, the ``reference`` table on its own row -- lists each moved
config with its length delta, says whether ``native`` == ``python``
held here (for decode too: the same bytes must
decode to the same samples whichever backend coded them) and whether
the pooled decode returned the serial one's samples, and exits 2 on any
move or any disagreement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.codec.decoder import decode_frames
from repro.codec.encoder import ENCODES, EncoderConfig, FrameEncoder
from repro.codec.profiles import AV1_PROFILE, H264_PROFILE, H265_PROFILE
from repro.codec.reference import ReferenceEncoder

PROFILES = (H264_PROFILE, H265_PROFILE, AV1_PROFILE)
QPS = (18.0, 24.5, 26.0, 34.0)  # 24.5 dithers two QPs into every slice
SHAPES = ((64, 64), (50, 70), (33, 17))
FRAMES = 3
STACK_SEED = 0
KV_PAGES = 64


def _stack_modules():
    """``benchmarks/stack``'s ``inputs`` and ``layers`` (read-only), on first use."""
    stack = str(Path(__file__).resolve().parent / "stack")
    if stack not in sys.path:
        sys.path.insert(0, stack)
    import inputs
    import layers

    return inputs, layers


def _matrix_frames(shape: Tuple[int, int]) -> List[np.ndarray]:
    """Gradient + noise; later frames are a shifted, re-noised first frame
    so the inter configs have motion to find."""
    height, width = shape
    rng = np.random.default_rng([height, width])
    base = (
        np.linspace(30, 220, width)[None, :]
        + np.linspace(-40, 40, height)[:, None]
        + rng.normal(0, 22, shape)
    )
    return [
        np.clip(np.roll(base, (k, 2 * k), (0, 1)) + rng.normal(0, 3 * k, shape), 0, 255)
        .astype(np.uint8)
        for k in range(FRAMES)
    ]


DECODE_FIELDS = ("decoded", "decoded_pooled")


def _samples_hash(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _record(data: bytes, mse: float, serial, pooled) -> Dict[str, object]:
    """``serial`` / ``pooled``: the arrays those two decodes of ``data`` returned."""
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "mse": repr(mse),
        "decoded": _samples_hash(serial),
        "decoded_pooled": _samples_hash(pooled),
    }


def _matrix_configs(
    encoder, use_inter: bool, **fields
) -> Iterator[Tuple[str, Dict[str, object]]]:
    pool = _stack_modules()[1].production_fields()["parallel"]
    for profile in PROFILES:
        for qp in QPS:
            for shape in SHAPES:
                result = encoder(
                    EncoderConfig(profile=profile, qp=qp, use_inter=use_inter, **fields)
                ).encode(_matrix_frames(shape))
                name = (
                    f"{profile.name} qp{qp:g} {shape[0]}x{shape[1]} "
                    f"{'inter' if use_inter else 'intra'}"
                )
                yield name, _record(
                    result.data,
                    result.mse,
                    decode_frames(result.data),
                    decode_frames(result.data, parallel=pool),
                )


def _matrix(encode: str) -> Iterator[Tuple[str, Dict[str, object]]]:
    return _matrix_configs(FrameEncoder, False, encode=encode)


def _stack(encode: str) -> Iterator[Tuple[str, Dict[str, object]]]:
    inputs, layers = _stack_modules()

    @lru_cache(maxsize=None)
    def production(tile, serial=False):
        """The codec the service's top rung builds, with the backend pinned."""
        codec = layers.production_codec(tile, serial=serial)
        codec.encode_mode = encode
        return codec

    def coded(codec, tensor, **targets):
        compressed = codec.encode(tensor, **targets)
        serial, pooled = (
            production(codec.tile, serial=flag).decode(compressed) for flag in (True, False)
        )
        delta = serial.astype(np.float64) - tensor
        return _record(
            compressed.to_bytes(), float(np.mean(delta * delta)), [serial], [pooled]
        )

    service = layers.service_targets()
    pages = production(int(service["tile"]))
    for client in range(2):
        for index in range(KV_PAGES):
            page = inputs.kv_page(STACK_SEED, client, index)
            yield f"kv c{client} #{index}", coded(pages, page, qp=float(service["qp"]))
    pooled = production(inputs.WEIGHT_TILE)
    serial = production(inputs.WEIGHT_TILE, serial=True)
    tensor = inputs.weight_tensor(STACK_SEED, "weights_fixed_qp", 0)
    yield "weights_fixed_qp #0 pooled", coded(pooled, tensor, qp=18.0)
    yield "weights_fixed_qp #0 serial", coded(serial, tensor, qp=18.0)
    for index in range(2):
        tensor = inputs.weight_tensor(STACK_SEED, "weights_bit_budget", index)
        yield f"weights_bit_budget #{index}", coded(pooled, tensor, bits_per_value=3.0)


SETS = {"matrix": _matrix, "stack": _stack}
REFERENCE = "reference"


def take() -> Dict[str, Dict[str, Dict[str, object]]]:
    """``{"<set>/<encode>": {config: record}, "reference": {config: record}}``
    for this source tree."""
    tables = {
        f"{set_name}/{encode}": dict(build(encode))
        for set_name, build in SETS.items()
        for encode in ENCODES
    }
    tables[REFERENCE] = dict(_matrix_configs(ReferenceEncoder, True))
    return tables


def _backends_agree(table) -> bool:
    return all(
        table[f"{set_name}/native"] == table[f"{set_name}/python"] for set_name in SETS
    )


def _fan_out_agrees(table) -> bool:
    return all(
        record["decoded"] == record["decoded_pooled"]
        for records in table.values()
        for record in records.values()
    )


def compare(parent, here) -> int:
    """Print the moved / N table; the number of moved streams plus moved decodes."""
    moved_total = 0
    print(
        f"{'variant':<16}{'streams moved':>15}{'decodes moved':>15}"
        f"{'parent bytes':>15}{'bytes here':>13}"
    )
    for variant, records in here.items():
        before = parent.get(variant, {})
        streams, decodes = [], []
        for name, record in records.items():
            was = before.get(name, {})
            differs = {key for key in record if record[key] != was.get(key)}
            if differs - set(DECODE_FIELDS):
                streams.append(name)
            if differs & set(DECODE_FIELDS):
                decodes.append(name)
        moved_total += len(streams) + len(decodes) + len(before.keys() - records.keys())
        print(
            f"{variant:<16}{f'{len(streams)} / {len(records)}':>15}"
            f"{f'{len(decodes)} / {len(records)}':>15}"
            f"{sum(r['bytes'] for r in before.values()):>15}"
            f"{sum(r['bytes'] for r in records.values()):>13}"
        )
        for name in streams:
            was = before.get(name)
            delta = "absent at the parent" if was is None else (
                f"{records[name]['bytes'] - was['bytes']:+d} bytes, "
                f"mse {was['mse']} -> {records[name]['mse']}"
            )
            print(f"    moved: {name} ({delta})")
        for name in decodes:
            if name not in streams:
                print(f"    moved: {name} (same stream, different samples)")
    return moved_total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="record this tree's hashes")
    mode.add_argument("--against", metavar="FILE", help="compare with recorded hashes")
    args = parser.parse_args(argv)

    here = take()
    agree = _backends_agree(here)
    if args.write:
        Path(args.write).write_text(json.dumps(here, indent=1, sort_keys=True) + "\n")
        moved = 0
    else:
        moved = compare(json.loads(Path(args.against).read_text()), here)
    pooled = _fan_out_agrees(here)
    print(f"native == python on every config here: {'yes' if agree else 'NO'}")
    print(f"serial decode == pooled decode on every config here: {'yes' if pooled else 'NO'}")
    return 0 if agree and pooled and not moved else 2


if __name__ == "__main__":
    sys.exit(main())
