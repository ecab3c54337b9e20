"""Command-line interface: ``llm265``.

Subcommands:

- ``compress``   -- .npy tensor -> .lv265 compressed blob
- ``decompress`` -- .lv265 blob -> .npy tensor
- ``info``       -- inspect a compressed blob
- ``profile``    -- the Section 3.1 statistics of a tensor
- ``sweep``      -- rate-distortion curve of a tensor
- ``stats``      -- compress a tensor with telemetry on and print the
  full per-stage dissection (wall time, bits per syntax element class,
  rate-control convergence)
- ``verify``     -- integrity-check a container / stream / checkpoint
  via its CRC32 framing, or a shard-store directory (its
  ``journal.log``); exit 0 clean, 2 corrupt, 3 torn journal tail only.
  ``--deep`` also runs a strict decode / full payload CRC re-read
- ``chaos``      -- seeded chaos soak of a durable cluster with every
  fault family at once (request hangs and stragglers, damaged decode
  payloads, mid-write shard kills and hangs, disk rot under a running
  scrubber); exit 2 on any silent corruption, untyped error, lost or
  corrupted acknowledged write, unhealed replication, short kill count
  or availability below a floor, printing the flight-recorder
  postmortem bundle path on the way out

A global ``--trace out.json`` flag (before the subcommand) records a
Chrome trace-event file of the run for ``chrome://tracing`` /
https://ui.perfetto.dev.

Install with ``pip install -e .`` and run ``llm265 --help``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

import repro.telemetry as telemetry
from repro.analysis.statistics import profile_tensor, rate_distortion_sweep
from repro.codec.profiles import profile_by_name
from repro.codec.quantizer import check_qp
from repro.tensor.codec import CompressedTensor, TensorCodec


def _qp(text: str) -> float:
    """``--qp``: a number the encoder can code, else a usage error."""
    try:
        return check_qp(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_rate_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--bits", type=float, help="bits/value budget (fractional ok)")
    group.add_argument("--qp", type=_qp, help="explicit quantization parameter")
    group.add_argument("--mse", type=float, help="max mean squared error")
    parser.add_argument("--codec", default="h265", choices=["h264", "h265", "av1"])
    parser.add_argument("--tile", type=int, default=256)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llm265",
        description="LLM.265: video codecs repurposed as tensor codecs",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        help="write a Chrome trace-event file of this run (place before the "
        "subcommand)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compress = sub.add_parser("compress", help="compress a .npy tensor")
    compress.add_argument("input", help=".npy file to compress")
    compress.add_argument("output", help="destination .lv265 file")
    _add_rate_arguments(compress)

    decompress = sub.add_parser("decompress", help="restore a tensor")
    decompress.add_argument("input", help=".lv265 file")
    decompress.add_argument("output", help="destination .npy file")

    info = sub.add_parser("info", help="inspect a compressed tensor")
    info.add_argument("input", help=".lv265 file")

    profile = sub.add_parser("profile", help="Section 3.1 statistics of a tensor")
    profile.add_argument("input", help=".npy file")

    sweep = sub.add_parser("sweep", help="rate-distortion curve of a tensor")
    sweep.add_argument("input", help=".npy file")
    sweep.add_argument("--qps", default="8,16,24,32,40")

    stats = sub.add_parser(
        "stats",
        help="compress a tensor and print the per-stage codec dissection",
    )
    stats.add_argument("input", help=".npy file")
    stats.add_argument(
        "--format", default="table",
        choices=["table", "json", "prometheus"],
        help="table (human), json (the llm265-metrics-v1 snapshot "
             "document, same shape as CodecService.stats()), or "
             "prometheus (text exposition)",
    )
    _add_rate_arguments(stats)

    verify = sub.add_parser(
        "verify",
        help="integrity-check a .lv265 container, raw stream, checkpoint, "
             "or shard-store directory (exit 2 corrupt, 3 torn tail only)",
    )
    verify.add_argument("input", nargs="+",
                        help="file(s) or store director(ies) to verify")
    verify.add_argument(
        "--deep",
        action="store_true",
        help="also run a strict decode (files) or full payload CRC "
             "re-read (store dirs); slower, catches damage fast "
             "checks cannot",
    )

    chaos = sub.add_parser(
        "chaos",
        help="chaos-soak a durable cluster with every fault family "
             "(exit 2 on a violation)",
    )
    chaos.add_argument("--requests", type=int, default=2000,
                       help="encode/decode/put/get operations")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--quick", action="store_true",
        help="shortened soak (600 requests; CI smoke mode)",
    )
    chaos.add_argument("--output", default=None,
                       help="write the report to this JSON file")
    chaos.add_argument(
        "--postmortem-dir", default=".",
        help="where the flight-recorder bundle lands on a violation "
             "(its path is printed before exit 2)",
    )
    chaos.add_argument(
        "--force-violation", action="store_true",
        help="drill: record one synthetic violation to exercise the "
             "postmortem path end to end (always exits 2)",
    )
    chaos.add_argument("--kills", type=int, default=3,
                       help="shard kills, each armed at a store write stage")

    return parser


def _rate_kwargs(args: argparse.Namespace) -> dict:
    kwargs = {}
    if args.bits is not None:
        kwargs["bits_per_value"] = args.bits
    elif args.qp is not None:
        kwargs["qp"] = args.qp
    elif args.mse is not None:
        kwargs["target_mse"] = args.mse
    return kwargs


def _cmd_compress(args: argparse.Namespace) -> int:
    tensor = np.load(args.input)
    codec = TensorCodec(profile=profile_by_name(args.codec), tile=args.tile)
    compressed = codec.encode(tensor, **_rate_kwargs(args))
    with open(args.output, "wb") as handle:
        handle.write(compressed.to_bytes())
    print(
        f"{args.input}: {tensor.size} values -> {compressed.nbytes} bytes "
        f"({compressed.bits_per_value:.2f} bits/value, "
        f"{compressed.compression_ratio:.1f}x vs FP16)"
    )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as handle:
        compressed = CompressedTensor.from_bytes(handle.read())
    codec = TensorCodec(profile=profile_by_name(compressed.profile_name))
    tensor = codec.decode(compressed)
    np.save(args.output, tensor)
    print(f"{args.input} -> {args.output}: shape {tensor.shape}, dtype {tensor.dtype}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as handle:
        compressed = CompressedTensor.from_bytes(handle.read())
    print(compressed.summary())
    print(f"shape:          {compressed.layout.shape}")
    print(f"dtype:          {compressed.dtype}")
    print(f"codec:          {compressed.profile_name} (qp={compressed.qp:.2f})")
    print(f"frames:         {compressed.layout.num_tiles} x {compressed.frame_shape}")
    print(f"size:           {compressed.nbytes} bytes")
    print(f"bits/value:     {compressed.bits_per_value:.3f}")
    print(f"ratio vs FP16:  {compressed.compression_ratio:.2f}x")
    print(f"budget met:     {compressed.budget_met}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    tensor = np.load(args.input)
    summary = profile_tensor(tensor)
    print(f"entropy (8-bit mapped):   {summary['entropy_bits']:.2f} bits/value")
    print(f"outlier ratio (>4 sigma): {summary['outlier_ratio']:.2e}")
    print(f"channel structure score:  {summary['channel_structure']:.3f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    tensor = np.load(args.input)
    qps = [float(v) for v in args.qps.split(",")]
    print(f"{'QP':>6s} {'bits/value':>11s} {'MSE':>12s}")
    for qp, bits, mse in rate_distortion_sweep(tensor, qps=qps):
        print(f"{qp:6.1f} {bits:11.3f} {mse:12.3e}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    tensor = np.load(args.input)
    codec = TensorCodec(profile=profile_by_name(args.codec), tile=args.tile)
    from repro.codec.entropy import native as _native

    # Load (or build) the kernels first: stage seconds and ns per bin
    # describe the work, not a first dlopen and its self-checks.
    _native.kernel_status()
    with telemetry.scope() as registry:
        compressed = codec.encode(tensor, **_rate_kwargs(args))
        restored = codec.decode(compressed)
        mse = float(np.mean((restored.astype(np.float64) - tensor) ** 2))
        if args.format == "json":
            # The same llm265-metrics-v1 document CodecService.stats()
            # returns, so dashboards need exactly one parser.
            snapshot = telemetry.MetricsSnapshot.capture(registry=registry)
            print(json.dumps(snapshot.to_dict(), indent=2, sort_keys=True))
        elif args.format == "prometheus":
            snapshot = telemetry.MetricsSnapshot.capture(registry=registry)
            print(telemetry.render_prometheus(snapshot), end="")
        else:
            _print_stats(args.input, tensor, compressed, mse, registry)
    return 0


def _print_stats(
    path: str,
    tensor: np.ndarray,
    compressed: CompressedTensor,
    mse: float,
    registry: telemetry.Registry,
) -> None:
    print(f"== llm265 stats: {path} ==")
    print(f"tensor:     shape {tensor.shape}, dtype {tensor.dtype}, "
          f"{tensor.size} values")
    print(f"compressed: {compressed.summary()}")
    print(f"distortion: mse {mse:.3e}")
    print()

    stats = compressed.encode_stats or {}
    bits = stats.get("bits", {})
    stream_bits = 8 * len(compressed.data)
    meta_bytes = compressed.nbytes - len(compressed.data)
    print("-- bitstream dissection (final encode) --")
    print(f"{'element':<12s} {'bits':>10s} {'bytes':>10s} {'share':>8s}")
    for element in telemetry.BIT_CLASSES:
        if element not in bits:
            continue
        value = bits[element]
        share = 100.0 * value / stream_bits if stream_bits else 0.0
        print(f"{element:<12s} {value:>10d} {value / 8.0:>10.1f} {share:>7.1f}%")
    total = sum(bits.values())
    exact = "exact" if total == stream_bits else "MISMATCH"
    print(f"{'total':<12s} {total:>10d} {total / 8.0:>10.1f}   "
          f"(stream {stream_bits} bits: {exact})")
    print(f"{'container':<12s} {8 * meta_bytes:>10d} {float(meta_bytes):>10.1f}   "
          f"(metadata overhead)")
    print(f"{'serialized':<12s} {8 * compressed.nbytes:>10d} "
          f"{float(compressed.nbytes):>10.1f}   "
          f"({compressed.bits_per_value:.3f} bits/value)")
    print()

    seconds = stats.get("seconds", {})
    counts = stats.get("counts", {})
    qp = stats.get("qp", {})
    if seconds:
        print("-- encoder stages (final encode) --")
        for stage, value in sorted(seconds.items()):
            print(f"{stage:<12s} {value * 1e3:>10.2f} ms")
        print()
    if counts:
        print("-- encoder structure (final encode) --")
        for name, value in sorted(counts.items()):
            print(f"{name:<18s} {value:>10d}")
        if qp.get("count"):
            print(f"{'qp mean/min/max':<18s} "
                  f"{qp['mean']:>10.2f} {qp['min']:>4d} {qp['max']:>4d}")
        print()

    decode_seconds = {
        name[len("decode.seconds."):]: value
        for name, value in registry.counters.items()
        if name.startswith("decode.seconds.")
    }
    decode_counts = {
        name[len("decode."):]: value
        for name, value in registry.counters.items()
        if name.startswith("decode.") and not name.startswith("decode.seconds.")
    }
    if decode_seconds or decode_counts:
        print("-- decoder (this session's decodes) --")
        for stage in telemetry.DECODE_STAGES:
            if stage in decode_seconds:
                print(f"{stage:<18s} {decode_seconds[stage] * 1e3:>10.2f} ms")
        if decode_seconds.get("entropy") and decode_counts.get("coeff_bins"):
            per_bin = decode_seconds["entropy"] / decode_counts["coeff_bins"]
            print(f"{'entropy ns/bin':<18s} {per_bin * 1e9:>10.2f}")
        for name in sorted(decode_counts):
            print(f"{name:<18s} {int(decode_counts[name]):>10d}")
        print()

    from repro.codec.entropy import native as _native

    print("-- native kernels --")
    print(f"{'kernels':<18s} {_native.kernel_status()['library']:>14s}")
    print(f"{'simd lanes':<18s} {_native.simd_lanes():>14s}")
    print()

    print("-- session telemetry (all encodes incl. rate-control search) --")
    print(telemetry.summary_table(registry))


def _cmd_verify(args: argparse.Namespace) -> int:
    """Exit 0 all clean, 2 if anything is corrupt, 3 if only torn tails.

    A torn tail (store journals: an append interrupted by a crash) is
    recoverable damage -- the store's next recovery truncates it losing
    only the unacknowledged write -- so it gets its own exit code,
    distinct from corruption that loses or falsifies data.
    """
    from repro.resilience.verify import verify_path

    corrupt = 0
    torn = 0
    for path in args.input:
        report = verify_path(path, deep=args.deep)
        print(report.summary())
        if report.ok:
            continue
        if report.torn_only:
            torn += 1
        else:
            corrupt += 1
    if corrupt:
        return 2
    return 3 if torn else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Exit 0 on a clean soak, 2 on any violation."""
    from repro.cluster.chaos import ChaosConfig, format_report, run_chaos

    report = run_chaos(ChaosConfig(
        requests=600 if args.quick else args.requests,
        seed=args.seed,
        kills=args.kills,
        postmortem_dir=args.postmortem_dir or None,
        force_violation=args.force_violation,
    ))
    print(format_report(report))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if report["invariant"]["passed"] else 2


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "info": _cmd_info,
    "profile": _cmd_profile,
    "sweep": _cmd_sweep,
    "stats": _cmd_stats,
    "verify": _cmd_verify,
    "chaos": _cmd_chaos,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (also the console script)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.trace:
        try:  # fail before doing the work, not after
            open(args.trace, "wb").close()
        except OSError as exc:
            parser.error(f"cannot write trace file: {exc}")
        with telemetry.session(trace=True) as registry:
            code = _COMMANDS[args.command](args)
            telemetry.write_chrome_trace(registry, args.trace)
        return code
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
