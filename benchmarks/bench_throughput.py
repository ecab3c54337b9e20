#!/usr/bin/env python
"""Standalone runner for the codec throughput benchmark.

``llm265 bench`` itself (same flags, same exit codes); kept next to the
figure benchmarks so
``python benchmarks/bench_throughput.py --output BENCH_codec.json``
regenerates the tracked baseline from a checkout without installing
the console script.  See ``docs/PERFORMANCE.md`` for the methodology
and ``repro.analysis.bench`` for the engine.

Not a pytest module on purpose: throughput numbers are machine
dependent, so they are tracked as a JSON artifact rather than asserted
in the test suite (the *byte-identity* of all configurations IS
asserted, both here and in ``tests/test_parallel_engine.py``).
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
