"""One cold run of one workload, in a fresh process; started by run.py.

Prints one JSON line: the monotonic time at which ``import finabel``
returned, the workload's wall time and peak RSS, the times of the
calibration loop run before and after it, its raw results for the parent to
check and, when traced, the per-layer metrics.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
import finabel  # noqa: E402  (set-up ends when this import returns)

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

CALIBRATION_ROUNDS = 100_000
RING_SIZE = 1 << 17  # 131072 ints, about 5 MB; the chase from 0 visits 32768 of them
RING_STEPS = 400_000


def calibrate() -> float:
    """Time a fixed pure-Python loop that uses no finabel code, which tracks
    how fast the host runs Python at that moment; run.py scales the
    workload's times by it.  A co-tenant can slow the processor core or the
    shared caches, and the workloads feel both, so the loop has two halves:
    integer arithmetic with tuple keys and dict updates, then a pointer
    chase through a list of ints too large for the core's own caches."""
    start = perf_counter()
    table: dict = {}
    x = 1
    for i in range(CALIBRATION_ROUNDS):
        x = (x * 1103515245 + 12345) % 2147483648
        key = (x % 61, i % 7)
        table[key] = table.get(key, 0) + 1
    ring = [(i * 40503 + 1) % RING_SIZE for i in range(RING_SIZE)]
    j = 0
    for _ in range(RING_STEPS):
        j = ring[j]
    return perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None, help="file the traced spans are written to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if os.path.dirname(os.path.abspath(finabel.__file__)) != os.path.join(SRC, "finabel"):
        print(f"finabel was imported from {finabel.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"ready": READY, "calibration_s": [calibrate()]}))
        return 0

    from finabel import cli, counting, errors, functions, grouptype, lattice, oracle, symgen

    import tracing
    import workloads

    fin = SimpleNamespace(
        cli=cli, counting=counting, errors=errors, functions=functions,
        grouptype=grouptype, lattice=lattice, oracle=oracle, symgen=symgen,
    )
    inputs = workloads.prepare(args.workload, args.seed, fin)
    tracer = tracing.install(fin) if args.trace else None
    before = calibrate()
    start = perf_counter()
    raw = workloads.run(args.workload, inputs, fin)
    wall_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = calibrate()
    out = {
        "ready": READY,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": [before, after],
        "result": workloads.serialize(args.workload, raw),
    }
    if tracer is not None:
        out["layers"] = tracer.report(wall_s)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
