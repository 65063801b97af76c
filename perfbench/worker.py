"""The measuring process: the only process that loads the program.

Reads the workload's inputs as JSON on standard input and prints one JSON
object.  ``--mode setup`` times a fresh import of weiljet plus building the
inputs; ``--mode measure`` builds, then runs whole rounds, at least one,
until ``--seconds`` have passed (``--trace 1``: exactly one round, with layer
spans recorded).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from common import digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the recorded spans")
    args = parser.parse_args()
    inputs = json.load(sys.stdin)

    t0 = time.perf_counter()
    import weiljet.cli  # noqa: F401  (the whole package, as the CLI loads it)
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from layers import Tracer, install
        tracer = Tracer()
        install(tracer)
    t2 = time.perf_counter()
    workload = WORKLOADS[args.workload](inputs)
    t3 = time.perf_counter()
    if args.mode == "setup":
        print(json.dumps({"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)}))
        return 0

    rounds, digests, first = [], [], None
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        families, outputs, attempted = workload.run_round()
        r1 = time.perf_counter()
        rounds.append({"families": families, "attempted": attempted,
                       "round_s": r1 - r0})
        digests.append(digest(outputs))
        if first is None:
            first = outputs
        if args.trace or time.perf_counter() - start >= args.seconds:
            break

    import numpy
    result = {
        "rounds": rounds,
        "digests": digests,
        "outputs": first,
        "build_s": t3 - t2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
