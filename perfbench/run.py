"""Benchmark of recovery, certain answers and churn; see README.md.

Run from the repository root:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Details go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("bulk", "fanout", "churn")
HERE = os.path.dirname(os.path.abspath(__file__))
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "perfbench: no src/repro under the current directory; "
            "run from the root of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [HERE, src]
    import workloads  # imports repro
    from recorder import Recorder

    rec = Recorder(args.seconds, bool(args.trace), src)
    if args.workload == "churn":
        workloads.churn(rec, args.seed)
    else:
        shape = workloads.BULK if args.workload == "bulk" else workloads.FANOUT
        workloads.library(rec, args.seed, shape)

    raw = rec.timings(calibrated=False)
    counts = {kind: len(v) for kind, v in rec.samples.items()}
    print(
        f"{args.workload} seed {args.seed}: {rec.rounds} rounds, samples {counts}, "
        f"host scale {rec.scale():.3f}, imports {rec.imports}",
        file=sys.stderr,
    )
    print("raw: " + json.dumps(raw, sort_keys=True), file=sys.stderr)
    samples = {"reference": rec.reference, "setup": rec.setup, **rec.samples}
    print("samples: " + json.dumps(samples, sort_keys=True), file=sys.stderr)
    if args.trace:
        print(rec.layer_table(), file=sys.stderr)
        metrics = rec.layer_metrics()
    else:
        cal = rec.timings(calibrated=True)
        metrics = {
            "setup_s": (cal["setup"], "s"),
            "recover_s": (cal["recover"], "s"),
            "certain_s": (cal["certain"], "s"),
            "update_ms": (cal["update"] * 1000.0, "ms"),
            "peak_rss_mb": (rec.peak_rss_mb(), "MB"),
        }
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
