"""Steadiness of the benchmark: two sets of runs, made in alternation.

Run from the repository root:

    python3 perfbench/steady.py --workload fanout --runs 5 --seconds 35

Each run gets its own seed; runs of set A and set B alternate, so host
drift falls on both.  For every end-to-end metric the script prints each
set's median, quartiles and spread (the distance between the quartiles
as a share of the median), both as reported (calibrated against the
host reference) and raw, and the change from A's median to B's.

    python3 perfbench/steady.py --workload churn --counters --seconds 10

instead makes two traced runs with the same seed and checks that every
per-layer work count and cache hit ratio repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: raw timing kind -> the end-to-end metric it is reported as.
RAW_NAMES = {
    "setup": ("setup_s", 1.0),
    "recover": ("recover_s", 1.0),
    "certain": ("certain_s", 1.0),
    "update": ("update_ms", 1000.0),
}


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run: its result object and its raw timings."""
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(command)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw: dict = {}
    for line in proc.stderr.splitlines():
        variant, _, data = line.partition(": ")
        if variant == "raw" and data.startswith("{"):
            for kind, value in json.loads(data).items():
                if kind in RAW_NAMES:
                    name, factor = RAW_NAMES[kind]
                    raw.setdefault(variant, {})[name] = value * factor
    return result, raw


def describe(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def steadiness(workload: str, runs: int, seconds: float, first_seed: int) -> dict:
    sets: dict = {"A": [], "B": []}
    seed = first_seed
    for i in range(runs):
        order = "AB" if i % 2 == 0 else "BA"
        for name in order:
            result, raw = run_once(workload, seed, seconds, 0)
            seed += 1
            sets[name].append((result, raw))
            print(
                f"  {workload} set {name} seed {seed - 1}: "
                + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                ),
                file=sys.stderr,
            )
    report: dict = {"workload": workload, "runs_per_set": runs, "seconds": seconds}
    for name, results in sets.items():
        metrics: dict = {}
        for metric in results[0][0]["metrics"]:
            metrics[metric] = describe([r["metrics"][metric]["value"] for r, _ in results])
            if metric in results[0][1].get("raw", {}):
                metrics[metric]["raw"] = describe(
                    [raw["raw"][metric] for _, raw in results]
                )
        failed = {(r["failed"], r["attempted"]) for r, _ in results}
        report[name] = {
            "metrics": metrics,
            "failed_share": sorted(f / a for f, a in failed),
        }
    both = sets["A"] + sets["B"]
    report["all"] = {
        metric: describe([r["metrics"][metric]["value"] for r, _ in both])
        for metric in both[0][0]["metrics"]
    }
    report["b_over_a"] = {
        m: report["B"]["metrics"][m]["median"] / report["A"]["metrics"][m]["median"]
        for m in report["A"]["metrics"]
    }
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']}: {report['runs_per_set']} runs per set, "
          f"{report['seconds']} s each")
    for metric, ratio in report["b_over_a"].items():
        cells = []
        for name in ("A", "B"):
            d = report[name]["metrics"][metric]
            cell = (f"{name}: median {d['median']:.4g} [{d['q1']:.4g}, {d['q3']:.4g}] "
                    f"spread {d['spread']:.1%}")
            if "raw" in d:
                cell += f" (raw {d['raw']['spread']:.1%})"
            cells.append(cell)
        print(f"  {metric:<12} " + " | ".join(cells) + f" | B/A {ratio:.3f}")
        d = report["all"][metric]
        print(f"  {'':<12} all {2 * report['runs_per_set']} runs: median {d['median']:.4g} "
              f"[{d['q1']:.4g}, {d['q3']:.4g}] spread {d['spread']:.1%}")
    print(f"  failed share: A {report['A']['failed_share']} B {report['B']['failed_share']}")


def counters_repeat(workload: str, seed: int, seconds: float) -> bool:
    first, _ = run_once(workload, seed, seconds, 1)
    second, _ = run_once(workload, seed, seconds, 1)
    same = True
    for name, metric in first["metrics"].items():
        if metric["unit"] not in ("count", "ratio"):
            continue
        other = second["metrics"][name]["value"]
        flag = "same" if other == metric["value"] else "DIFFERENT"
        same &= other == metric["value"]
        print(f"  {name:<34} {metric['value']:<14.8g} {other:<14.8g} {flag}")
    print(f"== {workload} seed {seed}: work counts "
          + ("repeat exactly" if same else "DIFFER between runs"))
    return same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--counters", action="store_true")
    args = parser.parse_args()
    if args.counters:
        ok = all(counters_repeat(w, args.first_seed, args.seconds) for w in args.workload)
        return 0 if ok else 1
    for workload in args.workload:
        print_report(steadiness(workload, args.runs, args.seconds, args.first_seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
