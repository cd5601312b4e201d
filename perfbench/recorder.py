"""Operation runner: timing, checking, calibration and tracing of one run."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

import reference
from layers import CACHE_RATIOS, COUNTERS, ROOT, ROWS, LayerTracer

from repro.engine.cache import clear_registered_caches
from repro.observability import METRICS

#: Every run does at least this many whole rounds, so that the traced
#: run (which traces every second operation of each kind) traces each
#: kind at least once.
MIN_ROUNDS = 2
#: Fresh interpreters whose import of the program is timed for setup_s,
#: one at the start of each of the first rounds.
IMPORT_REPEATS = 8
_TIME_IMPORT = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - start)"
)


def central(values: list) -> float:
    """The interquartile mean: the mean of the middle half of the values.

    Samples on this host fall into a fast and a slow mode whose mix
    shifts from run to run.  A median can jump between the modes; the
    mean of the middle half moves smoothly with the mix and still
    ignores the outliers a plain mean would take in.
    """
    if not values:
        return float("nan")
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


class Recorder:
    """Runs a workload's operations and turns them into metrics.

    Each operation has a kind (``recover``, ``certain``, ``update``,
    ``repeat``...).  Untraced operations give the timing samples.  With
    tracing on, every second operation of each kind runs with the layer
    wrappers installed instead, and gives the per-layer rows.
    """

    def __init__(self, seconds: float, trace: bool, src: str):
        self.seconds = seconds
        self.src = src
        #: Seconds fresh interpreters took to import the program.
        self.imports: list[float] = []
        self.tracer = LayerTracer() if trace else None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.setup: list[float] = []
        self.reference: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self._start = None
        self._seen: Counter = Counter()
        self._traced_walls: dict[str, list[float]] = defaultdict(list)
        self._traced_rows: dict[str, Counter] = defaultdict(Counter)
        self._counters: dict[str, dict[str, int]] = {}

    # -- the loop ------------------------------------------------------------

    def more(self) -> bool:
        """Whether to start another round.

        The clock starts at the first round.  Another round starts only
        if, at the mean round length so far, it ends within ``seconds``.
        """
        now = time.perf_counter()
        if self._start is None:
            self._start = now
            if self.tracer is not None:
                self.tracer.prepare()
        if len(self.imports) < IMPORT_REPEATS:
            self.imports.append(self._time_import())
            # The import is timed outside the measured window.
            self._start += time.perf_counter() - now
            now = time.perf_counter()
        if self.rounds < MIN_ROUNDS:
            return True
        mean_round = (now - self._start) / self.rounds
        return now + mean_round <= self._start + self.seconds

    def _time_import(self) -> float:
        """Seconds a fresh interpreter takes to import the program.

        The run's own import happens once; timing it again in fresh
        processes between rounds gives set-up time a central value, and
        lets the host reference sampled around it calibrate it.
        """
        out = subprocess.run(
            [sys.executable, "-c", _TIME_IMPORT, os.path.dirname(__file__), self.src],
            capture_output=True, text=True, check=True, timeout=120,
        )
        return float(out.stdout)

    def calibrate(self, repeats: int = 3) -> None:
        """Time the host reference between the program's samples."""
        for _ in range(repeats):
            self.reference.append(reference.sample())

    def timed_setup(self, build: Callable):
        start = time.perf_counter()
        value = build()
        self.setup.append(time.perf_counter() - start)
        return value

    def op(self, kind: str, fn: Callable, check: Callable, *, cold: bool = False):
        """Run one operation; its result, or ``None`` when it failed."""
        self.attempted += 1
        traced = self.tracer is not None and self._seen[kind] % 2 == 1
        self._seen[kind] += 1
        if cold:
            clear_registered_caches()
            gc.collect()
        result = None
        error = None
        if traced:
            tracer = self.tracer
            rows_before = dict(tracer.self_s)
            justify_before = tracer.calls["core.justify"]
            metrics_before = METRICS.snapshot()
            tracer.install()
            frame = tracer.enter()
            try:
                result = fn()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                error = exc
            finally:
                wall = tracer.leave(ROOT, frame)
                tracer.uninstall()
            if kind not in self._counters:
                counts = METRICS.delta_since(metrics_before)
                counts["core.justify.calls"] = (
                    tracer.calls["core.justify"] - justify_before
                )
                self._counters[kind] = counts
            self._traced_walls[kind].append(wall)
            rows = self._traced_rows[kind]
            for name, value in tracer.self_s.items():
                rows[name] += value - rows_before[name]
        else:
            start = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                error = exc
            elapsed = time.perf_counter() - start
        if error is None:
            problem = check(result)
        else:
            problem = f"raised {type(error).__name__}: {error}"
        if problem:
            self.failed += 1
            print(f"FAILED {kind}: {problem}", file=sys.stderr)
            return None
        if not traced:
            self.samples[kind].append(elapsed)
        return result

    # -- results ---------------------------------------------------------------

    def scale(self) -> float:
        """Factor taking this host's seconds to nominal-host seconds."""
        return reference.NOMINAL_SECONDS / central(self.reference)

    def timings(self, calibrated: bool) -> dict[str, float]:
        """Seconds per operation kind (central value), plus ``setup``.

        Calibrated timings are scaled by the run's central reference time
        (see reference.py); raw ones are plain seconds on this host.
        """
        factor = self.scale() if calibrated else 1.0
        out = {kind: central(v) * factor for kind, v in self.samples.items()}
        out["setup"] = (central(self.imports) + central(self.setup)) * factor
        return out

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-operation layer rows, counters and ratios of the traced ops."""
        traced_ops = sum(len(v) for v in self._traced_walls.values())
        totals: Counter = Counter()
        for rows in self._traced_rows.values():
            totals.update(rows)
        out: dict[str, tuple[float, str]] = {}
        for name in ROWS:
            out[f"{name}.self_ms"] = (totals[name] * 1000.0 / traced_ops, "ms")
        out["unattributed_ms"] = (totals[ROOT] * 1000.0 / traced_ops, "ms")
        # Work counts come from the first traced operation of each kind:
        # those operations are the same in every run of a seed, whatever
        # the run length, so the counts repeat exactly.
        firsts = list(self._counters.values())
        for name in ("core.justify.calls", *COUNTERS):
            total = sum(c.get(name, 0) for c in firsts)
            out[name] = (total / len(firsts), "count")
        for metric, cache in CACHE_RATIOS.items():
            hits = sum(c.get(f"{cache}_cache_hits", 0) for c in firsts)
            misses = sum(c.get(f"{cache}_cache_misses", 0) for c in firsts)
            out[metric] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        walls = [w for v in self._traced_walls.values() for w in v]
        out["traced_wall_ms"] = (sum(walls) * 1000.0 / traced_ops, "ms")
        overhead = 0.0
        for kind, traced_walls in self._traced_walls.items():
            untraced = self.samples.get(kind)
            if untraced:
                mean_gap = statistics.fmean(traced_walls) - statistics.fmean(untraced)
                overhead += mean_gap * len(traced_walls)
        out["tracing_overhead_ms"] = (overhead * 1000.0 / traced_ops, "ms")
        return out

    def layer_table(self) -> str:
        """Per-kind breakdown, with the check that rows sum to the wall."""
        lines = []
        for kind, walls in sorted(self._traced_walls.items()):
            rows = self._traced_rows[kind]
            n = len(walls)
            wall = sum(walls)
            summed = sum(rows.values())
            gap = abs(summed - wall) / wall if wall else 0.0
            untraced = self.samples.get(kind)
            base = statistics.fmean(untraced) * 1000.0 if untraced else float("nan")
            lines.append(
                f"{kind}: {n} traced ops, traced wall {wall * 1000.0 / n:.2f} ms/op, "
                f"untraced {base:.2f} ms/op, rows sum {summed * 1000.0 / n:.2f} "
                f"ms/op (gap {gap:.3%})"
            )
            for name, value in sorted(rows.items(), key=lambda kv: -kv[1]):
                if value > 0:
                    lines.append(
                        f"    {name:<22} {value * 1000.0 / n:10.2f} ms/op "
                        f"{value / wall:7.1%}"
                    )
            counters = self._counters.get(kind, {})
            shown = {k: counters[k] for k in COUNTERS if counters.get(k)}
            lines.append(f"    counters (first traced op): {shown}")
        return "\n".join(lines)
