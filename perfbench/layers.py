"""Per-layer self time, measured by wrapping the program's entry points.

The traced run patches each layer's public entry points from the
benchmark's side, for the duration of one operation, and leaves ``src/``
untouched.  A span opens at every call into a wrapped function (at every
resume, for generators) and closes when it returns; a span's self time
is its duration minus that of the spans opened inside it.  The
operation itself is the root span, and its self time is reported as
``unattributed``: the time spent outside every wrapped entry point.  So
per operation the layer rows plus ``unattributed`` add up to the traced
wall time by construction.

One stack serves all threads.  That is sound here because the benchmark
is a single closed-loop client: while it waits on an HTTP reply, only
the server thread that handles it runs wrapped code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: layer -> the entry points ("module:function" or "module:Class.method")
#: whose calls are attributed to it.
LAYERS: dict[str, tuple[str, ...]] = {
    "core.inverse_chase": (
        "repro.core.inverse_chase:inverse_chase",
        "repro.core.inverse_chase:inverse_chase_candidates",
    ),
    "core.hom_set": ("repro.core.hom_sets:hom_set",),
    "core.covers": ("repro.core.covers:enumerate_covers",),
    "core.subsumption": (
        "repro.core.subsumption:minimal_subsumers",
        "repro.core.subsumption:models_all",
    ),
    "chase": (
        "repro.chase.standard:chase",
        "repro.chase.standard:chase_restricted",
    ),
    "core.justify": ("repro.core.semantics:is_justified",),
    "planner.object": (
        "repro.planner.evaluate:kernel_homomorphisms",
        "repro.planner.evaluate:kernel_has_homomorphism",
    ),
    "planner.vector": (
        "repro.planner.vectorized:vector_homomorphisms",
        "repro.planner.vectorized:vector_has_homomorphism",
        "repro.planner.vectorized:vector_query_tuples",
    ),
    "logic.cq_eval": ("repro.logic.queries:ConjunctiveQuery.evaluate",),
    "data.columnar": ("repro.data.instances:Instance.columnar_store",),
    "data.evolve": (
        "repro.data.instances:Instance.evolve",
        "repro.data.columnar:ColumnarStore.evolved",
    ),
    "planner.delta": (
        "repro.planner.delta:delta_restricted_homomorphisms",
        "repro.planner.delta:carry_forward_plans",
    ),
    "incremental": (
        "repro.incremental.state:RecoveryState.__init__",
        "repro.incremental.state:RecoveryState.apply_delta",
        "repro.incremental.state:RecoveryState.certain",
    ),
    "service.dispatch": ("repro.service.app:RecoveryService.dispatch",),
    # The churn client's own HTTP exchange: connection, request, the
    # server's HTTP handling around dispatch, and JSON both ways.
    "service.transport": ("workloads:_Client.post",),
}

ROOT = "unattributed"
ROWS = tuple(LAYERS)

#: Work counters of ``repro.observability.METRICS`` reported per operation.
COUNTERS = (
    "coverings_evaluated",
    "instances_built",
    "plans_compiled",
    "planner_vector_fallbacks",
    "vector_plans_compiled",
    "homomorphisms_explored",
    "columnar_rows_scanned",
    "columnar_stores_built",
    "incremental_homs_admitted",
    "incremental_homs_retired",
)

#: Hit ratios: metric -> the ``<name>_cache_hits``/``_misses`` pair.
CACHE_RATIOS = {
    "service.result_cache.hit_ratio": "service_result",
    "planner.plan_cache.hit_ratio": "plan",
    "core.hom_set_cache.hit_ratio": "hom_set",
}


class LayerTracer:
    """Accumulates self time and call counts per layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = dict.fromkeys((*ROWS, ROOT), 0.0)
        self.calls: dict[str, int] = dict.fromkeys((*ROWS, ROOT), 0)
        # Open spans, innermost last: [start, time covered by children].
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self) -> list[float]:
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, name: str, frame: list[float]) -> float:
        duration = time.perf_counter() - frame[0]
        self._stack.pop()
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = tracer.enter()
                        try:
                            item = next(inner)
                        except StopIteration as stop:
                            tracer.leave(name, frame)
                            return stop.value
                        except BaseException:
                            tracer.leave(name, frame)
                            raise
                        tracer.leave(name, frame)
                        yield item
                finally:
                    inner.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(name, frame)

        return traced

    # -- patching --------------------------------------------------------------

    def prepare(self) -> None:
        """Find every binding of every entry point in the loaded program.

        A function imported by name into another module is bound there
        too, so each module attribute holding the same object is patched.
        """
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))
        ]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, qualname = target.partition(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patches.append(
                        (owner, attr, original, self.wrap(layer, original))
                    )
                    continue
                original = getattr(module, qualname)
                wrapped = self.wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
