"""Spans around the public calls into each bcstab module, and the per-layer metrics made from them.

The tracer wraps functions from the outside: it replaces every reference to
a traced function held by a loaded ``bcstab`` module (the defining module,
``bcstab.cli``, which imports names such as ``run_batch`` directly, and the
package itself) with a wrapper that records a span. A traced name that no
longer exists is reported as absent. Spans stay in memory until the run
ends; self time is a span's duration minus the part of it that its child
spans cover. Spans also hold the host-speed sampling that interrupts the
work (about 1% of its time, see ``child.HostSpeed``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field


def _slots(span, args, kwargs, result):
    span.counts["slots"] = args[0].shape[0]


def _draws(span, args, kwargs, result):
    span.counts["draws"] = kwargs["draws"] if "draws" in kwargs else args[1]


def _inconclusive(span, args, kwargs, result):
    verdicts = [v.value for v in result.verdict]
    span.counts["inconclusive"] = int("unstable" not in verdicts and "inconclusive" in verdicts)


def _workers(span, args, kwargs, result):
    workers = kwargs["workers"] if "workers" in kwargs else (args[1] if len(args) > 1 else None)
    span.counts["workers"] = max(1, workers or 1)


# Traced functions as (module under bcstab, function, hook). A hook reads a
# quantity off the call, such as the slots a kernel call simulated. Metric
# names must start with a letter, so ``_kernels`` is named ``kernels``.
TARGETS = [
    ("cli", "main", None),
    ("sim", "run_batch", _workers),
    ("sim", "estimate_boundary", None),
    ("sim", "run", _inconclusive),
    ("sim", "classify_stability", None),
    ("_kernels", "simulate_slots", _slots),
    ("channel", "mc_estimate_profile", _draws),
    ("channel", "build_profile", None),
    ("region", "region_for_params", None),
    ("region", "membership_grid", None),
    ("region", "boundary_scale", None),
    ("region", "membership", None),
]
NAMES = [f"{module.lstrip('_')}.{func}" for module, func, _ in TARGETS]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    invocation: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.invocation: int | None = None
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's outermost span belongs to whatever the main
            # thread is waiting in, i.e. the run_batch that dispatched it.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            span = Span(span_id, name, parent.id if parent else None, self.invocation,
                        threading.get_ident())
            stack.append(span)
            cpu0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu0
                stack.pop()
                self.spans.append(span)
            if hook is not None:
                try:
                    hook(span, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span.counts["hook_failed"] = 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a loaded bcstab module refers to it."""
        self.absent = []
        for (module, func, hook), name in zip(TARGETS, NAMES):
            try:
                original = getattr(importlib.import_module(f"bcstab.{module}"), func)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "bcstab" or mod_name.startswith("bcstab.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def self_times(self) -> dict[int, float]:
        """Self time of each span: its duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        result = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for lo, hi in sorted(children.get(s.id, ())):
                lo, hi = max(lo, reach), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result[s.id] = s.end - s.start - covered
        return result

    def layer_metrics(self, wall: float, overhead: float) -> tuple[dict[str, tuple[float, str]], dict]:
        """Per-layer metrics of a traced pass that took ``wall`` seconds of CLI time, and its times.

        ``overhead`` is the traced invocations' time over the untraced ones',
        minus 1. A ratio whose base is zero (a layer the workload never
        called) reads 0. The metrics hold no times, since a layer that a
        workload never calls would read exactly 0 s on every run; the self
        times and the time per slot and per draw come back beside them.
        """
        self_s = self.self_times()
        by_name: dict[str, list[Span]] = {name: [] for name in NAMES}
        for s in self.spans:
            by_name[s.name].append(s)

        def ratio(num, den):
            return num / den if den else 0.0

        def total(name, count):
            return sum(s.counts.get(count, 0) for s in by_name[name])

        metrics: dict[str, tuple[float, str]] = {}
        times: dict[str, float] = {}
        for name in NAMES:
            own = sum(self_s[s.id] for s in by_name[name])
            times[f"{name}.self_s"] = own
            metrics[f"{name}.calls"] = (len(by_name[name]), "count")
            metrics[f"{name}.share"] = (ratio(own, wall), "fraction")

        by_id = {s.id: s for s in self.spans}

        def under(span, name):
            while span.parent is not None:
                span = by_id[span.parent]
                if span.name == name:
                    return True
            return False

        runs = by_name["sim.run"]
        batch_cpu = sum(s.cpu for s in runs if under(s, "sim.run_batch"))
        batch_capacity = sum((s.end - s.start) * s.counts.get("workers", 1)
                             for s in by_name["sim.run_batch"])
        metrics["sim.run_batch.parallel_eff"] = (ratio(batch_cpu, batch_capacity), "fraction")
        probes = sum(1 for s in runs if under(s, "sim.estimate_boundary"))
        metrics["sim.estimate_boundary.runs_per_ray"] = (
            ratio(probes, len(by_name["sim.estimate_boundary"])), "count")
        metrics["sim.run.inconclusive_frac"] = (
            ratio(total("sim.run", "inconclusive"), len(runs)), "fraction")
        for name, count in (("kernels.simulate_slots", "slots"), ("channel.mc_estimate_profile", "draws")):
            done, busy = total(name, count), times[f"{name}.self_s"]
            metrics[f"{name}.{count}"] = (done, "count")
            metrics[f"{name}.{count}_per_s"] = (ratio(done, busy), "1/s")
            times[f"{name}.ns_per_{count[:-1]}"] = ratio(1e9 * busy, done)
        metrics["trace.overhead_frac"] = (overhead, "fraction")
        return metrics, times

    def span_records(self):
        self_s = self.self_times()
        for s in self.spans:
            yield {"id": s.id, "name": s.name, "parent": s.parent, "invocation": s.invocation,
                   "thread": s.thread, "start": s.start, "end": s.end, "cpu": s.cpu,
                   "self": self_s[s.id], **s.counts}
