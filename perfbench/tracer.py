"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each ``repro`` layer *from
outside the program*: nothing under ``src/`` knows it exists.  A module
that did ``from repro.hdl.parser import parse_source`` holds its own
reference to the function, so :meth:`Tracer.wrap_function` rebinds every
loaded ``repro`` module attribute that points at the original, not only
the defining module.  Methods are wrapped on their class.

Each thread keeps its own span stack (the ``llm-wait`` pool and the solve
server run layers on worker threads).  When a span closes, its duration
is added to its parent's child coverage, and its self time is the
duration minus that coverage.  Spans stay at the granularity of whole
calls such as ``run_testbench``; wrapping the simulator's inner loop
would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class SpanStats:
    """Calls, inclusive seconds and self seconds of one span name."""

    __slots__ = ("calls", "total", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0


class Tracer:
    """Per-thread span stacks feeding one lock-protected ledger.

    Besides per-name :class:`SpanStats`, the ledger keeps free-form
    ``counters`` that hooks add to, the self time of *root* spans (the
    benchmark's own unit of work: a grid cell or a client request), and
    the time of top-level spans on threads that never open a root (the
    solve server's loop, handler and worker threads, the client's reader
    thread).  ``trace.unattributed_s`` is derived from those two.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_threads: set[int] = set()
        self._main = threading.main_thread().ident
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
            self.counters: dict[str, float] = defaultdict(float)
            self.distinct: dict[str, set] = defaultdict(set)
            self.root_self = 0.0
            self.offthread_top = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    def note_distinct(self, name: str, value) -> None:
        with self._lock:
            self.distinct[name].add(value)

    def _close(
        self, name: str, duration: float, child: float, parent, root: bool
    ) -> None:
        thread = threading.get_ident()
        with self._lock:
            stats = self.spans[name]
            stats.calls += 1
            stats.total += duration
            stats.self_s += duration - child
            if root:
                self.root_self += duration - child
                self._root_threads.add(thread)
            elif parent is None:
                if thread != self._main and thread not in self._root_threads:
                    self.offthread_top += duration
            elif parent == "llm":
                # Golden-design simulation the sim LLM runs to write its
                # testbenches and verdicts: charged to the simulator.
                self.counters["llm.golden_sim_s"] += duration

    def traced(self, fn, name, root: bool = False, on_call=None, on_result=None):
        """``fn`` wrapped in a span; ``name`` may be a callable of the args.

        ``on_call(*args)`` runs before the call, ``on_result(result,
        *args)`` after it returns.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            stack = tracer._stack()
            label = name(*args, **kwargs) if callable(name) else name
            frame = [label, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - started
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                tracer._close(
                    label,
                    duration,
                    frame[1],
                    parent[0] if parent is not None else None,
                    root,
                )
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return wrapper

    def wrap_function(self, module, attr: str, name, **options) -> None:
        """Wrap ``module.attr`` at every ``repro`` binding site."""
        original = getattr(module, attr)
        wrapper = self.traced(original, name, **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name, **options) -> None:
        setattr(cls, attr, self.traced(getattr(cls, attr), name, **options))

    def ledger(self) -> dict:
        """A consistent copy of everything recorded since :meth:`reset`."""
        with self._lock:
            return {
                "spans": {
                    key: (s.calls, s.total, s.self_s)
                    for key, s in self.spans.items()
                },
                "counters": dict(self.counters),
                "distinct": {key: len(v) for key, v in self.distinct.items()},
                "unattributed_s": max(0.0, self.root_self - self.offthread_top),
            }


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see README.md for the list)."""
    import zlib

    import repro.evalsets.problem as problem
    import repro.hdl.lint as lint
    import repro.hdl.parser as parser
    import repro.service.protocol as protocol
    import repro.service.worker as worker
    import repro.tb.runner as runner
    from repro.core.pipeline import Stage
    from repro.hdl.elaborator import Elaborator
    from repro.llm.simllm import SimLLM
    from repro.runtime.cache import TieredCache
    from repro.service.broker import Broker

    def parsing(source, *args, **kwargs):
        tracer.note_distinct("hdl.parse", zlib.crc32(source.encode()))

    def checked(report, *args, **kwargs):
        tracer.add("tb.run.checks", report.total_checks)

    def looked_up(value, cache, *args, **kwargs):
        tracer.add(f"runtime.cache.{cache.layer}.hits", value is not None)

    def encoded(data, *args, **kwargs):
        tracer.add("service.codec.encode.bytes", len(data))

    tracer.wrap_function(parser, "parse_source", "hdl.parse", on_call=parsing)
    tracer.wrap_method(Elaborator, "elaborate", "hdl.elaborate")
    tracer.wrap_function(lint, "lint", "hdl.lint")
    tracer.wrap_function(runner, "run_testbench", "tb.run", on_result=checked)
    tracer.wrap_function(problem, "derive_testbench", "evalsets.golden_tb")
    # SimLLM.complete delegates to sample, so one span per LLM call.
    tracer.wrap_method(SimLLM, "sample", "llm")
    tracer.wrap_method(Stage, "run", lambda stage, *a, **k: f"core.stage.{stage.name}")
    tracer.wrap_method(
        TieredCache,
        "get",
        lambda cache, *a, **k: f"runtime.cache.{cache.layer}.get",
        on_result=looked_up,
    )
    tracer.wrap_method(
        TieredCache, "put", lambda cache, *a, **k: f"runtime.cache.{cache.layer}.put"
    )
    tracer.wrap_function(
        protocol, "encode_frame", "service.codec.encode", on_result=encoded
    )
    tracer.wrap_function(
        protocol, "decode_payload_versioned", "service.codec.decode"
    )
    tracer.wrap_function(worker, "solve_service_request", "service.worker")
    _hook_broker_wait(tracer, Broker)


def _hook_broker_wait(tracer: Tracer, broker_cls) -> None:
    """Time each job from ``Broker.submit`` to the ``next_job`` that pops it.

    Hooks, not spans: ``next_job`` blocks while the queue is empty, and
    that idle wait is no layer's work.
    """
    submitted: dict[tuple, float] = {}
    submit, next_job = broker_cls.submit, broker_cls.next_job

    @functools.wraps(submit)
    def timed_submit(self, system, problem, seed, *args, **kwargs):
        # Stamp before submitting: a worker may pop the job before
        # submit returns.  The broker keys jobs by (system, problem, seed).
        key = (system, problem, int(seed))
        fresh = key not in submitted
        if fresh:
            submitted[key] = time.perf_counter()
        job, subscription, deduped = submit(self, system, problem, seed, *args, **kwargs)
        if deduped and fresh:
            submitted.pop(key, None)  # joined a job that was already popped
        return job, subscription, deduped

    @functools.wraps(next_job)
    def timed_next_job(self, *args, **kwargs):
        job = next_job(self, *args, **kwargs)
        if job is not None:
            started = submitted.pop(job.key, None)
            if started is not None:
                tracer.add("service.broker.wait_s", time.perf_counter() - started)
        return job

    broker_cls.submit = timed_submit
    broker_cls.next_job = timed_next_job
