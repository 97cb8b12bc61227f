"""One benchmark child process: a workload's set-up and timed repetitions.

``run.py`` starts this script once per repetition group so that every
``cold-grid`` and ``llm-wait`` grid starts in a fresh interpreter, with
empty caches and empty process-level memos, exactly as ``repro eval``
does.  The child reads one JSON spec from ``argv[1]`` and prints one
line, ``PERFBENCH <json>``, as the last line of its standard output.

Spec keys: ``mode`` (``workload`` or ``expected``), ``workload``,
``seed0`` (the first run seed), ``trace``, ``budget_s`` (timed seconds,
``sweep-extend`` only) and ``spawned_at`` (the parent's ``time.time()``
just before it started this process, so set-up time includes the
interpreter start and every import).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import queue
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SUITE = "verilogeval-v2"
SYSTEM = "mage"
# Workload seed n owns run seeds SEED_BLOCK*n .. SEED_BLOCK*(n+1)-1.
SEED_BLOCK = 32
# Runs per problem of one grid repetition.  Grid child c starts at run
# seed block + GRID_STRIDE*c, so a run covers many run seeds, and
# llm-wait's seed is the first of each of cold-grid's groups of four:
# its rows must equal cold-grid's.
GRID_RUNS = {"cold-grid": 4, "llm-wait": 1}
GRID_STRIDE = 4
MAX_GRID_CHILDREN = SEED_BLOCK // GRID_STRIDE
# Injected wait per LLM call in llm-wait, about one short remote round trip.
LLM_DELAY_S = 0.020
# sweep-extend: every second suite problem (all five categories), a
# window of four seeds, and at most MAX_SLIDES slides per child, so every
# run seed stays inside the block.
SWEEP_PROBLEM_STEP = 2
WINDOW = 4
MAX_SLIDES = 12
# Closed-loop load generators (threads, one connection each), capped at
# the box's cores.
LOAD_THREADS = min(2, os.cpu_count() or 1)


class DelayedLLM:
    """An ``LLMClient`` that waits a fixed delay before each call.

    Wraps the engine's own simulated LLM, so replies (and therefore
    rows) are unchanged; only the remote-call latency is added.
    """

    def __init__(self, inner, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s

    @property
    def model_name(self) -> str:
        return self.inner.model_name

    def wait(self) -> None:
        time.sleep(self.delay_s)

    def complete(self, messages, params):
        self.wait()
        return self.inner.complete(messages, params)

    def sample(self, messages, params):
        self.wait()
        return self.inner.sample(messages, params)


class DelayedMAGESystem:
    """The registry's ``mage`` system, talking to a :class:`DelayedLLM`."""

    def __init__(self, delay_s: float):
        from repro.baselines.registry import SYSTEMS

        self.inner = SYSTEMS[SYSTEM].factory()
        self.config = self.inner.config
        self.name = self.inner.name
        self.delay_s = delay_s

    def solve(self, task, seed: int = 0, sink=None) -> str:
        from repro.core.engine import MAGE
        from repro.llm.interface import create_llm

        llm = DelayedLLM(create_llm(self.config.model), self.delay_s)
        return MAGE(self.config, llm=llm).solve(task, seed=seed, sink=sink).source


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Tracing: the per-layer ledger of one timed repetition.
# ----------------------------------------------------------------------


def start_tracer():
    """Install the layer spans (traced children only)."""
    import repro.baselines.registry  # noqa: F401 -- bind agent imports first
    import repro.runtime.batch  # noqa: F401
    import repro.service.server  # noqa: F401
    from tracer import Tracer, install_layer_spans

    tracer = Tracer()
    install_layer_spans(tracer)
    # The llm-wait shim's sleep is the injected remote wait, not SimLLM.
    tracer.wrap_method(DelayedLLM, "wait", "llm.wait")
    return tracer


def trace_cells(tracer, executor) -> None:
    """Root span per grid cell, plus the executor's submit-to-start wait."""
    import repro.runtime.batch as batch

    submitted: dict[int, float] = {}
    submit = executor.submit

    def timed_submit(fn, *args):
        submitted[id(args[0])] = time.perf_counter()
        return submit(fn, *args)

    def cell_started(cell, *args, **kwargs):
        started = submitted.pop(id(cell), None)
        if started is not None:
            tracer.add("runtime.executor.queue_s", time.perf_counter() - started)

    executor.submit = timed_submit
    tracer.wrap_function(
        batch, "run_cell", "runtime.cell", root=True, on_call=cell_started
    )


def layer_metrics(
    ledger: dict,
    cells: int,
    wall: float,
    sims: int,
    busy_s: float,
    workers: int,
    overhead_ms: float,
) -> dict:
    """Per-layer metrics of one traced repetition (see README.md)."""
    spans, counters = ledger["spans"], ledger["counters"]

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {
        "hdl.parse.calls": calls("hdl.parse"),
        "hdl.parse.s": self_s("hdl.parse"),
        "hdl.parse.unique_frac": ratio(
            ledger["distinct"].get("hdl.parse", 0), calls("hdl.parse")
        ),
        "hdl.elaborate.calls": calls("hdl.elaborate"),
        "hdl.elaborate.s": self_s("hdl.elaborate"),
        "hdl.lint.calls": calls("hdl.lint"),
        "hdl.lint.s": self_s("hdl.lint"),
        "tb.run.calls": calls("tb.run"),
        "tb.run.s": self_s("tb.run"),
        "tb.run.checks": counters.get("tb.run.checks", 0),
        "evalsets.golden_tb.calls": calls("evalsets.golden_tb"),
        "evalsets.golden_tb.s": total("evalsets.golden_tb"),
        "llm.calls": calls("llm"),
        "llm.s": self_s("llm"),
        "llm.golden_sim_s": counters.get("llm.golden_sim_s", 0.0),
        "llm.wait_s": total("llm.wait"),
        "core.llm_calls_per_cell": ratio(calls("llm"), cells),
        "runtime.sims": sims,
        "runtime.sims_per_cell": ratio(sims, cells),
        "runtime.executor.queue_s": counters.get("runtime.executor.queue_s", 0.0),
        "runtime.executor.util": ratio(busy_s, wall * workers),
        "service.codec.encode.calls": calls("service.codec.encode"),
        "service.codec.encode.s": self_s("service.codec.encode"),
        "service.codec.encode.bytes": counters.get("service.codec.encode.bytes", 0),
        "service.codec.decode.calls": calls("service.codec.decode"),
        "service.codec.decode.s": self_s("service.codec.decode"),
        "service.broker.wait_s": counters.get("service.broker.wait_s", 0.0),
        "service.worker.s": total("service.worker"),
        "service.overhead_ms": overhead_ms,
        "trace.unattributed_s": ledger["unattributed_s"],
    }
    for step in range(1, 6):
        metrics[f"core.stage.step{step}.s"] = total(f"core.stage.step{step}")
    for layer in ("sim", "solve"):
        lookups = calls(f"runtime.cache.{layer}.get")
        metrics[f"runtime.cache.{layer}.lookups"] = lookups
        metrics[f"runtime.cache.{layer}.hit_frac"] = ratio(
            counters.get(f"runtime.cache.{layer}.hits", 0), lookups
        )
        metrics[f"runtime.cache.{layer}.get_s"] = self_s(f"runtime.cache.{layer}.get")
        metrics[f"runtime.cache.{layer}.put_s"] = self_s(f"runtime.cache.{layer}.put")
    return metrics


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------


def grid_child(spec: dict) -> dict:
    """cold-grid / llm-wait: one cold grid repetition in this process."""
    from repro.baselines.registry import SYSTEMS
    from repro.core.events import CellFinished
    from repro.evalsets.suites import get_suite
    from repro.runtime import (
        SerialExecutor,
        create_executor,
        evaluate_many,
        simulation_count,
    )
    from repro.runtime.config import default_jobs

    workload, seed0 = spec["workload"], spec["seed0"]
    problems = get_suite(SUITE)
    if workload == "llm-wait":
        factory = functools.partial(DelayedMAGESystem, LLM_DELAY_S)
        executor = create_executor(default_jobs(), "auto")
    else:
        factory = SYSTEMS[SYSTEM].factory
        executor = SerialExecutor()
    tracer = start_tracer() if spec["trace"] else None
    if tracer is not None:
        trace_cells(tracer, executor)
    cells: list[list] = []

    def on_event(event) -> None:
        if isinstance(event, CellFinished):
            cells.append(
                [
                    event.problem_id,
                    seed0 + event.run_index,
                    event.passed,
                    event.score,
                    event.seconds,
                ]
            )

    error = None
    setup_done = time.time()
    sims = simulation_count()
    started = time.perf_counter()
    try:
        evaluate_many(
            factory,
            SUITE,
            runs=GRID_RUNS[workload],
            seed0=seed0,
            problems=problems,
            executor=executor,
            events=on_event,
        )
    except Exception as exc:  # noqa: BLE001 -- reported as failed cells
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    rss = peak_rss_mb()
    executor.shutdown()
    rep = {
        "wall": wall,
        "planned": len(problems) * GRID_RUNS[workload],
        "cells": cells,
        "error": error,
    }
    if tracer is not None:
        ledger = tracer.ledger()
        rep["layers"] = layer_metrics(
            ledger,
            cells=len(cells),
            wall=wall,
            sims=simulation_count() - sims,
            busy_s=ledger["spans"].get("runtime.cell", (0, 0.0, 0.0))[1],
            workers=executor.workers,
            overhead_ms=0.0,
        )
    return {
        "setup_s": setup_done - spec["spawned_at"],
        "peak_rss_mb": rss,
        "reps": [rep],
    }


def closed_loop(clients, cells, request) -> tuple[float, list]:
    """Drive ``cells`` through one thread per client; returns (wall, rows)."""
    todo: "queue.SimpleQueue" = queue.SimpleQueue()
    for cell in cells:
        todo.put(cell)
    rows: list[list] = []
    lock = threading.Lock()

    def drive(client) -> None:
        while True:
            try:
                problem, seed = todo.get_nowait()
            except queue.Empty:
                return
            row = request(client, problem, seed)
            with lock:
                rows.append(row)

    threads = [
        threading.Thread(target=drive, args=(client,), name=f"perfbench-load-{i}")
        for i, client in enumerate(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150.0)
    wall = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator did not finish within 150 s")
    return wall, rows


def solve_request(client, problem: str, seed: int) -> list:
    """One request: ``[problem, seed, passed, score, latency, server s]``.

    A failed request keeps its latency and adds the error as a seventh
    field, with ``passed``, ``score`` and the server time left None.
    """
    started = time.perf_counter()
    try:
        outcome = client.solve(SYSTEM, problem, seed=seed)
    except Exception as exc:  # noqa: BLE001 -- a failed cell, not a crash
        latency = time.perf_counter() - started
        return [problem, seed, None, None, latency, None, f"{type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - started
    return [problem, seed, outcome.passed, outcome.score, latency, outcome.seconds]


def sweep_child(spec: dict) -> dict:
    """sweep-extend: warm a window of seeds, then slide it one seed a time."""
    from repro.evalsets.suites import get_suite
    from repro.runtime import simulation_count
    from repro.service import MultiplexedClient, SolveServer

    seed0 = spec["seed0"]
    problems = [problem.id for problem in get_suite(SUITE)][::SWEEP_PROBLEM_STEP]
    workers = inspect.signature(SolveServer).parameters["workers"].default
    tracer = start_tracer() if spec["trace"] else None
    request = solve_request
    if tracer is not None:
        request = tracer.traced(solve_request, "service.request", root=True)
    server = SolveServer().start()
    try:
        clients = [
            MultiplexedClient(server.address, timeout=120.0)
            for _ in range(LOAD_THREADS)
        ]
        try:
            window = [(p, seed0 + j) for p in problems for j in range(WINDOW)]
            _, warm_rows = closed_loop(clients, window, solve_request)
            setup_done = time.time()
            reps = []
            timed = 0.0
            while len(reps) < MAX_SLIDES and (not reps or timed < spec["budget_s"]):
                slide = len(reps) + 1
                cells = [
                    (p, seed0 + slide + j) for p in problems for j in range(WINDOW)
                ]
                if tracer is not None:
                    tracer.reset()
                sims = simulation_count()
                wall, rows = closed_loop(clients, cells, request)
                timed += wall
                rep = {"wall": wall, "planned": len(cells), "cells": rows, "error": None}
                if tracer is not None:
                    ledger = tracer.ledger()
                    served = [r[4] - r[5] for r in rows if r[5] is not None]
                    rep["layers"] = layer_metrics(
                        ledger,
                        cells=len(rows),
                        wall=wall,
                        sims=simulation_count() - sims,
                        busy_s=ledger["spans"].get("service.worker", (0, 0.0, 0.0))[1],
                        workers=workers,
                        overhead_ms=1000.0 * statistics.median(served) if served else 0.0,
                    )
                reps.append(rep)
            rss = peak_rss_mb()
        finally:
            for client in clients:
                client.close()
    finally:
        server.shutdown()
    return {
        "setup_s": setup_done - spec["spawned_at"],
        "peak_rss_mb": rss,
        "reps": reps,
        "warm_cells": warm_rows,
    }


def expected_rows(seeds: list[int]) -> dict:
    """Suite problem ids and ``{seed: [[passed, score] per problem]}``.

    Computed with the serial in-process path, the reference every other
    execution path must reproduce bit for bit.
    """
    from repro.baselines.registry import SYSTEMS
    from repro.core.events import CellFinished
    from repro.evalsets.suites import get_suite
    from repro.runtime import SerialExecutor, evaluate_many

    problems = get_suite(SUITE)
    index = {problem.id: i for i, problem in enumerate(problems)}
    rows = {str(seed): [None] * len(problems) for seed in seeds}
    ordered = sorted(set(seeds))
    start = 0
    while start < len(ordered):
        end = start
        while end + 1 < len(ordered) and ordered[end + 1] == ordered[end] + 1:
            end += 1
        seed0 = ordered[start]

        def on_event(event, seed0=seed0) -> None:
            if isinstance(event, CellFinished):
                rows[str(seed0 + event.run_index)][index[event.problem_id]] = [
                    event.passed,
                    event.score,
                ]

        evaluate_many(
            SYSTEMS[SYSTEM].factory,
            SUITE,
            runs=end - start + 1,
            seed0=seed0,
            problems=problems,
            executor=SerialExecutor(),
            events=on_event,
        )
        start = end + 1
    return {"problems": list(index), "rows": rows}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    if spec["mode"] == "expected":
        result = expected_rows(spec["seeds"])
    elif spec["workload"] == "sweep-extend":
        result = sweep_child(spec)
    else:
        result = grid_child(spec)
    print("PERFBENCH " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
