"""Long-lived solve workers: pull cells, run the pipeline, stream events.

A :class:`Worker` is a daemon thread bound to a
:class:`~repro.service.broker.Broker`.  For each job it resolves the
registered system and benchmark problem, then runs exactly the
computation an :func:`~repro.runtime.batch.evaluate_many` cell would
run -- a fresh system instance under a pinned-serial runtime session,
scored against the hidden golden testbench -- while streaming the typed
event stream to every subscriber via ``job.publish``.  Bit-for-bit
parity with the local executor is therefore structural, not aspirational:
both paths share :func:`repro.runtime.workers.solve_streaming`.

Workers populate (and are fronted by) both cache layers: the solve-cell
cache memoizes whole runs, the simulation cache the golden scoring, so
a repeated submit replays its event stream and re-scores entirely from
cache.  ``executed`` counts only jobs whose pipeline actually ran --
the counter the dedup and cache contracts are verified against.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover -- annotation-only import
    from repro.llm.gateway.settings import GatewaySettings

from repro.runtime.cache import (
    SimulationCache,
    SolveCellCache,
    cached_run_testbench,
    decode_value,
    encode_value,
    system_fingerprint,
)
from repro.runtime.config import default_jobs
from repro.runtime.context import RuntimeContext, runtime_session
from repro.runtime.executor import Executor, SerialExecutor, ThreadExecutor
from repro.runtime.rollout import (
    RolloutRequest,
    RolloutScheduler,
    ScoreTask,
    StealBoard,
    rollout_score,
)
from repro.runtime.workers import solve_streaming


@dataclass(frozen=True)
class ServiceResult:
    """One solved cell: what the terminal ``done`` frame carries."""

    source: str
    passed: bool
    score: float
    seconds: float
    system: str
    solve_cached: bool = False


class ServiceStats:
    """Thread-safe service counters (worker executions, cache serves,
    and the peer-sharing traffic answered for other machines)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.executed = 0  # pipelines actually run (not cache-served)
        self.cache_served = 0  # results served from the solve-cell cache
        self.errors = 0
        self.peer_gets = 0  # CacheGet frames answered
        self.peer_hits = 0  # ... of which found a local entry
        self.peer_puts = 0  # CachePut frames stored
        self.steal_served = 0  # wave tasks handed to thieves (victim side)
        self.steal_attempts = 0  # WaveSteal frames sent (thief side)
        self.steal_executed = 0  # stolen tasks simulated and returned
        self.steal_peer_gone = 0  # steal rounds abandoned: peer dead/severed

    def count(self, field: str) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + 1)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "executed": self.executed,
                "cache_served": self.cache_served,
                "errors": self.errors,
                "peer_gets": self.peer_gets,
                "peer_hits": self.peer_hits,
                "peer_puts": self.peer_puts,
                "steal_served": self.steal_served,
                "steal_attempts": self.steal_attempts,
                "steal_executed": self.steal_executed,
                "steal_peer_gone": self.steal_peer_gone,
            }


# Registered-system display names and config fingerprints, resolved
# once per process: both are pure functions of the registry key (plus,
# for fingerprints, the active gateway configuration), and recomputing
# them (an instance construction, a _stable_repr walk over the whole
# config) per request would be wasted work on hot paths.
_NAME_CACHE: dict[str, str] = {}
_FINGERPRINT_CACHE: dict[tuple, str | None] = {}
_NAME_LOCK = threading.Lock()


def registered_system_name(key: str) -> str:
    """The ``.name`` a fresh instance of a registered system reports."""
    from repro.baselines.registry import SYSTEMS, system_names

    with _NAME_LOCK:
        name = _NAME_CACHE.get(key)
        if name is None:
            spec = SYSTEMS.get(key)
            if spec is None:
                raise KeyError(
                    f"unknown system {key!r}; "
                    f"known: {', '.join(system_names())}"
                )
            name = spec.factory().name
            _NAME_CACHE[key] = name
        return name


def registered_fingerprint(key: str) -> str | None:
    """Memoized :func:`system_fingerprint` of a registered system.

    None means the factory has no stable configuration identity (and
    solve-cell caching is skipped for it), memoized all the same.  The
    memo key folds in the active gateway fingerprint because
    ``system_fingerprint`` resolves it ambiently: the same system key
    under a different backend chain or stage routing is a different
    solve-cell identity and must not reuse a stale memo entry.
    """
    from repro.baselines.registry import SYSTEMS
    from repro.llm.gateway.settings import active_gateway_fingerprint

    memo_key = (key, active_gateway_fingerprint())
    with _NAME_LOCK:
        if memo_key not in _FINGERPRINT_CACHE:
            spec = SYSTEMS.get(key)
            _FINGERPRINT_CACHE[memo_key] = (
                system_fingerprint(spec.factory) if spec is not None else None
            )
        return _FINGERPRINT_CACHE[memo_key]


def serve_cached_record(
    system: str,
    problem_id: str,
    record,
    sink=None,
    sim_cache: SimulationCache | None = None,
) -> ServiceResult:
    """Serve one cell from an already-fetched solve-cell record.

    Replays the recorded event stream into ``sink`` and re-scores the
    cached source against the golden testbench (itself a simulation-
    cache hit on a warm server) -- the server's inline warm path, which
    never touches the worker pool.
    """
    from repro.core.events import as_sink
    from repro.evalsets import get_problem, golden_testbench

    problem = get_problem(problem_id)
    golden = golden_testbench(problem)
    started = time.perf_counter()
    if sink is not None:
        live = as_sink(sink)
        for event in record.events:
            live.emit(event)
    inner = RuntimeContext(executor=SerialExecutor(), cache=sim_cache)
    with runtime_session(context=inner):
        report = cached_run_testbench(
            record.source, golden, problem.top, cache=sim_cache
        )
    return ServiceResult(
        source=record.source,
        passed=report.passed,
        score=report.score,
        seconds=time.perf_counter() - started,
        system=registered_system_name(system),
        solve_cached=True,
    )


def solve_service_request(
    system: str,
    problem_id: str,
    seed: int,
    sink=None,
    sim_cache: SimulationCache | None = None,
    solve_cache: SolveCellCache | None = None,
    gateway: "GatewaySettings | None" = None,
) -> ServiceResult:
    """Run one (system, problem, seed) cell exactly as a grid cell would.

    Raises ``KeyError`` for an unknown system or problem id; the caller
    turns that into an error frame.
    """
    from repro.baselines.registry import SYSTEMS, system_names
    from repro.evalsets import get_problem, golden_testbench

    spec = SYSTEMS.get(system)
    if spec is None:
        raise KeyError(
            f"unknown system {system!r}; known: {', '.join(system_names())}"
        )
    problem = get_problem(problem_id)
    golden = golden_testbench(problem)
    started = time.perf_counter()
    # Same isolation as a batch cell: the whole request runs under a
    # serial inner runtime (pinning the server's gateway settings), so
    # worker threads never nest parallelism and LLM-call ordering
    # matches a plain local solve.  The fingerprint is resolved inside
    # the session so it sees the same gateway the solve will.
    inner = RuntimeContext(
        executor=SerialExecutor(), cache=sim_cache, gateway=gateway
    )
    with runtime_session(context=inner):
        fingerprint = (
            registered_fingerprint(system) if solve_cache is not None else None
        )
        source, cached = solve_streaming(
            spec.factory,
            problem,
            seed,
            sink=sink,
            solve_cache=solve_cache,
            fingerprint=fingerprint,
        )
        report = cached_run_testbench(source, golden, problem.top, cache=sim_cache)
    return ServiceResult(
        source=source,
        passed=report.passed,
        score=report.score,
        seconds=time.perf_counter() - started,
        system=registered_system_name(system),
        solve_cached=cached,
    )


def steal_from_peer(
    address: str,
    cache: SimulationCache | None = None,
    max_items: int = 4,
    stats: ServiceStats | None = None,
    timeout: float | None = 30.0,
) -> int:
    """Claim, simulate, and return up to ``max_items`` of a busy peer's
    published score-wave tasks.  Returns how many were executed.

    The claimed :class:`~repro.runtime.rollout.ScoreTask` blobs are
    type-guarded on receipt, simulated through *this* process's cache
    (warming it too), and the reports pushed back over ``CachePut``
    into the victim's ``sim`` layer -- where the victim's own wave
    lookups find them.  Every failure mode (peer gone, corrupt blob,
    simulation error, lost put) degrades to the victim simulating
    locally, never to a wrong or missing result.
    """
    from repro.service.client import MultiplexedClient

    if stats is not None:
        stats.count("steal_attempts")
    executed = 0
    with MultiplexedClient(address, timeout=timeout) as client:
        pairs = client.wave_steal(max_items=max_items)
        for key, blob in pairs:
            task = decode_value(blob, ScoreTask)
            if task is None:
                continue  # corrupt or wrong-typed blob: skip
            try:
                outcome = rollout_score(task, cache)
            except Exception:  # noqa: BLE001 -- victim retains the task
                continue
            try:
                client.cache_put("sim", key, encode_value(outcome.report))
            except Exception:  # noqa: BLE001 -- lost put = local re-sim
                continue
            executed += 1
            if stats is not None:
                stats.count("steal_executed")
    return executed


class RolloutWorker(threading.Thread):
    """A worker that gang-schedules sampling across in-flight cells.

    Where :class:`Worker` drains one job at a time, this worker gathers
    up to ``batch`` dedup-distinct jobs from the broker (after the
    first blocking pop it lingers ``linger`` seconds for stragglers),
    turns them into rollout requests, and drives them through a shared
    :class:`~repro.runtime.rollout.RolloutScheduler`: every gathered
    cell advances to its Step-4 suspension point, their candidate
    simulations coalesce into shared scoring waves, and each job's
    event stream is published as its phases complete.

    Batch *composition* is timing-dependent (it depends on what is
    queued when), but per-job output is not: the rollout determinism
    contract makes every job's events and result identical to a plain
    :class:`Worker`'s, whichever batch it happened to ride in.

    With ``steal_peers``, an *idle* worker (empty broker) turns thief:
    it polls the queue with a short timeout and, between polls, drains
    published score waves from each peer in turn via
    :func:`steal_from_peer`.  ``steal_board`` is this server's own
    published-wave board, shared across its workers so any of them can
    be the victim.
    """

    def __init__(
        self,
        broker,
        stats: ServiceStats,
        sim_cache: SimulationCache | None = None,
        solve_cache: SolveCellCache | None = None,
        batch: int = 4,
        linger: float = 0.05,
        executor: Executor | None = None,
        name: str | None = None,
        gateway: "GatewaySettings | None" = None,
        steal_peers: tuple[str, ...] | list[str] | None = None,
        steal_board: StealBoard | None = None,
        steal_poll: float = 0.25,
    ):
        super().__init__(name=name or "repro-service-rollout", daemon=True)
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.broker = broker
        self.stats = stats
        self.sim_cache = sim_cache
        self.solve_cache = solve_cache
        self.batch = batch
        self.linger = linger
        self.gateway = gateway
        self.steal_peers = tuple(steal_peers or ())
        self.steal_poll = steal_poll
        # Per-peer cooldown deadlines: a peer that died mid-steal (or
        # refused the connection) is skipped until its deadline passes,
        # so an idle thief doesn't hammer a corpse every poll tick.
        self.steal_cooldown = 2.0
        self._peer_down_until: dict[str, float] = {}
        self._owns_executor = executor is None
        self.scheduler = RolloutScheduler(
            executor=(
                executor
                if executor is not None
                # Wave fan-out sized to the machine, not the batch knob:
                # score waves carry batch x pool_size simulations.
                else ThreadExecutor(max(2, default_jobs()))
            ),
            batch=batch,
            cache=sim_cache,
            solve_cache=solve_cache,
            gateway=gateway,
            steal_board=steal_board,
        )

    def _fingerprint(self, system: str) -> str | None:
        # Resolve under a context pinning the worker's gateway settings
        # so the memoized fingerprint matches what the scheduler's
        # pinned cells will compute (not whatever this thread's ambient
        # environment happens to say).
        inner = RuntimeContext(
            executor=SerialExecutor(),
            cache=self.sim_cache,
            gateway=self.gateway,
        )
        with runtime_session(context=inner):
            return registered_fingerprint(system)

    def run(self) -> None:
        try:
            while True:
                if self.steal_peers:
                    # Idle loop with theft: poll the queue briefly, and
                    # between polls drain score waves from busy peers.
                    job = self.broker.next_job(timeout=self.steal_poll)
                    if job is None:
                        if self.broker.closed:
                            return
                        self._steal_round()
                        continue
                else:
                    job = self.broker.next_job()
                    if job is None:
                        return  # broker closed and drained
                jobs = [job]
                while len(jobs) < self.batch:
                    extra = self.broker.next_job(timeout=self.linger)
                    if extra is None:
                        break  # nothing else queued right now
                    jobs.append(extra)
                self._solve_batch(jobs)
        finally:
            if self._owns_executor:
                self.scheduler.executor.shutdown()

    def _steal_round(self) -> None:
        """One pass over the peer ring; dead peers are typed and cooled.

        A peer that vanished -- connection refused, reset, or severed
        mid-frame (:class:`~repro.service.protocol.PeerGone`) -- is
        *expected* during elastic churn: it is counted, put on a short
        cooldown, and skipped, never logged as corruption.  Anything
        else (a genuine protocol violation) also skips the peer but
        without assuming it will come back.
        """
        from repro.service.client import ServiceError
        from repro.service.protocol import PeerGone, ProtocolError

        now = time.monotonic()
        for address in self.steal_peers:
            if now < self._peer_down_until.get(address, 0.0):
                continue  # cooling down after a recent death
            try:
                steal_from_peer(
                    address,
                    cache=self.sim_cache,
                    max_items=self.batch,
                    stats=self.stats,
                )
            except (PeerGone, ConnectionError, OSError, ServiceError):
                # The peer is gone (or going): cool down and move on.
                self.stats.count("steal_peer_gone")
                self._peer_down_until[address] = (
                    time.monotonic() + self.steal_cooldown
                )
                continue
            except ProtocolError:
                # Desynchronised or corrupt stream: the one-shot client
                # is already closed; treat the peer as suspect too.
                self.stats.count("steal_peer_gone")
                self._peer_down_until[address] = (
                    time.monotonic() + self.steal_cooldown
                )
                continue
            self._peer_down_until.pop(address, None)

    def _solve_batch(self, jobs: list) -> None:
        from repro.baselines.registry import SYSTEMS, system_names
        from repro.evalsets import get_problem, golden_testbench

        requests: list[RolloutRequest] = []
        admitted: list = []
        for job in jobs:
            spec = SYSTEMS.get(job.system)
            if spec is None:
                self.stats.count("errors")
                self.broker.fail(
                    job,
                    f"KeyError: unknown system {job.system!r}; "
                    f"known: {', '.join(system_names())}",
                )
                continue
            try:
                problem = get_problem(job.problem)
                golden = golden_testbench(problem)
            except Exception as exc:  # noqa: BLE001 -- becomes an error frame
                self.stats.count("errors")
                self.broker.fail(job, f"{type(exc).__name__}: {exc}")
                continue
            requests.append(
                RolloutRequest(
                    index=len(requests),
                    factory=spec.factory,
                    problem=problem,
                    golden_tb=golden,
                    seed=job.seed,
                    sink=job.publish,
                    fingerprint=(
                        self._fingerprint(job.system)
                        if self.solve_cache is not None
                        else None
                    ),
                )
            )
            admitted.append(job)
        if not requests:
            return
        try:
            results = self.scheduler.run(requests)
        except Exception as exc:  # noqa: BLE001 -- fail the whole batch
            for job in admitted:
                self.stats.count("errors")
                self.broker.fail(job, f"{type(exc).__name__}: {exc}")
            return
        for job, result in zip(admitted, results):
            if result.error is not None:
                self.stats.count("errors")
                self.broker.fail(job, result.error)
                continue
            self.stats.count(
                "cache_served" if result.solve_cached else "executed"
            )
            self.broker.finish(
                job,
                ServiceResult(
                    source=result.source,
                    passed=result.passed,
                    score=result.score,
                    seconds=result.seconds,
                    system=registered_system_name(job.system),
                    solve_cached=result.solve_cached,
                ),
            )


class Worker(threading.Thread):
    """One long-lived worker thread draining the broker."""

    def __init__(
        self,
        broker,
        stats: ServiceStats,
        sim_cache: SimulationCache | None = None,
        solve_cache: SolveCellCache | None = None,
        name: str | None = None,
        gateway: "GatewaySettings | None" = None,
    ):
        super().__init__(name=name or "repro-service-worker", daemon=True)
        self.broker = broker
        self.stats = stats
        self.sim_cache = sim_cache
        self.solve_cache = solve_cache
        self.gateway = gateway

    def run(self) -> None:
        while True:
            job = self.broker.next_job()
            if job is None:
                return  # broker closed and drained
            try:
                result = solve_service_request(
                    job.system,
                    job.problem,
                    job.seed,
                    sink=job.publish,
                    sim_cache=self.sim_cache,
                    solve_cache=self.solve_cache,
                    gateway=self.gateway,
                )
            except Exception as exc:  # noqa: BLE001 -- becomes an error frame
                self.stats.count("errors")
                self.broker.fail(job, f"{type(exc).__name__}: {exc}")
                continue
            self.stats.count(
                "cache_served" if result.solve_cached else "executed"
            )
            self.broker.finish(job, result)
