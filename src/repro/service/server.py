"""Asyncio TCP solve server: multiplexed connections over one event loop.

:class:`SolveServer` binds a localhost TCP socket and serves every
client connection on a single asyncio event loop: one reader coroutine
and one writer task per connection, with each *request* dispatched to a
thread pool.  Frames carry request ids, so any number of requests can
be in flight on one connection and their reply streams interleave
frame-by-frame -- a v3 multiplexing client runs a whole grid shard over
one socket.  Legacy v1/v2 clients pipeline strictly one request at a
time, which is simply a degenerate schedule of the same machinery;
replies echo the client's protocol version, so old clients never see a
frame dialect they don't speak.

Requests route through a shared :class:`~repro.service.broker.Broker`
into a pool of long-lived :class:`~repro.service.worker.Worker`
threads.  Both cache layers live in the server process, so the layered
serving ladder is:

1. **solve-cell cache hit** -- served inline by the request's handler
   thread (events replayed, scoring via the simulation cache); no
   worker is touched and no queue slot is consumed;
2. **peer replay** -- the same rung through the cache fabric's remote
   tiers: a cell warm on a peer server is fetched over ``CacheGet``
   frames, promoted into the local memory/disk tiers, and served
   inline exactly like a local cache hit;
3. **in-flight dedup** -- an identical queued/running cell adopts the
   new subscriber; one execution, n streams;
4. **cold cell** -- queued by priority, executed by the next free
   worker, and stored in both caches on the way out (gossiped to peers
   through a write-behind queue, so the put never sits on the solve
   path and the whole ring still warms).

The server also *answers* ``CacheGet``/``CachePut`` frames from its
local tiers, making it a peer for other machines' remote tiers.

**The elastic ring.**  Servers discover each other over
``PeerHello``/``PeerList`` frames: ``join`` bootstraps membership from
any existing member, and a heartbeat loop re-hellos every known member,
merging peer lists (so views converge) and expelling members that stop
answering.  Membership changes resync the cache fabric's remote tiers,
and clients fetch the member list with a ``peers`` control request --
which is how ``solve_grid`` re-shards mid-sweep when a ring member
dies.

Shutdown is a graceful drain: new submissions are refused, queued jobs
finish, workers exit, then the sockets close.  :meth:`SolveServer.kill`
is the chaos-test path: queued jobs are aborted and every connection is
severed mid-frame, exactly like a SIGKILL.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import socket
import threading
import time

from repro.runtime.cache import (
    SimulationCache,
    SolveCellCache,
    decode_value,
    encode_value,
    solve_cell_key,
)
from repro.runtime.rollout import StealBoard
from repro.service.broker import Broker, BrokerClosed, BrokerFull
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Ack,
    CacheGet,
    CachePut,
    CacheReply,
    ControlRequest,
    Done,
    ErrorFrame,
    EventFrame,
    Frame,
    PeerGone,
    PeerHello,
    PeerList,
    ProtocolError,
    SolveRequest,
    StatsReply,
    WaveSteal,
    WaveTasks,
    encode_frame,
    read_frame_async,
)
from repro.service.ring import PeerDirectory
from repro.service.worker import (
    RolloutWorker,
    ServiceStats,
    Worker,
    registered_fingerprint,
    serve_cached_record,
)


class _Connection:
    """One client connection on the event loop.

    The reader coroutine (``run``) parses frames and dispatches each
    request; a dedicated writer task drains ``_outbox`` so that frames
    enqueued by concurrent handler threads interleave at frame
    granularity and per-request order is preserved (each handler
    enqueues its own frames sequentially).  ``send`` is the only
    cross-thread entry point: it marshals onto the loop with
    ``call_soon_threadsafe``.
    """

    def __init__(self, service: "SolveServer", reader, writer):
        self.service = service
        self.reader = reader
        self.writer = writer
        self.loop = asyncio.get_running_loop()
        # The protocol version this client speaks (from its last frame);
        # replies are stamped with it, which is the whole legacy shim.
        self.version = PROTOCOL_VERSION
        self._outbox: asyncio.Queue = asyncio.Queue()
        self._tasks: set = set()
        self._closed = False

    # -- cross-thread send ---------------------------------------------

    def send(self, frame: Frame) -> bool:
        """Enqueue one frame from any thread; False once the client is
        known to be gone (handlers use this to stop streaming)."""
        if self._closed:
            return False
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self.loop:
            # Already on the loop (control/hello handlers): enqueue now,
            # so the reader's close sentinel can never overtake a reply
            # that was sent before it.
            self._enqueue(frame)
            return not self._closed
        try:
            self.loop.call_soon_threadsafe(self._enqueue, frame)
        except RuntimeError:
            return False  # loop already closed (server killed)
        return not self._closed

    def _enqueue(self, frame: Frame | None) -> None:
        if not self._closed or frame is None:
            self._outbox.put_nowait(frame)

    # -- loop-side machinery -------------------------------------------

    def _encode(self, frame: Frame) -> bytes:
        try:
            return encode_frame(frame, version=self.version)
        except ProtocolError as exc:
            # The frame itself is unsendable (e.g. a payload past the
            # frame ceiling); tell the client with a typed error rather
            # than dropping the connection silently.
            return encode_frame(
                ErrorFrame(
                    id=getattr(frame, "id", 0),
                    message=f"unsendable reply: {exc}",
                ),
                version=self.version,
            )

    async def _write_loop(self) -> None:
        """Write every frame already queued as one burst: one ``write``
        and one ``drain`` per wake-up, so a cache hit's ``Ack`` and
        ``Done`` leave in one segment.  The ``None`` sentinel ends the
        loop only after the frames queued before it are flushed."""
        while True:
            frames = [await self._outbox.get()]
            while frames[-1] is not None and not self._outbox.empty():
                frames.append(self._outbox.get_nowait())
            closing = frames[-1] is None
            if closing:
                frames.pop()
            if frames:
                try:
                    self.writer.write(
                        b"".join(self._encode(frame) for frame in frames)
                    )
                    await self.writer.drain()
                except (ConnectionError, OSError):
                    self._closed = True
                    return
            if closing:
                return

    async def run(self) -> None:
        writer_task = asyncio.create_task(self._write_loop())
        try:
            while True:
                try:
                    item = await read_frame_async(self.reader)
                except PeerGone:
                    break  # client died mid-frame
                except ProtocolError as exc:
                    self._enqueue(ErrorFrame(id=0, message=str(exc)))
                    break
                if item is None:
                    break  # clean EOF
                frame, version = item
                self.version = version
                if not self._dispatch(frame):
                    break  # shutdown request: close after the ack
        finally:
            # Let in-flight handlers publish their terminal frames, then
            # flush the outbox and close.
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            self._enqueue(None)
            await writer_task
            self._closed = True
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def abort(self) -> None:
        """Sever the transport immediately (the kill path)."""
        self._closed = True
        transport = self.writer.transport
        if transport is not None:
            transport.abort()

    def _dispatch(self, frame: Frame) -> bool:
        """Route one frame; False closes the connection (shutdown)."""
        service = self.service
        if isinstance(frame, ControlRequest):
            return service._handle_control(self, frame)
        if isinstance(frame, PeerHello):
            service._handle_peer_hello(self, frame)
            return True
        handler = None
        if isinstance(frame, SolveRequest):
            handler = service._handle_solve
        elif isinstance(frame, CacheGet):
            handler = service._handle_cache_get
        elif isinstance(frame, CachePut):
            handler = service._handle_cache_put
        elif isinstance(frame, WaveSteal):
            handler = service._handle_wave_steal
        if handler is None:
            self._enqueue(
                ErrorFrame(
                    id=getattr(frame, "id", 0),
                    message=f"unexpected frame type {frame.type!r}",
                )
            )
            return True
        # Each request runs on its own pool thread: a streaming solve
        # can wait minutes on the broker while pings, cache probes, and
        # other solves keep flowing on this same connection.
        task = self.loop.run_in_executor(
            service._pool, service._run_handler, handler, self, frame
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return True


class SolveServer:
    """Long-lived solve service on a localhost TCP port.

    ``sim_cache``/``solve_cache`` accept an instance, ``False`` to
    disable the layer, or ``None`` for a fresh in-memory cache (pass
    instances with a ``directory`` to persist across restarts).
    ``cache_peers`` adds one :class:`~repro.runtime.cache.RemoteTier`
    per address to each default-built cache (instances carry their own
    tier stacks), so a cold server replays cells warmed anywhere in the
    peer ring -- and answers the same ``CacheGet``/``CachePut`` frames
    for its peers in turn.  Default-built caches gossip write-behind:
    a worker's ``CachePut`` to peers rides a background queue, never
    the solve path.

    ``join`` bootstraps the elastic ring: each address is sent a
    ``PeerHello`` on start and the membership it answers with is
    merged.  Ring members learned this way (from joins, incoming
    hellos, or heartbeat gossip) are automatically added to -- and,
    when they die, removed from -- the caches' remote tiers, on top of
    any static ``cache_peers``.  ``advertise`` overrides the address
    other members should reach this server on (defaults to the bound
    address).

    ``gateway`` pins the LLM gateway settings every worker solve runs
    under (``None`` resolves from the environment at construction, and
    stays ``None`` when the gateway is not enabled).  When a cassette
    directory is configured the server also exposes the cassette store
    as the ``llm`` cache layer, so peers can share recorded completions
    over the same wire protocol as the other tiers.

    ``steal_peers`` (rollout mode only) names peer servers whose
    published score waves this server's *idle* workers drain over
    ``WaveSteal`` frames; the server's own waves are published on
    ``steal_board`` for its peers in turn.  Stealing moves pure
    simulations only, with results returned through the cache fabric,
    so the topology -- typically a ring of mutually-peered servers --
    never affects any run's output.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        sim_cache: SimulationCache | bool | None = None,
        solve_cache: SolveCellCache | bool | None = None,
        max_pending: int = 256,
        rollout_batch: int = 0,
        cache_peers: tuple[str, ...] | list[str] | None = None,
        gateway=None,
        steal_peers: tuple[str, ...] | list[str] | None = None,
        join: tuple[str, ...] | list[str] | None = None,
        advertise: str | None = None,
        peer_interval: float = 1.0,
        peer_failures: int = 3,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._static_peers = tuple(cache_peers or ())
        self.sim_cache = self._resolve(
            sim_cache, SimulationCache, self._static_peers
        )
        self.solve_cache = self._resolve(
            solve_cache, SolveCellCache, self._static_peers
        )
        if gateway is None:
            from repro.llm.gateway.settings import GatewaySettings

            resolved = GatewaySettings.from_env()
            gateway = resolved if resolved.enabled else None
        self.gateway = gateway
        self.broker = Broker(max_pending=max_pending)
        self.stats = ServiceStats()
        self.rollout_batch = max(0, int(rollout_batch))
        self.steal_peers = tuple(steal_peers or ())
        # The published-wave board every local scheduler shares: any
        # worker's score wave can be drained by any thief.
        self.steal_board = StealBoard()
        # Bind in the constructor so ``address`` is valid before start()
        # (and the port is reserved for us).
        self._listen_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen_sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listen_sock.bind((host, port))
        self._listen_sock.listen(128)
        self.advertised = advertise or self.address
        self.directory = PeerDirectory(
            self.advertised, on_change=self._membership_changed
        )
        self.join = tuple(join or ())
        self.peer_interval = peer_interval
        self.peer_failures = peer_failures
        if self.rollout_batch:
            # Batching mode: each worker gathers up to rollout_batch
            # dedup-distinct in-flight cells and gang-schedules their
            # sampling through shared scoring waves.
            self._workers: list = [
                RolloutWorker(
                    self.broker,
                    self.stats,
                    sim_cache=self.sim_cache,
                    solve_cache=self.solve_cache,
                    batch=self.rollout_batch,
                    name=f"repro-service-rollout-{index}",
                    gateway=self.gateway,
                    steal_peers=self.steal_peers,
                    steal_board=self.steal_board,
                )
                for index in range(workers)
            ]
        else:
            self._workers = [
                Worker(
                    self.broker,
                    self.stats,
                    sim_cache=self.sim_cache,
                    solve_cache=self.solve_cache,
                    name=f"repro-service-worker-{index}",
                    gateway=self.gateway,
                )
                for index in range(workers)
            ]
        # One pool thread per in-flight request (a streaming solve holds
        # its thread while it waits on the broker), sized past the
        # broker's own admission bound so backpressure comes from
        # BrokerFull, not silent pool queuing.
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_pending + 16,
            thread_name_prefix="repro-service-handler",
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._async_server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._loop_ready = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._active_solves = 0
        self._idle = threading.Condition()
        self._heartbeat: threading.Thread | None = None

    @staticmethod
    def _resolve(cache, default_cls, peers=()):
        if cache is False:
            return None
        if cache is None or cache is True:
            return default_cls(peers=peers, write_behind=True)
        return cache

    @property
    def address(self) -> str:
        host, port = self._listen_sock.getsockname()[:2]
        return f"{host}:{port}"

    def cassette(self):
        """The server's cassette store, or None without a gateway."""
        if self.gateway is None:
            return None
        from repro.llm.gateway.cassette import cassette_store

        return cassette_store(
            self.gateway.cassette_dir, self.gateway.cache_peers
        )

    def cache_layer(self, layer: str):
        """The cache a wire-level ``layer`` tag routes to (or None)."""
        if layer == "llm":
            return self.cassette()
        return {"sim": self.sim_cache, "solve": self.solve_cache}.get(layer)

    def fetch_cached(self, system: str, problem_id: str, seed: int):
        """The cell's solve-cell record, or None to take the cold path.

        One counted ``get`` is the whole decision: the record it
        returns is the record that gets served (no probe/serve gap for
        eviction to slip through, disk hits attributed correctly).  A
        cold submit therefore counts a broker-side miss in addition to
        the worker's own lookup -- the worker lookup stays, because a
        dedup-raced store may have landed by the time the job runs.
        """
        if self.solve_cache is None:
            return None
        from repro.evalsets import get_problem
        from repro.runtime.context import RuntimeContext, runtime_session
        from repro.runtime.executor import SerialExecutor

        # Resolve under the server's pinned gateway so the fingerprint
        # matches what the workers' pinned sessions compute.
        inner = RuntimeContext(
            executor=SerialExecutor(),
            cache=self.sim_cache,
            gateway=self.gateway,
        )
        with runtime_session(context=inner):
            fingerprint = registered_fingerprint(system)
        if fingerprint is None:
            return None
        try:
            key = solve_cell_key(fingerprint, get_problem(problem_id), seed)
        except Exception:
            return None
        return self.solve_cache.get(key)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "SolveServer":
        for worker in self._workers:
            worker.start()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="repro-service-loop", daemon=True
        )
        self._loop_thread.start()
        self._loop_ready.wait()
        if self.join or self.directory.others():
            self._start_heartbeat()
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def boot() -> None:
            self._listen_sock.setblocking(False)
            self._async_server = await asyncio.start_server(
                self._serve_connection, sock=self._listen_sock
            )

        try:
            loop.run_until_complete(boot())
        finally:
            self._loop_ready.set()
        try:
            loop.run_forever()
        finally:
            # Drain cancellations and close whatever is still open.
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            except Exception:  # noqa: BLE001 -- best-effort teardown
                pass
            loop.close()

    async def _serve_connection(self, reader, writer) -> None:
        # asyncio only disables Nagle for sockets created with
        # IPPROTO_TCP; without this a reply's back-to-back frames stall
        # on the client's delayed ACK (~40 ms per cached hit).
        try:
            writer.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        except OSError:
            pass  # the client is already gone; run() sees the EOF
        conn = _Connection(self, reader, writer)
        self._connections.add(conn)
        try:
            await conn.run()
        except asyncio.CancelledError:
            # kill() cancels connection tasks; asyncio's stream-server
            # done-callback calls task.exception(), which would re-raise
            # the cancellation as a logged callback error.
            conn.abort()
        finally:
            self._connections.discard(conn)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has shut down."""
        return self._stopped.wait(timeout=timeout)

    def _solve_started(self) -> None:
        with self._idle:
            self._active_solves += 1

    def _solve_finished(self) -> None:
        with self._idle:
            self._active_solves -= 1
            self._idle.notify_all()

    def _call_in_loop(self, coro, timeout: float | None = 10.0):
        """Run one coroutine on the loop thread from outside it."""
        if self._loop is None:
            coro.close()
            return None
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout=timeout)
        except (concurrent.futures.TimeoutError, RuntimeError):
            return None

    async def _close_listener(self) -> None:
        if self._async_server is not None:
            self._async_server.close()
            try:
                await self._async_server.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _close_connections(self, abort: bool) -> None:
        for conn in list(self._connections):
            if abort:
                conn.abort()
            else:
                conn._closed = True
                try:
                    conn.writer.close()
                except (ConnectionError, OSError):
                    pass

    def shutdown(self, handler_grace: float = 30.0) -> None:
        """Graceful drain: refuse new work, finish the queue, close.

        After the workers exit, waits up to ``handler_grace`` seconds
        for in-flight request handlers to flush their terminal frames,
        so a client whose queued job just finished still gets its
        ``done`` before the sockets close.
        """
        with self._shutdown_lock:
            if self._stopped.is_set():
                return
            if self._loop is None:
                # Never started: just release the port.
                self._listen_sock.close()
                self._stopped.set()
                return
            self._call_in_loop(self._close_listener())
            self.broker.close()  # queued jobs still drain to workers
            for worker in self._workers:
                worker.join()
            deadline = time.monotonic() + handler_grace
            with self._idle:
                while self._active_solves > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._idle.wait(
                        timeout=remaining
                    ):
                        break
            self._call_in_loop(self._close_connections(abort=False))
            self._stop_loop()
            self._pool.shutdown(wait=False)
            self._stopped.set()

    def kill(self) -> None:
        """Abrupt stop, as close to SIGKILL as in-process gets.

        Queued jobs are aborted (their subscribers get a terminal
        error), every connection is severed mid-whatever, the listener
        closes, and nothing is drained.  Chaos tests use this to prove
        clients re-shard; production paths should call
        :meth:`shutdown`.
        """
        with self._shutdown_lock:
            if self._stopped.is_set():
                return
            self.broker.abort("server killed")
            if self._loop is not None:
                self._call_in_loop(self._close_listener(), timeout=2.0)
                self._call_in_loop(
                    self._close_connections(abort=True), timeout=2.0
                )
                self._stop_loop()
            else:
                self._listen_sock.close()
            self._pool.shutdown(wait=False)
            self._stopped.set()

    def _stop_loop(self) -> None:
        loop, thread = self._loop, self._loop_thread
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:
            pass
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)

    # -- elastic ring ---------------------------------------------------

    def _start_heartbeat(self) -> None:
        if self._heartbeat is not None or self._stopped.is_set():
            return
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name="repro-service-heartbeat",
            daemon=True,
        )
        self._heartbeat.start()

    def _heartbeat_loop(self) -> None:
        """Gossip membership and expel peers that stop answering.

        Every tick hellos each known member (and any still-pending
        ``join`` seed) with this server's view; the answers are merged,
        so partial views converge in one round trip per edge.  A member
        failing ``peer_failures`` consecutive hellos is removed --
        which fires the membership hook and drops its cache tiers.
        """
        from repro.service.client import hello_peer

        pending = list(self.join)
        failures: dict[str, int] = {}
        while not self._stopped.is_set():
            targets = sorted(set(pending) | set(self.directory.others()))
            for address in targets:
                if self._stopped.is_set():
                    return
                try:
                    peers = hello_peer(
                        address,
                        self.advertised,
                        self.directory.members(),
                        timeout=max(2.0, self.peer_interval),
                    )
                except Exception:  # noqa: BLE001 -- peer down or draining
                    failures[address] = failures.get(address, 0) + 1
                    if (
                        failures[address] >= self.peer_failures
                        and address in self.directory
                    ):
                        self.directory.remove(address)
                    continue
                failures.pop(address, None)
                if address in pending:
                    pending.remove(address)
                self.directory.add((address, *peers))
            self._stopped.wait(self.peer_interval)

    def _membership_changed(self, members: tuple[str, ...]) -> None:
        """Resync the cache fabric's remote tiers to the ring."""
        ring_peers = tuple(
            address
            for address in members
            if address not in (self.advertised, self.address)
        )
        merged = tuple(
            dict.fromkeys(self._static_peers + ring_peers)
        )
        for cache in (self.sim_cache, self.solve_cache):
            if cache is not None:
                try:
                    cache.set_peers(merged)
                except Exception:  # noqa: BLE001 -- never kill the caller
                    pass

    # -- request handlers (pool threads) --------------------------------

    def _run_handler(self, handler, conn: _Connection, frame) -> None:
        try:
            handler(conn, frame)
        except Exception as exc:  # noqa: BLE001 -- keep the loop alive
            self.stats.count("errors")
            conn.send(
                ErrorFrame(
                    id=getattr(frame, "id", 0),
                    message=f"{type(exc).__name__}: {exc}",
                )
            )

    def _handle_solve(self, conn: _Connection, req: SolveRequest) -> None:
        # Tracked so shutdown() can wait for the terminal frame of
        # every accepted solve to hit the wire.
        self._solve_started()
        try:
            self._solve_request(conn, req)
        finally:
            self._solve_finished()

    def _solve_request(self, conn: _Connection, req: SolveRequest) -> None:
        key = f"{req.system}/{req.problem}/{req.seed}"
        record = self.fetch_cached(req.system, req.problem, req.seed)
        if record is not None:
            # Warm path: serve inline from the already-fetched record;
            # the worker pool and queue are never touched.  A record
            # evicted between probe and fetch simply lands on the cold
            # path below, so an inline solve can never execute a
            # pipeline outside the broker's queue and dedup.
            conn.send(Ack(id=req.id, key=key, cached=True))
            self._serve_record(conn, req, record)
            return
        try:
            job, sub, deduped = self.broker.submit(
                req.system, req.problem, req.seed, priority=req.priority
            )
        except BrokerFull as exc:
            conn.send(ErrorFrame(id=req.id, message=f"busy: {exc}"))
            return
        except BrokerClosed as exc:
            conn.send(ErrorFrame(id=req.id, message=str(exc)))
            return
        conn.send(Ack(id=req.id, key=key, dedup=deduped))
        for kind, payload in sub:
            if kind == "event":
                if req.stream and not conn.send(
                    EventFrame(id=req.id, event=payload)
                ):
                    return
            elif kind == "done":
                conn.send(
                    Done(
                        id=req.id,
                        source=payload.source,
                        passed=payload.passed,
                        score=payload.score,
                        seconds=payload.seconds,
                        system=payload.system,
                        cached=payload.solve_cached,
                        dedup=deduped,
                    )
                )
            else:
                conn.send(ErrorFrame(id=req.id, message=payload))

    def _serve_record(
        self, conn: _Connection, req: SolveRequest, record
    ) -> None:
        sink = None
        if req.stream:
            sink = lambda event: conn.send(  # noqa: E731
                EventFrame(id=req.id, event=event)
            )
        try:
            result = serve_cached_record(
                req.system,
                req.problem,
                record,
                sink=sink,
                sim_cache=self.sim_cache,
            )
        except Exception as exc:  # noqa: BLE001 -- becomes an error frame
            self.stats.count("errors")
            conn.send(
                ErrorFrame(id=req.id, message=f"{type(exc).__name__}: {exc}")
            )
            return
        self.stats.count("cache_served")
        conn.send(
            Done(
                id=req.id,
                source=result.source,
                passed=result.passed,
                score=result.score,
                seconds=result.seconds,
                system=result.system,
                cached=True,
            )
        )

    def _handle_cache_get(self, conn: _Connection, req: CacheGet) -> None:
        """The peer-sharing read rung: answer from LOCAL tiers only.

        A peer's :class:`~repro.runtime.cache.RemoteTier` is asking; if
        this server consulted its *own* remote tiers here, two mutually
        peered servers would chase a missing key around the ring.
        """
        from repro.service.protocol import MAX_FRAME_BYTES

        self.stats.count("peer_gets")
        cache = self.cache_layer(req.layer)
        value = cache.peek_local(req.key) if cache is not None else None
        if value is None:
            conn.send(CacheReply(id=req.id))
            return
        try:
            blob = encode_value(value)
        except Exception:  # noqa: BLE001 -- unpicklable value: report a miss
            conn.send(CacheReply(id=req.id))
            return
        if len(blob) > MAX_FRAME_BYTES - 4096:
            # A value past the frame ceiling must be a typed miss, not
            # an 'unsendable reply' error the peer would hold against
            # this server's health.
            conn.send(CacheReply(id=req.id))
            return
        self.stats.count("peer_hits")
        conn.send(CacheReply(id=req.id, found=True, blob=blob))

    def _handle_cache_put(self, conn: _Connection, req: CachePut) -> None:
        """The peer-sharing write rung: store locally, never re-gossip."""
        cache = self.cache_layer(req.layer)
        if cache is None:
            conn.send(CacheReply(id=req.id))
            return
        value = decode_value(req.blob, cache.value_type)
        if value is None:
            # Garbage or wrong-typed blob: refuse, exactly like the
            # disk tier refuses a corrupt file.
            conn.send(CacheReply(id=req.id))
            return
        cache.put_local(req.key, value)
        self.stats.count("peer_puts")
        conn.send(CacheReply(id=req.id, stored=True))

    def _handle_wave_steal(self, conn: _Connection, req: WaveSteal) -> None:
        """Hand published wave tasks to an idle peer.

        Claimed tasks leave the board atomically, so concurrent thieves
        never duplicate work; an unpicklable task simply stays home
        (the victim simulates it like any unclaimed one).
        """
        claimed = self.steal_board.claim(req.max_items)
        wire = []
        for key, task in claimed:
            try:
                wire.append([key, encode_value(task)])
            except Exception:  # noqa: BLE001 -- keep the task local
                continue
            self.stats.count("steal_served")
        conn.send(WaveTasks(id=req.id, tasks=wire))

    # -- control + discovery (loop thread; all fast) ---------------------

    def _handle_peer_hello(self, conn: _Connection, frame: PeerHello) -> None:
        """Merge the sender's view, answer with ours, start gossiping."""
        self.directory.add((frame.address, *frame.peers))
        conn.send(PeerList(id=frame.id, peers=self.directory.members()))
        # A server that *receives* a hello is in a ring even if it was
        # started without --join: begin heartbeating its members.
        self._start_heartbeat()

    def _handle_control(self, conn: _Connection, req: ControlRequest) -> bool:
        """Returns False when the connection should close."""
        if req.op == "ping":
            conn.send(Ack(id=req.id))
            return True
        if req.op == "peers":
            conn.send(PeerList(id=req.id, peers=self.directory.members()))
            return True
        if req.op == "stats":
            # Snapshotting walks worker and cache locks: off the loop.
            task = conn.loop.run_in_executor(
                self._pool, self._send_stats, conn, req.id
            )
            conn._tasks.add(task)
            task.add_done_callback(conn._tasks.discard)
            return True
        if req.op == "shutdown":
            conn.send(Ack(id=req.id))
            # Drain from a helper thread: shutdown() joins the loop and
            # the workers, which must not happen on the loop thread.
            threading.Thread(
                target=self.shutdown, name="repro-service-drain", daemon=True
            ).start()
            return False
        conn.send(
            ErrorFrame(id=req.id, message=f"unknown control op {req.op!r}")
        )
        return True

    def _send_stats(self, conn: _Connection, request_id: int) -> None:
        try:
            conn.send(StatsReply(id=request_id, stats=self.stats_snapshot()))
        except Exception as exc:  # noqa: BLE001 -- keep the loop alive
            conn.send(
                ErrorFrame(
                    id=request_id,
                    message=f"{type(exc).__name__}: {exc}",
                )
            )

    # -- introspection ---------------------------------------------------

    def executed_count(self) -> int:
        """Pipeline executions across the pool (dedup/cache verification)."""
        return self.stats.snapshot()["executed"]

    def stats_snapshot(self) -> dict:
        def cache_stats(cache):
            if cache is None:
                return None
            stats = cache.stats
            return {
                "entries": len(cache),
                "lookups": stats.lookups,
                "hits": stats.hits,
                "misses": stats.misses,
                "stores": stats.stores,
                "disk_hits": stats.disk_hits,
                "remote_hits": stats.remote_hits,
                "corrupt": stats.corrupt,
                "directory": cache.directory,
                "peers": list(cache.peers),
                "tiers": cache.tier_report(),
                "gossip": cache.gossip_report(),
            }

        from repro.core.pipeline import STAGE_CLOCK
        from repro.llm.gateway.client import GATEWAY_STATS

        # Aggregate scheduler counters across the rollout workers (the
        # section is absent in plain-worker mode).
        scheduler = None
        pool = [w for w in self._workers if isinstance(w, RolloutWorker)]
        if pool:
            dedup: dict[str, int] = {}
            speculation: dict[str, int] = {}
            for worker in pool:
                for key, value in worker.scheduler.dedup.snapshot().items():
                    dedup[key] = dedup.get(key, 0) + value
                for key, value in (
                    worker.scheduler.speculation.snapshot().items()
                ):
                    speculation[key] = speculation.get(key, 0) + value
            scheduler = {"dedup": dedup, "speculation": speculation}

        return {
            "address": self.address,
            "workers": len(self._workers),
            "rollout_batch": self.rollout_batch,
            "pending": len(self.broker),
            "protocol": PROTOCOL_VERSION,
            "broker": self.broker.stats.snapshot(),
            "service": self.stats.snapshot(),
            "gateway": GATEWAY_STATS.snapshot(),
            "gateway_mode": (
                self.gateway.mode if self.gateway is not None else None
            ),
            "stages": STAGE_CLOCK.snapshot(),
            "scheduler": scheduler,
            "steal": {
                **self.steal_board.snapshot(),
                "peers": list(self.steal_peers),
            },
            "ring": {
                "self": self.advertised,
                "members": list(self.directory.members()),
                "join": list(self.join),
                "interval": self.peer_interval,
            },
            "caches": {
                "simulation": cache_stats(self.sim_cache),
                "solve_cell": cache_stats(self.solve_cache),
                "cassette": cache_stats(self.cassette()),
            },
        }

    def __enter__(self) -> "SolveServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
