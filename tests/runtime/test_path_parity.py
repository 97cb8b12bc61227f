"""Cross-path determinism matrix: {mage, vanilla, single-agent,
aivril} x {serial, thread, process, service, ring, ring+kill}.

The determinism contract says every execution path reproduces a
``--jobs 1`` serial run *bit-identically*: the same result rows, and --
where the path streams per-run events -- the same final sources and the
same typed event stream event-by-event.  The only fields allowed to
differ are wall-clock measurements (``seconds``), which are zeroed by
:func:`canonical` before comparison; every other field -- scores, pool
shapes, LLM-call counts, stage order -- must match exactly.
"""

import threading
import time
from collections import Counter

import pytest

from repro.baselines.registry import SYSTEMS
from repro.core.events import CellFinished, ListSink
from repro.core.task import DesignTask
from repro.evalsets import get_problem, golden_testbench
from repro.runtime.batch import evaluate_many
from repro.runtime.cache import (
    SimulationCache,
    SolveCellCache,
    solve_cell_key,
    system_fingerprint,
)
from repro.runtime.executor import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.service import (
    HashRing,
    MultiplexedClient,
    ServiceError,
    SolveServer,
    fetch_peers,
    ring_key,
    solve_grid,
)
from repro.tb.runner import run_testbench

# One representative per row of the matrix: the full engine, the
# single-stage baseline, the Table III single-agent ablation, and the
# AIVRIL-style coder+reviewer pair.  ``ar_addsub8`` reaches Step-5
# debug rounds on every seed, so every row exercises the debug loop.
SYSTEM_KEYS = ["mage", "vanilla-claude", "single-agent", "aivril"]
PROBLEM_IDS = ["cb_kmap_mux", "fs_vending", "ar_addsub8"]
SEED = 2


def canonical(events):
    """Event stream as JSON payloads with wall-clock fields zeroed."""
    payloads = []
    for event in events:
        payload = event.to_json()
        if "seconds" in payload:
            payload["seconds"] = 0.0
        payloads.append(payload)
    return payloads


@pytest.fixture(scope="module")
def serial_reference():
    """(system, problem) -> (source, canonical events) from plain solves."""
    reference = {}
    for key in SYSTEM_KEYS:
        for problem_id in PROBLEM_IDS:
            sink = ListSink()
            system = SYSTEMS[key].factory()
            source = system.solve(
                DesignTask.from_problem(get_problem(problem_id)),
                seed=SEED,
                sink=sink,
            )
            reference[(key, problem_id)] = (source, canonical(sink.events))
    return reference


def _grid(key, executor, runs, solve_cache=None):
    """One ``evaluate_many`` grid of the matrix problems on ``executor``."""
    result, _ = evaluate_many(
        SYSTEMS[key].factory,
        "verilogeval-v2",
        runs=runs,
        seed0=SEED,
        problems=[get_problem(problem_id) for problem_id in PROBLEM_IDS],
        executor=executor,
        cache=SimulationCache(),
        solve_cache=solve_cache,
    )
    return result


def _assert_recorded_streams_match(key, solve_cache, serial_reference):
    """Each run-0 cell the grid recorded carries the serial source and
    the serial event stream, event by event."""
    fingerprint = system_fingerprint(SYSTEMS[key].factory)
    assert fingerprint is not None
    for problem_id in PROBLEM_IDS:
        record = solve_cache.get(
            solve_cell_key(fingerprint, get_problem(problem_id), SEED)
        )
        assert record is not None, problem_id
        source, events = serial_reference[(key, problem_id)]
        assert record.source == source
        assert canonical(record.events) == events


@pytest.fixture(scope="module")
def serial_grids():
    """key -> {runs: serial-reference EvalResult} for the matrix grid."""
    reference = {}
    for key in SYSTEM_KEYS:
        for runs in (2, TestElasticRingParity.RUNS):
            with SerialExecutor() as executor:
                reference.setdefault(key, {})[runs] = _grid(key, executor, runs)
    return reference


class TestExecutorPathParity:
    """The serial, thread and process rows: the serial grid scores the
    plain solves' sources, and the grid fanned across a pool yields the
    serial rows, whatever order cells complete in."""

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_serial_grid_rows_score_the_plain_solves(
        self, key, serial_reference, serial_grids
    ):
        outcomes = serial_grids[key][2].outcomes
        for problem_id, outcome in zip(PROBLEM_IDS, outcomes):
            problem = get_problem(problem_id)
            source, _ = serial_reference[(key, problem_id)]
            report = run_testbench(source, golden_testbench(problem), problem.top)
            assert outcome.problem_id == problem_id
            assert outcome.scores[0] == report.score  # run 0 is seed SEED

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_thread_grid_rows_match_serial(self, key, serial_grids):
        with ThreadExecutor(2) as executor:
            result = _grid(key, executor, runs=2)
        assert result.outcomes == serial_grids[key][2].outcomes

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_process_grid_rows_match_serial(self, key, serial_grids):
        """Cells really cross the process boundary (no thread fallback)
        and come back with the serial rows."""
        with ProcessExecutor(2) as executor:
            result = _grid(key, executor, runs=2)
            assert executor.fallbacks == 0
        assert result.outcomes == serial_grids[key][2].outcomes

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_thread_grid_streams_are_bit_identical(self, key, serial_reference):
        """The per-run stream a threaded cell records (what a warm
        sweep replays) is the plain solve's stream."""
        solve_cache = SolveCellCache()
        with ThreadExecutor(2) as executor:
            _grid(key, executor, runs=1, solve_cache=solve_cache)
        _assert_recorded_streams_match(key, solve_cache, serial_reference)

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_process_grid_streams_are_bit_identical(
        self, key, serial_reference, tmp_path
    ):
        """Streams recorded in worker processes (whose caches meet on
        disk) read back bit-identically in a fresh cache."""
        directory = str(tmp_path / "solve")
        with ProcessExecutor(2) as executor:
            _grid(key, executor, runs=1, solve_cache=SolveCellCache(directory))
            assert executor.fallbacks == 0
        _assert_recorded_streams_match(
            key, SolveCellCache(directory), serial_reference
        )


class TestServicePathParity:
    @pytest.fixture(scope="class")
    def service(self):
        with SolveServer(workers=1) as server:
            yield server

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_service_streams_are_bit_identical(
        self, key, serial_reference, service
    ):
        for problem_id in PROBLEM_IDS:
            sink = ListSink()
            with MultiplexedClient(service.address) as client:
                outcome = client.solve(
                    key, problem_id, seed=SEED, events=sink
                )
            source, events = serial_reference[(key, problem_id)]
            assert outcome.source == source
            # Frames crossed the wire via Event.to_json/from_json; the
            # canonical streams must still agree field-by-field.
            assert canonical(sink.events) == events

    def test_warm_service_replay_is_the_same_stream(
        self, serial_reference, service
    ):
        sink = ListSink()
        with MultiplexedClient(service.address) as client:
            outcome = client.solve(
                "mage", PROBLEM_IDS[0], seed=SEED, events=sink
            )
        assert outcome.cached  # second submit of the matrix cell
        _, events = serial_reference[("mage", PROBLEM_IDS[0])]
        assert canonical(sink.events) == events


def _converged_ring(size=3, workers=2):
    """``size`` in-process servers joined into one converged ring."""
    seed = SolveServer(workers=workers, peer_interval=0.1).start()
    servers = [seed]
    try:
        for _ in range(size - 1):
            servers.append(
                SolveServer(
                    workers=workers,
                    join=(seed.address,),
                    peer_interval=0.1,
                ).start()
            )
        members = {server.advertised for server in servers}
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            try:
                views = [
                    set(fetch_peers(server.address, timeout=5.0))
                    for server in servers
                ]
            except (ServiceError, OSError):
                views = []
            if views and all(view >= members for view in views):
                return servers
            time.sleep(0.05)
        raise AssertionError("ring never converged to full membership")
    except BaseException:
        for server in servers:
            server.kill()
        raise


def _ring_victim(servers, key, problems, runs, seed0):
    """The member owning the most cells of this grid (and a survivor)."""
    from repro.service.worker import registered_system_name

    ring = HashRing(sorted(server.advertised for server in servers))
    resolved = registered_system_name(key)  # placement uses this name
    owners = Counter(
        ring.node_for(ring_key(resolved, problem.id, seed0 + run))
        for problem in problems
        for run in range(runs)
    )
    victim_address = owners.most_common(1)[0][0]
    victim = next(
        server for server in servers
        if server.advertised == victim_address
    )
    survivor = next(
        server for server in servers
        if server.advertised != victim_address
    )
    return victim, survivor


class TestElasticRingParity:
    """The ring and ring+kill matrix rows: cells placed by consistent
    hash over a 3-member elastic ring -- with and without a member
    dying mid-grid -- must produce the exact rows (and, solved on their
    owner, the exact event streams) a serial local run does, for every
    system in the matrix.

    Four runs per problem give the busiest member at least four cells,
    so the mid-grid kill always lands while it still has queued work
    -- the re-shard path is exercised on every parametrization, not
    just when the threads happen to race a certain way."""

    RUNS = 4

    @pytest.fixture(scope="class")
    def ring_servers(self):
        servers = _converged_ring()
        yield servers
        for server in servers:
            server.kill()

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_ring_streams_are_bit_identical(
        self, key, serial_reference, ring_servers
    ):
        """Each cell solved on the member that owns it -- whose caches
        gossip to the other members -- streams the serial events."""
        from repro.service.worker import registered_system_name

        ring = HashRing(sorted(server.advertised for server in ring_servers))
        by_address = {server.advertised: server for server in ring_servers}
        resolved = registered_system_name(key)
        for problem_id in PROBLEM_IDS:
            owner = by_address[ring.node_for(ring_key(resolved, problem_id, SEED))]
            sink = ListSink()
            with MultiplexedClient(owner.address) as client:
                outcome = client.solve(key, problem_id, seed=SEED, events=sink)
            source, events = serial_reference[(key, problem_id)]
            assert outcome.source == source
            assert canonical(sink.events) == events

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_ring_grid_rows_match_serial(
        self, key, serial_grids, ring_servers
    ):
        """One seed address suffices: membership is discovered, cells
        are hash-placed, and the merged rows match serial exactly."""
        result, report = solve_grid(
            key,
            "verilogeval-v2",
            runs=self.RUNS,
            seed0=SEED,
            problems=[get_problem(problem_id) for problem_id in PROBLEM_IDS],
            shards=[ring_servers[0].address],
            ring=True,
        )
        assert result.outcomes == serial_grids[key][self.RUNS].outcomes
        assert set(report.shards) == {
            server.advertised for server in ring_servers
        }
        assert sum(report.shard_cells.values()) == len(PROBLEM_IDS) * self.RUNS
        assert report.dead_shards == []

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_ring_kill_grid_rows_match_serial(self, key, serial_grids):
        """Killing the busiest member on the first finished cell still
        yields bit-identical rows: orphans migrate to the survivors."""
        problems = [get_problem(problem_id) for problem_id in PROBLEM_IDS]
        servers = _converged_ring()
        try:
            victim, survivor = _ring_victim(
                servers, key, problems, self.RUNS, SEED
            )
            killed = threading.Event()

            def chaos(event):
                if isinstance(event, CellFinished) and not killed.is_set():
                    killed.set()
                    victim.kill()

            result, report = solve_grid(
                key,
                "verilogeval-v2",
                runs=self.RUNS,
                seed0=SEED,
                problems=problems,
                shards=[survivor.address],
                ring=True,
                events=chaos,
            )
        finally:
            for server in servers:
                server.kill()
        assert killed.is_set()
        assert result.outcomes == serial_grids[key][self.RUNS].outcomes
        assert report.dead_shards == [victim.advertised]
        assert report.cells == len(problems) * self.RUNS
