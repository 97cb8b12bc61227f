"""Cross-path determinism matrix: {mage, vanilla, single-agent,
two-agent} x {serial, rollout-batched, rollout+speculation, service,
service+steal}.

The rollout determinism contract says batched output is *bit-identical*
to a ``--jobs 1 --rollout-batch 0`` serial run: same final sources,
same result rows, and the same typed event stream event-by-event.  The
only fields allowed to differ are wall-clock measurements
(``seconds``), which are zeroed by :func:`canonical` before comparison;
every other field -- scores, pool shapes, LLM-call counts, stage order
-- must match exactly.  The contract holds with fixed or adaptive wave
widths, with speculation on or off (speculation may only warm the
simulation cache), and whether score waves ran locally or were stolen
by a peer server.
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
from repro.runtime.cache import SimulationCache
from repro.runtime.executor import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.runtime.rollout import RolloutRequest, RolloutScheduler
from repro.service import (
    HashRing,
    MultiplexedClient,
    ServiceError,
    SolveServer,
    fetch_peers,
    ring_key,
    solve_grid,
)

# One representative per row of the matrix: the full engine, the
# single-stage baseline, the Table III single-agent ablation, and the
# AIVRIL-style coder+reviewer pair.  ``ar_addsub8`` reaches Step-5
# debug rounds on every seed, so the gang-scheduled debug path
# (suspend, coalesce, inject) is exercised by every matrix row.
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


def _rollout_run(key, executor, batch=8, speculate=None):
    sinks = {}
    requests = []
    for index, problem_id in enumerate(PROBLEM_IDS):
        problem = get_problem(problem_id)
        sinks[problem_id] = ListSink()
        requests.append(
            RolloutRequest(
                index=index,
                factory=SYSTEMS[key].factory,
                problem=problem,
                golden_tb=golden_testbench(problem),
                seed=SEED,
                sink=sinks[problem_id],
            )
        )
    scheduler = RolloutScheduler(
        executor=executor,
        batch=batch,
        cache=SimulationCache(),
        speculate=speculate,
    )
    results = scheduler.run(requests)
    return results, sinks, scheduler


class TestRolloutPathParity:
    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_batched_event_streams_are_bit_identical(
        self, key, serial_reference
    ):
        with ThreadExecutor(2) as executor:
            results, sinks, _ = _rollout_run(key, executor)
        for result, problem_id in zip(results, PROBLEM_IDS):
            assert result.error is None
            source, events = serial_reference[(key, problem_id)]
            assert result.source == source
            assert canonical(sinks[problem_id].events) == events
            # The result's own recorded stream is the same stream.
            assert canonical(result.events) == events

    def test_batched_streams_survive_process_boundaries(
        self, serial_reference
    ):
        """States snapshot into worker processes and back bit-identically
        (the mage row exercises suspension, injection, and resume)."""
        with ProcessExecutor(2) as executor:
            results, sinks, _ = _rollout_run("mage", executor)
        for result, problem_id in zip(results, PROBLEM_IDS):
            assert result.error is None
            source, events = serial_reference[("mage", problem_id)]
            assert result.source == source
            assert canonical(sinks[problem_id].events) == events

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_adaptive_speculative_streams_are_bit_identical(
        self, key, serial_reference
    ):
        """``batch="auto"`` + speculation changes nothing observable:
        speculative simulations only warm the cache, never touch a
        per-run event stream."""
        with ThreadExecutor(2) as executor:
            results, sinks, scheduler = _rollout_run(
                key, executor, batch="auto", speculate=True
            )
        assert scheduler.adaptive and scheduler.speculate
        for result, problem_id in zip(results, PROBLEM_IDS):
            assert result.error is None
            source, events = serial_reference[(key, problem_id)]
            assert result.source == source
            assert canonical(sinks[problem_id].events) == events
        # Accounting stays consistent whatever speculation predicted.
        spec = scheduler.speculation
        assert spec.launched == spec.used + spec.mispredicted
        dedup = scheduler.dedup
        assert dedup.submitted == (
            dedup.executed + dedup.wave_duplicates + dedup.fabric_hits
        )

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_rollout_grid_rows_match_serial(self, key):
        problems = [get_problem(problem_id) for problem_id in PROBLEM_IDS]
        with SerialExecutor() as executor:
            serial_result, _ = evaluate_many(
                SYSTEMS[key].factory,
                "verilogeval-v2",
                runs=2,
                seed0=SEED,
                problems=problems,
                executor=executor,
                cache=SimulationCache(),
            )
        with ThreadExecutor(2) as executor:
            rollout_result, report = evaluate_many(
                SYSTEMS[key].factory,
                "verilogeval-v2",
                runs=2,
                seed0=SEED,
                problems=problems,
                executor=executor,
                cache=SimulationCache(),
                rollout_batch=4,
            )
        assert rollout_result.outcomes == serial_result.outcomes
        assert "rollout[4]" in report.executor


class TestServicePathParity:
    @pytest.fixture(scope="class")
    def rollout_server(self):
        with SolveServer(workers=1, rollout_batch=4) as server:
            yield server

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_batching_service_streams_are_bit_identical(
        self, key, serial_reference, rollout_server
    ):
        for problem_id in PROBLEM_IDS:
            sink = ListSink()
            with MultiplexedClient(rollout_server.address) as client:
                outcome = client.solve(
                    key, problem_id, seed=SEED, events=sink
                )
            source, events = serial_reference[(key, problem_id)]
            assert outcome.source == source
            # Frames crossed the wire via Event.to_json/from_json; the
            # canonical streams must still agree field-by-field.
            assert canonical(sink.events) == events

    def test_warm_service_replay_is_the_same_stream(
        self, serial_reference, rollout_server
    ):
        sink = ListSink()
        with MultiplexedClient(rollout_server.address) as client:
            outcome = client.solve(
                "mage", PROBLEM_IDS[0], seed=SEED, events=sink
            )
        assert outcome.cached  # second submit of the matrix cell
        _, events = serial_reference[("mage", PROBLEM_IDS[0])]
        assert canonical(sink.events) == events


class TestStealRingParity:
    """The service+steal matrix row: a two-server ring where the idle
    server drains the busy one's published score waves over
    ``WaveSteal`` frames.  Stealing moves pure simulations between
    machines, so whether a wave ran locally or was stolen, every
    solve's source and event stream must equal the serial reference."""

    @pytest.fixture(scope="class")
    def steal_ring(self):
        with SolveServer(workers=1, rollout_batch=4) as victim:
            with SolveServer(
                workers=1,
                rollout_batch=4,
                steal_peers=[victim.address],
            ) as thief:
                yield victim, thief

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_ring_streams_are_bit_identical(
        self, key, serial_reference, steal_ring
    ):
        victim, _ = steal_ring
        for problem_id in PROBLEM_IDS:
            sink = ListSink()
            with MultiplexedClient(victim.address) as client:
                outcome = client.solve(
                    key, problem_id, seed=SEED, events=sink
                )
            source, events = serial_reference[(key, problem_id)]
            assert outcome.source == source
            assert canonical(sink.events) == events

    def test_thief_polled_the_victim(self, steal_ring):
        """The idle server's worker actually ran steal rounds against
        the peer ring while the victim was solving."""
        _, thief = steal_ring
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            service = thief.stats_snapshot()["service"]
            if service["steal_attempts"] > 0:
                break
            time.sleep(0.05)
        assert service["steal_attempts"] > 0


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
    dying mid-grid -- must produce the exact rows a serial local run
    does, for every system in the matrix.

    Four runs per problem give the busiest member at least four cells,
    so the mid-grid kill always lands while it still has queued work
    -- the re-shard path is exercised on every parametrization, not
    just when the scheduler happens to race a certain way."""

    RUNS = 4

    @pytest.fixture(scope="class")
    def serial_grids(self):
        """key -> serial-reference EvalResult for the 3-problem grid."""
        problems = [get_problem(problem_id) for problem_id in PROBLEM_IDS]
        reference = {}
        for key in SYSTEM_KEYS:
            with SerialExecutor() as executor:
                result, _ = evaluate_many(
                    SYSTEMS[key].factory,
                    "verilogeval-v2",
                    runs=self.RUNS,
                    seed0=SEED,
                    problems=problems,
                    executor=executor,
                    cache=SimulationCache(),
                )
            reference[key] = result
        return reference

    @pytest.fixture(scope="class")
    def ring_servers(self):
        servers = _converged_ring()
        yield servers
        for server in servers:
            server.kill()

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
        assert result.outcomes == serial_grids[key].outcomes
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
        assert result.outcomes == serial_grids[key].outcomes
        assert report.dead_shards == [victim.advertised]
        assert report.cells == len(problems) * self.RUNS
