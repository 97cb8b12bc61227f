"""Work stealing over ``WaveSteal`` frames: claim, simulate, return.

The deterministic half of the stealing story (the ring-level parity
half lives in ``tests/runtime/test_rollout_parity.py``): a victim
server publishes score-wave tasks on its :class:`StealBoard`, a thief
claims them over the wire, simulates locally, and pushes the reports
back through ``CachePut`` -- after which the victim's own wave lookup
finds a report bit-identical to what a local simulation would have
produced.
"""

import pytest

from repro.evalsets import get_problem, golden_testbench
from repro.runtime.cache import SimulationCache, simulation_key
from repro.runtime.rollout import ScoreTask, StealBoard, rollout_score
from repro.service import (
    MultiplexedClient,
    ServiceStats,
    SolveServer,
    steal_from_peer,
)


def _golden_task(problem_id):
    problem = get_problem(problem_id)
    golden = golden_testbench(problem)
    task = ScoreTask(problem.golden, golden, problem.top, True, None)
    key = simulation_key(problem.golden, golden, problem.top)
    return task, key


@pytest.fixture()
def victim():
    with SolveServer(workers=1, rollout_batch=4) as server:
        yield server


class TestStealRoundTrip:
    def test_stolen_wave_is_bit_identical_to_local(self, victim):
        pairs = [_golden_task(pid) for pid in ("cb_mux2", "fs_vending")]
        victim.steal_board.publish([(key, task) for task, key in pairs])

        stats = ServiceStats()
        thief_cache = SimulationCache()
        executed = steal_from_peer(
            victim.address, cache=thief_cache, max_items=8, stats=stats
        )
        assert executed == len(pairs)
        assert stats.snapshot()["steal_attempts"] == 1
        assert stats.snapshot()["steal_executed"] == len(pairs)

        for task, key in pairs:
            local = rollout_score(task, SimulationCache()).report
            # The thief's CachePut landed in the victim's sim layer...
            returned = victim.sim_cache.peek_local(key)
            assert returned is not None
            assert returned.score == local.score
            assert returned.passed == local.passed
            assert returned.total_checks == local.total_checks
            # ...and warmed the thief's own cache on the way.
            assert thief_cache.peek_local(key) is not None

        assert victim.stats_snapshot()["service"]["steal_served"] == len(
            pairs
        )
        board = victim.stats_snapshot()["steal"]
        assert board["published"] == len(pairs)
        assert board["claimed"] == len(pairs)
        assert board["pending"] == 0

    def test_empty_board_steals_nothing(self, victim):
        stats = ServiceStats()
        executed = steal_from_peer(
            victim.address, cache=SimulationCache(), stats=stats
        )
        assert executed == 0
        assert stats.snapshot()["steal_executed"] == 0

    def test_corrupt_blob_is_skipped(self, victim):
        """A wrong-typed board entry degrades to 'victim simulates
        locally', never to a wrong result on either side."""
        task, key = _golden_task("cb_mux2")
        victim.steal_board.publish([(key, task)])
        with MultiplexedClient(victim.address) as client:
            pairs = client.wave_steal(max_items=4)
            assert [k for k, _ in pairs] == [key]
            # Hand back garbage instead of a report: the decode guard
            # on the victim side must not poison the sim layer.
            client.cache_put("sim", key, "not-base64-pickle!")
        assert victim.sim_cache.peek_local(key) is None


class TestStealBoard:
    def test_publish_claim_retract_counters(self):
        board = StealBoard(limit=2)
        task, key = _golden_task("cb_mux2")
        other, other_key = _golden_task("fs_vending")
        third, third_key = _golden_task("sq_counter_ud")
        stuck = board.publish(
            [(key, task), (other_key, other), (third_key, third)]
        )
        assert stuck == 2  # limit bounds staleness
        assert len(board) == 2
        claimed = board.claim(1)
        assert len(claimed) == 1
        board.retract([key, other_key, third_key])
        snap = board.snapshot()
        assert snap["published"] == 2
        assert snap["claimed"] == 1
        assert snap["retracted"] == 1
        assert snap["pending"] == 0

    def test_duplicate_keys_publish_once(self):
        board = StealBoard()
        task, key = _golden_task("cb_mux2")
        assert board.publish([(key, task), (key, task)]) == 1
        assert board.publish([(key, task)]) == 0
        assert len(board) == 1
