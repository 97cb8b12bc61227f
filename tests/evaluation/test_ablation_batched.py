"""Ablation arms and figure collectors under cached/batched execution.

The Table III arms and the Fig. 3/4 config switches were only ever
exercised through the serial path; these tests drive them through
``evaluate_many`` on thread and process pools and through the
solve-cell cache,
and check the figure collectors fold identical series out of serial,
thread-scored, and cache-replayed event streams.
"""

from functools import partial

import pytest

from repro.baselines.registry import MAGESystem
from repro.core.events import ListSink
from repro.core.task import DesignTask
from repro.evalsets import get_problem
from repro.evaluation.ablation import (
    TABLE3_ARMS,
    checkpoint_ablation_configs,
    sampling_ablation_configs,
)
from repro.evaluation.figures import ScoreSeries
from repro.runtime.batch import evaluate_many
from repro.runtime.cache import (
    SimulationCache,
    SolveCellCache,
    system_fingerprint,
)
from repro.runtime.context import RuntimeContext, runtime_session
from repro.runtime.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.runtime.workers import solve_streaming

PROBLEMS = [get_problem("cb_kmap_mux"), get_problem("fs_vending")]


class TestAblationArmsBatched:
    @pytest.mark.parametrize("arm", TABLE3_ARMS, ids=lambda a: a.key)
    def test_arm_rows_identical_serial_vs_thread(self, arm):
        with SerialExecutor() as executor:
            serial, _ = evaluate_many(
                arm.factory,
                "verilogeval-v2",
                runs=2,
                problems=PROBLEMS,
                executor=executor,
                cache=SimulationCache(),
            )
        with ThreadExecutor(2) as executor:
            threaded, _ = evaluate_many(
                arm.factory,
                "verilogeval-v2",
                runs=2,
                problems=PROBLEMS,
                executor=executor,
                cache=SimulationCache(),
            )
        assert threaded.outcomes == serial.outcomes

    @pytest.mark.parametrize("arm", TABLE3_ARMS, ids=lambda a: a.key)
    def test_arm_rows_identical_serial_vs_process(self, arm):
        """Every arm's cells cross the process boundary (no thread
        fallback) and come back with the serial rows."""
        grids = []
        for executor in (SerialExecutor(), ProcessExecutor(2)):
            with executor:
                result, _ = evaluate_many(
                    arm.factory,
                    "verilogeval-v2",
                    runs=2,
                    problems=PROBLEMS,
                    executor=executor,
                    cache=SimulationCache(),
                )
                assert getattr(executor, "fallbacks", 0) == 0
            grids.append(result)
        serial, across_processes = grids
        assert across_processes.outcomes == serial.outcomes

    @pytest.mark.parametrize("arm", TABLE3_ARMS, ids=lambda a: a.key)
    def test_arm_is_solve_cacheable(self, arm):
        """Every Table III arm has a stable fingerprint, and a repeated
        sweep re-serves all its cells from the solve cache."""
        assert system_fingerprint(arm.factory) is not None
        solve_cache = SolveCellCache()
        passes = []
        for _ in range(2):
            with SerialExecutor() as executor:
                result, report = evaluate_many(
                    arm.factory,
                    "verilogeval-v2",
                    runs=1,
                    problems=PROBLEMS,
                    executor=executor,
                    cache=SimulationCache(),
                    solve_cache=solve_cache,
                )
            passes.append((result, report))
        (cold, cold_report), (warm, warm_report) = passes
        assert warm.outcomes == cold.outcomes
        assert cold_report.solve_cache.misses == len(PROBLEMS)
        assert warm_report.solve_cache.hits == len(PROBLEMS)

    @pytest.mark.parametrize(
        "configs",
        [checkpoint_ablation_configs, sampling_ablation_configs],
        ids=["checkpoints", "sampling"],
    )
    def test_config_switch_grids_identical_under_threads(self, configs):
        for label, config in configs().items():
            factory = partial(MAGESystem, config)
            with SerialExecutor() as executor:
                serial, _ = evaluate_many(
                    factory,
                    "verilogeval-v2",
                    runs=1,
                    seed0=2,
                    problems=PROBLEMS,
                    executor=executor,
                    cache=SimulationCache(),
                    name=label,
                )
            with ThreadExecutor(2) as executor:
                threaded, _ = evaluate_many(
                    factory,
                    "verilogeval-v2",
                    runs=1,
                    seed0=2,
                    problems=PROBLEMS,
                    executor=executor,
                    cache=SimulationCache(),
                    name=label,
                )
            assert threaded.outcomes == serial.outcomes, label


    @pytest.mark.parametrize(
        "configs",
        [checkpoint_ablation_configs, sampling_ablation_configs],
        ids=["checkpoints", "sampling"],
    )
    def test_config_switch_grids_identical_under_processes(self, configs):
        with ProcessExecutor(2) as pool:
            for label, config in configs().items():
                factory = partial(MAGESystem, config)
                rows = []
                for executor in (SerialExecutor(), pool):
                    result, _ = evaluate_many(
                        factory,
                        "verilogeval-v2",
                        runs=1,
                        seed0=2,
                        problems=PROBLEMS,
                        executor=executor,
                        cache=SimulationCache(),
                        name=label,
                    )
                    rows.append(result.outcomes)
                assert rows[1] == rows[0], label
            assert pool.fallbacks == 0


class TestFiguresFromBatchedStreams:
    def _series(self, events_per_run):
        series = ScoreSeries()
        for events in events_per_run:
            series.fold_events(events)
        return series

    def _snapshot(self, series):
        return (
            series.initial_scores,
            series.sampled_best_scores,
            series.rounds,
        )

    def test_series_from_threaded_scoring_equals_serial(self):
        """Fig. 4 collectors read identical series out of a run whose
        candidate and trial scoring fanned across a thread pool and a
        serial run's."""
        problem = get_problem("fs_vending")
        task = DesignTask.from_problem(problem)
        serial_sink = ListSink()
        MAGESystem().solve(task, seed=2, sink=serial_sink)
        threaded_sink = ListSink()
        with ThreadExecutor(2) as executor:
            context = RuntimeContext(executor=executor, cache=SimulationCache())
            with runtime_session(context=context):
                MAGESystem().solve(task, seed=2, sink=threaded_sink)
        serial = self._series([serial_sink.events])
        threaded = self._series([threaded_sink.events])
        assert self._snapshot(threaded) == self._snapshot(serial)
        # The run entered Step 4, so the figure actually has data.
        assert serial.initial_scores and serial.sampled_best_scores

    def test_series_from_cache_replay_equals_live(self):
        """A solve-cell cache hit replays a stream the collectors fold
        into exactly the live series (warm sweeps can draw figures)."""
        problem = get_problem("fs_vending")
        solve_cache = SolveCellCache()
        fingerprint = system_fingerprint(MAGESystem)
        streams = []
        for _ in range(2):
            sink = ListSink()
            _, cached = solve_streaming(
                MAGESystem,
                problem,
                2,
                sink=sink,
                solve_cache=solve_cache,
                fingerprint=fingerprint,
            )
            streams.append((cached, sink.events))
        (cold_cached, cold), (warm_cached, warm) = streams
        assert not cold_cached and warm_cached
        assert self._snapshot(self._series([warm])) == self._snapshot(
            self._series([cold])
        )
