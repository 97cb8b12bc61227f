"""``golden_testbench`` memoizes on the problem instance: the memo must
return what an uncached derivation would, per ``(n_random, seed)``, and
stay invisible to content keys and pickling."""

import dataclasses
import pickle

import pytest

from repro.evalsets import all_problems, get_problem, golden_testbench, input_steps
from repro.evalsets.problem import derive_testbench
from repro.runtime.cache import solve_cell_key
from repro.tb.stimulus import render_testbench


def _fresh(problem):
    """An equal problem instance with an empty memo."""
    return dataclasses.replace(problem)


def _uncached(problem, n_random=None, seed=0):
    return derive_testbench(
        problem.golden,
        problem.top,
        problem.kind,
        problem.clock,
        problem.data_inputs,
        problem.outputs,
        input_steps(problem, n_random, seed),
        name=f"golden_{problem.id}",
    )


def test_repeated_call_returns_same_object():
    problem = _fresh(get_problem("cb_kmap_mux"))
    first = golden_testbench(problem)
    assert golden_testbench(problem) is first
    assert golden_testbench(problem, problem.n_random, 0) is first


@pytest.mark.parametrize("problem", all_problems(), ids=lambda p: p.id)
def test_memo_matches_uncached_derivation(problem):
    assert render_testbench(golden_testbench(problem)) == render_testbench(
        _uncached(problem)
    )


def test_distinct_stimulus_gives_distinct_objects():
    problem = get_problem("sq_counter_ud")
    base = golden_testbench(problem)
    more = golden_testbench(problem, n_random=40)
    reseeded = golden_testbench(problem, seed=3)
    assert len({id(base), id(more), id(reseeded)}) == 3
    assert render_testbench(more) == render_testbench(_uncached(problem, 40))
    assert render_testbench(reseeded) == render_testbench(_uncached(problem, seed=3))
    assert render_testbench(reseeded) != render_testbench(base)


def test_memo_leaves_solve_cell_key_unchanged():
    problem = _fresh(get_problem("fs_traffic"))
    before = solve_cell_key("fp", problem, 2)
    golden_testbench(problem)
    golden_testbench(problem, seed=5)
    assert solve_cell_key("fp", problem, 2) == before


def test_problem_with_memo_pickles_and_round_trips():
    problem = _fresh(get_problem("me_fifo4"))
    tb = golden_testbench(problem)
    clone = pickle.loads(pickle.dumps(problem))
    assert clone == problem
    assert solve_cell_key("fp", clone, 0) == solve_cell_key("fp", problem, 0)
    assert render_testbench(golden_testbench(clone)) == render_testbench(tb)
