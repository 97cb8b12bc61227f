"""``compile_design`` is memoized by content, which is only sound if a
compiled :class:`Design` is never mutated by the code that simulates it."""

import pickle

import numpy as np
import pytest

from repro.evalsets import all_problems, golden_testbench
from repro.evalsets.problem import derive_testbench
from repro.hdl.compile import compile_design
from repro.hdl.errors import HdlError
from repro.hdl.parser import parse_module
from repro.hdl.unparse import unparse_module
from repro.llm.mutation import apply_faults, collect_sites, sample_faults
from repro.tb.runner import run_testbench

ADDER = """
module add #(parameter W = 4) (input [W-1:0] a, input [W-1:0] b,
                               output [W-1:0] y);
  assign y = a + b;
endmodule
"""

FUNC = """
module pop(input [3:0] a, output [2:0] n);
  function [2:0] count;
    input [3:0] v;
    integer i;
    begin
      count = 0;
      for (i = 0; i < 4; i = i + 1)
        count = count + v[i];
    end
  endfunction
  assign n = count(a);
endmodule
"""


def _mutants(problem, count=3):
    """Compilable fault-injected variants of ``problem``'s golden design."""
    module = parse_module(problem.golden, problem.top)
    sites = collect_sites(module)
    rng = np.random.default_rng(problem.seed_for(7))
    sources = []
    for _ in range(4 * count):
        faults = sample_faults(module, 1, rng, sites)
        if not faults:
            continue
        source = unparse_module(apply_faults(module, faults))
        try:
            compile_design(source, problem.top)
        except HdlError:
            continue
        sources.append(source)
        if len(sources) == count:
            break
    return sources


def _assert_untouched(source, top, tb):
    design = compile_design(source, top)
    before = pickle.dumps(design)
    report = run_testbench(source, tb, top)
    assert report.total_checks > 0 or report.error is not None
    assert compile_design(source, top) is design
    assert pickle.dumps(design) == before


@pytest.mark.parametrize("problem", all_problems(), ids=lambda p: p.id)
def test_simulation_never_mutates_golden_design(problem):
    _assert_untouched(problem.golden, problem.top, golden_testbench(problem))


def test_golden_designs_cover_clocked_comb_and_memory(problems):
    assert {p.kind for p in problems} == {"comb", "clocked"}
    assert any(p.design().memories for p in problems)


def test_simulation_never_mutates_function_design():
    steps = [{"a": a} for a in range(16)]
    tb = derive_testbench(FUNC, "pop", "comb", None, ("a",), ("n",), steps)
    assert compile_design(FUNC, "pop").functions
    _assert_untouched(FUNC, "pop", tb)


@pytest.mark.parametrize(
    "problem_id",
    ["cb_kmap_mux", "ar_adder8_cout", "sq_counter_ud", "fs_seq_det_1011", "me_ram_sync"],
)
def test_simulation_never_mutates_mutant_design(problem_id, problems):
    problem = next(p for p in problems if p.id == problem_id)
    tb = golden_testbench(problem)
    mutants = _mutants(problem)
    assert mutants
    for source in mutants:
        _assert_untouched(source, problem.top, tb)


def test_equal_inputs_share_one_design():
    assert compile_design(ADDER) is compile_design(ADDER)
    assert compile_design(ADDER, "add") is compile_design(ADDER, "add")
    wide = compile_design(ADDER, overrides={"W": 8})
    assert wide is compile_design(ADDER, overrides={"W": 8})
    assert wide is not compile_design(ADDER)
    assert wide is not compile_design(ADDER, overrides={"W": 6})
    assert wide.signals["y"].width == 8
    assert compile_design(ADDER).signals["y"].width == 4


def test_overrides_key_ignores_dict_order():
    source = ADDER.replace("#(parameter W = 4)", "#(parameter W = 4, parameter V = 1)")
    assert compile_design(source, overrides={"W": 5, "V": 2}) is compile_design(
        source, overrides={"V": 2, "W": 5}
    )


def test_compile_errors_are_reported_on_every_call():
    broken = "module bad(input a, output y);\n  assign y = a &;\nendmodule\n"
    messages = []
    for _ in range(3):
        with pytest.raises(HdlError) as info:
            compile_design(broken)
        messages.append(str(info.value))
    assert len(set(messages)) == 1
