"""Drive a DUT through a testbench and collect per-check records.

This is the Judge agent's measuring instrument: it produces the mismatch
count ``m(r)`` and total checks ``tc(r)`` behind the paper's candidate
score ``s(r) = 1 - m(r)/tc(r)`` (Eq. 2), plus the per-clock-edge records
the state-checkpoint mechanism slices into feedback windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdl.compile import compile_design
from repro.hdl.errors import HdlError
from repro.hdl.simulator import Simulation
from repro.hdl.values import LogicVec
from repro.tb.stimulus import Testbench

_TICK = 10  # simulated nanoseconds per step, for log rendering


@dataclass(frozen=True)
class CheckRecord:
    """One output comparison at one step."""

    step: int
    time: int
    signal: str
    expected: LogicVec
    actual: LogicVec
    ok: bool
    inputs: dict[str, int]


@dataclass
class TestReport:
    """Everything the judge and debug agents need from one simulation."""

    testbench: Testbench
    records: list[CheckRecord] = field(default_factory=list)
    error: str | None = None  # compile/runtime failure, if any

    @property
    def total_checks(self) -> int:
        if self.error is not None:
            return max(self.testbench.total_checks, 1)
        return len(self.records)

    @property
    def mismatches(self) -> int:
        if self.error is not None:
            return self.total_checks
        return sum(1 for r in self.records if not r.ok)

    @property
    def passed(self) -> bool:
        return self.error is None and self.mismatches == 0

    @property
    def score(self) -> float:
        """Normalized mismatch score s(r) = 1 - m(r)/tc(r) (paper Eq. 2)."""
        total = self.total_checks
        if total == 0:
            return 1.0 if self.error is None else 0.0
        return 1.0 - self.mismatches / total

    @property
    def first_mismatch(self) -> CheckRecord | None:
        """Earliest failing check: t_m = min{t : O_dut(t) != O_exp(t)} (Eq. 5)."""
        for record in self.records:
            if not record.ok:
                return record
        return None

    def mismatch_signals(self) -> dict[str, int]:
        """Per-output mismatch counts (for log-only feedback)."""
        out: dict[str, int] = {}
        for record in self.records:
            if not record.ok:
                out[record.signal] = out.get(record.signal, 0) + 1
        return out


def _matches(actual: LogicVec, expected: LogicVec) -> bool:
    """4-state compare; ``x`` bits in the expectation are don't-cares.

    An ``x`` in the DUT output only passes if the expectation marks that
    bit as don't-care.
    """
    width = max(actual.width, expected.width)
    a = actual.resize(width)
    e = expected.resize(width)
    care = ~e.xmask & ((1 << width) - 1)
    if a.xmask & care:
        return False
    return (a.val & care) == (e.val & care)


def run_testbench(
    source: str,
    testbench: Testbench,
    top: str | None = None,
    overrides: dict[str, int] | None = None,
    on_step: "Callable[[Simulation, int], None] | None" = None,
) -> TestReport:
    """Simulate ``source`` against ``testbench``.

    Compile or runtime errors do not raise; they yield a report whose
    ``error`` is set and whose score is 0, matching how a failed
    ``iverilog`` run scores a candidate.

    ``on_step(sim, step_index)`` is called after each step settles at
    its observation point (post-edge for clocked testbenches); waveform
    dumping (:mod:`repro.hdl.vcd`) and coverage measurement
    (:mod:`repro.tb.coverage`) hook in here.
    """
    report = TestReport(testbench=testbench)
    try:
        design = compile_design(source, top, overrides)
        sim = Simulation(design)
    except HdlError as exc:
        report.error = str(exc)
        return report
    except RecursionError:
        report.error = "elaboration recursion limit exceeded"
        return report

    known_inputs = {name for name in design.inputs}
    current_inputs: dict[str, int] = {}

    try:
        if testbench.kind == "clocked":
            _run_clocked(
                sim, testbench, known_inputs, current_inputs, report, on_step
            )
        else:
            _run_comb(
                sim, testbench, known_inputs, current_inputs, report, on_step
            )
    except HdlError as exc:
        report.error = str(exc)
    return report


def _apply_inputs(
    sim: Simulation,
    step_inputs: dict[str, int],
    known: set[str],
    current: dict[str, int],
) -> None:
    for name, value in step_inputs.items():
        if name in known:
            sim.poke(name, value)
            current[name] = value


def _record_checks(
    sim: Simulation,
    step_index: int,
    checks: dict[str, LogicVec],
    current: dict[str, int],
    report: TestReport,
) -> None:
    # One snapshot per step, shared by that step's records: every reader
    # treats ``CheckRecord.inputs`` as read-only.
    inputs = dict(current)
    for signal, expected in checks.items():
        try:
            actual = sim.peek(signal)
        except HdlError:
            actual = LogicVec.all_x(max(expected.width, 1))
        if expected.width < actual.width:
            expected = expected.resize(actual.width)
        report.records.append(
            CheckRecord(
                step=step_index,
                time=step_index * _TICK,
                signal=signal,
                expected=expected,
                actual=actual,
                ok=_matches(actual, expected),
                inputs=inputs,
            )
        )


def _run_clocked(
    sim: Simulation,
    tb: Testbench,
    known: set[str],
    current: dict[str, int],
    report: TestReport,
    on_step=None,
) -> None:
    clock = tb.clock
    assert clock is not None
    if clock in known:
        sim.poke(clock, 0)
    sim.settle()
    for index, step in enumerate(tb.steps):
        _apply_inputs(sim, step.inputs, known, current)
        sim.settle()
        if clock in known:
            sim.poke(clock, 1)
        sim.settle()
        sim.time = index * _TICK
        _record_checks(sim, index, step.checks, current, report)
        if on_step is not None:
            on_step(sim, index)
        if clock in known:
            sim.poke(clock, 0)
        sim.settle()


def _run_comb(
    sim: Simulation,
    tb: Testbench,
    known: set[str],
    current: dict[str, int],
    report: TestReport,
    on_step=None,
) -> None:
    for index, step in enumerate(tb.steps):
        _apply_inputs(sim, step.inputs, known, current)
        sim.settle()
        sim.time = index * _TICK
        _record_checks(sim, index, step.checks, current, report)
        if on_step is not None:
            on_step(sim, index)
