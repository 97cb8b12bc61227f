"""Step 4: high-temperature RTL candidate sampling and ranking.

Implements Sec. III-B: sample c candidates from
P_T(r | p_sys, SP_i, TB_i) (Eq. 1), score each with the optimized
testbench (Eq. 2), and keep the Top-K (Eq. 3).  The key mechanism is
order statistics: temperature raises per-sample variance, and
simulation-based scoring harvests the right tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.judge_agent import JudgeAgent
from repro.agents.rtl_agent import RTLAgent
from repro.core.config import MAGEConfig
from repro.core.scoring import ScoredCandidate, select_top_k
from repro.core.task import DesignTask
from repro.runtime.context import get_runtime
from repro.tb.stimulus import Testbench


@dataclass
class SamplingOutcome:
    """Everything Step 4 produced (kept for figures and transcripts)."""

    candidates: list[ScoredCandidate] = field(default_factory=list)
    selected: list[ScoredCandidate] = field(default_factory=list)

    @property
    def scores(self) -> list[float]:
        return [c.score for c in self.candidates]

    @property
    def best_score(self) -> float:
        return max((c.score for c in self.candidates), default=0.0)


def sample_and_rank(
    task: DesignTask,
    tb_text: str,
    testbench: Testbench,
    rtl_agent: RTLAgent,
    judge: JudgeAgent,
    config: MAGEConfig,
    extra: list[ScoredCandidate] | None = None,
) -> SamplingOutcome:
    """Sample c candidates, score them, select the Top-K.

    ``extra`` carries already-scored candidates (the Step-2 initial RTL)
    into the ranking pool so sampling can only improve on them.
    """
    count = config.candidates if config.use_sampling else 0
    sources = (
        rtl_agent.sample_candidates(task, tb_text, config.generation, count)
        if count > 0
        else []
    )
    # Scoring is pure simulation (no LLM calls, no shared state), so it
    # fans out across the runtime executor; results come back in source
    # order, keeping the ranking bit-identical to serial.
    reports = get_runtime().executor.map(
        lambda source: judge.score(source, testbench, task.top), sources
    )
    outcome = SamplingOutcome()
    if extra:
        outcome.candidates.extend(extra)
    for source, report in zip(sources, reports):
        outcome.candidates.append(ScoredCandidate(source, report))
    outcome.selected = select_top_k(outcome.candidates, config.top_k)
    return outcome
