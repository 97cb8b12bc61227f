#!/usr/bin/env python3
"""The repo's benchmark: one command, three workloads, checked rows.

Usage (from the repository root)::

    python3 perfbench/run.py --workload llm-wait --seed 0 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer ledger instead.  The
seed picks the run seeds: workload seed ``n`` uses the block
``32n .. 32n+31``.  Every timed repetition runs in a fresh child
process (``workloads.py``); this parent never imports the program, so
its own memory and start-up cost stay out of every figure.

Every cell is compared with the expected ``(passed, score)`` rows in
``expected_rows.json``.  Seeds the file does not hold are derived with
the serial in-process path in a separate child, after timing.  The last
line of standard output is the JSON result; the lines before it are for
people (and ``record`` carries the environment fingerprint).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    GRID_RUNS,
    GRID_STRIDE,
    LLM_DELAY_S,
    LOAD_THREADS,
    MAX_GRID_CHILDREN,
    SEED_BLOCK,
    SWEEP_PROBLEM_STEP,
    WINDOW,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-grid", "llm-wait", "sweep-extend")
# Repetition groups (children) per run: at least three set-ups for the
# setup_s median, and enough repetitions to average out the box's speed
# noise.  The traced run alternates untraced and traced children for
# trace.overhead.
MIN_CHILDREN = {"cold-grid": 4, "llm-wait": 6, "sweep-extend": 3}
MIN_CHILDREN_TRACED = 4
# Every child is killed past this many seconds from the start, so a run
# ends within 180 s; past the minimum, a child starts only if one as long
# as the longest so far would still leave RESERVE_S for the row check.
RUN_LIMIT_S = 170.0
RESERVE_S = 40.0

END_TO_END = {
    "cells_per_s": "1/s",
    "cell_p50_ms": "ms",
    "cell_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    ".calls": "count",
    ".lookups": "count",
    ".checks": "count",
    ".bytes": "bytes",
    "_frac": "ratio",
    ".util": "ratio",
    "_per_cell": "count",
    ".sims": "count",
    "_ms": "ms",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark could not measure (not a wrong program output)."""


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "s"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list (``q`` in 0..1)."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered) - 1e-9)))
    return ordered[rank - 1]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # never report an enclosing repository's commit
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's sources (the checkout may have no git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env() -> dict:
    """The environment minus ``REPRO_*`` knobs, so defaults are measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child to completion (killed at ``deadline``, a monotonic time)."""
    spec = dict(spec, spawned_at=time.time())
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("child ran past the run's time limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("PERFBENCH "):
        sys.stderr.write(done.stderr[-4000:])
        raise BenchError(f"child failed with exit code {done.returncode}")
    return json.loads(lines[-1][len("PERFBENCH ") :])


def run_children(args, block: int, deadline: float) -> list[dict]:
    """Spawn repetition groups until the run's seconds are measured.

    Grid children each take the next group of run seeds (in the traced
    run, an untraced and a traced child share a group, so
    ``trace.overhead`` compares like with like); sweep-extend children
    all slide the same window.
    """
    minimum = MIN_CHILDREN_TRACED if args.trace else MIN_CHILDREN[args.workload]
    grid = args.workload != "sweep-extend"
    children: list[dict] = []
    timed = longest = 0.0
    while len(children) < minimum or timed < args.seconds:
        group = len(children) // 2 if args.trace else len(children)
        if len(children) >= minimum and (
            time.monotonic() + longest > deadline - RESERVE_S
            or (grid and group == MAX_GRID_CHILDREN)
        ):
            break
        traced = bool(args.trace) and len(children) % 2 == 1
        started = time.monotonic()
        child = spawn(
            {
                "mode": "workload",
                "workload": args.workload,
                "seed0": block + (GRID_STRIDE * group if grid else 0),
                "trace": traced,
                "budget_s": args.seconds / minimum,
            },
            deadline,
        )
        longest = max(longest, time.monotonic() - started)
        child["traced"] = traced
        children.append(child)
        timed += sum(rep["wall"] for rep in child["reps"])
    return children


def load_expected(
    seeds: set[int], deadline: float
) -> tuple[list[str], dict[str, list]]:
    """Expected rows for ``seeds``: stored ones, the rest derived serially."""
    stored = json.loads((HERE / "expected_rows.json").read_text())
    problems, rows = stored["problems"], stored["rows"]
    missing = sorted(seed for seed in seeds if str(seed) not in rows)
    if missing:
        derived = spawn({"mode": "expected", "seeds": missing}, deadline)
        if derived["problems"] != problems:
            raise BenchError("suite changed since expected_rows.json was written")
        rows = dict(rows, **derived["rows"])
    return problems, rows


def check(children: list[dict], deadline: float) -> tuple[int, int]:
    """``(attempted, failed)`` over every cell, warm-up cells included."""
    cell_lists = []
    attempted = 0
    for child in children:
        cell_lists.append(child.get("warm_cells", []))
        attempted += len(child.get("warm_cells", []))
        for rep in child["reps"]:
            cell_lists.append(rep["cells"])
            attempted += max(rep["planned"], len(rep["cells"]))
            if rep["error"]:
                print(f"error: {rep['error']}", file=sys.stderr)
    problems, rows = load_expected(
        {cell[1] for cells in cell_lists for cell in cells}, deadline
    )
    index = {problem: i for i, problem in enumerate(problems)}
    good = 0
    for cells in cell_lists:
        for problem, seed, passed, score, *rest in cells:
            if passed is not None and rows[str(seed)][index[problem]] == [passed, score]:
                good += 1
            elif rest[2:]:
                print(f"error: {problem} seed {seed}: {rest[2]}", file=sys.stderr)
    return attempted, attempted - good


def end_to_end(children: list[dict]) -> tuple[dict, dict]:
    reps = [rep for child in children for rep in child["reps"]]
    latencies = [cell[4] * 1000.0 for rep in reps for cell in rep["cells"]]
    if not latencies:
        raise BenchError("no cell completed")
    metrics = {
        "cells_per_s": len(latencies) / sum(r["wall"] for r in reps),
        "cell_p50_ms": statistics.median(latencies),
        "cell_p90_ms": percentile(latencies, 0.9),
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    counts = {
        "reps": len(reps),
        "children": len(children),
        "cells": len(latencies),
        "beyond_p90": sum(1 for v in latencies if v > metrics["cell_p90_ms"]),
    }
    return metrics, counts


def per_layer(children: list[dict]) -> tuple[dict, dict]:
    traced = [rep for c in children if c["traced"] for rep in c["reps"]]
    plain = [rep for c in children if not c["traced"] for rep in c["reps"]]
    if not traced or not plain:
        raise BenchError("traced run needs traced and untraced repetitions")
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead"] = statistics.median(
        r["wall"] for r in traced
    ) / statistics.median(r["wall"] for r in plain)
    counts = {"traced_reps": len(traced), "untraced_reps": len(plain)}
    return metrics, counts


def describe(args, block: int) -> str:
    if args.workload == "sweep-extend":
        return (
            f"solve server, {LOAD_THREADS} closed-loop clients, every "
            f"{SWEEP_PROBLEM_STEP}nd problem, window of {WINDOW} seeds from "
            f"{block}, sliding one seed per repetition"
        )
    text = (
        f"{GRID_RUNS[args.workload]} run(s) per problem per repetition, "
        f"repetition c from run seed {block} + {GRID_STRIDE}c, "
        "fresh process each"
    )
    if args.workload == "llm-wait":
        text += f", {LLM_DELAY_S * 1000:.0f} ms per LLM call, default jobs"
    return text


def pass_at_1(children: list[dict]) -> tuple[float, int]:
    """Pass@1 in percent over the distinct timed cells, and their number."""
    cells = {
        (cell[0], cell[1]): cell[2]
        for child in children
        for rep in child["reps"]
        for cell in rep["cells"]
    }
    return 100.0 * sum(bool(v) for v in cells.values()) / max(1, len(cells)), len(cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    block = args.seed * SEED_BLOCK
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if args.workload == "llm-wait":
        env["llm_delay_ms"] = LLM_DELAY_S * 1000.0
    try:
        children = run_children(args, block, deadline)
        attempted, failed = check(children, deadline)
        if args.trace:
            metrics, counts = per_layer(children)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, counts = end_to_end(children)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench {args.workload} seed {args.seed}: {describe(args, block)}")
    passed, distinct = pass_at_1(children)
    print("  " + ", ".join(f"{key} {value}" for key, value in counts.items()))
    print(
        f"  Pass@1 {passed:.1f}% over {distinct} distinct cells; failed_frac "
        f"{failed / attempted:.4f} ({failed} of {attempted} cells checked "
        "against expected rows)"
    )
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    record = {"env": env, "counts": counts, "attempted": attempted, "failed": failed}
    print("record " + json.dumps(dict(record, metrics=metrics)))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
