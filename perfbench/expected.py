"""Regenerate ``expected_rows.json``: the rows every benchmark cell must match.

Usage (from the repository root)::

    python3 perfbench/expected.py 0 11

writes the serial-path ``(passed, score)`` rows of every run seed that
workload seeds 0 to 11 use (blocks ``32n .. 32n+31``).  Run it only on
a commit whose rows are known good: the file is the benchmark's oracle.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import SEED_BLOCK, expected_rows

TARGET = Path(__file__).resolve().parent / "expected_rows.json"


def main(argv: list[str]) -> int:
    first, last = int(argv[1]), int(argv[2])
    seeds = [
        seed
        for n in range(first, last + 1)
        for seed in range(n * SEED_BLOCK, (n + 1) * SEED_BLOCK)
    ]
    table = expected_rows(seeds)
    if TARGET.exists():
        stored = json.loads(TARGET.read_text())
        if stored["problems"] != table["problems"]:
            raise SystemExit("suite changed: regenerate every seed at once")
        table["rows"] = dict(stored["rows"], **table["rows"])
    table["rows"] = dict(sorted(table["rows"].items(), key=lambda kv: int(kv[0])))
    TARGET.write_text(
        "{\n"
        f'"problems": {json.dumps(table["problems"])},\n'
        '"rows": {\n'
        + ",\n".join(
            f"{json.dumps(seed)}: {json.dumps(rows)}"
            for seed, rows in table["rows"].items()
        )
        + "\n}\n}\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
