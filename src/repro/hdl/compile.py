"""One-call helpers: source text to Design / Simulation."""

from __future__ import annotations

from functools import lru_cache

from repro.hdl.design import Design
from repro.hdl.elaborator import Elaborator
from repro.hdl.parser import parse_source
from repro.hdl.simulator import Simulation


def compile_design(
    source: str,
    top: str | None = None,
    overrides: dict[str, int] | None = None,
) -> Design:
    """Parse and elaborate Verilog source into a flat design.

    ``top`` defaults to the last module in the file (matching the common
    convention of placing the top module last).

    Compilation is a pure function of its arguments, so it is memoized
    by content: lint, testbench runs and golden derivations of the same
    source share one parse.  The returned :class:`Design` is shared and
    must be treated as immutable (a :class:`Simulation` only reads it).
    Errors are not cached; a failing source raises on every call.
    """
    frozen = tuple(sorted(overrides.items())) if overrides else None
    return _compile(source, top, frozen)


@lru_cache(maxsize=1024)
def _compile(
    source: str, top: str | None, overrides: tuple[tuple[str, int], ...] | None
) -> Design:
    tree = parse_source(source)
    top_name = tree.module(top).name
    return Elaborator.from_source(tree).elaborate(
        top_name, dict(overrides) if overrides else None
    )


def simulate(
    source: str,
    top: str | None = None,
    overrides: dict[str, int] | None = None,
) -> Simulation:
    """Compile and return a ready-to-drive :class:`Simulation`."""
    return Simulation(compile_design(source, top, overrides))
