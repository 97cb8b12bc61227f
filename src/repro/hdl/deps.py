"""Signal dependency graphs and cones of influence.

The debug model uses :func:`outputs_in_cone` to decide whether a fault
at some signal can explain an observed output mismatch -- the mechanism
behind the paper's claim that state checkpoints give *targeted* fixes.
"""

from __future__ import annotations

from repro.hdl.design import Design


class DependencyGraph(dict):
    """Adjacency sets: ``graph[a]`` holds every ``b`` with an edge ``a -> b``."""

    def add_edge(self, source: str, target: str) -> None:
        self.setdefault(source, set()).add(target)
        self.setdefault(target, set())

    def has_edge(self, source: str, target: str) -> bool:
        return target in self.get(source, ())

    def reversed(self) -> "DependencyGraph":
        """The same graph with every edge flipped."""
        flipped = DependencyGraph((node, set()) for node in self)
        for source, targets in self.items():
            for target in targets:
                flipped[target].add(source)
        return flipped


def dependency_graph(design: Design) -> DependencyGraph:
    """Directed graph with an edge ``a -> b`` when ``a`` influences ``b``.

    Both combinational and clocked processes contribute edges from every
    read signal to every written signal; clock/reset edge sources also
    influence the registers their process writes.
    """
    graph = DependencyGraph(
        (name, set()) for name in (*design.signals, *design.memories)
    )
    for proc in design.processes:
        sources = set(proc.reads)
        for _, clock in proc.edges:
            sources.add(clock)
        for target in proc.writes:
            for source in sources:
                if source != target:
                    graph.add_edge(source, target)
    return graph


def _reachable(graph: DependencyGraph, start: str) -> frozenset[str]:
    """``start`` plus every node reachable from it (empty if unknown)."""
    if start not in graph:
        return frozenset()
    seen = {start}
    stack = [start]
    while stack:
        for nxt in graph[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def cone_of_influence(design: Design, signal: str) -> frozenset[str]:
    """All signals transitively affected by ``signal`` (inclusive)."""
    return _reachable(dependency_graph(design), signal)


def fan_in_cone(design: Design, signal: str) -> frozenset[str]:
    """All signals that can transitively affect ``signal`` (inclusive)."""
    return _reachable(dependency_graph(design).reversed(), signal)


def outputs_in_cone(design: Design, signal: str) -> frozenset[str]:
    """Top-level outputs that ``signal`` can influence."""
    cone = cone_of_influence(design, signal)
    return frozenset(name for name in design.outputs if name in cone)
