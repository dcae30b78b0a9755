"""The first cycle finder of ``validate_graph``, kept as a differential oracle.

It enumerates every simple head path from each unit, which is exponential
on multi-headed acyclic graphs; ``discodep.model._cycles`` replaced it with
Tarjan's strongly connected components. ``test_model.py`` checks that both
find the same cycle units. Use it on small graphs only.
"""

from __future__ import annotations

from discodep.model import DependencyArc


def cycles(arcs: tuple[DependencyArc, ...]) -> list[list[int]]:
    """Cycles among non-root arcs, each reported once from its smallest unit."""
    heads: dict[int, list[int]] = {}
    for arc in arcs:
        if not arc.is_root:
            heads.setdefault(arc.dependent, []).append(arc.head)
    cycles = []
    seen: set[frozenset[int]] = set()
    for start in sorted(heads):
        # walk every head chain; graphs may be multi-headed, so DFS
        stack = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for nxt in heads.get(node, []):
                if nxt == start:
                    key = frozenset(path)
                    if key not in seen and start == min(path):
                        seen.add(key)
                        cycles.append(path)
                elif nxt not in path:
                    stack.append((nxt, path + [nxt]))
    return cycles
