"""Earlier versions of ``discodep.model`` code, kept as differential oracles.

``cycles`` is the first cycle finder of ``validate_graph``. It enumerates
every simple head path from each unit, which is exponential on
multi-headed acyclic graphs; ``discodep.model._cycles`` replaced it with
Tarjan's strongly connected components. ``test_model.py`` checks that both
find the same cycle units. Use it on small graphs only.

``_cycles`` and ``validate_graph`` are the versions that built their own
per-unit indexes (a dependents counter, a root-arc list, a headless set and
a heads dict) before ``model._by_dependent`` became the one table; they
exempt a dependent equal to ROOT from the range check.

``_arc_order`` is the canonical arc sort key that built its sense part for
every arc; ``model._arc_order`` takes that part from a memo per sense.
"""

from __future__ import annotations

import math

from discodep.model import (
    ROOT,
    DependencyArc,
    DependencyGraph,
    Diagnostic,
    GraphFlavor,
)


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


def _cycles(arcs: tuple[DependencyArc, ...]) -> list[list[int]]:
    """Units of each strongly connected component that holds a cycle, sorted.

    Iterative Tarjan over the non-root dependent -> head arcs: linear in
    units plus arcs, and no recursion. Components come in order of their
    smallest unit.
    """
    heads: dict[int, list[int]] = {}
    for arc in arcs:
        if not arc.is_root:
            heads.setdefault(arc.dependent, []).append(arc.head)
    low: dict[int, float] = {}  # lowlink; inf once the unit's component is closed
    stack: list[int] = []
    work: list = []  # (unit, discovery index, stack height before it, heads left)
    components = []

    def visit(unit: int) -> None:
        low[unit] = len(low)
        work.append((unit, low[unit], len(stack), iter(heads[unit])))
        stack.append(unit)

    for root in heads:
        if root not in low:
            visit(root)
        while work:
            unit, index, height, nexts = work[-1]
            for nxt in nexts:
                if nxt not in heads:
                    continue  # a unit without heads lies on no cycle
                if nxt not in low:
                    visit(nxt)
                    break
                low[unit] = min(low[unit], low[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[unit])
                if low[unit] == index:
                    component = stack[height:]
                    del stack[height:]
                    for member in component:
                        low[member] = math.inf
                    if len(component) > 1:
                        components.append(sorted(component))
    return sorted(components)


def validate_graph(graph: DependencyGraph) -> list[Diagnostic]:
    """Check flavor-specific invariants, returning one diagnostic per violation.

    Anomalous corpus phenomena (multiple heads, cycles) are representable
    in a DependencyGraph; this validator makes them visible rather than
    rejecting them at construction time.
    """
    diags: list[Diagnostic] = []
    doc = graph.doc_id

    for arc in graph.arcs:
        for unit in (arc.dependent, arc.head):
            if unit != ROOT and not 1 <= unit <= graph.unit_count:
                diags.append(
                    Diagnostic(
                        "unit-out-of-range",
                        f"arc {arc.dependent}->{arc.head} references unit {unit} "
                        f"outside 1..{graph.unit_count}",
                        doc_id=doc,
                    )
                )

    dependents: dict[int, int] = {}
    for arc in graph.arcs:
        dependents[arc.dependent] = dependents.get(arc.dependent, 0) + 1
    for unit, count in sorted(dependents.items()):
        if count > 1:
            diags.append(
                Diagnostic(
                    "multiple-heads",
                    f"multiple heads for unit {unit} ({count} arcs)",
                    doc_id=doc,
                )
            )

    root_arcs = [a for a in graph.arcs if a.is_root]
    if graph.flavor is GraphFlavor.ROOTED_TREE:
        if len(root_arcs) != 1:
            diags.append(
                Diagnostic(
                    "root-count",
                    f"rooted tree must have exactly one ROOT arc, found {len(root_arcs)}",
                    doc_id=doc,
                )
            )
        headless = set(range(1, graph.unit_count + 1)) - set(dependents)
        if headless:
            diags.append(
                Diagnostic(
                    "unattached-units",
                    "units without a head: " + ", ".join(map(str, sorted(headless))),
                    doc_id=doc,
                )
            )
    else:
        for arc in root_arcs:
            diags.append(
                Diagnostic(
                    "unexpected-root",
                    f"local forest contains a ROOT arc for unit {arc.dependent}",
                    doc_id=doc,
                )
            )

    for cycle in _cycles(graph.arcs):
        diags.append(
            Diagnostic(
                "cycle",
                "dependency cycle through units " + ", ".join(map(str, cycle)),
                doc_id=doc,
            )
        )

    if graph.flavor is GraphFlavor.ROOTED_TREE and not diags:
        # acyclic + single-headed + one root over 1..n implies connected
        if len(graph.arcs) != graph.unit_count:
            diags.append(
                Diagnostic(
                    "arc-count",
                    f"rooted tree over {graph.unit_count} units must have "
                    f"{graph.unit_count} arcs, found {len(graph.arcs)}",
                    doc_id=doc,
                )
            )
    return diags


def _arc_order(arc: DependencyArc) -> tuple:
    """Dependent, head and printed sense; then each sense level, absent
    after any string, which separates two unequal senses that print alike
    (``SenseTag.parse("a..c")`` and ``SenseTag.parse("a.c")``, or a level
    None and one "")."""
    s = arc.sense
    return (
        arc.dependent,
        arc.head,
        str(s),
        s.level1 is None, s.level1 or "",
        s.level2 is None, s.level2 or "",
        s.level3 is None, s.level3 or "",
    )
