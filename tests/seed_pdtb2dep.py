"""The first PDTB attach loop, kept as a differential oracle.

``head_of_constituent`` rescans every arc built so far for each argument,
so ``convert_pdtb`` grows with the square of the relation count. The
library replaced the arc list with one dependent-to-heads table; the
property tests in ``test_pdtb2dep_oracle.py`` check that both give the
same graphs and the same diagnostics, in the same order.
"""

from __future__ import annotations

from discodep.align import DEFAULT_THETA, EmptyAlignment, resolve_span_set
from discodep.model import (
    Diagnostic,
    DependencyArc,
    DependencyGraph,
    Document,
    GraphFlavor,
    PdtbRelation,
    RelationKind,
)
from discodep.pdtb2dep import DEFAULT_HEAD_RULES, _dependent_side, sense_symmetry


def head_of_constituent(units: set[int], arcs_so_far: list[tuple[int, int]]) -> int:
    """Representative head of a multi-EDU constituent.

    Returns the unit that is not a dependent of any other unit in the set
    via (dependent, head) arcs internal to the set; ties go to the
    linearly last unit.
    """
    if not units:
        raise ValueError("empty constituent")
    dependents = {dep for dep, head in arcs_so_far if dep in units and head in units}
    candidates = units - dependents
    return max(candidates) if candidates else max(units)


def convert_pdtb(
    doc: Document,
    relations: list[PdtbRelation],
    theta: float = DEFAULT_THETA,
    head_rules: dict[str, str] | None = None,
) -> tuple[DependencyGraph, list[Diagnostic]]:
    """Convert one document's relations into a LocalForest dependency graph.

    NoRel rows carry no semantic arc and are dropped; within a link group
    only the first-listed relation is kept. Relations whose two argument
    EDU sets intersect are reported and skipped.
    """
    if head_rules is None:
        head_rules = DEFAULT_HEAD_RULES
    diagnostics: list[Diagnostic] = []

    kept: list[PdtbRelation] = []
    seen_links: set[str] = set()
    for rel in relations:
        if rel.kind is RelationKind.NOREL:
            continue
        if rel.link_group is not None:
            if rel.link_group in seen_links:
                diagnostics.append(
                    Diagnostic(
                        "link-group-duplicate",
                        f"dropping later relation of link group {rel.link_group}",
                        doc_id=doc.doc_id,
                        line_no=rel.raw_line_no,
                    )
                )
                continue
            seen_links.add(rel.link_group)
        kept.append(rel)

    if kept and doc.unit_count == 0:
        raise EmptyAlignment(f"{doc.doc_id}: document has no EDU inventory")

    aligned: list[tuple[int, PdtbRelation, set[int], set[int]]] = []
    for order, rel in enumerate(kept):
        try:
            units1 = resolve_span_set(
                rel.arg1_spans, doc, theta, diagnostics, context=f"line {rel.raw_line_no} Arg1"
            )
            units2 = resolve_span_set(
                rel.arg2_spans, doc, theta, diagnostics, context=f"line {rel.raw_line_no} Arg2"
            )
        except EmptyAlignment as err:
            diagnostics.append(
                Diagnostic(
                    "empty-alignment", str(err), doc_id=doc.doc_id, line_no=rel.raw_line_no
                )
            )
            continue
        if units1 & units2:
            diagnostics.append(
                Diagnostic(
                    "overlapping-arguments",
                    "argument EDU sets intersect: "
                    + ", ".join(map(str, sorted(units1 & units2))),
                    doc_id=doc.doc_id,
                    line_no=rel.raw_line_no,
                )
            )
            continue
        aligned.append((order, rel, units1, units2))

    # innermost constituents first; ties keep file order
    aligned.sort(key=lambda item: (len(item[2] | item[3]), item[0]))

    working: list[tuple[int, int]] = []  # canonical (dependent, head) pairs
    arcs: list[DependencyArc] = []
    for order, rel, units1, units2 in aligned:
        h1 = head_of_constituent(units1, working)
        h2 = head_of_constituent(units2, working)
        tag = rel.primary_sense
        verdict = sense_symmetry(tag)
        if verdict.is_symmetric:
            dependent, head = min(h1, h2), max(h1, h2)
        elif _dependent_side(tag, verdict, head_rules) == 1:
            dependent, head = h1, h2
        else:
            dependent, head = h2, h1
        working.append((dependent, head))
        arcs.append(DependencyArc(dependent, head, tag))

    graph = DependencyGraph(
        doc_id=doc.doc_id,
        unit_count=doc.unit_count,
        arcs=tuple(arcs),
        flavor=GraphFlavor.LOCAL_FOREST,
    )
    return graph, diagnostics
