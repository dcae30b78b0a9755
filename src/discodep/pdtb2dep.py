"""Convert PDTB relations into a local dependency forest.

Head assignment follows the annotation's third-level tag: an ``ArgN-as-X``
tag marks argument N as the subordinate clause, so the unmarked argument
heads the arc. Senses without such a tag are symmetric and the linearly
later unit heads the pair. Multi-EDU arguments are resolved to a single
representative unit by constituent head percolation over the arcs built
so far, innermost constituents first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .align import DEFAULT_THETA, EmptyAlignment, resolve_span_set
from .formats import read_mapping_rows
from .model import (
    Diagnostic,
    DependencyArc,
    DependencyGraph,
    Document,
    GraphFlavor,
    PdtbRelation,
    RelationKind,
    SenseTag,
)

_MARKED_ARG = re.compile(r"arg([12])-as-", re.IGNORECASE)

MARKED_IS_DEPENDENT = "marked-dependent"
MARKED_IS_HEAD = "marked-head"

# Per-class overrides of the default marked-argument-is-dependent rule,
# keyed by lowercased level-2 class. Purpose pairs head on the goal
# clause, matching the worked WSJ_0618 conversion (the goal is the more
# central unit there); without this the published dependency rows for
# the enclosing constituents are not reproducible.
DEFAULT_HEAD_RULES: dict[str, str] = {"purpose": MARKED_IS_HEAD}


@dataclass(frozen=True)
class SymmetryVerdict:
    """Either symmetric, or asymmetric with one argument marked subordinate."""

    marked_arg: int | None = None  # 1 or 2; None means symmetric

    @property
    def is_symmetric(self) -> bool:
        return self.marked_arg is None


SYMMETRIC = SymmetryVerdict()


def sense_symmetry(tag: SenseTag) -> SymmetryVerdict:
    """Classify a sense tag by its level-3 ``ArgN-as-`` prefix.

    The marked argument is the dependent; the unmarked argument is the
    head. Tags are matched case-insensitively.
    """
    if tag.level3:
        m = _MARKED_ARG.match(tag.level3.strip())
        if m:
            return SymmetryVerdict(marked_arg=int(m.group(1)))
    return SYMMETRIC


def head_of_constituent(units: set[int], arcs_so_far: list[tuple[int, int]]) -> int:
    """Representative head of a multi-EDU constituent.

    Returns the unit that is not a dependent of any other unit in the set
    via (dependent, head) arcs internal to the set; ties go to the
    linearly last unit.
    """
    heads: dict[int, list[int]] = {}
    for dep, head in arcs_so_far:
        heads.setdefault(dep, []).append(head)
    return _constituent_head(units, heads)


def _constituent_head(units: set[int], heads: dict[int, list[int]]) -> int:
    # the last unit with no head inside the set, found in set size times
    # unit degree; the last unit when every one has such a head
    if not units:
        raise ValueError("empty constituent")
    candidates = [u for u in units if not any(h in units for h in heads.get(u, ()))]
    return max(candidates) if candidates else max(units)


def load_head_rules(path: str | Path) -> dict[str, str]:
    """Read a two-column override file: level-2 class TAB rule.

    A row overrides the default rule of its class; an empty class, or a
    class repeated within the file ignoring case, raises ValueError.
    """
    rules = dict(DEFAULT_HEAD_RULES)
    for line_no, cls, rule in read_mapping_rows(path, "head-rules", "class"):
        if rule not in (MARKED_IS_DEPENDENT, MARKED_IS_HEAD):
            raise ValueError(f"head-rules line {line_no}: unknown rule {rule!r}")
        rules[cls.lower()] = rule
    return rules


def _dependent_side(tag: SenseTag, verdict: SymmetryVerdict, head_rules: dict[str, str]) -> int:
    """Which argument (1 or 2) supplies the dependent of an asymmetric arc."""
    rule = MARKED_IS_DEPENDENT
    if tag.level2:
        rule = head_rules.get(tag.level2.lower(), MARKED_IS_DEPENDENT)
    if rule == MARKED_IS_HEAD:
        return 1 if verdict.marked_arg == 2 else 2
    return verdict.marked_arg


def convert_pdtb(
    doc: Document,
    relations: list[PdtbRelation],
    theta: float = DEFAULT_THETA,
    head_rules: dict[str, str] | None = None,
    flip_directions: bool = False,
) -> tuple[DependencyGraph, list[Diagnostic]]:
    """Convert one document's relations into a LocalForest dependency graph.

    NoRel rows carry no semantic arc and are dropped; within a link group
    only the first-listed relation is kept. Relations whose two argument
    EDU sets intersect are reported and skipped. ``flip_directions``
    swaps head and dependent on every emitted arc (constituent
    resolution still uses the canonical directions), which leaves the
    distance multiset unchanged.
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

    aligned: list[tuple[PdtbRelation, set[int], set[int]]] = []
    for rel in kept:
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
        aligned.append((rel, units1, units2))

    # innermost constituents first; the stable sort keeps file order on ties
    aligned.sort(key=lambda item: len(item[1] | item[2]))

    heads: dict[int, list[int]] = {}  # dependent -> canonical heads so far
    arcs: list[DependencyArc] = []
    for rel, units1, units2 in aligned:
        h1 = _constituent_head(units1, heads)
        h2 = _constituent_head(units2, heads)
        tag = rel.primary_sense
        verdict = sense_symmetry(tag)
        if verdict.is_symmetric:
            dependent, head = min(h1, h2), max(h1, h2)
        elif _dependent_side(tag, verdict, head_rules) == 1:
            dependent, head = h1, h2
        else:
            dependent, head = h2, h1
        heads.setdefault(dependent, []).append(head)
        if flip_directions:
            dependent, head = head, dependent
        arcs.append(DependencyArc(dependent, head, tag))

    graph = DependencyGraph(
        doc_id=doc.doc_id,
        unit_count=doc.unit_count,
        arcs=tuple(arcs),
        flavor=GraphFlavor.LOCAL_FOREST,
    )
    return graph, diagnostics
