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
from functools import lru_cache
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


@lru_cache(maxsize=1024)
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


def _constituent_head(units: set[int], heads: dict[int, list[int]]) -> int:
    # the last unit with no head inside the set, found in set size times
    # unit degree; the last unit when every one has such a head, so a
    # single unit heads itself
    if not units:
        raise ValueError("empty constituent")
    best = None
    for u in units:
        if (best is None or u > best) and units.isdisjoint(heads.get(u, ())):
            best = u
    return max(units) if best is None else best


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
) -> tuple[DependencyGraph, list[Diagnostic]]:
    """Convert one document's relations into a LocalForest dependency graph.

    NoRel rows carry no semantic arc and are dropped; within a link group
    only the first-listed relation is kept. Relations whose two argument
    EDU sets intersect are reported and skipped. A ``theta`` outside
    (0, 1] raises ValueError, whether or not there are relations.
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
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
                rel.arg1_spans, doc, theta, diagnostics, context=(rel.raw_line_no, "Arg1")
            )
            units2 = resolve_span_set(
                rel.arg2_spans, doc, theta, diagnostics, context=(rel.raw_line_no, "Arg2")
            )
        except EmptyAlignment as err:
            diagnostics.append(
                Diagnostic(
                    "empty-alignment", str(err), doc_id=doc.doc_id, line_no=rel.raw_line_no
                )
            )
            continue
        if not units1.isdisjoint(units2):
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

    # innermost constituents first (the argument sets are disjoint); the
    # stable sort keeps file order on ties
    aligned.sort(key=lambda item: len(item[1]) + len(item[2]))

    heads: dict[int, list[int]] = {}  # dependent -> canonical heads so far
    arcs: list[DependencyArc] = []
    for rel, units1, units2 in aligned:
        # a one-unit argument heads itself
        h1 = next(iter(units1)) if len(units1) == 1 else _constituent_head(units1, heads)
        h2 = next(iter(units2)) if len(units2) == 1 else _constituent_head(units2, heads)
        tag = rel.senses[0]
        verdict = sense_symmetry(tag)
        if verdict.is_symmetric:
            dependent, head = (h1, h2) if h1 < h2 else (h2, h1)
        elif _dependent_side(tag, verdict, head_rules) == 1:
            dependent, head = h1, h2
        else:
            dependent, head = h2, h1
        heads.setdefault(dependent, []).append(head)
        arcs.append(DependencyArc(dependent, head, tag))

    graph = DependencyGraph(
        doc_id=doc.doc_id,
        unit_count=doc.unit_count,
        arcs=tuple(arcs),
        flavor=GraphFlavor.LOCAL_FOREST,
    )
    return graph, diagnostics
