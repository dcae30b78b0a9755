"""Convert RST constituency trees into rooted dependency trees.

Both converters percolate heads over the parsed tree: an internal node is
headed by its leftmost Nucleus child. ``hirao_convert`` attaches every
other child to that head; ``li_convert`` gives the arcs of the
left-branching binarization without building it, so a satellite between
the first child and the head child attaches to the first child.
"""

from __future__ import annotations

from operator import attrgetter
from pathlib import Path

from .formats import read_mapping_rows
from .model import (
    DependencyArc,
    DependencyGraph,
    GraphFlavor,
    Nuclearity,
    ROOT,
    RstInternal,
    RstLeaf,
    RstTree,
    SenseTag,
)

ROOT_SENSE = SenseTag("ROOT", "NONE")
_node_of = attrgetter("node")


def _percolate(tree: RstTree, cascade: bool) -> DependencyGraph:
    """Attach each child but the head child ``h`` to the head child's head,
    or with ``cascade`` a child ``0 < i < h`` to the first child's head.
    The root's head takes the root arc.

    An internal node is headed by its leftmost Nucleus child, or by its
    first child when it has none. One post-order loop: an internal node
    goes back on the stack under a ``None`` marker, then its children, and
    popping the marker folds it.
    """
    nucleus = Nuclearity.NUCLEUS
    arcs: list[DependencyArc] = []
    senses: dict[str, SenseTag] = {}  # one per relation label in the tree
    heads: list[int] = []  # the head of each folded subtree whose parent is open
    stack: list[RstLeaf | RstInternal | None] = [tree.root]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node = pop()
        if node is None:
            children = pop().children
            child_heads = heads[-len(children):]
            del heads[-len(children):]
            h = 0
            for i, child in enumerate(children):
                if child.nuclearity is nucleus:
                    h = i
                    break
            head = child_heads[h]
            first = child_heads[0] if cascade else head
            for i, child in enumerate(children):
                child_head, to = child_heads[i], first if 0 < i < h else head
                if child_head != to:
                    sense = senses.get(child.relation)
                    if sense is None:
                        sense = senses[child.relation] = SenseTag(child.relation)
                    arcs.append(DependencyArc(child_head, to, sense))
            heads.append(head)
        elif isinstance(node, RstLeaf):
            heads.append(node.edu_index)
        else:
            push(node)
            push(None)
            extend(map(_node_of, reversed(node.children)))
    arcs.append(DependencyArc(heads[0], ROOT, ROOT_SENSE))
    return DependencyGraph(
        doc_id=tree.doc_id,
        unit_count=tree.leaf_count,
        arcs=tuple(arcs),
        flavor=GraphFlavor.ROOTED_TREE,
    )


def hirao_convert(tree: RstTree) -> DependencyGraph:
    """Head percolation on the tree as annotated."""
    return _percolate(tree, cascade=False)


def li_convert(tree: RstTree) -> DependencyGraph:
    """Percolation with satellites grouped as the left-branching binarization
    groups them, without building it: the arcs equal ``hirao_convert`` of
    that binarization, which the test suite's reference copy builds."""
    return _percolate(tree, cascade=True)


def apply_label_map(graph: DependencyGraph, mapping: dict[str, str]) -> DependencyGraph:
    """Attach relation classes from a label-map as the sense's second level.

    Lookup is case-insensitive; unmapped relations keep an empty class.
    Root arcs are untouched.
    """
    lowered = {k.lower(): v for k, v in mapping.items()}
    arcs = tuple(
        arc if arc.is_root else DependencyArc(
            arc.dependent, arc.head, SenseTag(arc.sense.level1, lowered.get(arc.sense.level1.lower()), arc.sense.level3)
        )
        for arc in graph.arcs
    )
    return DependencyGraph(graph.doc_id, graph.unit_count, arcs, graph.flavor)


def load_label_map(path: str | Path) -> dict[str, str]:
    """Read a two-column relation-to-class file (TAB separated); a row with
    an empty relation or class, or a relation repeated ignoring case, raises
    ValueError."""
    label_map = {}
    for line_no, relation, cls in read_mapping_rows(path, "label-map", "relation"):
        if not cls:
            raise ValueError(f"label-map line {line_no}: empty class for relation {relation!r}")
        label_map[relation] = cls
    return label_map
