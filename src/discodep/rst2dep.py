"""Convert RST constituency trees into rooted dependency trees.

Both converters percolate heads over the parsed tree: an internal node is
headed by its leftmost Nucleus child. ``hirao_convert`` attaches every
other child to that head; ``li_convert`` gives the arcs of the
left-branching binarization without building it, so a satellite between
the first child and the head child attaches to the first child.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

from .formats import read_mapping_rows
from .model import (
    DependencyArc,
    DependencyGraph,
    GraphFlavor,
    Nuclearity,
    ROOT,
    RstChild,
    RstInternal,
    RstLeaf,
    RstTree,
    SenseTag,
)

ROOT_SENSE = SenseTag("ROOT", "NONE")


def _fold(root: RstLeaf | RstInternal, leaf_value: Callable, combine: Callable):
    """Post-order fold without recursion.

    Each leaf becomes ``leaf_value(leaf)``; each internal node becomes
    ``combine(node, child_values)`` once all its children are folded.
    Returns the value of ``root``.
    """
    values: list = []
    stack: list[tuple[RstLeaf | RstInternal, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, RstLeaf):
            values.append(leaf_value(node))
        elif not expanded:
            stack.append((node, True))
            stack.extend((child.node, False) for child in reversed(node.children))
        else:
            k = len(node.children)
            value = combine(node, values[-k:])
            del values[-k:]
            values.append(value)
    return values[0]


def _head_child(children: tuple[RstChild, ...] | list[RstChild]) -> int:
    """Index of the leftmost Nucleus child, or 0 for a satellite-only group
    (as binarization makes), so percolation stays total."""
    for i, child in enumerate(children):
        if child.nuclearity is Nuclearity.NUCLEUS:
            return i
    return 0


def tree_heads(tree: RstTree) -> dict[RstLeaf | RstInternal, int]:
    """Head EDU of every subtree: leftmost-Nucleus percolation."""
    table: dict[RstLeaf | RstInternal, int] = {}

    def leaf_head(leaf: RstLeaf) -> int:
        table[leaf] = leaf.edu_index
        return leaf.edu_index

    def node_head(node: RstInternal, child_heads: list[int]) -> int:
        table[node] = head = child_heads[_head_child(node.children)]
        return head

    _fold(tree.root, leaf_head, node_head)
    return table


def _percolate(tree: RstTree, cascade: bool) -> DependencyGraph:
    """Attach each child but the head child ``h`` to the head child's head,
    or with ``cascade`` a child ``0 < i < h`` to the first child's head.
    The root's head takes the root arc."""
    arcs: list[DependencyArc] = []

    def attach(node: RstInternal, child_heads: list[int]) -> int:
        h = _head_child(node.children)
        for i, (child, child_head) in enumerate(zip(node.children, child_heads)):
            head = child_heads[0 if cascade and 0 < i < h else h]
            if child_head != head:
                arcs.append(DependencyArc(child_head, head, SenseTag(child.relation)))
        return child_heads[h]

    root_head = _fold(tree.root, lambda leaf: leaf.edu_index, attach)
    arcs.append(DependencyArc(root_head, ROOT, ROOT_SENSE))
    return DependencyGraph(
        doc_id=tree.doc_id,
        unit_count=tree.leaf_count,
        arcs=tuple(arcs),
        flavor=GraphFlavor.ROOTED_TREE,
    )


def hirao_convert(tree: RstTree) -> DependencyGraph:
    """Head percolation on the tree as annotated."""
    return _percolate(tree, cascade=False)


def _binarize_node(node: RstInternal, binarized: list[RstLeaf | RstInternal]) -> RstInternal:
    children = [
        RstChild(b, c.nuclearity, c.relation) for c, b in zip(node.children, binarized)
    ]
    while len(children) > 2:
        head = children[_head_child(children[:2])]
        children[:2] = [RstChild(RstInternal(tuple(children[:2])), head.nuclearity, head.relation)]
    return RstInternal(tuple(children))


def binarize(tree: RstTree) -> RstTree:
    """Left-branching cascade binarization preserving child order and nuclearity."""
    return RstTree(_fold(tree.root, lambda leaf: leaf, _binarize_node), doc_id=tree.doc_id)


def li_convert(tree: RstTree) -> DependencyGraph:
    """Percolation with satellites grouped as the left-branching binarization
    groups them; the arcs equal ``hirao_convert(binarize(tree))``."""
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
