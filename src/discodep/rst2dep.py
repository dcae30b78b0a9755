"""Convert RST constituency trees into rooted dependency trees.

Both converters use nuclearity head percolation: an internal node is
headed by its leftmost Nucleus child. ``hirao_convert`` percolates over
the tree as-is; ``li_convert`` first binarizes n-ary nodes into a
left-branching cascade, which changes the attachment of grouped
satellites and keeps the two variants distinguishable.
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


def _head_of(node: RstInternal, child_heads: list[int]) -> int:
    for child, head in zip(node.children, child_heads):
        if child.nuclearity is Nuclearity.NUCLEUS:
            return head
    # satellite-only groups arise from binarization; fall back to the
    # leftmost child so percolation stays total
    return child_heads[0]


def tree_heads(tree: RstTree) -> dict[RstLeaf | RstInternal, int]:
    """Head EDU of every subtree: leftmost-Nucleus percolation."""
    table: dict[RstLeaf | RstInternal, int] = {}

    def leaf_head(leaf: RstLeaf) -> int:
        table[leaf] = leaf.edu_index
        return leaf.edu_index

    def node_head(node: RstInternal, child_heads: list[int]) -> int:
        table[node] = head = _head_of(node, child_heads)
        return head

    _fold(tree.root, leaf_head, node_head)
    return table


def hirao_convert(tree: RstTree) -> DependencyGraph:
    """Head percolation on the tree as annotated.

    Each child headed by another EDU than its parent attaches its head to
    the parent's head; the root's head takes the root arc.
    """
    arcs: list[DependencyArc] = []

    def attach(node: RstInternal, child_heads: list[int]) -> int:
        head = _head_of(node, child_heads)
        for child, child_head in zip(node.children, child_heads):
            if child_head != head:
                arcs.append(DependencyArc.make(child_head, head, SenseTag(child.relation)))
        return head

    root_head = _fold(tree.root, lambda leaf: leaf.edu_index, attach)
    arcs.append(DependencyArc.make(root_head, ROOT, ROOT_SENSE))
    return DependencyGraph(
        doc_id=tree.doc_id,
        unit_count=tree.leaf_count,
        arcs=tuple(arcs),
        flavor=GraphFlavor.ROOTED_TREE,
    )


def _binarize_node(node: RstInternal, binarized: list[RstLeaf | RstInternal]) -> RstInternal:
    children = [
        RstChild(b, c.nuclearity, c.relation) for c, b in zip(node.children, binarized)
    ]
    while len(children) > 2:
        left, right = children[0], children[1]
        if left.nuclearity is Nuclearity.NUCLEUS:
            group_nuc, group_rel = Nuclearity.NUCLEUS, left.relation
        elif right.nuclearity is Nuclearity.NUCLEUS:
            group_nuc, group_rel = Nuclearity.NUCLEUS, right.relation
        else:
            group_nuc, group_rel = Nuclearity.SATELLITE, left.relation
        grouped = RstChild(RstInternal((left, right)), group_nuc, group_rel)
        children = [grouped] + children[2:]
    return RstInternal(tuple(children))


def binarize(tree: RstTree) -> RstTree:
    """Left-branching cascade binarization preserving child order and nuclearity."""
    return RstTree(_fold(tree.root, lambda leaf: leaf, _binarize_node), doc_id=tree.doc_id)


def li_convert(tree: RstTree) -> DependencyGraph:
    """Binarize first, then percolate; identical to hirao on binary trees."""
    return hirao_convert(binarize(tree))


def apply_label_map(graph: DependencyGraph, mapping: dict[str, str]) -> DependencyGraph:
    """Attach relation classes from a label-map as the sense's second level.

    Lookup is case-insensitive; unmapped relations keep an empty class.
    Root arcs are untouched.
    """
    lowered = {k.lower(): v for k, v in mapping.items()}
    arcs = []
    for arc in graph.arcs:
        if arc.is_root:
            arcs.append(arc)
            continue
        cls = lowered.get(arc.sense.level1.lower())
        arcs.append(
            DependencyArc(
                arc.dependent,
                arc.head,
                SenseTag(arc.sense.level1, cls, arc.sense.level3),
                arc.distance,
            )
        )
    return DependencyGraph(graph.doc_id, graph.unit_count, tuple(arcs), graph.flavor)


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
