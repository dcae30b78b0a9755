"""Convert RST constituency trees into rooted dependency trees.

Both converters percolate heads over the parsed tree: an internal node is
headed by its leftmost Nucleus child. ``hirao_convert`` attaches every
other child to that head; ``li_convert`` gives the arcs of the
left-branching binarization without building it, so a satellite between
the first child and the head child attaches to the first child.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import attrgetter
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
_node_of = attrgetter("node")


def _fold(root: RstLeaf | RstInternal, leaf_value: Callable, combine: Callable):
    """Post-order fold without recursion.

    Each leaf becomes ``leaf_value(leaf)``; each internal node becomes
    ``combine(node, child_values)`` once all its children are folded.
    Returns the value of ``root``.
    """
    values: list = []
    stack: list[RstLeaf | RstInternal | None] = [root]  # None: fold the node below
    while stack:
        node = stack.pop()
        if node is None:
            node = stack.pop()
            k = len(node.children)
            value = combine(node, values[-k:])
            del values[-k:]
            values.append(value)
        elif isinstance(node, RstLeaf):
            values.append(leaf_value(node))
        else:
            stack += node, None
            stack.extend(map(_node_of, reversed(node.children)))
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
    The root's head takes the root arc.

    One post-order loop, as ``_fold`` walks, with the head rule of
    ``_head_child`` inlined: an internal node goes back on the stack under a
    ``None`` marker, then its children, and popping the marker folds it.
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
