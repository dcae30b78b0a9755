"""The first, recursive RST route, kept as a differential oracle.

These are the original node-keyed head percolation, recursive
binarization, character-loop tokenizer, two-phase ``.dis`` parser and
recursive printer.
The library replaced them with single iterative passes; the property
tests in ``test_rst_oracle.py`` check that both give the same results.
They recurse on tree depth, so use them on shallow trees only.

``token_parse_dis`` is the iterative parser that came between: one
explicit-stack pass over the whole token list, reading every attribute
list token by token. The library's scanner must agree with it on every
input, tree or error.
"""

from __future__ import annotations

import re

from discodep.model import (
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
from discodep.rst import (
    DisParseError,
    MissingNuclearity,
    NonContiguousLeaves,
    UnbalancedParens,
    _escape,
    _tokenize,
    _unescape,
)
from discodep.rst2dep import ROOT_SENSE

_TOKEN = re.compile(
    r"""
    (?P<open>\()
  | (?P<close>\))
  | (?P<atom>[^\s()]+)
    """,
    re.VERBOSE,
)

_NODE_LABELS = {"Root", "Nucleus", "Satellite"}


def tokenize(text: str) -> list[tuple[str, str]]:
    """Tokens as (kind, value); a _!fragment_! is one "text" token only as
    the argument of a text key, that is, right after "(" and "text"."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if tokens[-2:] == [("open", "("), ("atom", "text")] and text.startswith("_!", pos):
            end = text.find("_!", pos + 2)
            if end >= 0:
                tokens.append(("text", text[pos + 2 : end]))
                pos = end + 2
                continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise DisParseError(f"cannot tokenize at offset {pos}: {text[pos:pos+20]!r}")
        if m.lastgroup == "open":
            tokens.append(("open", "("))
        elif m.lastgroup == "close":
            tokens.append(("close", ")"))
        else:
            tokens.append(("atom", m.group("atom")))
        pos = m.end()
    return tokens


class _RawNode:
    __slots__ = ("label", "leaf", "span", "rel2par", "text", "children")

    def __init__(self, label: str):
        self.label = label
        self.leaf: int | None = None
        self.span: tuple[int, int] | None = None
        self.rel2par: str | None = None
        self.text: str | None = None
        self.children: list[_RawNode] = []


def _parse_node(tokens: list[tuple[str, str]], pos: int) -> tuple[_RawNode, int]:
    if pos >= len(tokens) or tokens[pos][0] != "open":
        raise UnbalancedParens(f"expected '(' at token {pos}")
    pos += 1
    if pos >= len(tokens) or tokens[pos][0] != "atom" or tokens[pos][1] not in _NODE_LABELS:
        got = tokens[pos][1] if pos < len(tokens) else "<eof>"
        raise DisParseError(f"expected node label Root/Nucleus/Satellite, got {got!r}")
    node = _RawNode(tokens[pos][1])
    pos += 1
    while pos < len(tokens):
        tkind, tval = tokens[pos]
        if tkind == "close":
            return node, pos + 1
        if tkind != "open":
            raise DisParseError(f"unexpected token {tval!r} inside node")
        if pos + 1 < len(tokens) and tokens[pos + 1][0] == "atom":
            head = tokens[pos + 1][1]
        else:
            head = None
        if head in _NODE_LABELS:
            child, pos = _parse_node(tokens, pos)
            node.children.append(child)
            continue
        pos, value = _parse_attr(tokens, pos)
        key, payload = value
        if key == "leaf":
            node.leaf = int(payload[0])
        elif key == "span":
            node.span = (int(payload[0]), int(payload[1]))
        elif key == "rel2par":
            node.rel2par = " ".join(payload)
        elif key == "text":
            node.text = payload[0]
    raise UnbalancedParens("unexpected end of input inside node")


def _parse_attr(tokens: list[tuple[str, str]], pos: int) -> tuple[int, tuple[str, list[str]]]:
    pos += 1
    if pos >= len(tokens) or tokens[pos][0] not in ("atom",):
        raise DisParseError("attribute list without a key")
    key = tokens[pos][1]
    pos += 1
    payload: list[str] = []
    depth = 0
    while pos < len(tokens):
        tkind, tval = tokens[pos]
        if tkind == "close":
            if depth == 0:
                return pos + 1, (key, payload)
            depth -= 1
        elif tkind == "open":
            depth += 1
        else:
            payload.append(tval)
        pos += 1
    raise UnbalancedParens(f"unterminated attribute ({key}")


def _build(raw: _RawNode) -> RstLeaf | RstInternal:
    if raw.leaf is not None:
        return RstLeaf(raw.leaf, _unescape(raw.text) if raw.text is not None else None)
    if not raw.children:
        raise DisParseError(f"{raw.label} node has neither (leaf k) nor children")
    children = []
    has_nucleus = False
    for child in raw.children:
        if child.label == "Root":
            raise DisParseError("Root label on a non-root node")
        nuclearity = Nuclearity(child.label)
        has_nucleus = has_nucleus or nuclearity is Nuclearity.NUCLEUS
        children.append(RstChild(_build(child), nuclearity, child.rel2par or "span"))
    if not has_nucleus:
        raise MissingNuclearity(
            f"internal node over leaves {raw.span or '?'} has no Nucleus child"
        )
    return RstInternal(tuple(children))


def parse_dis(text: str, doc_id: str = "") -> RstTree:
    tokens = tokenize(text)
    if not tokens:
        raise DisParseError("empty input")
    raw, pos = _parse_node(tokens, 0)
    if pos != len(tokens):
        raise UnbalancedParens(f"trailing tokens after tree (at token {pos})")
    if raw.label != "Root":
        raise DisParseError(f"top-level node must be Root, got {raw.label}")
    if raw.leaf is None and len(raw.children) == 1 and raw.children[0].leaf is not None:
        root = _build(raw.children[0])
    else:
        root = _build(raw)
    leaves = root.leaf_indices
    if leaves != tuple(range(1, len(leaves) + 1)):
        raise NonContiguousLeaves(f"leaf indices are {leaves}, expected 1..{len(leaves)}")
    tree = RstTree(root, doc_id=doc_id)
    if raw.span is not None and raw.span != (1, tree.leaf_count):
        raise NonContiguousLeaves(
            f"root declares span {raw.span} but tree has {tree.leaf_count} leaves"
        )
    return tree



def _int_fields(key: str, payload: list[str], arity: int) -> list[int]:
    try:
        if len(payload) == arity:
            return [int(field) for field in payload]
    except ValueError:
        pass
    raise DisParseError(f"malformed ({' '.join([key, *payload])}): expected {arity} integer(s)")


def _read_attr(tokens: list[tuple[str, str]], pos: int, attrs: dict) -> int:
    """Store the attribute list opening at tokens[pos]; return the position after it."""
    pos += 1
    if pos >= len(tokens) or tokens[pos][0] != "atom":
        raise DisParseError("attribute list without a key")
    key = tokens[pos][1]
    payload: list[str] = []
    depth = 0
    for pos in range(pos + 1, len(tokens)):
        kind, value = tokens[pos]
        if kind == "close":
            if depth == 0:
                break
            depth -= 1
        elif kind == "open":
            depth += 1
        else:
            payload.append(value)
    else:
        raise UnbalancedParens(f"unterminated attribute ({key}")
    if key == "leaf":
        attrs["leaf"] = _int_fields(key, payload, 1)[0]
    elif key == "span":
        attrs["span"] = tuple(_int_fields(key, payload, 2))
    elif key == "rel2par":
        attrs["rel2par"] = " ".join(payload)
    elif key == "text":
        if not payload:
            raise DisParseError("malformed (text): expected a fragment")
        attrs["text"] = payload[0]
    # other attributes (e.g. Promotion sets) are tolerated and dropped
    return pos + 1


def _close_node(label: str, attrs: dict, children: list) -> RstLeaf | RstInternal:
    """Build a node from its attributes and its already built (label, node, rel2par) children."""
    leaf = attrs.get("leaf")
    if leaf is not None:
        text = attrs.get("text")
        return RstLeaf(leaf, _unescape(text) if text is not None else None)
    if not children:
        raise DisParseError(f"{label} node has neither (leaf k) nor children")
    built = []
    has_nucleus = False
    for child_label, node, rel2par in children:
        if child_label == "Root":
            raise DisParseError("Root label on a non-root node")
        nuclearity = Nuclearity(child_label)
        has_nucleus = has_nucleus or nuclearity is Nuclearity.NUCLEUS
        built.append(RstChild(node, nuclearity, rel2par or "span"))
    if not has_nucleus:
        raise MissingNuclearity(
            f"internal node over leaves {attrs.get('span') or '?'} has no Nucleus child"
        )
    return RstInternal(tuple(built))


def token_parse_dis(text: str, doc_id: str = "") -> RstTree:
    """Parse a ".dis" constituency tree into an RstTree.

    One pass over the tokens with an explicit stack of open nodes; each
    node is built when it closes, so tree depth is not limited by recursion.
    """
    tokens = [(kind, value) for kind, value, _ in _tokenize(text)]
    if not tokens:
        raise DisParseError("empty input")
    if tokens[0][0] != "open":
        raise UnbalancedParens("expected '(' at token 0")
    if len(tokens) < 2 or tokens[1][0] != "atom" or tokens[1][1] not in _NODE_LABELS:
        got = tokens[1][1] if len(tokens) > 1 else "<eof>"
        raise DisParseError(f"expected node label Root/Nucleus/Satellite, got {got!r}")
    if tokens[1][1] != "Root":
        raise DisParseError(f"top-level node must be Root, got {tokens[1][1]}")
    # open nodes: (label, attributes, built (label, node, rel2par) children)
    stack: list[tuple[str, dict, list]] = [("Root", {}, [])]
    pos = 2
    while True:
        if pos >= len(tokens):
            raise UnbalancedParens("unexpected end of input inside node")
        kind, value = tokens[pos]
        if kind == "open":
            # lookahead: an inner list is either a child node or an attribute
            ahead = tokens[pos + 1] if pos + 1 < len(tokens) else ("", "")
            if ahead[0] == "atom" and ahead[1] in _NODE_LABELS:
                stack.append((ahead[1], {}, []))
                pos += 2
            else:
                pos = _read_attr(tokens, pos, stack[-1][1])
            continue
        if kind != "close":
            raise DisParseError(f"unexpected token {value!r} inside node")
        pos += 1
        label, attrs, children = stack.pop()
        if not stack:
            break
        stack[-1][2].append((label, _close_node(label, attrs, children), attrs.get("rel2par")))
    if pos != len(tokens):
        raise UnbalancedParens(f"trailing tokens after tree (at token {pos})")
    # degenerate single-child root wrapper: unwrap to the bare leaf
    if "leaf" not in attrs and len(children) == 1 and isinstance(children[0][1], RstLeaf):
        root = children[0][1]
    else:
        root = _close_node(label, attrs, children)
    try:
        tree = RstTree(root, doc_id=doc_id)
    except ValueError as err:
        raise NonContiguousLeaves(str(err)) from None
    span = attrs.get("span")
    if span is not None and span != (1, tree.leaf_count):
        raise NonContiguousLeaves(f"root declares span {span} but tree has {tree.leaf_count} leaves")
    return tree


def pretty_print(tree: RstTree) -> str:
    lines: list[str] = []

    def emit(node: RstLeaf | RstInternal, label: str, rel2par: str | None, indent: int) -> None:
        pad = "  " * indent
        if isinstance(node, RstLeaf):
            parts = [f"{pad}( {label} (leaf {node.edu_index})"]
            if rel2par is not None:
                parts.append(f"(rel2par {rel2par})")
            if node.text is not None:
                parts.append(f"(text _!{_escape(node.text)}_!)")
            lines.append(" ".join(parts) + " )")
            return
        first, last = node.leaf_indices[0], node.leaf_indices[-1]
        header = f"{pad}( {label} (span {first} {last})"
        if rel2par is not None:
            header += f" (rel2par {rel2par})"
        lines.append(header)
        for child in node.children:
            emit(child.node, child.nuclearity.value, child.relation, indent + 1)
        lines.append(f"{pad})")

    emit(tree.root, "Root", None, 0)
    return "\n".join(lines) + "\n"


def _node_heads(node: RstLeaf | RstInternal, table: dict[RstLeaf | RstInternal, int]) -> int:
    if isinstance(node, RstLeaf):
        table[node] = node.edu_index
        return node.edu_index
    head = None
    fallback = None
    for child in node.children:
        child_head = _node_heads(child.node, table)
        if fallback is None:
            fallback = child_head
        if head is None and child.nuclearity is Nuclearity.NUCLEUS:
            head = child_head
    table[node] = head if head is not None else fallback
    return table[node]


def tree_heads(tree: RstTree) -> dict[RstLeaf | RstInternal, int]:
    table: dict[RstLeaf | RstInternal, int] = {}
    _node_heads(tree.root, table)
    return table


def percolate(tree: RstTree) -> DependencyGraph:
    heads = tree_heads(tree)
    parent_of: dict[RstLeaf | RstInternal, tuple[RstInternal, str]] = {}

    def index_parents(node: RstLeaf | RstInternal) -> None:
        if isinstance(node, RstLeaf):
            return
        for child in node.children:
            parent_of[child.node] = (node, child.relation)
            index_parents(child.node)

    index_parents(tree.root)

    by_node: dict[int, RstLeaf] = {}

    def collect(node: RstLeaf | RstInternal) -> None:
        if isinstance(node, RstLeaf):
            by_node[node.edu_index] = node
            return
        for child in node.children:
            collect(child.node)

    collect(tree.root)

    arcs = []
    for edu in sorted(by_node):
        node: RstLeaf | RstInternal = by_node[edu]
        while node in parent_of and heads[parent_of[node][0]] == edu:
            node = parent_of[node][0]
        if node not in parent_of:
            arcs.append(DependencyArc(edu, ROOT, ROOT_SENSE))
        else:
            parent, relation = parent_of[node][0], parent_of[node][1]
            arcs.append(DependencyArc(edu, heads[parent], SenseTag(relation)))
    return DependencyGraph(
        doc_id=tree.doc_id,
        unit_count=tree.leaf_count,
        arcs=tuple(arcs),
        flavor=GraphFlavor.ROOTED_TREE,
    )


def _binarize_node(node: RstLeaf | RstInternal) -> RstLeaf | RstInternal:
    if isinstance(node, RstLeaf):
        return node
    children = [
        RstChild(_binarize_node(c.node), c.nuclearity, c.relation) for c in node.children
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
    return RstTree(_binarize_node(tree.root), doc_id=tree.doc_id)
