"""Parser and printer for RST-DT constituency trees (parenthesized ".dis" files).

The format has node headers Root/Nucleus/Satellite, (span a b) or (leaf k)
coverage declarations, (rel2par label) relation tags, and optional
(text _!fragment_!) payloads on leaves.
"""

from __future__ import annotations

import re
from pathlib import Path

from .formats import _read_text
from .model import (
    DiscodepError,
    Document,
    Nuclearity,
    RstChild,
    RstInternal,
    RstLeaf,
    RstTree,
    Span,
    iter_leaves,
)


class DisParseError(DiscodepError):
    pass


class UnbalancedParens(DisParseError):
    pass


class MissingNuclearity(DisParseError):
    pass


class NonContiguousLeaves(DisParseError):
    pass


class FragmentNotFound(DiscodepError):
    pass


_TOKEN = re.compile(
    r"""
    \s*(?:
      _!(?P<text>.*?)_!      # EDU text payload, non-greedy up to the closing _!
    | (?P<open>\()
    | (?P<close>\))
    | (?P<atom>[^\s()]+)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_NODE_LABELS = {"Root", "Nucleus", "Satellite"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    # every non-space character starts some alternative, so nothing is skipped
    return [(m.lastgroup, m.group(m.lastgroup)) for m in _TOKEN.finditer(text)]


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


def _unescape(fragment: str) -> str:
    return re.sub(r"\\(.)", r"\1", fragment)


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


def parse_dis(text: str, doc_id: str = "") -> RstTree:
    """Parse a ".dis" constituency tree into an RstTree.

    One pass over the tokens with an explicit stack of open nodes; each
    node is built when it closes, so tree depth is not limited by recursion.
    """
    tokens = _tokenize(text)
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


def parse_dis_file(path: str | Path) -> RstTree:
    path = Path(path)
    return parse_dis(_read_text(path), doc_id=path.stem)


def _escape(fragment: str) -> str:
    return fragment.replace("\\", "\\\\")


def _reads_back(relation: str) -> bool:
    """Whether ``(rel2par relation)`` parses back to ``relation``."""
    words = relation.split()
    return (
        bool(words)
        and relation == " ".join(words)
        and not any("(" in word or ")" in word or word.startswith("_!") for word in words)
    )


def pretty_print(tree: RstTree) -> str:
    """Serialize a tree back to ".dis" notation; parse_dis round-trips it.

    Raises ValueError for a leaf text holding ``_!``, a relation that
    parse_dis would read back differently (empty, parenthesized, with
    irregular whitespace or a word starting with ``_!``), an internal node
    without a Nucleus child (as ``binarize`` makes of leading satellites),
    or a root whose only child is a leaf (parse_dis reads the bare leaf).
    """
    lines: list[str] = []
    edus: list[int] = []  # leaf indices in the order they are printed
    # (node, label, rel2par, depth, None) opens a node; a closing entry
    # carries (header line index, len(edus) when the node opened) instead
    stack = [(tree.root, "Root", None, 0, None)]
    while stack:
        node, label, rel2par, depth, opened = stack.pop()
        pad = "  " * depth
        if rel2par is not None and not _reads_back(rel2par):
            raise ValueError(f"relation {rel2par!r} would not read back as written")
        rel = "" if rel2par is None else f" (rel2par {rel2par})"
        if isinstance(node, RstLeaf):
            if node.text is not None and "_!" in node.text:
                raise ValueError(f"leaf {node.edu_index} text holds _!: {node.text!r}")
            edus.append(node.edu_index)
            text = "" if node.text is None else f" (text _!{_escape(node.text)}_!)"
            lines.append(f"{pad}( {label} (leaf {node.edu_index}){rel}{text} )")
        elif opened is None:
            stack.append((node, label, rel2par, depth, (len(lines), len(edus))))
            lines.append("")  # the header, written once the node's leaves are known
            stack.extend(
                (c.node, c.nuclearity.value, c.relation, depth + 1, None)
                for c in reversed(node.children)
            )
        else:
            line, first = opened
            leaves = f"{edus[first]}..{edus[-1]}"
            if not any(c.nuclearity is Nuclearity.NUCLEUS for c in node.children):
                raise ValueError(f"node over leaves {leaves} has no Nucleus child")
            if depth == 0 and len(node.children) == 1 and isinstance(node.children[0].node, RstLeaf):
                raise ValueError(f"root over leaves {leaves} has a single leaf child")
            lines[line] = f"{pad}( {label} (span {edus[first]} {edus[-1]}){rel}"
            lines.append(f"{pad})")
    return "\n".join(lines) + "\n"


def edu_inventory_of(tree: RstTree, text: str, doc_id: str | None = None) -> Document:
    """Recover EDU character spans by locating leaf fragments in the raw text.

    Fragments are searched left to right, so EDU order follows leaf order.
    """
    edus: list[tuple[int, Span]] = []
    cursor = 0
    for leaf in iter_leaves(tree.root):
        fragment = (leaf.text or "").strip()
        if not fragment:
            raise FragmentNotFound(f"leaf {leaf.edu_index} carries no text fragment")
        start = text.find(fragment, cursor)
        if start < 0:
            raise FragmentNotFound(
                f"leaf {leaf.edu_index} text not found after offset {cursor}: "
                f"{fragment[:40]!r}"
            )
        edus.append((leaf.edu_index, Span(start, start + len(fragment))))
        cursor = start + len(fragment)
    return Document(doc_id or tree.doc_id or "", tuple(edus), text=text)
