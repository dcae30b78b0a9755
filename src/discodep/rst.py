"""Parser and printer for RST-DT constituency trees (parenthesized ".dis" files).

The format has node headers Root/Nucleus/Satellite, (span a b) or (leaf k)
coverage declarations, (rel2par label) relation tags, and optional
(text _!fragment_!) payloads on leaves.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from pathlib import Path

from .formats import _decode, _read_text
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


_TOKEN = re.compile(r"\s*(?:(?P<open>\()|(?P<close>\))|(?P<atom>[^\s()]+))")
# the argument of a text key: up to the first closing _!, across parens and lines
_FRAGMENT = re.compile(r"\s*_!(?P<text>.*?)_!", re.DOTALL)

_RELATION = r"rel2par((?:\s+[^\s()]+)*)\s*\)"  # the words of a (rel2par ...) list
_TEXT = r"text\s+_!([^_]*(?:_(?!!)[^_]*)*)_!\s*\)"  # up to the first _!, as _FRAGMENT reads it

# One match is one whole unit, spanning exactly the tokens _tokenize reads
# there:
# - a ")" (group 1);
# - a whole Nucleus or Satellite leaf node (2): its label (3), (leaf k) (4),
#   then optionally (rel2par words) (5) and (text _!fragment_!) (6), and ")";
# - a node header: its label (7), then optionally (span a b) (8, 9) and,
#   after it, (rel2par words) (10).
# Every other list (any list in another order or repeated, a lone (leaf k),
# a Promotion set, a nested or malformed list, a non-ASCII digit) matches
# none and is read token by token.
_UNIT = re.compile(
    rf"""
    \s*(?:
      (\))
    | \(\s*(?:
        ((Nucleus|Satellite)\s*\(\s*leaf\s+([0-9]+)\s*\)
          (?:\s*\(\s*{_RELATION})?(?:\s*\(\s*{_TEXT})?\s*\))
      | (Root|Nucleus|Satellite)
          (?:\s*\(\s*span\s+([0-9]+)\s+([0-9]+)\s*\)(?:\s*\(\s*{_RELATION})?|(?![^\s()]))
    ))
    """,
    re.VERBOSE,
)

_NODE_LABELS = {"Root", "Nucleus", "Satellite"}
_NUCLEARITY = {n.value: n for n in Nuclearity}
_NUCLEUS = Nuclearity.NUCLEUS


def _tokenize(text: str, pos: int = 0) -> Iterator[tuple[str, str, int]]:
    """Yield (kind, value, end) for each token from ``pos``: "open",
    "close", "atom", or "text" for a _!fragment_! right after "(" "text"."""
    opened = key = False  # whether the last token is "(", and "text" after one
    # every non-space character starts some alternative, so nothing is skipped
    while m := key and _FRAGMENT.match(text, pos) or _TOKEN.match(text, pos):
        kind = m.lastgroup
        pos = m.end()
        yield kind, m[kind], pos
        opened, key = kind == "open", opened and m[kind] == "text"


def _int_fields(key: str, payload: list[str], arity: int) -> list[int]:
    try:
        if len(payload) == arity:
            return [int(field) for field in payload]
    except ValueError:
        pass
    raise DisParseError(f"malformed ({' '.join([key, *payload])}): expected {arity} integer(s)")


def _read_attr(text: str, pos: int, attrs: dict) -> int:
    """Read token by token what no ``_UNIT`` alternative matches at ``pos``
    inside a node: store an attribute list and return the offset after its
    ")", or raise for anything else."""
    tokens = _tokenize(text, pos)
    kind, value, _ = next(tokens, ("", "", 0))
    if not kind:
        raise UnbalancedParens("unexpected end of input inside node")
    if kind != "open":
        raise DisParseError(f"unexpected token {value!r} inside node")
    kind, key, _ = next(tokens, ("", "", 0))
    if kind != "atom":
        raise DisParseError("attribute list without a key")
    payload: list[str] = []
    depth = 0
    for kind, value, end in tokens:
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
    return end


def _unescape(fragment: str) -> str:
    return re.sub(r"\\(.)", r"\1", fragment) if "\\" in fragment else fragment


class _Relations(dict):
    """The words of a ``_UNIT`` rel2par group -> the relation they name,
    normalized on first sight; no words or no list name "span", as a node
    without a relation does."""

    def __missing__(self, raw: str | None) -> str:
        relation = self[raw] = " ".join(raw.split()) if raw else "span"
        return relation


def _close_node(
    label: str, attrs: dict, children: list[RstChild], nucleus: bool, rooted: bool
) -> RstLeaf | RstInternal:
    """Build a node from its attributes and its built children; ``nucleus``
    and ``rooted`` say whether a child is a Nucleus or carries the Root label."""
    leaf = attrs.get("leaf")
    if leaf is not None:
        text = attrs.get("text")
        return RstLeaf(leaf, _unescape(text) if text is not None else None)
    if not children:
        raise DisParseError(f"{label} node has neither (leaf k) nor children")
    if rooted:
        raise DisParseError("Root label on a non-root node")
    if not nucleus:
        raise MissingNuclearity(
            f"internal node over leaves {attrs.get('span') or '?'} has no Nucleus child"
        )
    return RstInternal(tuple(children))


def parse_dis(text: str, doc_id: str = "") -> RstTree:
    """Parse a ".dis" constituency tree into an RstTree; one leading
    byte-order mark is skipped.

    One scan with an explicit stack of open nodes: each ``_UNIT`` match is
    a whole well-formed leaf node, a node header with its (span a b) and
    (rel2par ...) lists, or a ")", and every other list is read token by
    token (``_read_attr``), with the same attributes and errors. Each node
    becomes its parent's child when it closes, so tree depth is not limited
    by recursion.
    """
    return _parse(_decode(text), doc_id)


def _parse(text: str, doc_id: str) -> RstTree:
    match = _UNIT.match
    m = match(text)
    if m is None or m[7] != "Root":
        tokens = _tokenize(text)
        kind, _, _ = next(tokens, ("", "", 0))
        if not kind:
            raise DisParseError("empty input")
        if kind != "open":
            raise UnbalancedParens("expected '(' at token 0")
        kind, label, _ = next(tokens, ("", "<eof>", 0))
        if kind != "atom" or label not in _NODE_LABELS:
            raise DisParseError(f"expected node label Root/Nucleus/Satellite, got {label!r}")
        raise DisParseError(f"top-level node must be Root, got {label}")
    # the innermost open node: its label, attributes and built children, and
    # whether one child is a Nucleus or carries the Root label (a Root child
    # has no nuclearity); the nodes around it wait on the stack
    label, children, nucleus, rooted = "Root", [], False, False
    attrs = {} if m[8] is None else {"span": (int(m[8]), int(m[9]))}
    stack: list[tuple[str, dict, list[RstChild], bool, bool]] = []
    # leaves come in file order, which is the tree's left-to-right order:
    # ``count`` leaves are in the tree so far, and ``ordered`` says leaf k
    # came k-th each time, so the tree needs no second walk to check them
    count, ordered = 0, True
    relations = _Relations()
    pos = m.end()
    while True:
        m = match(text, pos)
        if m is None:
            pos = _read_attr(text, pos, attrs)
            continue
        pos = m.end()
        unit = m.lastindex
        if unit == 2:
            side, leaf, raw, fragment = m.group(3, 4, 5, 6)
            leaf = int(leaf)
            count += 1
            if leaf != count:
                ordered = False
            nuclearity = _NUCLEARITY[side]
            children.append(RstChild(
                RstLeaf(leaf, None if fragment is None else _unescape(fragment)), nuclearity, relations[raw]
            ))
            nucleus = nucleus or nuclearity is _NUCLEUS
        elif unit == 1:
            if not stack:
                break
            if nucleus and not rooted and "leaf" not in attrs:
                node = RstInternal(tuple(children))
            else:
                leaf = attrs.get("leaf")
                if leaf is not None:
                    count += 1
                    # the leaves read among a leaf node's children are dropped
                    if leaf != count or children:
                        ordered = False
                node = _close_node(label, attrs, children, nucleus, rooted)
            nuclearity, relation = _NUCLEARITY.get(label), attrs.get("rel2par") or "span"
            label, attrs, children, nucleus, rooted = stack.pop()
            children.append(RstChild(node, nuclearity, relation))
            nucleus = nucleus or nuclearity is _NUCLEUS
            rooted = rooted or nuclearity is None
        else:
            stack.append((label, attrs, children, nucleus, rooted))
            label, children, nucleus, rooted = m[7], [], False, False
            attrs = {} if m[8] is None else {"span": (int(m[8]), int(m[9])), "rel2par": relations[m[10]]}
    if _TOKEN.match(text, pos):
        raise UnbalancedParens(f"trailing tokens after tree (at token {len([*_tokenize(text[:pos])])})")
    # degenerate single-child root wrapper: unwrap to the bare leaf
    if "leaf" not in attrs and len(children) == 1 and isinstance(children[0].node, RstLeaf):
        root = children[0].node
    else:
        if "leaf" in attrs:
            # a Root (leaf k) node is the tree's one leaf; its children are dropped
            count, ordered = 1, attrs["leaf"] == 1 and not children
        root = _close_node(label, attrs, children, nucleus, rooted)
    if ordered:
        tree = RstTree._of_ordered_leaves(root, doc_id, count)
    else:
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
    return _parse(_read_text(path), path.stem)


def _escape(fragment: str) -> str:
    return fragment.replace("\\", "\\\\")


def _reads_back(relation: str) -> bool:
    """Whether ``(rel2par relation)`` parses back to ``relation``."""
    words = relation.split()
    return (
        bool(words)
        and relation == " ".join(words)
        and not any("(" in word or ")" in word for word in words)
    )


def pretty_print(tree: RstTree) -> str:
    """Serialize a tree back to ".dis" notation; parse_dis round-trips it.

    Raises ValueError for a leaf text holding ``_!``, a relation that
    parse_dis would read back differently (empty, parenthesized or with
    irregular whitespace), an internal node without a Nucleus child (as a
    left-branching binarization makes of leading satellites), or a root
    whose only child is a leaf (parse_dis reads the bare leaf).
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
