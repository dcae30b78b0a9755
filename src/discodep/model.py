"""Shared domain types: documents, spans, relations, trees, dependency graphs.

All types are immutable after construction.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter

ROOT = 0  # pseudo-head index for root arcs; EDU indices are 1-based


class DiscodepError(Exception):
    """Base class for all errors raised by this package."""


@dataclass(frozen=True)
class Diagnostic:
    """A non-fatal data anomaly, reported instead of raised."""

    code: str
    message: str
    doc_id: str | None = None
    line_no: int | None = None

    def __str__(self) -> str:
        parts = []
        if self.doc_id:
            parts.append(self.doc_id)
        if self.line_no is not None:
            parts.append(f"line {self.line_no}")
        loc = ":".join(parts)
        # one diagnostic per line: a line break in a doc_id or message is written as \r or \n
        line = f"[{self.code}] {loc + ': ' if loc else ''}{self.message}"
        return line.replace("\r", "\\r").replace("\n", "\\n")


# Spans, relations, RST nodes and dependency arcs are built by the thousand
# per document, so they are slotted (no per-object dict) and their
# hand-written __init__ sets each field through this one binding, where a
# generated one looks ``object.__setattr__`` up again for every field.
_set = object.__setattr__


@dataclass(frozen=True, order=True, slots=True, init=False)
class Span:
    """Character span over the raw document text: [start, end), 0-based."""

    start: int
    end: int

    def __init__(self, start: int, end: int) -> None:
        if start < 0 or start >= end:
            raise ValueError(f"invalid span [{start}, {end})")
        _set(self, "start", start)
        _set(self, "end", end)

    def __len__(self) -> int:
        return self.end - self.start

    def overlap(self, other: Span) -> int:
        return max(0, min(self.end, other.end) - max(self.start, other.start))


@dataclass(frozen=True)
class Document:
    """A text with its ordered EDU inventory.

    EDU indices are 1..n contiguous; spans are non-overlapping and in
    ascending text order. The raw text is optional: segmentation files
    carry offsets only.
    """

    doc_id: str
    edus: tuple[tuple[int, Span], ...]
    text: str | None = None

    def __post_init__(self) -> None:
        prev_end = -1
        for pos, (index, span) in enumerate(self.edus, start=1):
            if index != pos:
                raise ValueError(
                    f"{self.doc_id}: EDU indices must be 1..n contiguous, "
                    f"got {index} at position {pos}"
                )
            if span.start < prev_end:
                raise ValueError(
                    f"{self.doc_id}: EDU {index} overlaps or precedes EDU {index - 1}"
                )
            prev_end = span.end

    @property
    def unit_count(self) -> int:
        return len(self.edus)

    def span_of(self, index: int) -> Span:
        return self.edus[index - 1][1]

    @cached_property
    def _edu_ends(self) -> tuple[int, ...]:
        """End offset of each EDU in order, built on first use: ascending,
        so ``bisect`` finds the EDU a position falls in. Not a field, so
        equality, hash and repr ignore it."""
        return tuple(span.end for _, span in self.edus)


@dataclass(frozen=True)
class SenseTag:
    """PDTB three-level sense tag parsed from a dot-separated string."""

    level1: str
    level2: str | None = None
    level3: str | None = None

    @classmethod
    def parse(cls, tag: str) -> SenseTag:
        parts = [p or None for p in tag.strip().split(".")]
        if not parts or parts[0] is None:
            raise ValueError(f"empty sense tag: {tag!r}")
        if len(parts) > 3:
            raise ValueError(f"sense tag has more than three levels: {tag!r}")
        padded = parts + [None] * (3 - len(parts))
        return cls(padded[0], padded[1], padded[2])

    def __str__(self) -> str:
        return ".".join(filter(None, (self.level1, self.level2, self.level3)))


class RelationKind(enum.Enum):
    EXPLICIT = "Explicit"
    IMPLICIT = "Implicit"
    ALTLEX = "AltLex"
    ALTLEXC = "AltLexC"
    ENTREL = "EntRel"
    HYPOPHORA = "Hypophora"
    NOREL = "NoRel"


# Kinds annotated without a sense hierarchy; they get a synthetic
# single-level tag named after the kind.
SENSELESS_KINDS = frozenset(
    {RelationKind.ENTREL, RelationKind.HYPOPHORA, RelationKind.NOREL}
)


@dataclass(frozen=True, slots=True, init=False)
class PdtbRelation:
    """One annotation row of a PDTB 3.0 relation file."""

    kind: RelationKind
    senses: tuple[SenseTag, ...]
    arg1_spans: tuple[Span, ...]
    arg2_spans: tuple[Span, ...]
    connective: str | None = None
    link_group: str | None = None
    raw_line_no: int = 0

    def __init__(
        self,
        kind: RelationKind,
        senses: tuple[SenseTag, ...],
        arg1_spans: tuple[Span, ...],
        arg2_spans: tuple[Span, ...],
        connective: str | None = None,
        link_group: str | None = None,
        raw_line_no: int = 0,
    ) -> None:
        if not senses:
            raise ValueError("relation must carry at least one sense")
        if kind is not RelationKind.NOREL:
            if not arg1_spans or not arg2_spans:
                raise ValueError(f"{kind.value} relation with empty argument spans")
        _set(self, "kind", kind)
        _set(self, "senses", senses)
        _set(self, "arg1_spans", arg1_spans)
        _set(self, "arg2_spans", arg2_spans)
        _set(self, "connective", connective)
        _set(self, "link_group", link_group)
        _set(self, "raw_line_no", raw_line_no)

    @property
    def primary_sense(self) -> SenseTag:
        return self.senses[0]


class Nuclearity(enum.Enum):
    NUCLEUS = "Nucleus"
    SATELLITE = "Satellite"


@dataclass(frozen=True, slots=True, init=False)
class RstLeaf:
    """Terminal RST node covering a single EDU."""

    edu_index: int
    text: str | None = None

    def __init__(self, edu_index: int, text: str | None = None) -> None:
        _set(self, "edu_index", edu_index)
        _set(self, "text", text)

    @property
    def leaf_indices(self) -> tuple[int, ...]:
        return (self.edu_index,)


@dataclass(frozen=True, slots=True, init=False)
class RstChild:
    node: RstLeaf | RstInternal
    nuclearity: Nuclearity
    relation: str

    def __init__(self, node: RstLeaf | RstInternal, nuclearity: Nuclearity, relation: str) -> None:
        _set(self, "node", node)
        _set(self, "nuclearity", nuclearity)
        _set(self, "relation", relation)


class _HashSlot:
    # the slot of RstInternal's cached hash, set on first use: not a field,
    # so fields, equality and repr see the children alone
    __slots__ = ("_hash",)


@dataclass(frozen=True, slots=True, init=False)
class RstInternal(_HashSlot):
    children: tuple[RstChild, ...]

    def __init__(self, children: tuple[RstChild, ...]) -> None:
        _set(self, "children", children)

    # the generated hash would walk the whole subtree on every call, and
    # recurse on its depth; the hash is cached on first use instead, for
    # every internal node under this one that has none, children first
    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return _cache_hashes(self)

    def __reduce__(self):
        # rebuild on unpickling: str hashes differ between processes
        return RstInternal, (self.children,)

    @property
    def leaf_indices(self) -> tuple[int, ...]:
        return tuple(leaf.edu_index for leaf in iter_leaves(self))


def _cache_hashes(root: RstInternal) -> int:
    """Cache the hash of ``root`` and of each internal node under it that has
    none, in one post-order walk without recursion; return root's. A cached
    node's subtree is skipped: its internal nodes were cached with it."""
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            # each internal child's hash is cached by now
            object.__setattr__(node, "_hash", hash(node.children))
        elif not hasattr(node, "_hash"):
            stack.append((node, True))
            stack.extend((child.node, False) for child in node.children if isinstance(child.node, RstInternal))
    return root._hash


def iter_leaves(node: RstLeaf | RstInternal) -> Iterator[RstLeaf]:
    """The leaves under ``node`` in left-to-right order, without recursion."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, RstLeaf):
            yield node
        else:
            stack.extend(child.node for child in reversed(node.children))


@dataclass(frozen=True)
class RstTree:
    """Constituency tree over EDU leaves 1..n with nuclearity and relations."""

    root: RstLeaf | RstInternal
    doc_id: str = ""

    def __post_init__(self) -> None:
        leaves = self.root.leaf_indices
        if leaves != tuple(range(1, len(leaves) + 1)):
            raise ValueError(f"leaf indices are {leaves}, expected 1..{len(leaves)}")
        object.__setattr__(self, "leaf_count", len(leaves))

    @classmethod
    def _of_ordered_leaves(cls, root: RstLeaf | RstInternal, doc_id: str, leaf_count: int) -> RstTree:
        """The tree over ``root``, whose caller has read its leaves as
        1..``leaf_count`` in left-to-right order: the check has nothing to
        find, so the leaves are not walked again."""
        tree = object.__new__(cls)
        tree.__dict__.update(root=root, doc_id=doc_id, leaf_count=leaf_count)
        return tree


class GraphFlavor(enum.Enum):
    ROOTED_TREE = "RootedTree"
    LOCAL_FOREST = "LocalForest"


@dataclass(frozen=True, slots=True, init=False)
class DependencyArc:
    """A labeled arc from a dependent EDU to its head:
    ``DependencyArc(dependent, head, sense)``.

    ``head`` is 0 for a root arc. ``distance`` is derived, never stored:
    |dependent - head| in EDU positions, and None on a root arc.
    """

    dependent: int
    head: int
    sense: SenseTag

    def __init__(self, dependent: int, head: int, sense: SenseTag) -> None:
        if dependent == head:
            raise ValueError(f"self-loop arc on unit {dependent}")
        _set(self, "dependent", dependent)
        _set(self, "head", head)
        _set(self, "sense", sense)

    @property
    def distance(self) -> int | None:
        return None if self.head == ROOT else abs(self.dependent - self.head)

    @property
    def is_root(self) -> bool:
        return self.head == ROOT


@dataclass(frozen=True)
class DependencyGraph:
    doc_id: str
    unit_count: int
    arcs: tuple[DependencyArc, ...]
    flavor: GraphFlavor

    def __post_init__(self) -> None:
        # canonical arc order makes equality and serialization independent
        # of the order in which arcs were produced
        object.__setattr__(self, "arcs", _canonical(self.arcs))

    def distances(self) -> list[int]:
        """Finite dependency distances, root arcs excluded."""
        return [a.distance for a in self.arcs if not a.is_root]


_ENDS = attrgetter("dependent", "head")


def _canonical(arcs: tuple[DependencyArc, ...]) -> tuple[DependencyArc, ...]:
    """``arcs`` in ``_arc_order``. Where no two arcs share both ends, their
    ends alone order them, so the sense keys are built only if two do."""
    ordered = sorted(arcs, key=_ENDS)
    if len(set(map(_ENDS, ordered))) < len(ordered):
        ordered.sort(key=_arc_order)
    return tuple(ordered)


def _arc_order(arc: DependencyArc) -> tuple:
    """Dependent, head, then the sense's order key."""
    return arc.dependent, arc.head, _sense_order(arc.sense)


@lru_cache(maxsize=1024)
def _sense_order(s: SenseTag) -> tuple:
    """Printed sense; then each level, absent after any string, which
    separates two unequal senses that print alike (``SenseTag.parse("a..c")``
    and ``SenseTag.parse("a.c")``, or a level None and one "")."""
    return (
        str(s),
        s.level1 is None, s.level1 or "",
        s.level2 is None, s.level2 or "",
        s.level3 is None, s.level3 or "",
    )


def _by_dependent(arcs: tuple[DependencyArc, ...]) -> dict[int, list[DependencyArc]]:
    """Each dependent's arcs, root arcs included, in the order given: the one
    per-unit table. From a graph's canonical arcs the dependents ascend."""
    table: dict[int, list[DependencyArc]] = {}
    for arc in arcs:
        table.setdefault(arc.dependent, []).append(arc)
    return table


def _cycles(by_dependent: dict[int, list[DependencyArc]]) -> list[list[int]]:
    """Units of each strongly connected component that holds a cycle, sorted.

    Iterative Tarjan over the non-root dependent -> head arcs of the
    ``_by_dependent`` table: linear in units plus arcs, and no recursion.
    Components come in order of their smallest unit.
    """
    low: dict[int, float] = {}  # lowlink; inf once the unit's component is closed
    stack: list[int] = []
    work: list = []  # (unit, discovery index, stack height before it, arcs left)
    components = []

    def visit(unit: int) -> None:
        low[unit] = len(low)
        work.append((unit, low[unit], len(stack), iter(by_dependent[unit])))
        stack.append(unit)

    for root in by_dependent:
        if root not in low:
            visit(root)
        while work:
            unit, index, height, arcs = work[-1]
            for arc in arcs:
                nxt = arc.head
                if nxt == ROOT or nxt not in by_dependent:
                    continue  # neither ROOT nor a unit without heads lies on a cycle
                if nxt not in low:
                    visit(nxt)
                    break
                low[unit] = min(low[unit], low[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[unit])
                if low[unit] == index:
                    component = stack[height:]
                    del stack[height:]
                    for member in component:
                        low[member] = math.inf
                    if len(component) > 1:
                        components.append(sorted(component))
    return sorted(components)


def validate_graph(graph: DependencyGraph) -> list[Diagnostic]:
    """Check flavor-specific invariants, returning one diagnostic per violation.

    Anomalous corpus phenomena (multiple heads, cycles) are representable
    in a DependencyGraph; this validator makes them visible rather than
    rejecting them at construction time. Every unit lies in 1..unit_count;
    ROOT is allowed only as a head.
    """
    diags: list[Diagnostic] = []
    n = graph.unit_count
    by_dependent = _by_dependent(graph.arcs)

    def report(code: str, message: str) -> None:
        diags.append(Diagnostic(code, message, doc_id=graph.doc_id))

    for unit, arcs in by_dependent.items():
        for arc in arcs:
            for end in (unit,) if arc.is_root else (unit, arc.head):
                if not 1 <= end <= n:
                    report(
                        "unit-out-of-range",
                        f"arc {unit}->{arc.head} references unit {end} outside 1..{n}",
                    )
    for unit, arcs in by_dependent.items():
        if len(arcs) > 1:
            report(
                "multiple-heads", f"multiple heads for unit {unit} ({len(arcs)} arcs)"
            )

    roots = [unit for unit, arcs in by_dependent.items() for arc in arcs if arc.is_root]
    if graph.flavor is GraphFlavor.ROOTED_TREE:
        if len(roots) != 1:
            report(
                "root-count",
                f"rooted tree must have exactly one ROOT arc, found {len(roots)}",
            )
        headless = [str(unit) for unit in range(1, n + 1) if unit not in by_dependent]
        if headless:
            report("unattached-units", "units without a head: " + ", ".join(headless))
    else:
        for unit in roots:
            report(
                "unexpected-root", f"local forest contains a ROOT arc for unit {unit}"
            )

    for cycle in _cycles(by_dependent):
        report("cycle", "dependency cycle through units " + ", ".join(map(str, cycle)))

    # acyclic + single-headed + one root over 1..n implies connected
    if graph.flavor is GraphFlavor.ROOTED_TREE and not diags and len(graph.arcs) != n:
        report(
            "arc-count",
            f"rooted tree over {n} units must have {n} arcs, found {len(graph.arcs)}",
        )
    return diags
