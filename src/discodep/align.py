"""Map PDTB character-span arguments onto a document's EDU inventory."""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Collection, Iterable, Iterator, Mapping
from pathlib import Path

from .formats import _lines, _read_text, _tab_rows
from .model import Diagnostic, DiscodepError, Document, Span

DEFAULT_THETA = 0.5


class EmptyAlignment(DiscodepError):
    """An argument span overlaps no EDU at all, so no fallback is possible."""


class SegmentationError(DiscodepError):
    pass


def _merge(spans: Iterable[Span]) -> tuple[Span, ...]:
    """Union of spans as disjoint intervals, so overlap is never double-counted."""
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    merged: list[Span] = []
    for span in ordered:
        if merged and span.start <= merged[-1].end:
            if span.end > merged[-1].end:
                merged[-1] = Span(merged[-1].start, span.end)
        else:
            merged.append(span)
    return tuple(merged)


def _covered(spans: Iterable[Span], doc: Document) -> dict[int, int]:
    """Characters of the merged span set inside each EDU it touches, in EDU order.

    EDUs are sorted and disjoint, so each span bisects to the first EDU
    ending after its start and walks forward only over the EDUs it overlaps.
    """
    edus = doc.edus
    covered: dict[int, int] = {}
    for span in _merge(spans):
        pos = bisect_right(edus, span.start, key=lambda e: e[1].end)
        while pos < len(edus) and edus[pos][1].start < span.end:
            index, edu_span = edus[pos]
            covered[index] = covered.get(index, 0) + edu_span.overlap(span)
            pos += 1
    return covered


def _align(
    spans: Iterable[Span], doc: Document, theta: float
) -> tuple[set[int], dict[int, int]]:
    """EDUs meeting theta, and the covered characters they were chosen from."""
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    covered = _covered(spans, doc)
    hits = {i for i, chars in covered.items() if chars >= theta * len(doc.span_of(i))}
    return hits, covered


def map_span_set(spans: Iterable[Span], doc: Document, theta: float = DEFAULT_THETA) -> set[int]:
    """EDUs covered by the span set: overlap >= theta * EDU length.

    Monotone in the span set; theta=1 keeps only fully covered EDUs and
    theta near 0 keeps every EDU touched by at least one character.
    """
    return _align(spans, doc, theta)[0]


def resolve_span_set(
    spans: Iterable[Span],
    doc: Document,
    theta: float = DEFAULT_THETA,
    diagnostics: list[Diagnostic] | None = None,
    context: str = "",
) -> set[int]:
    """map_span_set with a fallback so every argument lands somewhere.

    When no EDU meets theta, the single EDU with maximal absolute overlap
    is used (ties go to the earlier EDU) and the fallback is logged as a
    diagnostic. Raises EmptyAlignment when nothing overlaps at all.
    """
    hits, covered = _align(spans, doc, theta)
    if hits:
        return hits
    if not covered:
        raise EmptyAlignment(
            f"{doc.doc_id}: {context or 'argument'} overlaps no EDU "
            f"(inventory of {doc.unit_count})"
        )
    best_index = max(covered, key=covered.__getitem__)
    if diagnostics is not None:
        diagnostics.append(
            Diagnostic(
                "alignment-fallback",
                f"{context or 'argument'} meets theta={theta:g} for no EDU; "
                f"falling back to EDU {best_index} ({covered[best_index]} chars)",
                doc_id=doc.doc_id,
            )
        )
    return {best_index}


def _documents(lines: Iterable[tuple[int, str]]) -> dict[str, Document]:
    """The documents of numbered segmentation lines; every row is checked
    before any document, and the first defect raises SegmentationError."""
    per_doc: dict[str, list[tuple[int, Span]]] = {}
    for line_no, doc_id, index, start, end in _tab_rows(lines, 4, SegmentationError):
        try:
            per_doc.setdefault(doc_id, []).append((int(index), Span(int(start), int(end))))
        except ValueError as err:
            raise SegmentationError(f"line {line_no}: {err}") from None
    documents = {}
    for doc_id, edus in per_doc.items():
        try:
            documents[doc_id] = Document(doc_id, tuple(edus))
        except ValueError as err:
            raise SegmentationError(str(err)) from None
    return documents


def parse_segmentation(text: str) -> dict[str, Document]:
    """Parse a segmentation file: tab-separated doc_id, edu_index, start, end.

    One EDU per line; per-document indices must be contiguous from 1 and
    spans ordered and non-overlapping (enforced by Document).
    """
    return _documents(_lines(text))


class Inventories(Mapping[str, Document]):
    """The wanted documents of a segmentation file by doc_id. Looking up a
    document whose inventory is defective raises its SegmentationError."""

    def __init__(self, entries: dict[str, Document | SegmentationError]):
        self._entries = entries

    def __getitem__(self, doc_id: str) -> Document:
        entry = self._entries[doc_id]
        if isinstance(entry, SegmentationError):
            raise entry
        return entry

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def read_segmentation(
    path: str | Path, doc_ids: Collection[str] | None = None
) -> Mapping[str, Document]:
    """The documents of a segmentation file; with ``doc_ids``, only those.

    Without ``doc_ids`` every inventory is parsed and the first defect
    raises SegmentationError, as in ``parse_segmentation``. With them, a
    line is attributed to the document named by its stripped first field
    and split further only if that document is wanted; each wanted
    inventory gets the same checks, and a defect in it is raised when that
    document is looked up. A defect in an unwanted inventory goes
    unnoticed. A non-comment line with no tab names no document, so it
    raises at once: otherwise a mangled line could shorten an inventory.
    """
    text = _read_text(path)
    if doc_ids is None:
        return parse_segmentation(text)
    wanted: dict[str, list[tuple[int, str]]] = {}
    for line_no, line in _lines(text):
        first, tab, _ = line.partition("\t")
        if not tab:
            if not line.lstrip().startswith("#"):
                _documents([(line_no, line)])  # raises the row check's field-count error
        elif first.strip() in doc_ids:
            wanted.setdefault(first.strip(), []).append((line_no, line))
    entries: dict[str, Document | SegmentationError] = {}
    for doc_id, lines in wanted.items():
        try:
            entries.update(_documents(lines))
        except SegmentationError as err:
            entries[doc_id] = err
    return Inventories(entries)


def write_segmentation(documents: Iterable[Document]) -> str:
    """Serialize documents to segmentation-file format (deterministic order)."""
    lines = []
    for doc in sorted(documents, key=lambda d: d.doc_id):
        for index, span in doc.edus:
            lines.append(f"{doc.doc_id}\t{index}\t{span.start}\t{span.end}")
    return "\n".join(lines) + "\n" if lines else ""
