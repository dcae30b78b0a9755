"""Map PDTB character-span arguments onto a document's EDU inventory."""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Collection, Iterable, Iterator, Mapping
from pathlib import Path

from .formats import FormatError, _decode, _lines, _read_text, _tab_rows, _utf8
from .model import Diagnostic, DiscodepError, Document, Span

DEFAULT_THETA = 0.5
# a run: one line with a tab and every next line with the same first field
_RUN = re.compile(r"^([^\t\n]*)\t[^\n]*(?:\n\1\t[^\n]*)*", re.M)
# characters that end a segmentation field or line
_FIELD_BREAKS = frozenset("\t\r\n")


class EmptyAlignment(DiscodepError):
    """An argument span overlaps no EDU at all, so no fallback is possible."""


class SegmentationError(DiscodepError):
    pass


def _merge(spans: Iterable[Span]) -> tuple[Span, ...]:
    """Union of spans as disjoint intervals, so overlap is never double-counted."""
    ordered = sorted(spans)
    merged: list[Span] = []
    for span in ordered:
        if merged and span.start <= merged[-1].end:
            if span.end > merged[-1].end:
                merged[-1] = Span(merged[-1].start, span.end)
        else:
            merged.append(span)
    return tuple(merged)


def _align(
    spans: Iterable[Span], doc: Document, theta: float
) -> tuple[set[int], dict[int, int]]:
    """EDUs meeting theta, and the characters of the merged span set inside
    each EDU it touches, in EDU order, that they were chosen from.

    EDUs are sorted and disjoint, so each span bisects to the first EDU
    ending after its start and walks forward only over the EDUs it overlaps.
    An EDU's count only grows, so it is judged each time it is met.
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    edus, ends = doc.edus, doc._edu_ends
    n = len(edus)
    covered: dict[int, int] = {}
    hits = set()
    # one span is already merged; ``spans`` may be any iterable, so only a tuple is asked its length
    for span in spans if type(spans) is tuple and len(spans) == 1 else _merge(spans):
        start, end = span.start, span.end
        pos = bisect_right(ends, start)
        while pos < n:
            index, edu = edus[pos]
            edu_start, edu_end = edu.start, edu.end
            if edu_start >= end:
                break
            # in this innermost loop two comparisons cost less than min() and max() calls
            chars = covered[index] = (
                covered.get(index, 0) + (edu_end if edu_end < end else end) - (edu_start if edu_start > start else start)
            )
            if chars >= theta * (edu_end - edu_start):
                hits.add(index)
            pos += 1
    return hits, covered


def _argument(context: str | tuple[int, str]) -> str:
    """The argument a ``resolve_span_set`` message names."""
    if isinstance(context, tuple):
        line_no, arg = context
        return f"line {line_no} {arg}"
    return context or "argument"


def resolve_span_set(
    spans: Iterable[Span],
    doc: Document,
    theta: float = DEFAULT_THETA,
    diagnostics: list[Diagnostic] | None = None,
    context: str | tuple[int, str] = "",
) -> set[int]:
    """EDUs covered by the span set (overlap >= theta * EDU length), with a
    fallback so every argument lands somewhere.

    When no EDU meets theta, the single EDU with maximal absolute overlap
    is used (ties go to the earlier EDU) and the fallback is logged as a
    diagnostic. Raises EmptyAlignment when nothing overlaps at all.
    ``context`` names the argument in those messages: a string, or
    ``(line_no, "Arg1")`` for ``line N Arg1``, formatted only when used.
    """
    hits, covered = _align(spans, doc, theta)
    if hits:
        return hits
    if not covered:
        raise EmptyAlignment(
            f"{doc.doc_id}: {_argument(context)} overlaps no EDU "
            f"(inventory of {doc.unit_count})"
        )
    best_index = max(covered, key=covered.__getitem__)
    if diagnostics is not None:
        diagnostics.append(
            Diagnostic(
                "alignment-fallback",
                f"{_argument(context)} meets theta={theta:g} for no EDU; "
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
    spans ordered and non-overlapping (enforced by Document). One leading
    byte-order mark is skipped.
    """
    return _documents(_lines(_decode(text)))


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


def _numbered(chunk: str, line_no: int) -> list[tuple[int, str]]:
    """The non-blank lines of ``chunk``, whose first line is line ``line_no``, numbered."""
    return [(line_no + offset, line) for offset, line in enumerate(chunk.split("\n")) if line.strip()]


def read_segmentation(
    path: str | Path, doc_ids: Collection[str] | None = None
) -> Mapping[str, Document]:
    """The documents of a segmentation file; with ``doc_ids``, only those.

    Without ``doc_ids`` every inventory is parsed and the first defect
    raises SegmentationError, as in ``parse_segmentation``. With them, one
    pass finds each run of consecutive lines that share a first field; a
    run belongs to the document named by that field stripped, and only the
    lines of a wanted document's runs are split further. Each wanted
    inventory gets the same checks, and a defect in it is raised when that
    document is looked up. A defect in an unwanted inventory goes
    unnoticed. A non-comment line with no tab names no document, so it
    raises at once: otherwise a mangled line could shorten an inventory.
    """
    text = _read_text(path)
    if doc_ids is None:
        return _documents(_lines(text))
    wanted: dict[str, list[tuple[int, str]]] = {}
    counted, line_no = 0, 1  # text[counted] is on line line_no

    def line_at(pos: int) -> int:
        nonlocal counted, line_no
        line_no += text.count("\n", counted, pos)
        counted = pos
        return line_no

    # a line between runs has no tab, so unless blank or a comment it names
    # no document and _documents raises the row check's field-count error
    end = 0  # of the previous run
    for run in _RUN.finditer(text):
        start = run.start()
        if text[end:start].strip():
            _documents(_numbered(text[end:start], line_at(end)))
        doc_id = run[1].strip()
        if doc_id in doc_ids:
            lines = _numbered(run[0], line_at(start))
            if lines:  # a run of blank lines names no document
                wanted.setdefault(doc_id, []).extend(lines)
        end = run.end()
    if text[end:].strip():
        _documents(_numbered(text[end:], line_at(end)))
    entries: dict[str, Document | SegmentationError] = {}
    for doc_id, lines in wanted.items():
        try:
            entries.update(_documents(lines))
        except SegmentationError as err:
            entries[doc_id] = err
    return Inventories(entries)


def write_segmentation(documents: Iterable[Document]) -> str:
    """Serialize documents to segmentation-file format (deterministic order).

    Raises FormatError for a doc_id that parse_segmentation would read back
    differently or not at all: one with outer whitespace, a leading "#", a
    tab or line break, or a lone surrogate; and for one given twice, whose
    lines would read back as one document.
    """
    documents = sorted(documents, key=lambda d: d.doc_id)
    previous = None
    for doc in documents:
        doc_id = doc.doc_id
        if doc_id != doc_id.strip() or doc_id.startswith("#") or not (
            _FIELD_BREAKS.isdisjoint(doc_id) and _utf8(doc_id)
        ):
            raise FormatError(f"segmentation cannot represent doc_id {doc_id!r}")
        if doc_id == previous:  # sorted, so a repeated doc_id follows its first
            raise FormatError(f"segmentation cannot represent doc_id {doc_id!r} twice")
        previous = doc_id
    lines = []
    for doc in documents:
        for index, span in doc.edus:
            lines.append(f"{doc.doc_id}\t{index}\t{span.start}\t{span.end}")
    return "\n".join(lines) + "\n" if lines else ""
