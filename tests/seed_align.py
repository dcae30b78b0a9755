"""The first PDTB alignment and segmentation reader, kept as differential oracles.

``map_span_set`` tests every EDU of the document against the merged span
set, and ``resolve_span_set`` rescans every EDU for the fallback. The
library replaced both with one bounded sweep per argument.
``read_segmentation`` with ``doc_ids`` partitions every line of the file
in a Python loop; the library finds runs of lines that share a first field
with one regex instead. The property tests in ``test_align_oracle.py``
check that each pair gives the same results.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping
from pathlib import Path

from discodep.align import DEFAULT_THETA, EmptyAlignment, Inventories, SegmentationError, _documents, _merge
from discodep.formats import _lines, _read_text
from discodep.model import Diagnostic, Document, Span


def _overlap_with_set(spans: tuple[Span, ...], edu_span: Span) -> int:
    return sum(edu_span.overlap(s) for s in spans)


def map_span_set(spans: Iterable[Span], doc: Document, theta: float = DEFAULT_THETA) -> set[int]:
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    merged = _merge(spans)
    hits = set()
    for index, edu_span in doc.edus:
        if _overlap_with_set(merged, edu_span) >= theta * len(edu_span):
            hits.add(index)
    return hits


def resolve_span_set(
    spans: Iterable[Span],
    doc: Document,
    theta: float = DEFAULT_THETA,
    diagnostics: list[Diagnostic] | None = None,
    context: str = "",
) -> set[int]:
    merged = _merge(spans)
    hits = map_span_set(merged, doc, theta)
    if hits:
        return hits
    best_index = None
    best_overlap = 0
    for index, edu_span in doc.edus:
        ov = _overlap_with_set(merged, edu_span)
        if ov > best_overlap:
            best_overlap = ov
            best_index = index
    if best_index is None:
        raise EmptyAlignment(
            f"{doc.doc_id}: {context or 'argument'} overlaps no EDU "
            f"(inventory of {doc.unit_count})"
        )
    if diagnostics is not None:
        diagnostics.append(
            Diagnostic(
                "alignment-fallback",
                f"{context or 'argument'} meets theta={theta:g} for no EDU; "
                f"falling back to EDU {best_index} ({best_overlap} chars)",
                doc_id=doc.doc_id,
            )
        )
    return {best_index}


def read_segmentation(path: str | Path, doc_ids: Collection[str]) -> Mapping[str, Document]:
    text = _read_text(path)
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
