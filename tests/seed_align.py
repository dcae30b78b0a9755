"""The first, full-scan PDTB alignment, kept as a differential oracle.

``map_span_set`` tests every EDU of the document against the merged span
set, and ``resolve_span_set`` rescans every EDU for the fallback. The
library replaced both with one bounded sweep per argument; the property
tests in ``test_align_oracle.py`` check that both give the same results.
"""

from __future__ import annotations

from collections.abc import Iterable

from discodep.align import DEFAULT_THETA, EmptyAlignment, _merge
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
