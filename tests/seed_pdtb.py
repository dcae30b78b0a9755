"""The first PDTB relation reader, kept as a differential oracle.

``_parse_span_list`` sends every argument through the general loop over
``;``-separated ranges, ``parse_relation_line`` splits every field of a
line and joins the trailing ones again for the link search, and builds the
relation by keyword. The library reads a one-range argument without the
loop and leaves the trailing fields as one string; the property tests in
``test_pdtb_reader_oracle.py`` check that both give the same relations,
or the same error.
"""

from __future__ import annotations

from discodep.model import Diagnostic, PdtbRelation, RelationKind, SENSELESS_KINDS, SenseTag, Span
from discodep.pdtb import (
    DEFAULT_COLUMNS,
    ColumnMap,
    MalformedSpan,
    MissingSense,
    PdtbParseError,
    ShortLine,
    UnknownKind,
    _KINDS,
    _LINK_TOKEN,
    _sense,
)
from seed_formats import _lines


def _parse_span_list(token: str, line_no: int) -> tuple[Span, ...]:
    """Parse a semicolon-separated list of ``a..b`` character ranges.

    PDTB span notation is inclusive on both ends; spans are stored
    half-open internally, so ``a..b`` becomes [a, b+1).
    """
    spans = []
    for part in token.split(";"):
        part = part.strip()
        if not part:
            continue
        # each end is one or more decimal digits of any script (category Nd), which int() reads
        start, _, end = part.partition("..")
        if not (start.isdecimal() and end.isdecimal()):
            raise MalformedSpan(f"bad span token {part!r}", line_no)
        start, end = int(start), int(end)
        if end < start:
            raise MalformedSpan(f"span ends before it starts: {part!r}", line_no)
        spans.append(Span(start, end + 1))
    return tuple(spans)


def parse_relation_line(
    line: str, columns: ColumnMap = DEFAULT_COLUMNS, line_no: int = 0
) -> PdtbRelation:
    """Parse one pipe-delimited relation record into a PdtbRelation."""
    fields = line.rstrip("\n").split("|")
    needed = columns.last_col
    if len(fields) <= needed:
        raise ShortLine(
            f"line has {len(fields)} fields, need at least {needed + 1}", line_no
        )

    kind_token = fields[columns.kind_col].strip()
    kind = _KINDS.get(kind_token)
    if kind is None:
        raise UnknownKind(f"unknown relation kind {kind_token!r}", line_no)

    senses: list[SenseTag] = []
    for col in (columns.sense1_col, columns.sense2_col):
        token = fields[col].strip()
        if token:
            senses.append(_sense(token))
    if not senses:
        if kind in SENSELESS_KINDS:
            senses.append(_sense(kind.value))
        else:
            raise MissingSense(f"{kind.value} relation carries no sense tag", line_no)

    arg1 = _parse_span_list(fields[columns.arg1_col], line_no)
    arg2 = _parse_span_list(fields[columns.arg2_col], line_no)
    if kind is not RelationKind.NOREL and (not arg1 or not arg2):
        which = "Arg1" if not arg1 else "Arg2"
        raise MalformedSpan(f"{which} span list is empty", line_no)

    connective = fields[columns.conn1_col].strip() or None
    if connective is None:
        token = fields[columns.conn2_col].strip()
        connective = token or None

    link_group = None
    trailing = fields[needed + 1 :]
    # a field that is a link token holds a match, so most lines skip the loop
    if _LINK_TOKEN.search("|".join(trailing)):
        for token in reversed(trailing):
            token = token.strip()
            if token and _LINK_TOKEN.fullmatch(token):
                link_group = token.upper()
                break

    return PdtbRelation(
        kind=kind,
        senses=tuple(senses),
        arg1_spans=arg1,
        arg2_spans=arg2,
        connective=connective,
        link_group=link_group,
        raw_line_no=line_no,
    )


def _parse_relations(
    text: str, columns: ColumnMap, doc_id: str | None
) -> tuple[list[PdtbRelation], list[Diagnostic]]:
    relations: list[PdtbRelation] = []
    diagnostics: list[Diagnostic] = []
    for line_no, line in _lines(text):
        try:
            relations.append(parse_relation_line(line, columns, line_no))
        except (PdtbParseError, ValueError) as err:
            code = type(err).__name__ if isinstance(err, PdtbParseError) else "InvalidRelation"
            diagnostics.append(Diagnostic(code, str(err), doc_id=doc_id, line_no=line_no))
    return relations, diagnostics
