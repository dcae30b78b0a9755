"""Reader for PDTB 3.0 pipe-delimited relation files."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .formats import _lines, _read_text
from .model import (
    Diagnostic,
    DiscodepError,
    PdtbRelation,
    RelationKind,
    SENSELESS_KINDS,
    SenseTag,
    Span,
)

_SPAN_TOKEN = re.compile(r"(\d+)\.\.(\d+)")
_LINK_TOKEN = re.compile(r"LINK\d+", re.IGNORECASE)


class PdtbParseError(DiscodepError):
    """A relation line that cannot be parsed."""

    def __init__(self, message: str, line_no: int = 0):
        super().__init__(message)
        self.line_no = line_no


class MalformedSpan(PdtbParseError):
    pass


class UnknownKind(PdtbParseError):
    pass


class ShortLine(PdtbParseError):
    pass


class MissingSense(PdtbParseError):
    pass


@dataclass(frozen=True)
class ColumnMap:
    """Field indices of a pipe-delimited relation line.

    The default matches the PDTB 3.0 gold layout: relation kind first,
    connective span second, connective heads and their senses at 7/8 and
    10/11, Arg1 and Arg2 span lists at 14 and 20.
    """

    kind_col: int = 0
    conn_span_col: int = 1
    conn1_col: int = 7
    sense1_col: int = 8
    conn2_col: int = 10
    sense2_col: int = 11
    arg1_col: int = 14
    arg2_col: int = 20

    def __post_init__(self) -> None:
        indices = self.as_tuple()
        if len(set(indices)) != len(indices) or min(indices) < 0:
            raise ValueError(f"column indices must be distinct and >= 0: {indices}")

    def as_tuple(self) -> tuple[int, ...]:
        return (
            self.kind_col,
            self.conn_span_col,
            self.conn1_col,
            self.sense1_col,
            self.conn2_col,
            self.sense2_col,
            self.arg1_col,
            self.arg2_col,
        )

    @classmethod
    def from_string(cls, spec: str) -> ColumnMap:
        """Build from a comma-separated index list (CLI --columns override)."""
        parts = [p.strip() for p in spec.split(",")]
        if len(parts) != 8:
            raise ValueError(
                "--columns needs 8 comma-separated indices: "
                "kind,conn_span,conn1,sense1,conn2,sense2,arg1,arg2"
            )
        vals = [int(p) for p in parts]
        return cls(*vals)


DEFAULT_COLUMNS = ColumnMap()


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
        m = _SPAN_TOKEN.fullmatch(part)
        if m is None:
            raise MalformedSpan(f"bad span token {part!r}", line_no)
        start, end = int(m.group(1)), int(m.group(2))
        if end < start:
            raise MalformedSpan(f"span ends before it starts: {part!r}", line_no)
        spans.append(Span(start, end + 1))
    return tuple(spans)


def parse_relation_line(
    line: str, columns: ColumnMap = DEFAULT_COLUMNS, line_no: int = 0
) -> PdtbRelation:
    """Parse one pipe-delimited relation record into a PdtbRelation."""
    fields = line.rstrip("\n").split("|")
    needed = max(columns.as_tuple())
    if len(fields) <= needed:
        raise ShortLine(
            f"line has {len(fields)} fields, need at least {needed + 1}", line_no
        )

    kind_token = fields[columns.kind_col].strip()
    try:
        kind = RelationKind(kind_token)
    except ValueError:
        raise UnknownKind(f"unknown relation kind {kind_token!r}", line_no) from None

    senses: list[SenseTag] = []
    for col in (columns.sense1_col, columns.sense2_col):
        token = fields[col].strip()
        if token:
            senses.append(SenseTag.parse(token))
    if not senses:
        if kind in SENSELESS_KINDS:
            senses.append(SenseTag(kind.value))
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
    for token in reversed(fields[needed + 1 :]):
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


def parse_relation_text(
    text: str,
    columns: ColumnMap = DEFAULT_COLUMNS,
    doc_id: str | None = None,
) -> tuple[list[PdtbRelation], list[Diagnostic]]:
    """Parse relation records from text, one per line; blank lines ignored."""
    relations: list[PdtbRelation] = []
    diagnostics: list[Diagnostic] = []
    for line_no, line in _lines(text):
        try:
            relations.append(parse_relation_line(line, columns, line_no))
        except (PdtbParseError, ValueError) as err:
            code = type(err).__name__ if isinstance(err, PdtbParseError) else "InvalidRelation"
            diagnostics.append(Diagnostic(code, str(err), doc_id=doc_id, line_no=line_no))
    return relations, diagnostics


def parse_relation_file(
    path: str | Path,
    columns: ColumnMap = DEFAULT_COLUMNS,
) -> tuple[list[PdtbRelation], list[Diagnostic]]:
    """Parse a relation file; records are returned in file order."""
    path = Path(path)
    text = _read_text(path)
    return parse_relation_text(text, columns, doc_id=path.stem)
