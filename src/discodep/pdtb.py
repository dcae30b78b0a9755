"""Reader for PDTB 3.0 pipe-delimited relation files."""

from __future__ import annotations

import re
from dataclasses import astuple, dataclass
from functools import lru_cache
from pathlib import Path

from .formats import _decode, _lines, _read_text
from .model import (
    Diagnostic,
    DiscodepError,
    PdtbRelation,
    RelationKind,
    SENSELESS_KINDS,
    SenseTag,
    Span,
)

_LINK_TOKEN = re.compile(r"LINK\d+", re.IGNORECASE)
_KINDS = {kind.value: kind for kind in RelationKind}
# one SenseTag per distinct tag string; a bad tag raises on every call
_sense = lru_cache(maxsize=1024)(SenseTag.parse)


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
        # the last column a line must reach, computed once and not per line
        object.__setattr__(self, "last_col", max(indices))

    def as_tuple(self) -> tuple[int, ...]:
        return astuple(self)

    @classmethod
    def from_string(cls, spec: str) -> ColumnMap:
        """Build from a comma-separated index list (CLI --columns override)."""
        parts = [p.strip() for p in spec.split(",")]
        if len(parts) != 8:
            raise ValueError(
                "--columns needs 8 comma-separated indices: "
                "kind,conn_span,conn1,sense1,conn2,sense2,arg1,arg2"
            )
        for p in parts:
            # ASCII digits only, so that int() reads no "1_4", "+1" or "٢٠";
            # a leading "-" still parses and fails the ">= 0" check
            digits = p[1:] if p.startswith("-") else p
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"--columns index {p!r} is not an integer")
        return cls(*map(int, parts))


DEFAULT_COLUMNS = ColumnMap()


def _parse_span_list(token: str, line_no: int) -> tuple[Span, ...]:
    """Parse a semicolon-separated list of ``a..b`` character ranges.

    PDTB span notation is inclusive on both ends; spans are stored
    half-open internally, so ``a..b`` becomes [a, b+1).
    """
    # nearly every argument is one range with no blanks and no ";", read without the loop
    start, _, end = token.partition("..")
    if start.isdecimal() and end.isdecimal():
        start, end = int(start), int(end)
        if end < start:
            raise MalformedSpan(f"span ends before it starts: {token!r}", line_no)
        return (Span(start, end + 1),)
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
    needed = columns.last_col
    # the fields after the last column stay one string; a short line has
    # fewer separators than the limit, so its fields are all split
    fields = line.rstrip("\n").split("|", needed + 1)
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
    # a trailing field that is a link token holds a match, so most lines skip the loop
    if len(fields) > needed + 1 and _LINK_TOKEN.search(fields[-1]):
        for token in reversed(fields[-1].split("|")):
            token = token.strip()
            if token and _LINK_TOKEN.fullmatch(token):
                link_group = token.upper()
                break

    return PdtbRelation(kind, tuple(senses), arg1, arg2, connective, link_group, line_no)


def parse_relation_text(
    text: str,
    columns: ColumnMap = DEFAULT_COLUMNS,
    doc_id: str | None = None,
) -> tuple[list[PdtbRelation], list[Diagnostic]]:
    """Parse relation records from text, one per line; blank lines ignored.
    One leading byte-order mark is skipped."""
    return _parse_relations(_decode(text), columns, doc_id)


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


def parse_relation_file(
    path: str | Path,
    columns: ColumnMap = DEFAULT_COLUMNS,
) -> tuple[list[PdtbRelation], list[Diagnostic]]:
    """Parse a relation file; records are returned in file order."""
    path = Path(path)
    return _parse_relations(_read_text(path), columns, path.stem)
