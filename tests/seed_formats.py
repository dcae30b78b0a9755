"""The line-based readers as they were before ``formats`` decoded every text
input through one line splitter, one tab-row reader and one arc-row check,
and the json writer as it was before ``formats`` built its text directly,
kept verbatim as a differential oracle for ``test_formats_oracle.py``.

Each reader split lines with ``str.splitlines``, and conll, csv and json
each built and checked their arcs on their own. The json writer handed a
payload dict to ``json.dumps(payload, indent=2)``.

``_lines`` is the library's line splitter as it was before it split the
text in chunks: it splits the whole text into one list of every line.
``seed_align`` and ``seed_pdtb`` read lines with it, and
``test_formats_oracle.py`` checks the chunked splitter against it.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterator
from pathlib import Path

from discodep.align import SegmentationError
from discodep.formats import METRICS_HEADER, FormatError, _metric
from discodep.metrics import MetricsRecord
from discodep.model import (
    DependencyArc,
    DependencyGraph,
    Document,
    GraphFlavor,
    ROOT,
    SenseTag,
    Span,
)

_CSV_HEADER = ("dependent", "head", "distance", "sense1", "class", "type")


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line_no, line)`` of each non-blank line; only "\\r\\n", "\\r" and
    "\\n" end a line, as in a file opened in text mode."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return ((line_no, line) for line_no, line in enumerate(lines, 1) if line.strip())


def _sense_from_fields(level1: str, level2: str, level3: str) -> SenseTag:
    return SenseTag(level1, level2 or None, level3 or None)


_HEADER_FIELDS = {"doc_id": str, "unit_count": int, "flavor": GraphFlavor}


def _header_field(key: str, value, where: str):
    """A doc_id, unit_count or flavor value parsed to its type; a bad one
    raises FormatError prefixed with ``where``."""
    try:
        return _HEADER_FIELDS[key](value)
    except (OverflowError, TypeError, ValueError):
        bad = "unknown" if key == "flavor" else "bad"
        raise FormatError(f"{where}{bad} {key} {value!r}") from None


def _split_comments(text: str) -> tuple[dict, list[tuple[int, str]]]:
    """Split ``# key = value`` comments from the other non-blank lines.

    Only doc_id, unit_count and flavor are kept, parsed to their types.
    """
    meta: dict = {}
    body: list[tuple[int, str]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.startswith("#"):
            if line.strip():
                body.append((line_no, line))
            continue
        key, sep, value = line[1:].partition("=")
        key, value = key.strip(), value.strip()
        if sep and key in _HEADER_FIELDS:
            meta[key] = _header_field(key, value, f"line {line_no}: ")
    return meta, body


def _graph(meta: dict, unit_count: int, arcs: list[DependencyArc]) -> DependencyGraph:
    """Assemble a read graph; without a flavor comment, a root arc means a rooted tree."""
    flavor = meta.get("flavor") or (
        GraphFlavor.ROOTED_TREE if any(a.head == ROOT for a in arcs) else GraphFlavor.LOCAL_FOREST
    )
    return DependencyGraph(meta.get("doc_id", ""), unit_count, tuple(arcs), flavor)


def _check_distance(field: str, arc: DependencyArc, line_no: int) -> None:
    """A declared distance column must be an integer equal to the arc's distance."""
    try:
        distance = int(field)
    except ValueError:
        raise FormatError(f"line {line_no}: bad distance {field!r}") from None
    if arc.distance != distance:
        raise FormatError(
            f"line {line_no}: distance column {field} disagrees with "
            f"|{arc.dependent} - {arc.head}|"
        )


def _read_conll(text: str) -> DependencyGraph:
    meta, body = _split_comments(text)
    arcs = []
    unit_count = 0
    for line_no, line in body:
        fields = line.split("\t")
        if len(fields) != 6:
            raise FormatError(f"line {line_no}: expected 6 tab-separated fields, got {len(fields)}")
        try:
            unit = int(fields[0])
        except ValueError:
            raise FormatError(f"line {line_no}: bad unit id {fields[0]!r}") from None
        if unit != unit_count + 1:
            raise FormatError(f"line {line_no}: unit ids must be 1..n in order, got {unit}")
        unit_count = unit
        if fields[1] == "_":
            continue
        try:
            head = int(fields[1])
        except ValueError:
            raise FormatError(f"line {line_no}: bad head id {fields[1]!r}") from None
        sense = _sense_from_fields(
            fields[2], "" if fields[3] == "_" else fields[3], "" if fields[4] == "_" else fields[4]
        )
        try:
            arc = DependencyArc(unit, head, sense)
        except ValueError as err:
            raise FormatError(f"line {line_no}: {err}") from None
        if fields[5] != "_":
            _check_distance(fields[5], arc, line_no)
        arcs.append(arc)
    return _graph(meta, unit_count, arcs)


def _csv_rows(lines: list[tuple[int, str]], header: tuple[str, ...]):
    """``(line_no, fields)`` of each csv row under ``header`` in ``(line_no, line)`` pairs.

    The header, every row's column count and the csv syntax are checked;
    a fault raises FormatError naming its line. A row is one line.
    """
    if not lines:
        raise FormatError("csv input has no header row")
    reader = csv.reader(line for _, line in lines)
    try:
        for row_no, fields in enumerate(reader, 1):
            line_no = lines[reader.line_num - 1][0]
            if reader.line_num != row_no:
                raise FormatError(f"line {line_no}: quoted field spans lines")
            if row_no == 1:
                if tuple(h.strip() for h in fields) != header:
                    raise FormatError(f"line {line_no}: unexpected header {fields!r}")
            elif len(fields) != len(header):
                raise FormatError(f"line {line_no}: expected {len(header)} columns, got {len(fields)}")
            else:
                yield line_no, fields
    except csv.Error as err:
        raise FormatError(f"line {lines[reader.line_num - 1][0]}: {err}") from None


def _read_csv(text: str) -> DependencyGraph:
    meta, body = _split_comments(text)
    arcs = []
    max_unit = 0
    for line_no, fields in _csv_rows(body, _CSV_HEADER):
        try:
            dependent, head = int(fields[0]), int(fields[1])
            arc = DependencyArc(dependent, head, _sense_from_fields(*fields[3:]))
        except ValueError as err:
            raise FormatError(f"line {line_no}: {err}") from None
        if fields[2] != "":
            _check_distance(fields[2], arc, line_no)
        arcs.append(arc)
        max_unit = max(max_unit, dependent, head)
    return _graph(meta, meta.get("unit_count", max_unit), arcs)


def _read_json(text: str) -> DependencyGraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(f"invalid json at line {err.lineno} column {err.colno}: {err.msg}") from None
    except RecursionError:
        raise FormatError("json nested too deeply") from None
    if not isinstance(payload, dict):
        raise FormatError("json root must be an object")
    meta = {key: _header_field(key, payload[key], "") for key in _HEADER_FIELDS if key in payload}
    entries = payload.get("arcs", [])
    if not isinstance(entries, list):
        raise FormatError(f"arcs must be a list, got {type(entries).__name__}")
    arcs = []
    for i, entry in enumerate(entries):
        try:
            sense_obj = entry.get("sense", {})
            sense = SenseTag(
                sense_obj["level1"], sense_obj.get("level2"), sense_obj.get("level3")
            )
            for key in ("level1", "level2", "level3"):
                value = getattr(sense, key)
                if not isinstance(value, str) and (key == "level1" or value is not None):
                    raise FormatError(f"arc {i}: sense {key} must be a string, got {value!r}")
            arc = DependencyArc(int(entry["dependent"]), int(entry["head"]), sense)
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as err:
            raise FormatError(f"arc {i}: {err}") from None
        declared = entry.get("distance")
        if declared is not None and declared != arc.distance:
            raise FormatError(f"arc {i}: distance {declared} disagrees with computed {arc.distance}")
        arcs.append(arc)
    return _graph(meta, meta.get("unit_count", 0), arcs)


def read_metrics(data: bytes | str) -> list[MetricsRecord]:
    """Records of a metrics csv. No line is a comment: a doc_id may start with ``#``."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    lines = [(no, line) for no, line in enumerate(text.splitlines(), 1) if line.strip()]
    records = []
    for line_no, (doc_id, units, arcs, mdd, sd) in _csv_rows(lines, METRICS_HEADER):
        at = f"line {line_no}: "
        try:
            mdd, sd = _metric(mdd, at + "mdd"), _metric(sd, at + "sd")
            records.append(MetricsRecord(doc_id, int(units), int(arcs), mdd, sd))
        except ValueError as err:
            raise FormatError(at + str(err)) from None
    return records


def read_two_columns(path: str | Path, name: str) -> list[tuple[int, str, str]]:
    """Rows of a TAB-separated two-column file as (line number, first, second).

    Fields are stripped; blank lines and ``#`` comments are skipped. A row
    without exactly two fields raises ValueError naming ``name`` and the line.
    """
    rows = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{name} line {line_no}: expected 2 tab-separated fields")
        rows.append((line_no, parts[0].strip(), parts[1].strip()))
    return rows



def parse_segmentation(text: str) -> dict[str, Document]:
    """Parse a segmentation file: tab-separated doc_id, edu_index, start, end.

    One EDU per line; per-document indices must be contiguous from 1 and
    spans ordered and non-overlapping (enforced by Document).
    """
    per_doc: dict[str, list[tuple[int, Span]]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 4:
            raise SegmentationError(
                f"line {line_no}: expected 4 tab-separated fields, got {len(parts)}"
            )
        doc_id, index_s, start_s, end_s = (p.strip() for p in parts)
        try:
            index, span = int(index_s), Span(int(start_s), int(end_s))
        except ValueError as err:
            raise SegmentationError(f"line {line_no}: {err}") from None
        per_doc.setdefault(doc_id, []).append((index, span))
    documents = {}
    for doc_id, edus in per_doc.items():
        try:
            documents[doc_id] = Document(doc_id, tuple(edus))
        except ValueError as err:
            raise SegmentationError(str(err)) from None
    return documents


def _write_json(graph: DependencyGraph) -> bytes:
    payload = {
        "doc_id": graph.doc_id,
        "unit_count": graph.unit_count,
        "flavor": graph.flavor.value,
        "arcs": [
            {
                "dependent": arc.dependent,
                "head": arc.head,
                "distance": arc.distance,
                "sense": {
                    "level1": arc.sense.level1,
                    "level2": arc.sense.level2,
                    "level3": arc.sense.level3,
                },
            }
            for arc in graph.arcs
        ],
    }
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


READERS = {"conll": _read_conll, "csv": _read_csv, "json": _read_json}


def read_dep(data: bytes | str, fmt: str) -> DependencyGraph:
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    return READERS[fmt](text)
