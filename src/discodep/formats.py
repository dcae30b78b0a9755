"""Bit-exact serialization of dependency graphs and metrics, and the one
line splitter, tab-row reader and arc-row check that every reader shares.

All writers emit UTF-8 bytes with "\n" line endings, a trailing newline,
and 6-decimal fixed-point reals, so identical inputs always produce
identical bytes. Every reader decodes its input as UTF-8 and skips a
leading byte-order mark (``_decode``, ``_read_text``). ``_CODECS``, at the
end, is the one list of dependency formats; a dependency file's extension
is its format name.

``json``, ``csv`` and the metrics module are imported by the functions
that use them, so a ``convert-*`` run that writes conll loads none of them.
"""

from __future__ import annotations

import io
import math
import sys
from collections.abc import Iterable, Iterator
from functools import lru_cache
from operator import attrgetter
from pathlib import Path

from .model import (
    DependencyArc,
    DependencyGraph,
    DiscodepError,
    GraphFlavor,
    ROOT,
    SenseTag,
    _by_dependent,
)

_CSV_HEADER = ("dependent", "head", "distance", "sense1", "class", "type")
_EMPTY = ("", "_")  # conll cells of an absent sense level
_LEVEL_TYPES = (str, (str, type(None)), (str, type(None)))  # of sense level1, level2, level3
_INPUT_ENCODING = "utf-8-sig"  # UTF-8 with a leading byte-order mark skipped
_LINE_BREAKS = frozenset("\r\n")
# a csv cell holding one of these is not read back as written: it ends the
# row, and csv.reader before Python 3.11 refuses a NUL
_CSV_BREAKS = _LINE_BREAKS if sys.version_info >= (3, 11) else _LINE_BREAKS | {"\0"}


class FormatError(DiscodepError):
    pass


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _codec(fmt: str):
    try:
        return _CODECS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}") from None


def _decode(data: bytes | str) -> str:
    """``data`` as text, bytes decoded as UTF-8, without one leading byte-order mark."""
    if isinstance(data, bytes):
        return data.decode(_INPUT_ENCODING)
    return data[1:] if data.startswith("\ufeff") else data


def _read_text(path: str | Path) -> str:
    """The text of the file at ``path`` as ``_decode`` reads it, line ends
    translated as in any file opened in text mode."""
    return Path(path).read_text(encoding=_INPUT_ENCODING)


def write_dep(graph: DependencyGraph, fmt: str) -> bytes:
    return _codec(fmt)[0](graph)


def read_dep(data: bytes | str, fmt: str) -> DependencyGraph:
    return _codec(fmt)[1](_decode(data))


def _sense_fields(sense: SenseTag) -> tuple[str, str, str]:
    return (sense.level1, sense.level2 or "", sense.level3 or "")


def _utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8, that is, holds no lone surrogate
    (as a file stem that is not UTF-8 does, decoded with surrogateescape)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_writable(graph: DependencyGraph, fmt: str, breaks: frozenset[str], absent: tuple[str, ...]) -> None:
    """Refuse a graph that the ``fmt`` writer cannot encode or its reader
    would read back differently.

    That is a doc_id or sense level that is not UTF-8, a doc_id comment
    with a line break or outer whitespace, a sense level holding one of
    ``breaks``, or a level2/level3 whose cell reads as one of the
    ``absent`` ones.
    """
    doc_id = graph.doc_id
    if doc_id != doc_id.strip() or not _LINE_BREAKS.isdisjoint(doc_id) or not _utf8(doc_id):
        raise FormatError(f"{fmt} cannot represent doc_id {doc_id!r}")
    for levels in {(s.level1, s.level2, s.level3) for s in map(attrgetter("sense"), graph.arcs)}:
        for key, level in zip(("level1", "level2", "level3"), levels):
            if level is not None and (
                not breaks.isdisjoint(level) or key != "level1" and level in absent or not _utf8(level)
            ):
                raise FormatError(f"{fmt} cannot represent sense {key} {level!r}")


def _write_conll(graph: DependencyGraph) -> bytes:
    _check_writable(graph, "conll", _LINE_BREAKS | {"\t"}, _EMPTY)
    n = graph.unit_count
    by_dependent = _by_dependent(graph.arcs)
    for unit, arcs in by_dependent.items():
        if not 1 <= unit <= n:
            raise FormatError(f"conll cannot represent unit {unit} outside 1..{n}")
        if len(arcs) > 1:
            raise FormatError(f"conll cannot represent unit {unit} with multiple heads")
    lines = [
        f"# doc_id = {graph.doc_id}",
        f"# flavor = {graph.flavor.value}",
    ]
    for unit in range(1, n + 1):
        if unit not in by_dependent:
            lines.append(f"{unit}\t_\t_\t_\t_\t_")
            continue
        [arc] = by_dependent[unit]
        head, sense = arc.head, arc.sense
        distance = "_" if head == ROOT else abs(unit - head)
        lines.append(f"{unit}\t{head}\t{sense.level1}\t{sense.level2 or '_'}\t{sense.level3 or '_'}\t{distance}")
    return ("\n".join(lines) + "\n").encode("utf-8")


_HEADER_FIELDS = {"doc_id": str, "unit_count": int, "flavor": GraphFlavor}


def _header_field(key: str, value, where: str):
    """A doc_id, unit_count or flavor value parsed to its type; a bad one
    raises FormatError prefixed with ``where``."""
    try:
        return _HEADER_FIELDS[key](value)
    except (OverflowError, TypeError, ValueError):
        bad = "unknown" if key == "flavor" else "bad"
        raise FormatError(f"{where}{bad} {key} {value!r}") from None


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line_no, line)`` of each non-blank line; only "\\r\\n", "\\r" and
    "\\n" end a line, as in a file opened in text mode."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return ((line_no, line) for line_no, line in enumerate(lines, 1) if line.strip())


def _tab_rows(lines: Iterable[tuple[int, str]], width: int, error: type[Exception], where: str = "line"):
    """``(line_no, *fields)`` of each numbered line (as ``_lines`` yields
    them) that is a row, fields stripped and ``#`` comments skipped; a row
    without ``width`` fields raises ``error("<where> N: ...")``."""
    for line_no, line in lines:
        if line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise error(f"{where} {line_no}: expected {width} tab-separated fields, got {len(fields)}")
        yield line_no, *map(str.strip, fields)


def _split_comments(text: str) -> tuple[dict, dict[str, int], list[tuple[int, str]]]:
    """Split ``# key = value`` comments from the other non-blank lines.

    Only doc_id, unit_count and flavor are kept, parsed to their types,
    each with the number of the line it was last read from.
    """
    meta: dict = {}
    where: dict[str, int] = {}
    body: list[tuple[int, str]] = []
    for line_no, line in _lines(text):
        if not line.startswith("#"):
            body.append((line_no, line))
            continue
        key, sep, value = line[1:].partition("=")
        key, value = key.strip(), value.strip()
        if sep and key in _HEADER_FIELDS:
            meta[key] = _header_field(key, value, f"line {line_no}: ")
            where[key] = line_no
    return meta, where, body


def _json_int(value) -> int:
    """``value`` if it is a JSON integer; a bool or float is not."""
    if type(value) is not int:
        raise ValueError(value)
    return value


def _number(value, to_int, name: str) -> int:
    try:
        return to_int(value)
    except (OverflowError, TypeError, ValueError):
        raise ValueError(f"bad {name} {value!r}") from None


def _graph(meta: dict, rows, unit_count: int | None, where: str = "line", to_int=int) -> DependencyGraph:
    """The graph of ``(position, dependent, head, distance, levels)`` rows, ids
    read with ``to_int``; a None distance or level2/level3 is absent, and a
    None ``unit_count`` is the largest unit named. A bad row raises FormatError
    ``<where> <position>: ...``; without a flavor, a root arc makes a rooted tree."""
    arcs = []
    for position, dependent, head, distance, levels in rows:
        try:
            if not all(map(isinstance, levels, _LEVEL_TYPES)):
                i = list(map(isinstance, levels, _LEVEL_TYPES)).index(False)
                raise ValueError(f"sense level{i + 1} must be a string, got {levels[i]!r}")
            dependent, head = _number(dependent, to_int, "dependent id"), _number(head, to_int, "head id")
            arc = DependencyArc(dependent, head, SenseTag(*levels))
            if distance is not None and _number(distance, to_int, "distance") != arc.distance:
                raise ValueError(f"distance {to_int(distance)} disagrees with |{dependent} - {head}|")
        except ValueError as err:
            raise FormatError(f"{where} {position}: {err}") from None
        arcs.append(arc)
    if unit_count is None:
        unit_count = max([0] + [max(a.dependent, a.head) for a in arcs])
    flavor = meta.get("flavor") or (
        GraphFlavor.ROOTED_TREE if any(a.head == ROOT for a in arcs) else GraphFlavor.LOCAL_FOREST
    )
    return DependencyGraph(meta.get("doc_id", ""), unit_count, tuple(arcs), flavor)


def _conll_rows(body: list[tuple[int, str]]):
    """The arc rows of conll lines, whose unit ids must run 1..n in order."""
    for expected, (line_no, line) in enumerate(body, 1):
        fields = line.split("\t")
        if len(fields) != 6:
            raise FormatError(f"line {line_no}: expected 6 tab-separated fields, got {len(fields)}")
        unit_id, head, level1, level2, level3, distance = fields
        try:
            unit = int(unit_id)
        except ValueError:
            raise FormatError(f"line {line_no}: bad unit id {unit_id!r}") from None
        if unit != expected:
            raise FormatError(f"line {line_no}: unit ids must be 1..n in order, got {unit}")
        if head != "_":
            levels = (level1, None if level2 in _EMPTY else level2, None if level3 in _EMPTY else level3)
            yield line_no, unit, head, None if distance == "_" else distance, levels


def _read_conll(text: str) -> DependencyGraph:
    """A conll file lists every unit, so a ``# unit_count`` comment must
    agree with its rows, which are checked first."""
    meta, where, body = _split_comments(text)
    graph = _graph(meta, _conll_rows(body), len(body))
    if meta.get("unit_count", len(body)) != len(body):
        raise FormatError(
            f"line {where['unit_count']}: unit_count {meta['unit_count']} disagrees with {len(body)} unit rows"
        )
    return graph


def _csv_bytes(header: tuple[str, ...], rows, preamble: str = "") -> bytes:
    """``preamble``, then ``header`` and ``rows`` as csv lines ending in "\\n"."""
    import csv

    buf = io.StringIO()
    buf.write(preamble)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _csv_rows(lines: list[tuple[int, str]], header: tuple[str, ...]):
    """``(line_no, fields)`` of each csv row under ``header`` in ``(line_no, line)`` pairs.

    The header, every row's column count and the csv syntax are checked;
    a fault raises FormatError naming its line. A row is one line.
    """
    import csv

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


def _write_csv(graph: DependencyGraph) -> bytes:
    _check_writable(graph, "csv", _CSV_BREAKS, ("",))
    preamble = (
        f"# doc_id = {graph.doc_id}\n"
        f"# unit_count = {graph.unit_count}\n"
        f"# flavor = {graph.flavor.value}\n"
    )
    rows = (
        (arc.dependent, arc.head, "" if arc.distance is None else arc.distance, *_sense_fields(arc.sense))
        for arc in graph.arcs
    )
    return _csv_bytes(_CSV_HEADER, rows, preamble)


def _read_csv(text: str) -> DependencyGraph:
    meta, _, body = _split_comments(text)
    rows = (
        (line_no, dependent, head, distance or None, (level1, level2 or None, level3 or None))
        for line_no, (dependent, head, distance, level1, level2, level3) in _csv_rows(body, _CSV_HEADER)
    )
    return _graph(meta, rows, meta.get("unit_count"))


def _json_value(value) -> str:
    import json

    return "null" if value is None else json.dumps(value)


# one arc of the arcs list at json.dumps(..., indent=2) nesting: dependent,
# head and distance, then the sense block, which _json_sense builds once per SenseTag
_JSON_ARC = '    {{\n      "dependent": {},\n      "head": {},\n      "distance": {},\n{}'
_JSON_SENSE = '      "sense": {{\n        "level1": {},\n        "level2": {},\n        "level3": {}\n      }}\n    }}'


@lru_cache(maxsize=1024)
def _json_sense(sense: SenseTag) -> str:
    return _JSON_SENSE.format(*map(_json_value, (sense.level1, sense.level2, sense.level3)))


def _write_json(graph: DependencyGraph) -> bytes:
    """The bytes of ``json.dumps(payload, indent=2) + "\\n"``, built directly:
    keys in a fixed order, strings with ASCII escapes, None as ``null``."""
    arcs = []
    for arc in graph.arcs:
        distance = arc.distance
        arcs.append(
            _JSON_ARC.format(arc.dependent, arc.head, "null" if distance is None else distance, _json_sense(arc.sense))
        )
    listed = "[\n" + ",\n".join(arcs) + "\n  ]" if arcs else "[]"
    text = (
        f'{{\n  "doc_id": {_json_value(graph.doc_id)},\n  "unit_count": {graph.unit_count},\n'
        f'  "flavor": {_json_value(graph.flavor.value)},\n  "arcs": {listed}\n}}\n'
    )
    return text.encode("utf-8")


def _read_json(text: str) -> DependencyGraph:
    import json

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
    return _graph(meta, _json_rows(entries), meta.get("unit_count"), "arc", _json_int)


def _json_rows(entries: list):
    """The arc rows of the json ``arcs`` list, numbered from 0."""
    for i, entry in enumerate(entries):
        try:
            sense = entry.get("sense", {})
            levels = (sense["level1"], sense.get("level2"), sense.get("level3"))
            yield i, entry["dependent"], entry["head"], entry.get("distance"), levels
        except (AttributeError, KeyError, TypeError) as err:
            raise FormatError(f"arc {i}: {err}") from None


METRICS_HEADER = ("doc_id", "n_units", "n_arcs", "mdd", "sd")


def _finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise FormatError(f"{name} {value} is not finite")
    return value


def _metric_cell(rec: MetricsRecord, name: str) -> str:
    value = getattr(rec, name)
    return "" if value is None else _fmt(_finite(value, f"{rec.doc_id}: {name}"))


def _metric(cell: str, name: str) -> float | None:
    return _finite(float(cell), name) if cell else None


def _check_metrics_doc_id(doc_id: str) -> None:
    """Refuse a doc_id that is not UTF-8 or holds a csv line break."""
    if not _CSV_BREAKS.isdisjoint(doc_id) or not _utf8(doc_id):
        raise FormatError(f"metrics cannot represent doc_id {doc_id!r}")


def write_metrics(records: list[MetricsRecord]) -> bytes:
    """Metrics CSV sorted by doc_id; undefined values become empty cells,
    and a non-finite value or an unwritable doc_id raises FormatError."""
    for rec in records:
        _check_metrics_doc_id(rec.doc_id)
    rows = (
        (rec.doc_id, rec.unit_count, rec.arc_count, _metric_cell(rec, "mdd"), _metric_cell(rec, "sd"))
        for rec in sorted(records, key=lambda r: r.doc_id)
    )
    return _csv_bytes(METRICS_HEADER, rows)


def read_metrics(data: bytes | str) -> list[MetricsRecord]:
    """Records of a metrics csv. No line is a comment: a doc_id may start with ``#``."""
    from .metrics import MetricsRecord

    text = _decode(data)
    records = []
    for line_no, (doc_id, units, arcs, mdd, sd) in _csv_rows(list(_lines(text)), METRICS_HEADER):
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
    text = _read_text(path)
    return list(_tab_rows(_lines(text), 2, ValueError, f"{name} line"))


def read_mapping_rows(path: str | Path, name: str, key: str) -> list[tuple[int, str, str]]:
    """``read_two_columns`` rows of a file mapping each ``key`` to one value.

    The first field is the key. A key that repeats an earlier one ignoring
    case raises ValueError naming ``name`` and both lines; failing that, so
    does an empty key.
    """
    rows = read_two_columns(path, name)
    first_on: dict[str, int] = {}
    for line_no, first, _ in rows:
        seen = first_on.setdefault(first.lower(), line_no)
        if seen != line_no:
            raise ValueError(f"{name} line {line_no}: {key} {first!r} repeated (first on line {seen})")
    if "" in first_on:
        raise ValueError(f"{name} line {first_on['']}: empty {key}")
    return rows


def write_correlation(result: CorrelationResult) -> bytes:
    row = (result.n_pairs, _fmt(result.r), _fmt(result.t), result.df)
    return _csv_bytes(("pairs", "r", "t", "df"), [row])


_CODECS = {
    "conll": (_write_conll, _read_conll),
    "csv": (_write_csv, _read_csv),
    "json": (_write_json, _read_json),
}
FORMATS = tuple(_CODECS)
