"""Differential tests: the readers behind one line splitter, one tab-row
reader and one arc-row check, against the seed readers in ``seed_formats``.

Each test writes a valid file, takes it and its variants with one mutation
(line endings, blank, ``#`` and deleted lines, missing, extra or replaced
fields, odd ids, distances and sense levels) and requires both readers to
give equal results, or to raise the same exception class with the same
message once the seven intended changes are allowed for:

1. only "\\r\\n", "\\r" and "\\n" end a line (the generated text holds no
   other line-breaking character, so this one never shows here);
2. a json id or distance that is not a JSON integer is ``arc N: bad ...``;
3. a csv id that is not an integer is ``line N: bad dependent id 'x'``;
4. every distance mismatch reads ``<where>distance D disagrees with |d - h|``;
5. the two-column field-count message ends in ``, got M``;
6. a conll ``# unit_count`` comment that disagrees with the unit rows,
   which the seed ignored, is ``line N: unit_count C disagrees with R unit rows``;
7. a json file without ``unit_count`` counts up to the largest unit named,
   as csv does, where the seed read 0.

A fixed graph is checked against every one of its variants, and random
graphs against one variant each. The json writer, which builds its text
directly, must write the bytes of the seed's ``json.dumps`` writer.
"""

import copy
import dataclasses
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import seed_formats as seed
from discodep import DependencyArc, DependencyGraph, GraphFlavor, MetricsRecord, SenseTag
from discodep.align import parse_segmentation, write_segmentation
from discodep.formats import FORMATS, FormatError, read_dep, read_metrics, read_two_columns, write_dep, write_metrics
from discodep.model import Document, Span

# no word is "_" or blank, so every generated graph is written in every format
_word = st.text(alphabet="abcXYZ-_ 9", min_size=1, max_size=6).filter(lambda s: s.strip(" _"))
_id = st.text(alphabet="abc_0123", min_size=1, max_size=6)
TOKENS = ["x", "", "_", "1.7", "1e0", "true", '"3"', "-1", "0", "1", "2", "3", " 2", "1_0", "99", "a b"]
INSERTED_LINES = ["", " \t ", "#", "# note", "  # indented", "# doc_id = other", "# unit_count = 7",
                  "# flavor = RootedTree"]
JSON_VALUES = [1.7, "1e0", True, False, "3", None, [1], {}, 0, 1, 2, -1, 10**20, "", "z", "Tree", "RootedTree"]

# units 1 and 2 hold arcs with three and one sense levels, unit 3 none
FIXED = DependencyGraph(
    "d",
    3,
    (DependencyArc(1, 2, SenseTag("x", "y", "z")), DependencyArc(2, 0, SenseTag("ROOT"))),
    GraphFlavor.ROOTED_TREE,
)


_senses = st.lists(_word, min_size=1, max_size=3).map(lambda levels: SenseTag(*levels))

# text that json escapes: quotes, backslashes, control characters, U+2028,
# non-ASCII and non-BMP characters, and a lone surrogate as a file stem
# decoded with surrogateescape holds
_json_text = st.text(st.sampled_from('a."\\\x00\x1f\t\n\x7f\u2028é\U0001f600\udcff') | st.characters(), max_size=6)
_json_level = st.none() | st.just("") | _json_text


@st.composite
def graphs(draw, ids=_id, senses=_senses):
    n = draw(st.integers(0, 8))
    arcs = []
    for dependent in range(1, n + 1):
        if draw(st.booleans()):
            head = draw(st.integers(0, n).filter(lambda h, d=dependent: h != d))
            arcs.append(DependencyArc(dependent, head, draw(senses)))
    flavor = draw(st.sampled_from(GraphFlavor))
    return DependencyGraph(draw(ids), n, tuple(arcs), flavor)


def line_variants(text: str, sep: str) -> list[str]:
    """``text`` and each variant of it with one line or ``sep``-separated field changed."""
    lines = text.split("\n")[:-1]
    variants = [lines]
    for at in range(len(lines) + 1):
        variants += [lines[:at] + [extra] + lines[at:] for extra in INSERTED_LINES]
    for at, line in enumerate(lines):
        variants.append(lines[:at] + lines[at + 1 :])
        fields = line.split(sep)
        for pos in range(len(fields)):
            changed = [fields[:pos] + fields[pos + 1 :]]
            changed += [fields[:pos] + [token] + fields[pos + 1 :] for token in TOKENS]
            changed += [fields[:pos] + [token] + fields[pos:] for token in TOKENS]
            variants += [lines[:at] + [sep.join(f)] + lines[at + 1 :] for f in changed]
    texts = ["\n".join(v) + "\n" for v in variants]
    return texts + [text.replace("\n", "\r\n"), text.replace("\n", "\r")]


DROP = object()  # an edit value that deletes the key


def json_edits(payload: dict) -> list[tuple[tuple, object]]:
    """``(path, value)`` of each one-value edit of a json payload, and the empty edit."""
    edits = [((), None)]
    edits += [((key,), value) for key in ("doc_id", "unit_count", "flavor", "arcs") for value in JSON_VALUES + [DROP]]
    for i, entry in enumerate(payload["arcs"]):
        edits += [(("arcs", i), value) for value in JSON_VALUES]
        for path in [("arcs", i, k) for k in entry] + [("arcs", i, "sense", k) for k in entry["sense"]]:
            edits += [(path, value) for value in JSON_VALUES + [DROP]]
    return edits


def json_text(payload: dict, path: tuple, value, ending: str = "\n", prefix: str = "") -> str:
    """The json of ``payload`` with ``value`` at ``path``, its lines ending in ``ending``."""
    payload = copy.deepcopy(payload)
    if path:
        *parents, last = path
        target = payload
        for key in parents:
            target = target[key]
        if value is DROP:
            del target[last]
        else:
            target[last] = value
    text = json.dumps(payload, indent=2).replace('"1e0"', "1e0") + "\n"
    return prefix + text.replace("\n", ending)


def outcome(read, *args):
    try:
        return "ok", read(*args)
    except Exception as err:  # noqa: BLE001 - the class is compared
        return type(err), str(err)


def _same_distance_message(message: str) -> str:
    return re.sub(r"distance (column )?.*disagrees with .*$", "distance disagrees", message)


def assert_same(old, new, new_message=lambda m: m):
    if old[0] == "ok" or new[0] == "ok":
        assert old == new
        return
    assert old[0] is new[0]
    assert _same_distance_message(old[1]) == _same_distance_message(new_message(new[1]))


def _csv_id(message: str) -> str:
    return re.sub(r"bad (dependent|head) id ", "invalid literal for int() with base 10: ", message)


def check_text_dep(text: str, fmt: str) -> None:
    old, new = outcome(seed.read_dep, text, fmt), outcome(read_dep, text, fmt)
    if fmt == "conll" and old[0] == "ok" and new[0] is FormatError:
        mismatch = re.fullmatch(r"line \d+: unit_count (-?\d+) disagrees with (\d+) unit rows", new[1])
        if mismatch:
            # change 6: the seed read the rows and ignored the comment
            assert int(mismatch[2]) == old[1].unit_count != int(mismatch[1])
            return
    assert_same(old, new, _csv_id if fmt == "csv" else (lambda m: m))


def check_json(text: str) -> None:
    old, new = outcome(seed.read_dep, text, "json"), outcome(read_dep, text, "json")
    if old[0] == "ok" and "unit_count" not in json.loads(text):
        # change 7: the largest unit named, not 0
        assert old[1].unit_count == 0
        units = [max(arc.dependent, arc.head) for arc in old[1].arcs]
        old = "ok", dataclasses.replace(old[1], unit_count=max(units, default=0))
    bad = re.match(r"arc (\d+): bad (dependent id|head id|distance) ", new[1]) if new[0] != "ok" else None
    if bad:
        # change 2: the field holds something other than a JSON integer,
        # which the seed read with int() or compared loosely
        entry = json.loads(text)["arcs"][int(bad.group(1))]
        assert type(entry[bad.group(2).split()[0]]) is not int
        return
    assert_same(old, new)


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_variant_of_a_fixed_graph_matches_seed(fmt):
    if fmt == "json":
        payload = json.loads(write_dep(FIXED, "json"))
        variants = [json_text(payload, *edit) for edit in json_edits(payload)]
        variants += [json_text(payload, (), None, "\r\n"), json_text(payload, (), None, "\r"),
                     json_text(payload, (), None, prefix="# note\n")]
        for text in variants:
            check_json(text)
    else:
        variants = line_variants(write_dep(FIXED, fmt).decode(), "\t" if fmt == "conll" else ",")
        for text in variants:
            check_text_dep(text, fmt)
    assert len(variants) > 300


@given(data=st.data(), graph=graphs(), fmt=st.sampled_from(["conll", "csv"]))
def test_text_dependency_readers_match_seed(data, graph, fmt):
    text = write_dep(graph, fmt).decode()
    check_text_dep(data.draw(st.sampled_from(line_variants(text, "\t" if fmt == "conll" else ","))), fmt)


@given(data=st.data(), graph=graphs(), ending=st.sampled_from(["\n", "\r\n", "\r"]))
def test_json_reader_matches_seed(data, graph, ending):
    payload = json.loads(write_dep(graph, "json"))
    check_json(json_text(payload, *data.draw(st.sampled_from(json_edits(payload))), ending))


def _arcs(*arcs):
    return tuple(DependencyArc(d, h, SenseTag(*levels)) for d, h, levels in arcs)


@example(graph=DependencyGraph("", 0, (), GraphFlavor.LOCAL_FOREST))
@example(graph=DependencyGraph("d", 4, (), GraphFlavor.ROOTED_TREE))
@example(graph=DependencyGraph('é"\n x', 3, _arcs((1, 0, ("ROOT",)), (2, 1, ("a\\b", "ü", "\t"))), GraphFlavor.ROOTED_TREE))
@example(graph=DependencyGraph("d", 3, _arcs((1, 3, ("a", None, "c")), (1, 3, ("a", "", "c")), (2, 0, ("", None, ""))),
                               GraphFlavor.LOCAL_FOREST))
@given(graph=graphs(_json_text, st.builds(SenseTag, _json_text, _json_level, _json_level)))
def test_json_writer_matches_seed(graph):
    assert write_dep(graph, "json") == seed._write_json(graph)


@st.composite
def segmentations(draw):
    documents = []
    for doc_id in draw(st.lists(_id, max_size=3, unique=True)):
        edus, pos = [], draw(st.integers(0, 3))
        for index in range(1, draw(st.integers(1, 4)) + 1):
            length = draw(st.integers(1, 5))
            edus.append((index, Span(pos, pos + length)))
            pos += length + draw(st.integers(0, 2))
        documents.append(Document(doc_id, tuple(edus)))
    return write_segmentation(documents)


@given(data=st.data(), text=segmentations())
def test_segmentation_reader_matches_seed(data, text):
    text = data.draw(st.sampled_from(line_variants(text, "\t")))
    assert_same(outcome(seed.parse_segmentation, text), outcome(parse_segmentation, text))


@given(
    data=st.data(),
    rows=st.lists(st.tuples(_word, _word), max_size=5),
    comments=st.lists(st.sampled_from(INSERTED_LINES), max_size=2),
)
def test_two_column_reader_matches_seed(data, rows, comments):
    text = "".join(c + "\n" for c in comments) + "".join(f"{a}\t{b}\n" for a, b in rows)
    text = data.draw(st.sampled_from(line_variants(text, "\t")))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rules.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert_same(
            outcome(seed.read_two_columns, path, "rules"),
            outcome(read_two_columns, path, "rules"),
            lambda m: re.sub(r", got \d+$", "", m),
        )


_metric = st.none() | st.integers(0, 10**6).map(lambda k: k / 64)


@given(
    data=st.data(),
    records=st.lists(st.builds(MetricsRecord, _word, st.integers(0, 99), st.integers(0, 99), _metric, _metric)),
)
def test_metrics_reader_matches_seed(data, records):
    text = data.draw(st.sampled_from(line_variants(write_metrics(records).decode(), ",")))
    assert_same(outcome(seed.read_metrics, text), outcome(read_metrics, text))


def test_seed_and_new_readers_agree_on_every_format_of_the_fixture(wsj_graph):
    for fmt in FORMATS:
        data = write_dep(wsj_graph, fmt)
        assert seed.read_dep(data, fmt) == read_dep(data, fmt) == wsj_graph
