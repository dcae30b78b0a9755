"""Differential tests: the bounded alignment sweep against the full-scan
seed, and the run-wise segmentation reader against the line-wise seed."""

import math

import pytest
from hypothesis import example, given, strategies as st

import seed_align
from discodep import Document, Span, read_segmentation, resolve_span_set
from discodep.align import EmptyAlignment, _align, write_segmentation


@st.composite
def inventories(draw):
    """Documents of 0-12 EDUs with random gaps, including one before the first EDU."""
    edus = []
    pos = draw(st.integers(0, 6))
    for index in range(1, draw(st.integers(0, 12)) + 1):
        pos += draw(st.integers(0, 4))
        length = draw(st.integers(1, 12))
        edus.append((index, Span(pos, pos + length)))
        pos += length
    return Document("d", tuple(edus))


@st.composite
def argument(draw, doc):
    """1-5 spans anywhere from offset 0 to past the last EDU, some repeated."""
    limit = (doc.edus[-1][1].end if doc.edus else 0) + 10
    spans = draw(
        st.lists(
            st.tuples(st.integers(0, limit), st.integers(1, 30)).map(
                lambda t: Span(t[0], t[0] + t[1])
            ),
            min_size=1,
            max_size=5,
        )
    )
    return spans + spans[: draw(st.integers(0, len(spans)))]


_thetas = st.one_of(
    st.just(1.0),
    st.floats(0, 1, exclude_min=True),
    st.sampled_from([5e-324, 1e-12, 1e-9, 0.5, math.nextafter(1.0, 0.0)]),
)
_bad_thetas = st.one_of(
    st.floats(max_value=0.0),
    st.floats(min_value=1.0, exclude_min=True),
    st.sampled_from([math.nan, math.inf, -0.0]),
)


def _resolve(fn, spans, doc, theta, context="line 7 Arg2"):
    """Resolved units and diagnostic lines, or the EmptyAlignment message."""
    diagnostics = []
    try:
        units = fn(spans, doc, theta, diagnostics, context=context)
    except EmptyAlignment as err:
        return "EmptyAlignment", str(err)
    return units, [str(d) for d in diagnostics]


@given(
    data=st.data(),
    theta=_thetas,
    shape=st.sampled_from([tuple, list, iter]),
    context=st.sampled_from(["line 7 Arg2", (7, "Arg2")]),
)
def test_sweep_matches_full_scan(data, theta, shape, context):
    doc = data.draw(inventories())
    spans = data.draw(argument(doc))

    def arg():
        # a tuple of one span skips the merge; an iterator has no length
        return shape(spans)

    assert _align(arg(), doc, theta)[0] == seed_align.map_span_set(spans, doc, theta)
    assert _resolve(resolve_span_set, arg(), doc, theta, context) == _resolve(
        seed_align.resolve_span_set, spans, doc, theta
    )


@pytest.mark.parametrize("shape", [tuple, list, iter])
def test_a_repeated_span_counts_once(shape):
    # a tuple of several spans is merged like any other iterable
    doc = Document("d", ((1, Span(0, 10)),))
    spans = [Span(0, 3), Span(0, 3)]
    assert _align(shape(spans), doc, 0.5)[0] == set() == seed_align.map_span_set(spans, doc, 0.5)
    assert _resolve(resolve_span_set, shape(spans), doc, 0.5) == _resolve(
        seed_align.resolve_span_set, spans, doc, 0.5
    )


@given(data=st.data(), theta=_bad_thetas)
def test_out_of_range_theta_raises_before_empty_alignment(data, theta):
    doc = data.draw(inventories())
    spans = data.draw(argument(doc))
    for fn in (_align, seed_align.map_span_set):
        with pytest.raises(ValueError, match="theta must be in"):
            fn(spans, doc, theta)
    for fn in (resolve_span_set, seed_align.resolve_span_set):
        with pytest.raises(ValueError, match="theta must be in"):
            fn(iter(spans), doc, theta, [])


def test_out_of_range_theta_wins_when_nothing_overlaps():
    doc = Document("d", ((1, Span(10, 20)),))
    with pytest.raises(ValueError):
        resolve_span_set([Span(0, 5)], doc, 0.0)
    with pytest.raises(EmptyAlignment):
        resolve_span_set([Span(0, 5)], doc, 0.5)


@pytest.mark.parametrize("argument_span", [Span(5000, 5020), Span(5005, 5015)])
def test_sweep_touches_only_the_edus_of_the_argument(monkeypatch, argument_span):
    """A 2-EDU argument in a 1,000-EDU document costs a handful of overlaps,
    whether theta=1 is met (both EDUs covered) or the fallback runs."""
    doc = Document("d", tuple((i, Span(10 * (i - 1), 10 * i)) for i in range(1, 1001)))
    calls = 0
    overlap = Span.overlap

    def counting(self, other):
        nonlocal calls
        calls += 1
        return overlap(self, other)

    monkeypatch.setattr(Span, "overlap", counting)
    diagnostics = []
    units = resolve_span_set([argument_span], doc, 1.0, diagnostics)
    assert calls <= 4
    assert units == ({501, 502} if len(argument_span) == 20 else {501})
    assert len(diagnostics) == (len(argument_span) != 20)


# first fields naming documents "a", "b", "" and "#c", some with outer whitespace
_FIELDS = ["a", " a", "a\x0c", "\x1ca ", "b", "b", "", " ", "#c", " #c", "\ufeffa"]
_NOISE = [
    "", " ", "\x0c", "\x1c", " \x1c\x0c", "\x85",  # blank
    "\t", " \t\t ", "\x0c\t\x1c",  # tab only
    "# note", "# a\t1\t0\t5", " #\tx", "#",  # comments, some with tabs
    "junk", "a 1 0 5", "a\u2028b",  # no tab
    "a\t1\t0", "a\t1\t0\t5\t", "b\t1\t0\tx", "b\t1\t-1\t4",  # bad rows
]


@st.composite
def segmentation_texts(draw):
    """Bytes of a segmentation file: rows of a few documents, some
    interleaved, mostly contiguous, with noise lines anywhere, LF or CRLF
    line ends, an optional final newline and an optional byte-order mark."""
    counts: dict[str, int] = {}
    lines = []
    for is_row in draw(st.lists(st.integers(0, 3).map(bool), max_size=24)):
        if not is_row:
            lines.append(draw(st.sampled_from(_NOISE)))
            continue
        field = draw(st.sampled_from(_FIELDS))
        index = counts.get(field.strip(), 0) + 1
        if draw(st.integers(0, 7)) == 0:
            index = draw(st.integers(0, 3))
        counts[field.strip()] = index
        lines.append(f"{field}\t{index}\t{10 * index}\t{10 * index + 5}")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")


_WANTED = st.sets(st.sampled_from(["a", "b", "", "#c", "\ufeffa", " a", "z"]))


def _outcome(read, path, wanted):
    """(doc_id, document or error class and message) of each read inventory,
    in order, or the class and message of the error the read raised."""
    try:
        inventories = read(path, wanted)
    except Exception as err:
        return type(err), str(err)
    entries = []
    for doc_id in inventories:
        try:
            entries.append((doc_id, inventories[doc_id]))
        except Exception as err:
            entries.append((doc_id, type(err), str(err)))
    return entries


@pytest.fixture(scope="module")
def seg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("seg") / "corpus.seg"


@given(data=segmentation_texts(), wanted=_WANTED)
@example(data=b"junk\na\t1\t0\t5\n", wanted={"a"})  # tab-less first line
@example(data=b"a\t1\t0\t5\n\n\njunk", wanted=set())  # tab-less last line, no final newline
@example(data=b"a\t1\t0\t5\r\n\r\na\t2\t6\tx\r\n", wanted={"a"})  # line numbers past a blank line
@example(data=b"b\t1\t0\t5\n\nb\t2\t9\t9\n", wanted={"b"})  # a bad span names its line
@example(data=b"a\t1\t0\t5\n a\t2\t6\t9\n\x0ca\t3\t9\t12\n", wanted={"a"})  # one document, three fields
@example(data=b"a\t1\t0\t5\nb\t1\t0\t5\na\t2\t6\t9\nb\t2\t6\t9\n", wanted={"a", "b"})  # interleaved
@example(data=b"#c\t1\t0\t5\n\t\n\t1\t0\t5\n# a\tb\n", wanted={"#c", ""})  # comment stem, empty field
@example(data="\ufeff\x1c\n\x0c\na\t1\t0\t5".encode(), wanted={"a"})  # BOM, whitespace-only lines
@example(data=b"\t\na\t1\t0\t5\n\t1\t0\t5\n", wanted={"", "a"})  # a blank run names no document
def test_run_reader_matches_line_reader(seg_path, data, wanted):
    seg_path.write_bytes(data)
    assert _outcome(read_segmentation, seg_path, wanted) == _outcome(seed_align.read_segmentation, seg_path, wanted)


def test_one_200000_line_document_is_one_run(tmp_path):
    """The regex repeats its line group 200,000 times in one match without
    recursing or backtracking."""
    doc = Document("d", tuple((i, Span(2 * i, 2 * i + 1)) for i in range(1, 200_001)))
    path = tmp_path / "corpus.seg"
    path.write_text(write_segmentation([doc]), encoding="utf-8")
    assert dict(read_segmentation(path, {"d"})) == {"d": doc}


def test_interleaved_documents_match_line_reader(tmp_path):
    """2,000 documents of three EDUs, one line each in turn: every line is its own run."""
    path = tmp_path / "corpus.seg"
    path.write_text(
        "".join(f"d{k}\t{i}\t{10 * i}\t{10 * i + 5}\n" for i in range(1, 4) for k in range(2000)),
        encoding="utf-8",
    )
    wanted = {f"d{k}" for k in range(0, 2000, 3)}
    docs = _outcome(read_segmentation, path, wanted)
    assert docs == _outcome(seed_align.read_segmentation, path, wanted)
    assert len(docs) == len(wanted) and all(doc.unit_count == 3 for _, doc in docs)
