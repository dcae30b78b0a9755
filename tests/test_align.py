import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

import seed_align
from discodep import Document, Span, read_segmentation, resolve_span_set
from discodep.align import EmptyAlignment, SegmentationError, _align, parse_segmentation, write_segmentation
from discodep.formats import FormatError


@pytest.fixture
def doc():
    return Document(
        "d",
        (
            (1, Span(0, 50)),
            (2, Span(50, 100)),
            (3, Span(110, 160)),
            (4, Span(160, 260)),
        ),
    )


def test_identity_overlap(doc):
    assert _align([Span(50, 100)], doc, 0.5)[0] == {2}


def test_full_coverage_of_three_units(wsj_document):
    assert _align([Span(1286, 1413)], wsj_document, 0.5)[0] == {15, 16, 17}


def test_ten_percent_overlap_misses_theta(doc):
    # 10 chars of the 100-char EDU 4
    assert _align([Span(160, 170)], doc, 0.5)[0] == set()


def test_theta_one_keeps_only_fully_covered(doc):
    assert _align([Span(0, 99)], doc, 1.0)[0] == {1}
    assert _align([Span(0, 100)], doc, 1.0)[0] == {1, 2}


def test_tiny_theta_keeps_any_overlap(doc):
    assert _align([Span(49, 51)], doc, 1e-9)[0] == {1, 2}


def test_theta_bounds(doc):
    with pytest.raises(ValueError):
        _align([Span(0, 10)], doc, 0.0)
    with pytest.raises(ValueError):
        _align([Span(0, 10)], doc, 1.5)


def _resolved(resolve, span: Span, doc: Document):
    diagnostics = []
    try:
        return resolve([span], doc, 0.5, diagnostics), diagnostics
    except EmptyAlignment as err:
        return str(err)


def test_copied_documents_align_like_fresh_ones(doc):
    """The EDU end index a document builds on its first alignment is no
    field: equality, hash and repr ignore it, and a replaced, unpickled or
    deep-copied document aligns as the first alignment code aligns one
    built from its EDUs."""
    fresh = Document("d", doc.edus)
    _align([Span(0, 1)], doc, 0.5)  # builds the index
    assert (doc, hash(doc), repr(doc)) == (fresh, hash(fresh), repr(fresh))
    other = ((1, Span(0, 30)), (2, Span(30, 200)))
    copies = [
        (dataclasses.replace(doc), fresh),
        (dataclasses.replace(doc, edus=other), Document("d", other)),
        (pickle.loads(pickle.dumps(doc)), fresh),
        (copy.deepcopy(doc), fresh),
    ]
    spans = [Span(a, b) for a in range(0, 270, 5) for b in range(a + 1, 275, 7)]
    for copied, reference in copies:
        assert copied == reference
        for span in spans:
            assert _resolved(resolve_span_set, span, copied) == _resolved(seed_align.resolve_span_set, span, reference)


def test_overlapping_spans_in_one_argument_not_double_counted(doc):
    # two copies of a 30-char overlap must not pass the 50% bar on a
    # 50-char EDU; the union of the spans is what counts
    assert _align([Span(0, 30), Span(0, 30)], doc, 1.0)[0] == set()
    assert _align([Span(0, 30), Span(10, 40)], doc, 1.0)[0] == set()
    assert _align([Span(0, 30), Span(10, 40)], doc, 0.5)[0] == {1}


def test_fallback_picks_max_overlap_and_logs(doc):
    diagnostics = []
    units = resolve_span_set([Span(160, 170)], doc, 0.5, diagnostics, context="Arg1")
    assert units == {4}
    assert len(diagnostics) == 1
    assert diagnostics[0].code == "alignment-fallback"


def test_fallback_tie_goes_to_earlier_unit(doc):
    # 10 chars in EDU 1 and 10 in EDU 2; neither meets theta
    diagnostics = []
    units = resolve_span_set([Span(40, 60)], doc, 0.5, diagnostics)
    assert units == {1}


def test_no_overlap_at_all_raises(doc):
    with pytest.raises(EmptyAlignment):
        resolve_span_set([Span(101, 109)], doc, 0.5)


@given(
    extra=st.lists(
        st.tuples(st.integers(0, 250), st.integers(1, 60)).map(
            lambda t: Span(t[0], t[0] + t[1])
        ),
        max_size=4,
    ),
    base=st.tuples(st.integers(0, 250), st.integers(1, 60)).map(
        lambda t: Span(t[0], t[0] + t[1])
    ),
    theta=st.floats(0.05, 1.0),
)
def test_monotonicity_enlarging_spans_never_shrinks(extra, base, theta):
    doc = Document(
        "d",
        ((1, Span(0, 50)), (2, Span(50, 100)), (3, Span(110, 160)), (4, Span(160, 260))),
    )
    small = _align([base], doc, theta)[0]
    large = _align([base] + extra, doc, theta)[0]
    assert small <= large


class TestSegmentationFile:
    def test_round_trip(self, wsj_document):
        text = write_segmentation([wsj_document])
        parsed = parse_segmentation(text)
        assert parsed["wsj_0618"] == wsj_document

    def test_read_fixture(self, fixtures_dir):
        docs = read_segmentation(fixtures_dir / "wsj_0618.seg")
        assert docs["wsj_0618"].unit_count == 17

    def test_bad_field_count(self):
        with pytest.raises(SegmentationError):
            parse_segmentation("doc\t1\t0\n")

    def test_non_contiguous_indices(self):
        with pytest.raises(SegmentationError):
            parse_segmentation("doc\t1\t0\t5\ndoc\t3\t6\t9\n")

    @pytest.mark.parametrize(
        "line, span", [("d1\t2\t9\t9", "[9, 9)"), ("d1\t2\t9\t4", "[9, 4)"), ("d1\t2\t-1\t4", "[-1, 4)")]
    )
    def test_bad_edu_span_names_line(self, line, span):
        with pytest.raises(SegmentationError) as info:
            parse_segmentation(f"d1\t1\t0\t9\n{line}\n")
        assert str(info.value) == f"line 2: invalid span {span}"

    def test_read_only_wanted_inventories(self, tmp_path):
        path = tmp_path / "corpus.seg"
        path.write_text("# comment\nd1\t1\t0\t5\n\nd2\t1\t0\t5\nd2\t1\t5\t9\nd3\t1\t0\tx\n")
        docs = read_segmentation(path, {"d1", "d2", "d9"})
        assert sorted(docs) == ["d1", "d2"] and "d2" in docs and "d3" not in docs
        assert docs["d1"].unit_count == 1 and docs.get("d9") is None
        with pytest.raises(SegmentationError, match="^d2: EDU indices must be 1..n contiguous, got 1 at position 2$"):
            docs.get("d2")

    @pytest.mark.parametrize("doc_id", ["", "wsj_0618", "a#b", "a b", "é\x0bx"])
    def test_ordinary_doc_ids_round_trip(self, doc_id):
        doc = Document(doc_id, ((1, Span(0, 5)), (2, Span(5, 9))))
        assert parse_segmentation(write_segmentation([doc])) == {doc_id: doc}

    # outer whitespace is stripped, a leading "#" makes a comment, a tab or
    # line break splits the row, and a lone surrogate does not encode
    @pytest.mark.parametrize("doc_id", [" a", "a\u00a0", "#a", "a\tb", "a\rb", "a\nb", "a\udcff"])
    def test_unrepresentable_doc_id_is_refused(self, doc_id):
        docs = [Document("ok", ((1, Span(0, 5)),)), Document(doc_id, ((1, Span(0, 5)),))]
        with pytest.raises(FormatError) as info:
            write_segmentation(docs)
        assert str(info.value) == f"segmentation cannot represent doc_id {doc_id!r}"

    def test_comments_and_blanks_skipped(self):
        docs = parse_segmentation("# comment\n\ndoc\t1\t0\t5\n")
        assert docs["doc"].unit_count == 1
