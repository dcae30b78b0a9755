"""Differential tests: the relation reader against the seed reader that
sends every argument through the general span loop and splits every field."""

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import seed_pdtb
from discodep.pdtb import DEFAULT_COLUMNS, ColumnMap, _parse_relations, _parse_span_list, parse_relation_line

_KINDS = ["Explicit", "Implicit", "AltLex", "AltLexC", "EntRel", "Hypophora", "NoRel"]
# each odd value is one of several choices, so most lines parse
_KIND_TOKENS = st.one_of(
    st.sampled_from(_KINDS), st.sampled_from(_KINDS),
    st.sampled_from([" Explicit ", "\tNoRel", "EntRel  ", "explicit", "Frobnicate", "", " "]),
)
_SENSE_TOKENS = st.one_of(
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["Contingency.Cause.Reason", " Expansion.Conjunction ", "Temporal", "Contingency.Purpose.Arg2-as-goal"]),
    st.sampled_from(["Comparison.Contrast", "Expansion.Level-of-detail.Arg2-as-detail", "a..c", ".", "a.b.c.d"]),
)
_RANGE = st.builds(lambda start, length: f"{start}..{start + length}", st.integers(0, 3000), st.integers(0, 300))
_REVERSED = st.builds(lambda end, length: f"{end + length}..{end}", st.integers(0, 3000), st.integers(1, 300))
_SPAN_TOKENS = st.one_of(
    _RANGE,
    _RANGE,
    _REVERSED,
    st.lists(_RANGE, min_size=1, max_size=3).map(";".join),
    st.sampled_from(
        ["", " ", "1..2", " 1..2", "1..2 ", "3 ..4", "1..2;", ";1..2", "1..2;;5..9", ";",
         "5..3", "7..7", "0..0", "1..2..3", "١..٣", "٣..١", "+1..2", "1..+2", "-1..2",
         "1..", "..2", "..", "a..b", "1.2", "12", "1_0..20", "²..3", "1..2;5..3"]
    ),
    st.text(alphabet="0123456789.;+ ١٣", max_size=12),
)
_TRAILING = st.sampled_from(
    ["", " ", "link3", " LINK12 ", "xLINK1", "LINK", "Link7x", "PDTB3", "|", "||", "96..100"]
)
_FILLER = st.sampled_from(["", " ", "x", "because", "LINK2", "9..12"])


@st.composite
def column_maps(draw):
    """The default map, or a random map of distinct columns whose last
    column is not arg2_col."""
    if draw(st.booleans()):
        return DEFAULT_COLUMNS
    cols = draw(st.lists(st.integers(0, 24), min_size=8, max_size=8, unique=True))
    if cols[7] == max(cols):
        other = draw(st.integers(0, 6))
        cols[other], cols[7] = cols[7], cols[other]
    return ColumnMap(*cols)


@st.composite
def relation_lines(draw, columns):
    """One line under ``columns``: trailing fields after its last column,
    or cut short before it."""
    fields = [draw(_FILLER) for _ in range(columns.last_col + 1)]
    fields[columns.kind_col] = draw(_KIND_TOKENS)
    for col in (columns.sense1_col, columns.sense2_col):
        fields[col] = draw(_SENSE_TOKENS)
    for col in (columns.conn1_col, columns.conn2_col):
        fields[col] = draw(st.sampled_from(["", " ", "when", " but "]))
    for col in (columns.conn_span_col, columns.arg1_col, columns.arg2_col):
        fields[col] = draw(_SPAN_TOKENS)
    fields += draw(st.lists(_TRAILING, max_size=5))
    if draw(st.sampled_from([False] * 9 + [True])):
        fields = fields[: draw(st.integers(1, columns.last_col))]
    return "|".join(fields) + draw(st.sampled_from(["", "\n"]))


# Hypothesis's explain phase takes minutes to report a failing line; without
# it a failure is shrunk and reported in seconds
_REPORT_FAST = settings(phases=[phase for phase in Phase if phase is not Phase.explain])


def _outcome(parse, *args):
    """The parsed value, or the error's class, message and line number."""
    try:
        return parse(*args)
    except ValueError as err:  # every PdtbParseError is a DiscodepError, not a ValueError
        return type(err), str(err), getattr(err, "line_no", None)
    except seed_pdtb.PdtbParseError as err:
        return type(err), str(err), err.line_no


@_REPORT_FAST
@given(token=_SPAN_TOKENS, line_no=st.integers(0, 99))
@example(token="1..2", line_no=3)
@example(token="5..3", line_no=3)
@example(token="١..٣", line_no=3)
def test_span_list_matches_seed(token, line_no):
    assert _outcome(_parse_span_list, token, line_no) == _outcome(seed_pdtb._parse_span_list, token, line_no)


@_REPORT_FAST
@given(data=st.data(), line_no=st.integers(0, 99))
def test_relation_line_matches_seed(data, line_no):
    columns = data.draw(column_maps())
    line = data.draw(relation_lines(columns))
    assert _outcome(parse_relation_line, line, columns, line_no) == _outcome(
        seed_pdtb.parse_relation_line, line, columns, line_no
    )


@_REPORT_FAST
@given(data=st.data())
def test_relation_text_matches_seed(data):
    columns = data.draw(column_maps())
    lines = data.draw(st.lists(relation_lines(columns), max_size=6))
    text = "\n".join(line.rstrip("\n") for line in lines)
    assert _parse_relations(text, columns, "d") == seed_pdtb._parse_relations(text, columns, "d")


@pytest.mark.parametrize(
    "tail, group",
    [("|link3|", "LINK3"), ("|LINK12| ", "LINK12"), ("|xLINK1|", None), ("|LINK1|link2||", "LINK2"), ("||||", None)],
)
def test_link_group_is_read_from_the_trailing_fields(tail, group):
    line = "Implicit||||||||Expansion||||||1..2||||||3..4" + tail
    assert parse_relation_line(line).link_group == seed_pdtb.parse_relation_line(line).link_group == group
