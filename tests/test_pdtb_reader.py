import pytest

from discodep import ColumnMap, RelationKind, Span
from discodep.pdtb import (
    MalformedSpan,
    ShortLine,
    UnknownKind,
    parse_relation_file,
    parse_relation_line,
    parse_relation_text,
)

EXPLICIT_WHEN = (
    "Explicit|96..100|||||9..78|when|Contingency.Condition.Arg2-as-cond||||||79..94"
    "||||||101..158|||||||||||96..100|PDTB2::wsj_0618::96..100::SAME|"
)
ENTREL = "EntRel||||||||||||||875..1049||||||1051..1140|||||||||||1051|PDTB3|"
IMPLICIT_TWO_SENSES = (
    "Implicit||||||759..774|if they are|Contingency.Condition.Arg2-as-cond||thereby|"
    "Expansion.Manner.Arg1-as-manner|||775..828||||||829..871|||||||||ARGM-PRP|slash|829|PDTB3|"
)


def test_explicit_line_fields():
    rel = parse_relation_line(EXPLICIT_WHEN)
    assert rel.kind is RelationKind.EXPLICIT
    assert rel.connective == "when"
    assert rel.primary_sense.level1 == "Contingency"
    assert rel.primary_sense.level2 == "Condition"
    assert rel.primary_sense.level3 == "Arg2-as-cond"
    # a..b annotation spans are inclusive; stored half-open as [a, b+1)
    assert rel.arg1_spans == (Span(79, 95),)
    assert rel.arg2_spans == (Span(101, 159),)
    assert rel.link_group is None


def test_entrel_gets_synthetic_sense():
    rel = parse_relation_line(ENTREL)
    assert rel.kind is RelationKind.ENTREL
    assert len(rel.senses) == 1
    assert rel.primary_sense.level1 == "EntRel"
    assert rel.primary_sense.level2 is None
    assert rel.arg1_spans == (Span(875, 1050),)
    assert rel.arg2_spans == (Span(1051, 1141),)


def test_secondary_sense_appended_primary_first():
    rel = parse_relation_line(IMPLICIT_TWO_SENSES)
    assert len(rel.senses) == 2
    assert rel.primary_sense.level2 == "Condition"
    assert rel.senses[1].level2 == "Manner"
    assert rel.senses[1].level3 == "Arg1-as-manner"


def test_semicolon_separated_span_list():
    line = (
        "Explicit|514..518||||||with|Contingency.Cause.Reason||||||509..513;579..612"
        "||||||519..577|||||||||ARGM-ADV|be|514..518|PDTB3|"
    )
    rel = parse_relation_line(line)
    assert rel.arg1_spans == (Span(509, 514), Span(579, 613))


def test_short_line_raises():
    with pytest.raises(ShortLine):
        parse_relation_line("Explicit|1..2|bogus")


def test_unknown_kind_raises():
    bad = "Frobnicate" + EXPLICIT_WHEN[len("Explicit") :]
    with pytest.raises(UnknownKind):
        parse_relation_line(bad)


def test_malformed_span_raises():
    bad = EXPLICIT_WHEN.replace("79..94", "79..x")
    with pytest.raises(MalformedSpan):
        parse_relation_line(bad)


def test_link_group_captured():
    line = (
        "Implicit|||||||so|Contingency.Cause.Result||||||1291..1374||||||1375..1412"
        "|||||||||||1375|PDTB3|LINK1"
    )
    rel = parse_relation_line(line)
    assert rel.link_group == "LINK1"


def test_column_map_from_string_and_validation():
    cm = ColumnMap.from_string("0,1,7,8,10,11,14,20")
    assert cm == ColumnMap()
    with pytest.raises(ValueError):
        ColumnMap.from_string("0,1,2")
    with pytest.raises(ValueError):
        ColumnMap(kind_col=0, conn_span_col=0)


def test_fixture_parses_clean(wsj_relations):
    assert len(wsj_relations) == 12
    kinds = [r.kind for r in wsj_relations]
    assert kinds.count(RelationKind.EXPLICIT) == 7
    assert kinds.count(RelationKind.IMPLICIT) == 4
    assert kinds.count(RelationKind.ENTREL) == 1


def test_default_columns_extract_args_on_every_fixture_row(fixtures_dir):
    text = (fixtures_dir / "wsj_0618.pdtb").read_text(encoding="utf-8")
    relations, diagnostics = parse_relation_text(text)
    assert not diagnostics
    for rel in relations:
        assert rel.arg1_spans and rel.arg2_spans
        for span in rel.arg1_spans + rel.arg2_spans:
            assert span.start < span.end


def test_empty_file(tmp_path):
    path = tmp_path / "empty.pdtb"
    path.write_text("")
    assert parse_relation_file(path) == ([], [])


def test_corrupted_line_non_strict(fixtures_dir):
    lines = (fixtures_dir / "wsj_0618.pdtb").read_text(encoding="utf-8").splitlines()
    lines[4] = "Explicit|1..2|bogus"
    relations, diagnostics = parse_relation_text("\n".join(lines))
    assert len(relations) == 11
    assert len(diagnostics) == 1
    assert diagnostics[0].line_no == 5
    assert diagnostics[0].code == "ShortLine"


def test_corrupted_line_strict_raises(fixtures_dir):
    # the strict reading of one line is parse_relation_line; the file reader
    # reports the same error class as that line's diagnostic
    lines = (fixtures_dir / "wsj_0618.pdtb").read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0].replace("79..94", "nonsense")
    with pytest.raises(MalformedSpan):
        parse_relation_line(lines[0], line_no=1)
    _, diagnostics = parse_relation_text("\n".join(lines))
    assert [(d.code, d.line_no) for d in diagnostics] == [("MalformedSpan", 1)]


def test_parsing_is_deterministic_and_order_preserving(fixtures_dir):
    text = (fixtures_dir / "wsj_0618.pdtb").read_text(encoding="utf-8")
    first, _ = parse_relation_text(text)
    second, _ = parse_relation_text(text)
    assert first == second
    assert [r.raw_line_no for r in first] == sorted(r.raw_line_no for r in first)


def test_blank_lines_ignored():
    text = "\n\n" + ENTREL + "\n\n"
    relations, diagnostics = parse_relation_text(text)
    assert len(relations) == 1
    assert relations[0].raw_line_no == 3
    assert not diagnostics


def test_unknown_kind_becomes_diagnostic_non_strict():
    bad = "Frobnicate" + EXPLICIT_WHEN[len("Explicit") :]
    relations, diagnostics = parse_relation_text(bad)
    assert relations == []
    assert [d.code for d in diagnostics] == ["UnknownKind"]
