import dataclasses
import hashlib

import pytest
from hypothesis import given, strategies as st

from discodep import (
    DependencyArc,
    DependencyGraph,
    GraphFlavor,
    MetricsRecord,
    SenseTag,
    pearson,
    read_dep,
    read_metrics,
    validate_graph,
    write_correlation,
    write_dep,
    write_metrics,
)
from discodep.align import parse_segmentation
from discodep.formats import FORMATS, FormatError, read_two_columns
from discodep.pdtb import parse_relation_text


def rooted_two_edu():
    return DependencyGraph(
        "doc",
        2,
        (
            DependencyArc(1, 2, SenseTag("condition")),
            DependencyArc(2, 0, SenseTag("ROOT", "NONE")),
        ),
        GraphFlavor.ROOTED_TREE,
    )


class TestWriteDep:
    def test_wsj_csv_rows(self, wsj_graph):
        lines = write_dep(wsj_graph, "csv").decode().splitlines()
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 11
        exception_rows = [l for l in data if "Exception" in l]
        # sense text is kept verbatim from the annotation string
        assert exception_rows == ["17,14,3,Expansion,Exception,Arg2-as-excpt"]

    def test_empty_graph_header_only_csv(self):
        g = DependencyGraph("d", 0, (), GraphFlavor.LOCAL_FOREST)
        lines = write_dep(g, "csv").decode().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data == ["dependent,head,distance,sense1,class,type"]

    def test_rooted_conll_lines(self):
        lines = write_dep(rooted_two_edu(), "conll").decode().splitlines()
        rows = [l for l in lines if not l.startswith("#")]
        assert rows == ["1\t2\tcondition\t_\t_\t1", "2\t0\tROOT\tNONE\t_\t_"]

    def test_unattached_unit_in_conll(self):
        g = DependencyGraph(
            "d", 3, (DependencyArc(1, 2, SenseTag("x")),), GraphFlavor.LOCAL_FOREST
        )
        rows = [l for l in write_dep(g, "conll").decode().splitlines() if not l.startswith("#")]
        assert rows[2] == "3\t_\t_\t_\t_\t_"

    def test_conll_rejects_multi_head(self):
        g = DependencyGraph(
            "d",
            3,
            (DependencyArc(1, 2, SenseTag("x")), DependencyArc(1, 3, SenseTag("y"))),
            GraphFlavor.LOCAL_FOREST,
        )
        with pytest.raises(FormatError, match="multiple heads"):
            write_dep(g, "conll")

    @pytest.mark.parametrize("dependent", [0, -1, 4])
    def test_conll_refuses_dependent_outside_units(self, dependent):
        g = DependencyGraph(
            "d", 3, (DependencyArc(dependent, 2, SenseTag("x")),), GraphFlavor.LOCAL_FOREST
        )
        with pytest.raises(FormatError, match=f"^conll cannot represent unit {dependent} outside 1..3$"):
            write_dep(g, "conll")
        for fmt in ("csv", "json"):
            assert read_dep(write_dep(g, fmt), fmt) == g

    def test_byte_determinism(self, wsj_graph):
        for fmt in FORMATS:
            assert write_dep(wsj_graph, fmt) == write_dep(wsj_graph, fmt)

    def test_trailing_newline(self, wsj_graph):
        for fmt in FORMATS:
            assert write_dep(wsj_graph, fmt).endswith(b"\n")

    def test_unknown_format(self, wsj_graph):
        with pytest.raises(ValueError):
            write_dep(wsj_graph, "xml")


class TestReadDep:
    def test_round_trip_wsj_all_formats(self, wsj_graph):
        for fmt in FORMATS:
            assert read_dep(write_dep(wsj_graph, fmt), fmt) == wsj_graph

    def test_round_trip_fig1_local_fixture(self, fixtures_dir):
        data = (fixtures_dir / "fig1_local.json").read_bytes()
        graph = read_dep(data, "json")
        assert graph.unit_count == 11
        assert len(graph.arcs) == 8
        assert write_dep(graph, "json") == data

    def test_truncated_csv_row_names_line(self, wsj_graph):
        lines = write_dep(wsj_graph, "csv").decode().splitlines()
        lines[5] = "17,14,3"
        with pytest.raises(FormatError, match="line 6"):
            read_dep("\n".join(lines), "csv")

    def test_json_extra_fields_ignored(self):
        text = """
        {"doc_id": "d", "unit_count": 2, "flavor": "RootedTree", "future": [1, 2],
         "arcs": [{"dependent": 1, "head": 2, "distance": 1,
                   "sense": {"level1": "x", "level2": null, "level3": null},
                   "note": "ignored"},
                  {"dependent": 2, "head": 0, "distance": null,
                   "sense": {"level1": "ROOT", "level2": "NONE", "level3": null}}]}
        """
        graph = read_dep(text, "json")
        expected = DependencyGraph(
            "d",
            2,
            (
                DependencyArc(1, 2, SenseTag("x")),
                DependencyArc(2, 0, SenseTag("ROOT", "NONE")),
            ),
            GraphFlavor.ROOTED_TREE,
        )
        assert graph == expected

    def test_json_without_unit_count_reads_as_csv_does(self):
        json_text = """{"doc_id": "d", "flavor": "RootedTree", "arcs": [
            {"dependent": 2, "head": 1, "sense": {"level1": "x"}},
            {"dependent": 1, "head": 0, "sense": {"level1": "ROOT"}}]}"""
        csv_text = "# doc_id = d\ndependent,head,distance,sense1,class,type\n2,1,,x,,\n1,0,,ROOT,,\n"
        graph = read_dep(json_text, "json")
        assert graph == read_dep(csv_text, "csv")
        assert graph.unit_count == 2
        assert validate_graph(graph) == []
        assert read_dep('{"arcs": []}', "json").unit_count == 0

    def test_json_bad_syntax_reports_position(self):
        with pytest.raises(FormatError, match="line"):
            read_dep("{", "json")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"arcs": 5}', "arcs must be a list, got int"),
            ('{"arcs": null}', "arcs must be a list, got NoneType"),
            ('{"arcs": [5]}', "arc 0: "),
            ('{"unit_count": "many"}', "bad unit_count 'many'"),
            ('{"unit_count": null}', "bad unit_count None"),
            ('{"unit_count": Infinity}', "bad unit_count inf"),
            ('{"flavor": "Tree"}', "unknown flavor 'Tree'"),
            ('{"arcs": [{"dependent": Infinity, "head": 1, "sense": {"level1": "x"}}]}', "arc 0: "),
        ],
    )
    def test_json_malformed_field_is_format_error(self, text, message):
        with pytest.raises(FormatError) as info:
            read_dep(text, "json")
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "sense, message",
        [
            ('{"level1": 5}', "arc 0: sense level1 must be a string, got 5"),
            ('{"level1": null}', "arc 0: sense level1 must be a string, got None"),
            ('{"level1": "x", "level2": 3}', "arc 0: sense level2 must be a string, got 3"),
            ('{"level1": "x", "level3": ["y"]}', "arc 0: sense level3 must be a string, got ['y']"),
        ],
    )
    def test_json_non_string_sense_level_is_format_error(self, sense, message):
        text = '{"arcs": [{"dependent": 1, "head": 2, "sense": ' + sense + "}]}"
        with pytest.raises(FormatError) as info:
            read_dep(text, "json")
        assert str(info.value) == message

    def test_json_deep_nesting_is_format_error(self):
        with pytest.raises(FormatError, match="json nested too deeply"):
            read_dep("[" * 100_000 + "]" * 100_000, "json")

    def test_conll_distance_mismatch_rejected(self):
        text = "# flavor = LocalForest\n1\t2\tx\t_\t_\t5\n2\t_\t_\t_\t_\t_\n"
        with pytest.raises(FormatError, match="disagrees"):
            read_dep(text, "conll")

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("conll", "# flavor = LocalForest\n1\t2\tx\t_\t_\tfar\n2\t_\t_\t_\t_\t_\n"),
            ("csv", "dependent,head,distance,sense1,class,type\n1,2,far,x,,\n"),
        ],
    )
    def test_non_integer_distance_is_format_error(self, fmt, text):
        with pytest.raises(FormatError, match="line 2: bad distance 'far'"):
            read_dep(text, fmt)

    def test_conll_unit_count_comment_must_match_rows(self):
        rows = "1\t2\tx\t_\t_\t1\n2\t_\t_\t_\t_\t_\n"
        assert read_dep(f"# doc_id = d\n# unit_count = 2\n{rows}", "conll").unit_count == 2
        assert read_dep("# unit_count = 0\n", "conll").unit_count == 0
        with pytest.raises(FormatError, match="^line 2: unit_count 3 disagrees with 2 unit rows$"):
            read_dep(f"# doc_id = d\n# unit_count = 3\n{rows}", "conll")
        with pytest.raises(FormatError, match="^line 1: unit_count 7 disagrees with 0 unit rows$"):
            read_dep("# unit_count = 7\n", "conll")

    def test_conll_out_of_order_units_rejected(self):
        text = "2\t_\t_\t_\t_\t_\n1\t_\t_\t_\t_\t_\n"
        with pytest.raises(FormatError, match="1..n in order"):
            read_dep(text, "conll")

    @pytest.mark.parametrize("fmt", ["conll", "csv"])
    @pytest.mark.parametrize(
        "comment, message",
        [("unit_count = many", "bad unit_count 'many'"), ("flavor = Tree", "unknown flavor 'Tree'")],
    )
    def test_bad_comment_value_names_line(self, fmt, comment, message):
        text = f"# doc_id = d\n# {comment}\ndependent,head,distance,sense1,class,type\n"
        with pytest.raises(FormatError, match=f"line 2: {message}"):
            read_dep(text, fmt)


_sense_text = st.text()


@st.composite
def local_forests(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    arcs = []
    # single-headed by construction: each unit is a dependent at most once
    for dependent in range(1, n + 1):
        if n >= 2 and draw(st.booleans()):
            head = draw(st.integers(1, n - 1).map(lambda h, d=dependent: h if h < d else h + 1))
            levels = draw(st.integers(1, 3))
            sense = SenseTag(
                draw(_sense_text),
                draw(_sense_text) if levels >= 2 else None,
                draw(_sense_text) if levels == 3 else None,
            )
            arcs.append(DependencyArc(dependent, head, sense))
    return DependencyGraph(
        draw(st.text()),
        n,
        tuple(arcs),
        GraphFlavor.LOCAL_FOREST,
    )


@given(graph=local_forests(), fmt=st.sampled_from(FORMATS))
def test_round_trip_identity_generated_graphs(graph, fmt):
    """Any doc_id and sense text is either refused by the writer or read back as written;
    json refuses none."""
    try:
        data = write_dep(graph, fmt)
    except FormatError:
        assert fmt != "json"
        return
    assert read_dep(data, fmt) == graph


_metric_value = st.none() | st.integers(0, 10**6).map(lambda k: k / 64)  # exact in 6 decimals


@given(
    records=st.lists(
        st.builds(MetricsRecord, st.text(), st.integers(0, 99), st.integers(0, 99), _metric_value, _metric_value)
    )
)
def test_metrics_round_trip_generated_records(records):
    """Any doc_id is either refused by the writer or read back as written."""
    try:
        data = write_metrics(records)
    except FormatError:
        return
    assert read_metrics(data) == sorted(records, key=lambda r: r.doc_id)


class TestMetricsFiles:
    def test_wsj_row_format(self, wsj_graph):
        from discodep import metrics_record

        rec = metrics_record(wsj_graph, "local")
        lines = write_metrics([rec]).decode().splitlines()
        assert lines == [
            "doc_id,n_units,n_arcs,mdd,sd",
            "wsj_0618,17,11,1.272727,0.646670",
        ]

    def test_undefined_sd_becomes_empty_cell(self):
        rec = MetricsRecord("doc", 3, 1, 2.0, None)
        assert write_metrics([rec]).decode().splitlines()[1] == "doc,3,1,2.000000,"

    def test_rows_sorted_by_doc_id(self):
        recs = [MetricsRecord("b", 1, 0, None, None), MetricsRecord("a", 1, 0, None, None)]
        lines = write_metrics(recs).decode().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["a", "b"]

    def test_read_metrics_round_trip(self):
        recs = [
            MetricsRecord("a", 5, 4, 1.25, 0.5),
            MetricsRecord("b", 2, 0, None, None),
        ]
        parsed = read_metrics(write_metrics(recs))
        assert parsed == recs

    def test_read_metrics_rejects_bad_header(self):
        with pytest.raises(FormatError):
            read_metrics("a,b,c\n")


def test_write_correlation_layout():
    result = pearson([1.0, 2.0, 3.0, 5.0], [1.1, 1.9, 3.2, 4.9])
    lines = write_correlation(result).decode().splitlines()
    assert lines[0] == "pairs,r,t,df"
    fields = lines[1].split(",")
    assert fields[0] == "4" and fields[3] == "2"
    assert float(fields[1]) == pytest.approx(result.r, abs=1e-6)


class TestGoldenBytes:
    """Every writer's exact output, recorded before the writers shared one
    csv writer: any change to these bytes breaks the byte contract."""

    WSJ_SHA256 = {
        "conll": "d55360950b0ca4c4444380ef3db432d1d283cd9b1e6d4a7f958d602881d6dba2",
        "csv": "27308bce7d6b3688ed54073dfcf8c0da4ac37bc8213835b927aca4e657bdf36b",
        "json": "29846f6c55024167bef4877e73ffc440763293d07959366f533fcfd9a5e9079b",
    }

    def test_write_dep_sha256(self, wsj_graph):
        for fmt in FORMATS:
            assert hashlib.sha256(write_dep(wsj_graph, fmt)).hexdigest() == self.WSJ_SHA256[fmt]

    def test_write_dep_csv_whole_file(self, wsj_graph):
        assert write_dep(wsj_graph, "csv") == (
            b"# doc_id = wsj_0618\n"
            b"# unit_count = 17\n"
            b"# flavor = LocalForest\n"
            b"dependent,head,distance,sense1,class,type\n"
            b"2,1,1,Contingency,Condition,Arg2-as-cond\n"
            b"3,4,1,Temporal,Asynchronous,Succession\n"
            b"5,6,1,Expansion,Disjunction,\n"
            b"6,7,1,Contingency,Cause,Reason\n"
            b"9,8,1,Comparison,Concession,Arg2-as-denier\n"
            b"10,9,1,Contingency,Condition,Arg2-as-cond\n"
            b"11,12,1,EntRel,,\n"
            b"13,14,1,Contingency,Cause,Reason\n"
            b"15,17,2,Contingency,Cause,Result\n"
            b"16,17,1,Contingency,Purpose,Arg2-as-goal\n"
            b"17,14,3,Expansion,Exception,Arg2-as-excpt\n"
        )

    def test_write_metrics(self):
        recs = [MetricsRecord("b", 2, 0, None, None), MetricsRecord('a, "x"', 5, 4, 1.25, 0.5)]
        assert write_metrics(recs) == (
            b'doc_id,n_units,n_arcs,mdd,sd\n"a, ""x""",5,4,1.250000,0.500000\nb,2,0,,\n'
        )

    def test_write_correlation(self):
        result = pearson([1.0, 2.0, 3.0, 5.0], [1.1, 1.9, 3.2, 4.9])
        assert write_correlation(result) == b"pairs,r,t,df\n4,0.996434,16.701331,2\n"


def _without_flavor(text: str, fmt: str) -> str:
    if fmt == "json":
        return text.replace('  "flavor": "RootedTree",\n', "")
    return text.replace("# flavor = RootedTree\n", "")


def test_rooted_graph_without_flavor_reads_the_same_in_every_format():
    graphs = []
    for fmt in FORMATS:
        text = _without_flavor(write_dep(rooted_two_edu(), fmt).decode(), fmt)
        assert "flavor" not in text
        graphs.append(read_dep(text, fmt))
    assert graphs[0] == graphs[1] == graphs[2]
    assert graphs[0].flavor is GraphFlavor.ROOTED_TREE


class TestCsvReaderFaults:
    BIG = "x" * 200_000

    def test_oversized_dep_field_is_format_error(self):
        text = f"dependent,head,distance,sense1,class,type\n1,2,1,{self.BIG},,\n"
        with pytest.raises(FormatError) as info:
            read_dep(text, "csv")
        assert str(info.value) == "line 2: field larger than field limit (131072)"

    def test_oversized_metrics_field_is_format_error(self):
        text = f"doc_id,n_units,n_arcs,mdd,sd\n{self.BIG},1,0,,\n"
        with pytest.raises(FormatError) as info:
            read_metrics(text)
        assert str(info.value) == "line 2: field larger than field limit (131072)"

    def test_metrics_line_numbers_count_blank_lines(self):
        with pytest.raises(FormatError, match="^line 3: "):
            read_metrics("doc_id,n_units,n_arcs,mdd,sd\n\na,1,x,,\n")

    def test_metrics_doc_id_may_start_with_hash(self):
        recs = [MetricsRecord("#1", 2, 1, 1.0, None), MetricsRecord("a", 2, 1, 1.0, None)]
        assert read_metrics(write_metrics(recs)) == recs

    def test_quoted_field_across_lines_is_format_error(self):
        with pytest.raises(FormatError, match="^line 3: "):
            read_metrics('doc_id,n_units,n_arcs,mdd,sd\n"a\nb",1,0,,\n')

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["mdd", "sd"])
    def test_non_finite_metric_is_format_error(self, cell, column):
        row = f"a,3,2,{cell},1.0" if column == "mdd" else f"a,3,2,1.0,{cell}"
        with pytest.raises(FormatError, match=f"^line 2: {column} {cell} is not finite$"):
            read_metrics(f"doc_id,n_units,n_arcs,mdd,sd\n{row}\n")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_write_metrics_refuses_non_finite(self, value):
        with pytest.raises(FormatError, match="^a: mdd (nan|inf) is not finite$"):
            write_metrics([MetricsRecord("a", 3, 2, value, None)])


# every character other than "\r" and "\n" that str.splitlines breaks at
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestOnlyCrAndLfEndALine:
    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_doc_id_round_trips(self, char, fmt):
        graph = dataclasses.replace(rooted_two_edu(), doc_id=f"a{char}b")
        assert read_dep(write_dep(graph, fmt), fmt) == graph

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_sense_level_round_trips_in_csv(self, char):
        graph = DependencyGraph(
            "d", 2, (DependencyArc(1, 2, SenseTag(f"x{char}y")),), GraphFlavor.LOCAL_FOREST
        )
        assert read_dep(write_dep(graph, "csv"), "csv") == graph

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_metrics_doc_id_round_trips(self, char):
        recs = [MetricsRecord(f"a{char}b", 2, 1, 1.0, None)]
        assert read_metrics(write_metrics(recs)) == recs

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_segmentation_doc_id(self, char):
        docs = parse_segmentation(f"d{char}1\t1\t0\t5\nd{char}1\t2\t5\t9\n")
        assert docs[f"d{char}1"].unit_count == 2

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_relation_field(self, char):
        fields = [""] * 32
        fields[0], fields[7], fields[8], fields[14], fields[20] = (
            "Explicit", f"if{char}then", "Contingency.Condition", "0..4", "5..9",
        )
        relations, diagnostics = parse_relation_text("|".join(fields) + "\n")
        assert diagnostics == []
        assert relations[0].connective == f"if{char}then"

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_two_column_field(self, tmp_path, char):
        path = tmp_path / "map.tsv"
        path.write_text(f"a{char}b\tc\n", encoding="utf-8")
        assert read_two_columns(path, "label-map") == [(1, f"a{char}b", "c")]

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_crlf_and_cr_end_lines(self, ending):
        text = write_dep(rooted_two_edu(), "conll").decode().replace("\n", ending)
        assert read_dep(text, "conll") == rooted_two_edu()


ARC = '{{"arcs": [{{"dependent": {dependent}, "head": {head}, "distance": {distance}, "sense": {{"level1": "x"}}}}]}}'


@pytest.mark.parametrize(
    "field, value, shown",
    [
        (field, value, shown)
        for field in ("dependent", "head", "distance")
        for value, shown in (("1.7", "1.7"), ("1e0", "1.0"), ("true", "True"), ('"3"', "'3'"))
    ],
)
def test_json_ids_and_distance_must_be_json_integers(field, value, shown):
    values = {"dependent": "1", "head": "2", "distance": "1", field: value}
    name = "distance" if field == "distance" else f"{field} id"
    with pytest.raises(FormatError) as info:
        read_dep(ARC.format(**values), "json")
    assert str(info.value) == f"arc 0: bad {name} {shown}"


@pytest.mark.parametrize("row, message", [("x,2,1,a,,", "bad dependent id 'x'"), ("1,y,1,a,,", "bad head id 'y'")])
def test_csv_non_integer_id_uses_conll_wording(row, message):
    with pytest.raises(FormatError) as info:
        read_dep(f"dependent,head,distance,sense1,class,type\n{row}\n", "csv")
    assert str(info.value) == f"line 2: {message}"


@pytest.mark.parametrize(
    "fmt, text, where",
    [
        ("conll", "1\t2\tx\t_\t_\t05\n2\t_\t_\t_\t_\t_\n", "line 1: "),
        ("csv", "dependent,head,distance,sense1,class,type\n1,2,5,x,,\n", "line 2: "),
        ("json", ARC.format(dependent=1, head=2, distance=5), "arc 0: "),
    ],
)
def test_distance_mismatch_reads_the_same_in_every_format(fmt, text, where):
    with pytest.raises(FormatError) as info:
        read_dep(text, fmt)
    assert str(info.value) == f"{where}distance 5 disagrees with |1 - 2|"


def test_two_column_field_count_names_the_count(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("# rules\nPurpose\tmarked-head\textra\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_two_columns(path, "head-rules")
    assert str(info.value) == "head-rules line 2: expected 2 tab-separated fields, got 3"


class TestWritersRefuseWhatReadsBackDifferently:
    @pytest.mark.parametrize("doc_id", ["a\nb", "a\rb", " d ", "d\t", " d", "fig\udcff"])
    @pytest.mark.parametrize("fmt", ["conll", "csv"])
    def test_doc_id(self, fmt, doc_id):
        graph = dataclasses.replace(rooted_two_edu(), doc_id=doc_id)
        with pytest.raises(FormatError) as info:
            write_dep(graph, fmt)
        assert str(info.value) == f"{fmt} cannot represent doc_id {doc_id!r}"

    @pytest.mark.parametrize(
        "fmt, sense, key, level",
        [
            ("conll", SenseTag("x", "_"), "level2", "_"),
            ("conll", SenseTag("x", None, "_"), "level3", "_"),
            ("conll", SenseTag("x", ""), "level2", ""),
            ("conll", SenseTag("x\ty"), "level1", "x\ty"),
            ("conll", SenseTag("x", "a\nb"), "level2", "a\nb"),
            ("csv", SenseTag("x", ""), "level2", ""),
            ("csv", SenseTag("x", None, "a\rb"), "level3", "a\rb"),
            ("csv", SenseTag("a\nb"), "level1", "a\nb"),
            ("conll", SenseTag("x", None, "\udcff"), "level3", "\udcff"),
            ("csv", SenseTag("x\ud800"), "level1", "x\ud800"),
        ],
    )
    def test_sense_level(self, fmt, sense, key, level):
        graph = DependencyGraph("d", 2, (DependencyArc(1, 2, sense),), GraphFlavor.LOCAL_FOREST)
        with pytest.raises(FormatError) as info:
            write_dep(graph, fmt)
        assert str(info.value) == f"{fmt} cannot represent sense {key} {level!r}"

    @pytest.mark.parametrize(
        "doc_id, sense", [("a\nb", SenseTag("x")), (" d ", SenseTag("x")), ("d", SenseTag("x", "_")),
                          ("d", SenseTag("x", "")), ("d", SenseTag("x\ty"))],
    )
    def test_json_writes_all_of_them(self, doc_id, sense):
        graph = DependencyGraph(doc_id, 2, (DependencyArc(1, 2, sense),), GraphFlavor.LOCAL_FOREST)
        assert read_dep(write_dep(graph, "json"), "json") == graph

    @pytest.mark.parametrize("doc_id", ["a\nb", "a\rb", "fig\udcff"])
    def test_metrics_doc_id(self, doc_id):
        with pytest.raises(FormatError) as info:
            write_metrics([MetricsRecord("a", 1, 0, None, None), MetricsRecord(doc_id, 2, 1, 1.0, None)])
        assert str(info.value) == f"metrics cannot represent doc_id {doc_id!r}"


class TestTextInputSkipsOneByteOrderMark:
    """A text entry point skips one leading U+FEFF, as the file readers do."""

    def test_read_dep(self, wsj_graph):
        for fmt in FORMATS:
            text = write_dep(wsj_graph, fmt).decode("utf-8")
            assert read_dep("\ufeff" + text, fmt) == wsj_graph
        with pytest.raises(FormatError, match="unexpected header"):
            read_dep("\ufeff\ufeff" + write_dep(wsj_graph, "csv").decode("utf-8"), "csv")

    def test_read_metrics(self):
        records = [MetricsRecord("a", 2, 1, 1.0, None)]
        assert read_metrics("\ufeff" + write_metrics(records).decode("utf-8")) == records

    def test_parse_segmentation(self):
        assert parse_segmentation("\ufeffd\t1\t0\t5\n") == parse_segmentation("d\t1\t0\t5\n")

    def test_parse_relation_text(self, fixtures_dir):
        text = (fixtures_dir / "wsj_0618.pdtb").read_text(encoding="utf-8")
        assert parse_relation_text("\ufeff" + text) == parse_relation_text(text)
