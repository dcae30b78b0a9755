import ast
import dataclasses
import importlib.util
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import discodep.align as align
import discodep.cli as cli
import discodep.pdtb2dep as pdtb2dep
from discodep import (
    __version__, Document, Span, hirao_convert, read_dep, read_metrics, read_segmentation, validate_graph, write_dep,
)
from discodep.align import SegmentationError, write_segmentation
from discodep.cli import main

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"
SRC = Path(__file__).parent.parent / "src"


def run(*argv):
    return main([str(a) for a in argv])


def _fresh_env(log_level: str | None = None) -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("DISCODEP_LOG", None)
    if log_level is not None:
        env["DISCODEP_LOG"] = log_level
    return env


def run_process(*argv, log_level):
    """Run the CLI in a fresh interpreter, whose root logger has no handlers
    yet; a ``log_level`` of None leaves ``DISCODEP_LOG`` unset."""
    return subprocess.run(
        [sys.executable, "-m", "discodep.cli", *map(str, argv)],
        env=_fresh_env(log_level), capture_output=True, text=True, check=False,
    )


def run_fresh(script: str, *argv):
    """Run ``script`` in a fresh interpreter; returns the Python literal that
    its last stdout line prints."""
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        env=_fresh_env(), capture_output=True, text=True, check=True,
    )
    return ast.literal_eval(done.stdout.splitlines()[-1])


NON_STRING_LEVEL1 = '{"arcs": [{"dependent": 1, "head": 2, "sense": {"level1": 5}}]}'


@pytest.fixture
def pdtb_corpus(tmp_path, fixtures_dir):
    corpus = tmp_path / "pdtb"
    corpus.mkdir()
    shutil.copy(fixtures_dir / "wsj_0618.pdtb", corpus / "wsj_0618.pdtb")
    return corpus


@pytest.fixture
def seg_file(fixtures_dir):
    return fixtures_dir / "wsj_0618.seg"


class TestConvertPdtb:
    def test_fixture_dir_produces_eleven_arcs(self, tmp_path, pdtb_corpus, seg_file):
        out = tmp_path / "out"
        assert run("convert-pdtb", "--input", pdtb_corpus, "--edus", seg_file, "--out", out) == 0
        graph = read_dep((out / "wsj_0618.conll").read_bytes(), "conll")
        assert len(graph.arcs) == 11
        assert (out / "diagnostics.txt").exists()

    def test_missing_segmentation_skips_with_diagnostic(self, tmp_path, pdtb_corpus, seg_file):
        shutil.copy(pdtb_corpus / "wsj_0618.pdtb", pdtb_corpus / "wsj_9999.pdtb")
        out = tmp_path / "out"
        assert run("convert-pdtb", "--input", pdtb_corpus, "--edus", seg_file, "--out", out) == 0
        assert not (out / "wsj_9999.conll").exists()
        assert (out / "wsj_0618.conll").exists()
        report = (out / "diagnostics.txt").read_text()
        assert "missing-segmentation" in report and "wsj_9999" in report

    def test_strict_mode_exit_code(self, tmp_path, pdtb_corpus, seg_file):
        bad = pdtb_corpus / "wsj_0618.pdtb"
        bad.write_text(bad.read_text() + "Explicit|1..2|bogus\n")
        out = tmp_path / "out"
        assert run(
            "convert-pdtb", "--input", pdtb_corpus, "--edus", seg_file, "--out", out, "--strict"
        ) == 1
        # non-strict run over the same data still succeeds
        assert run("convert-pdtb", "--input", pdtb_corpus, "--edus", seg_file, "--out", out) == 0

    def test_theta_one_falls_back_same_arc_count(self, tmp_path, pdtb_corpus, seg_file):
        out_default = tmp_path / "default"
        out_strict = tmp_path / "strict"
        run("convert-pdtb", "--input", pdtb_corpus, "--edus", seg_file, "--out", out_default)
        run(
            "convert-pdtb",
            "--input", pdtb_corpus,
            "--edus", seg_file,
            "--out", out_strict,
            "--theta", "1.0",
        )
        g_default = read_dep((out_default / "wsj_0618.conll").read_bytes(), "conll")
        g_strict = read_dep((out_strict / "wsj_0618.conll").read_bytes(), "conll")
        assert len(g_default.arcs) == len(g_strict.arcs) == 11
        assert "alignment-fallback" in (out_strict / "diagnostics.txt").read_text()

    def test_columns_override_roundtrip(self, tmp_path, pdtb_corpus, seg_file):
        out = tmp_path / "out"
        code = run(
            "convert-pdtb",
            "--input", pdtb_corpus,
            "--edus", seg_file,
            "--out", out,
            "--columns", "0,1,7,8,10,11,14,20",
        )
        assert code == 0

    def test_json_output_round_trips(self, tmp_path, pdtb_corpus, seg_file):
        out = tmp_path / "out"
        run(
            "convert-pdtb", "--input", pdtb_corpus, "--edus", seg_file,
            "--out", out, "--format", "json",
        )
        graph = read_dep((out / "wsj_0618.json").read_bytes(), "json")
        assert len(graph.arcs) == 11 and graph.doc_id == "wsj_0618"

    def test_multi_headed_conll_document_fails_alone(self, tmp_path, pdtb_corpus, seg_file):
        # two symmetric relations, 1-2 and 1-3, give unit 1 two heads, which
        # conll cannot hold; wsj_0618 next to it must still be written
        def row(arg2):
            fields = [""] * 32
            fields[0], fields[8], fields[14], fields[20] = (
                "Implicit", "Expansion.Conjunction", "0..10", arg2,
            )
            return "|".join(fields) + "\n"

        (pdtb_corpus / "multi.pdtb").write_text(row("10..20") + row("20..30"))
        seg = tmp_path / "corpus.seg"
        seg.write_text(seg_file.read_text() + "multi\t1\t0\t10\nmulti\t2\t10\t20\nmulti\t3\t20\t30\n")
        out = tmp_path / "out"
        code = run(
            "convert-pdtb", "--input", pdtb_corpus, "--edus", seg, "--out", out, "--format", "conll"
        )
        assert code == 1
        assert (out / "wsj_0618.conll").exists()
        assert not (out / "multi.conll").exists()
        lines = (out / "diagnostics.txt").read_text().splitlines()
        assert lines[0] == (
            "[doc-failed] multi: FormatError: conll cannot represent unit 1 with multiple heads"
        )
        assert all("wsj_0618" in line for line in lines[1:])

    def test_defective_unwanted_inventory_is_not_read(self, tmp_path, pdtb_corpus, seg_file):
        seg = tmp_path / "corpus.seg"
        seg.write_text(seg_file.read_text() + "d2\t1\t0\t10\nd2\t2\t5\t20\n")
        with pytest.raises(SegmentationError, match="^d2: EDU 2 overlaps or precedes EDU 1$"):
            read_segmentation(seg)
        out = tmp_path / "out"
        assert run("convert-pdtb", "--input", pdtb_corpus, "--edus", seg, "--out", out) == 0
        assert read_dep((out / "wsj_0618.conll").read_bytes(), "conll").doc_id == "wsj_0618"

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param("d2\t1\t0\t10\nd2\t2\t5\t20\n", id="overlap"),
            pytest.param("d2\t1\t0\t10\nd2\t3\t10\t20\n", id="index-gap"),
            pytest.param("d2\t1\t0\t10\nd2\t2\tten\t20\n", id="int"),
            pytest.param("d2\t1\t0\t10\nd2\t2\t20\t10\n", id="span"),
            pytest.param("d2\t1\t0\t10\nd2\t2\t10\n", id="field-count"),
        ],
    )
    def test_defective_wanted_inventory_fails_alone(self, tmp_path, pdtb_corpus, seg_file, rows):
        shutil.copy(pdtb_corpus / "wsj_0618.pdtb", pdtb_corpus / "d2.pdtb")
        seg = tmp_path / "corpus.seg"
        seg.write_text(seg_file.read_text() + rows)
        with pytest.raises(SegmentationError) as eager:
            read_segmentation(seg)
        out = tmp_path / "out"
        assert run("convert-pdtb", "--input", pdtb_corpus, "--edus", seg, "--out", out) == 1
        assert (out / "wsj_0618.conll").exists()
        assert not (out / "d2.conll").exists()
        failed = [line for line in (out / "diagnostics.txt").read_text().splitlines() if "doc-failed" in line]
        assert failed == [f"[doc-failed] d2: SegmentationError: {eager.value}"]

    @pytest.mark.parametrize("line", ["wsj_0618 18 700 710", "d2 1 0 10"], ids=["wanted", "unwanted"])
    def test_line_without_tab_is_usage_error(self, tmp_path, pdtb_corpus, seg_file, capsys, line):
        text = seg_file.read_text()
        seg = tmp_path / "corpus.seg"
        seg.write_text(f"# a comment without a tab\n{text}{line}\n")
        line_no = text.count("\n") + 2
        out = tmp_path / "out"
        assert run("convert-pdtb", "--input", pdtb_corpus, "--edus", seg, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: line {line_no}: expected 4 tab-separated fields, got 1\n"
        )
        assert not out.exists()

    def test_only_the_converted_inventories_are_built(self, tmp_path, pdtb_corpus, seg_file, monkeypatch):
        fillers = [Document(f"d{k:03d}", ((1, Span(0, 5)), (2, Span(5, 9)))) for k in range(499)]
        seg = tmp_path / "corpus.seg"
        seg.write_text(seg_file.read_text() + write_segmentation(fillers))
        built = []

        def counting_document(*args, **kwargs):
            built.append(args[0])
            return Document(*args, **kwargs)

        monkeypatch.setattr(align, "Document", counting_document)
        out = tmp_path / "out"
        assert run("convert-pdtb", "--input", pdtb_corpus, "--edus", seg, "--out", out) == 0
        assert built == ["wsj_0618"]
        assert len(read_segmentation(seg)) == 500

    def test_missing_input_is_usage_error(self, tmp_path, seg_file):
        assert run(
            "convert-pdtb", "--input", tmp_path / "nope", "--edus", seg_file,
            "--out", tmp_path / "out",
        ) == 2

    @pytest.mark.parametrize("theta", ["2", "0", "-0.5", "1.0000001", "nan", "inf"])
    def test_theta_outside_unit_interval_is_usage_error(self, tmp_path, pdtb_corpus, seg_file, capsys, theta):
        out = tmp_path / "out"
        code = run(
            "convert-pdtb", "--input", pdtb_corpus, "--edus", seg_file, "--out", out, "--theta", theta
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: --theta must be in (0, 1], got {float(theta)}\n"
        assert not out.exists()


class TestConvertRst:
    def test_fig1_hirao(self, tmp_path, fixtures_dir):
        out = tmp_path / "out"
        assert run(
            "convert-rst", "--input", fixtures_dir / "fig1.dis", "--out", out,
            "--algo", "hirao",
        ) == 0
        graph = read_dep((out / "fig1.conll").read_bytes(), "conll")
        assert len(graph.arcs) == 11
        root = [a for a in graph.arcs if a.head == 0]
        assert [a.dependent for a in root] == [3]

    def test_li_identical_on_binary_tree(self, tmp_path, fixtures_dir):
        dis = tmp_path / "bin.dis"
        dis.write_text(
            "( Root (span 1 2)\n"
            "  ( Satellite (leaf 1) (rel2par condition) )\n"
            "  ( Nucleus (leaf 2) (rel2par span) )\n"
            ")\n"
        )
        out_h = tmp_path / "h"
        out_l = tmp_path / "l"
        run("convert-rst", "--input", dis, "--out", out_h, "--algo", "hirao")
        run("convert-rst", "--input", dis, "--out", out_l, "--algo", "li")
        assert (out_h / "bin.conll").read_bytes() == (out_l / "bin.conll").read_bytes()

    def test_four_leaf_fixture_differs(self, tmp_path, fixtures_dir):
        out_h = tmp_path / "h"
        out_l = tmp_path / "l"
        run("convert-rst", "--input", fixtures_dir / "fourleaf.dis", "--out", out_h, "--algo", "hirao")
        run("convert-rst", "--input", fixtures_dir / "fourleaf.dis", "--out", out_l, "--algo", "li")
        assert (out_h / "fourleaf.conll").read_bytes() != (out_l / "fourleaf.conll").read_bytes()

    def test_label_map_applied(self, tmp_path, fixtures_dir):
        out = tmp_path / "out"
        run(
            "convert-rst", "--input", fixtures_dir / "fig1.dis", "--out", out,
            "--format", "csv", "--label-map", fixtures_dir / "rst_classes.tsv",
        )
        text = (out / "fig1.csv").read_text()
        assert "1,3,2,preparation,ELABORATION," in text


    @pytest.mark.parametrize("algo", ["hirao", "li"])
    def test_deep_tree_converts_next_to_fig1(self, tmp_path, fixtures_dir, deep_dis_text, algo):
        corpus = tmp_path / "rst"
        corpus.mkdir()
        shutil.copy(fixtures_dir / "fig1.dis", corpus / "fig1.dis")
        (corpus / "deep.dis").write_text(deep_dis_text, encoding="utf-8")
        out = tmp_path / "out"
        assert run("convert-rst", "--input", corpus, "--out", out, "--algo", algo) == 0
        assert (out / "fig1.conll").exists()
        graph = read_dep((out / "deep.conll").read_bytes(), "conll")
        assert validate_graph(graph) == []
        assert len(graph.arcs) == 1200
        assert (out / "diagnostics.txt").read_text() == ""

    def test_malformed_attributes_are_per_document(self, tmp_path, fixtures_dir):
        corpus = tmp_path / "rst"
        corpus.mkdir()
        shutil.copy(fixtures_dir / "fig1.dis", corpus / "fig1.dis")
        bad = {
            "bad_leaf": "(leaf x)",
            "bad_leaf_arity": "(leaf 1 2)",
            "bad_span": "(span 1)",
            "bad_span_field": "(span 1 x)",
            "bad_text": "(text)",
        }
        for doc_id, attribute in bad.items():
            (corpus / f"{doc_id}.dis").write_text(
                f"( Root ( Nucleus (leaf 1) {attribute} ) ( Satellite (leaf 2) ) )\n"
            )
        out = tmp_path / "out"
        assert run("convert-rst", "--input", corpus, "--out", out) == 0
        assert (out / "fig1.conll").exists()
        lines = (out / "diagnostics.txt").read_text().splitlines()
        assert len(lines) == len(bad)
        for doc_id, line in zip(sorted(bad), lines):
            assert line.startswith(f"[dis-parse-error] {doc_id}: malformed")
            assert not (out / f"{doc_id}.conll").exists()

    def test_line_break_in_a_diagnostic_stays_on_its_line(self, tmp_path, fixtures_dir):
        corpus = tmp_path / "rst"
        corpus.mkdir()
        shutil.copy(fixtures_dir / "fig1.dis", corpus / "fig1.dis")
        (corpus / "bad\nname.dis").write_text("( Root ( Nucleus (leaf x) ) ( Satellite (leaf 2) ) )\n")
        out = tmp_path / "out"
        assert run("convert-rst", "--input", corpus, "--out", out) == 0
        assert (out / "fig1.conll").exists()
        assert (out / "diagnostics.txt").read_text() == (
            "[dis-parse-error] bad\\nname: malformed (leaf x): expected 1 integer(s)\n"
        )

    def test_unwritable_doc_id_fails_alone(self, tmp_path, fixtures_dir):
        # a doc_id with outer whitespace would read back stripped from a
        # conll comment, so that document alone is refused
        corpus = tmp_path / "rst"
        corpus.mkdir()
        shutil.copy(fixtures_dir / "fig1.dis", corpus / "fig1.dis")
        shutil.copy(fixtures_dir / "fig1.dis", corpus / " fig2 .dis")
        out = tmp_path / "out"
        assert run("convert-rst", "--input", corpus, "--out", out) == 1
        assert (out / "fig1.conll").exists()
        assert not (out / " fig2 .conll").exists()
        assert (out / "diagnostics.txt").read_text() == (
            "[doc-failed]  fig2 : FormatError: conll cannot represent doc_id ' fig2 '\n"
        )

    @pytest.mark.parametrize("fmt", ["conll", "csv", "json"])
    def test_stem_that_is_not_utf8_fails_alone(self, tmp_path, fixtures_dir, fmt):
        # the stem decodes with surrogateescape to a doc_id that conll and csv
        # cannot encode and json escapes; diagnostics.txt holds the stem's bytes
        corpus = tmp_path / "rst"
        corpus.mkdir()
        shutil.copy(fixtures_dir / "fig1.dis", corpus / "ok.dis")
        shutil.copy(fixtures_dir / "fig1.dis", corpus / os.fsdecode(b"fig\xff.dis"))
        out = tmp_path / "out"
        refused = fmt != "json"
        assert run("convert-rst", "--input", corpus, "--out", out, "--format", fmt) == int(refused)
        assert (out / f"ok.{fmt}").exists()
        written = out / os.fsdecode(b"fig\xff." + fmt.encode())
        assert written.exists() != refused
        if refused:
            assert (out / "diagnostics.txt").read_bytes() == (
                b"[doc-failed] fig\xff: FormatError: " + fmt.encode() + b" cannot represent doc_id 'fig\\udcff'\n"
            )
        else:
            assert (out / "diagnostics.txt").read_bytes() == b""
            assert read_dep(written.read_bytes(), "json").doc_id == "fig\udcff"

    def test_unwritable_sense_level_fails_in_conll_only(self, tmp_path, fixtures_dir):
        # "_" is conll's empty cell, so a class mapped to "_" cannot be written there
        label_map = tmp_path / "map.tsv"
        label_map.write_text("preparation\t_\n", encoding="utf-8")
        for fmt, code in (("conll", 1), ("csv", 0), ("json", 0)):
            out = tmp_path / fmt
            assert run(
                "convert-rst", "--input", fixtures_dir / "fig1.dis", "--out", out,
                "--label-map", label_map, "--format", fmt,
            ) == code
            assert (out / f"fig1.{fmt}").exists() == (code == 0)
        assert (tmp_path / "conll" / "diagnostics.txt").read_text() == (
            "[doc-failed] fig1: FormatError: conll cannot represent sense level2 '_'\n"
        )

    def test_label_map_with_empty_class_is_usage_error(self, tmp_path, fixtures_dir, capsys):
        label_map = tmp_path / "map.tsv"
        label_map.write_text("elaboration\tELABORATION\npreparation\t\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(
            "convert-rst", "--input", fixtures_dir / "fig1.dis", "--out", out, "--label-map", label_map
        ) == 2
        assert capsys.readouterr().err == (
            "error: label-map line 2: empty class for relation 'preparation'\n"
        )
        assert not out.exists()

    def test_failed_output_write_is_io_error(self, tmp_path, fixtures_dir, capsys):
        out = tmp_path / "out"
        (out / "fig1.conll").mkdir(parents=True)
        assert run("convert-rst", "--input", fixtures_dir / "fig1.dis", "--out", out) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out / 'fig1.conll'}'\n"
        assert not (out / "diagnostics.txt").exists()

    def test_workers_run_on_calling_thread(self, tmp_path, fixtures_dir, monkeypatch):
        corpus = tmp_path / "rst"
        corpus.mkdir()
        for doc_id in ("a", "b", "c"):
            shutil.copy(fixtures_dir / "fig1.dis", corpus / f"{doc_id}.dis")
        threads = []

        def recording(tree):
            threads.append(threading.get_ident())
            return hirao_convert(tree)

        monkeypatch.setattr("discodep.cli.hirao_convert", recording)
        assert run("convert-rst", "--input", corpus, "--out", tmp_path / "out", "--workers", 2) == 0
        assert threads == [threading.get_ident()] * 3


class TestMetricsCommand:
    def test_local_metrics_values(self, tmp_path, pdtb_corpus, seg_file):
        dep = tmp_path / "dep"
        run("convert-pdtb", "--input", pdtb_corpus, "--edus", seg_file, "--out", dep)
        out = tmp_path / "m.csv"
        assert run("metrics", "--input", dep / "wsj_0618.conll", "--mode", "local", "--out", out) == 0
        assert "wsj_0618,17,11,1.272727,0.646670" in out.read_text()

    def test_rooted_metrics_values(self, tmp_path, fixtures_dir):
        dep = tmp_path / "dep"
        run("convert-rst", "--input", fixtures_dir / "fig1.dis", "--out", dep)
        out = tmp_path / "m.csv"
        assert run("metrics", "--input", dep, "--mode", "rooted", "--out", out) == 0
        assert "fig1,11,11,3.100000,2.282786" in out.read_text()

    def test_bad_file_fails_alone(self, tmp_path, fixtures_dir, capsys):
        dep = tmp_path / "dep"
        run("convert-rst", "--input", fixtures_dir / "fig1.dis", "--out", dep)
        (dep / "bad.conll").write_text("1\t2\tx\t_\t_\tfar\n2\t_\t_\t_\t_\t_\n")
        out = tmp_path / "m.csv"
        assert run("metrics", "--input", dep, "--mode", "rooted", "--out", out) == 1
        assert out.read_text().splitlines()[1:] == ["fig1,11,11,3.100000,2.282786"]
        err = capsys.readouterr().err
        assert f"error: {dep / 'bad.conll'}: FormatError: line 1: bad distance 'far'" in err

    def test_malformed_json_is_format_error(self, tmp_path, fixtures_dir, capsys):
        dep = tmp_path / "dep"
        run("convert-rst", "--input", fixtures_dir / "fig1.dis", "--out", dep)
        (dep / "bad.json").write_text('{"arcs": [5]}')
        out = tmp_path / "m.csv"
        assert run("metrics", "--input", dep, "--mode", "rooted", "--out", out) == 1
        assert out.read_text().splitlines()[1:] == ["fig1,11,11,3.100000,2.282786"]
        assert f"error: {dep / 'bad.json'}: FormatError: arc 0: " in capsys.readouterr().err

    def test_non_string_sense_level_is_format_error(self, tmp_path, fixtures_dir, capsys):
        dep = tmp_path / "dep"
        run("convert-rst", "--input", fixtures_dir / "fig1.dis", "--out", dep)
        (dep / "bad.json").write_text(NON_STRING_LEVEL1)
        out = tmp_path / "m.csv"
        assert run("metrics", "--input", dep, "--mode", "rooted", "--out", out) == 1
        assert out.read_text().splitlines()[1:] == ["fig1,11,11,3.100000,2.282786"]
        err = capsys.readouterr().err
        assert f"error: {dep / 'bad.json'}: FormatError: arc 0: sense level1 must be a string" in err

    def test_repeated_doc_id_is_measured_once(self, tmp_path, fig1_tree, capsys):
        dep = tmp_path / "dep"
        dep.mkdir()
        graph = dataclasses.replace(hirao_convert(fig1_tree), doc_id="wsj_0001")
        for fmt in ("conll", "json"):
            (dep / f"wsj_0001.{fmt}").write_bytes(write_dep(graph, fmt))
        (dep / "fig1.csv").write_bytes(write_dep(hirao_convert(fig1_tree), "csv"))
        out = tmp_path / "m.csv"
        assert run("metrics", "--input", dep, "--mode", "rooted", "--out", out) == 1
        assert [r.doc_id for r in read_metrics(out.read_bytes())] == ["fig1", "wsj_0001"]
        assert capsys.readouterr().err == (
            f"error: {dep / 'wsj_0001.json'}: doc_id 'wsj_0001' already measured from {dep / 'wsj_0001.conll'}\n"
        )

    @pytest.mark.parametrize(
        "name, doc_id", [(os.fsdecode(b"fig\xff.json"), "fig\udcff"), ("ab.json", "a\nb")], ids=["not-utf8", "line-break"]
    )
    def test_unwritable_doc_id_fails_alone(self, tmp_path, fixtures_dir, name, doc_id):
        # a json file holds any doc_id, but a metrics row does not
        dep = tmp_path / "dep"
        run("convert-rst", "--input", fixtures_dir / "fig1.dis", "--format", "json", "--out", dep)
        graph = read_dep((dep / "fig1.json").read_bytes(), "json")
        (dep / name).write_bytes(write_dep(dataclasses.replace(graph, doc_id=doc_id), "json"))
        out = tmp_path / "m.csv"
        done = run_process("metrics", "--input", dep, "--mode", "rooted", "--out", out, log_level="WARNING")
        assert done.returncode == 1
        assert out.read_text().splitlines()[1:] == ["fig1,11,11,3.100000,2.282786"]
        # stderr escapes the surrogate of a file name that is not UTF-8
        line = f"error: {dep / name}: FormatError: metrics cannot represent doc_id {doc_id!r}\n"
        assert done.stderr == line.encode("utf-8", "backslashreplace").decode("utf-8")

    def test_empty_dep_file_gives_empty_cells(self, tmp_path):
        dep = tmp_path / "empty.conll"
        dep.write_text("# doc_id = empty\n# flavor = LocalForest\n")
        out = tmp_path / "m.csv"
        assert run("metrics", "--input", dep, "--mode", "local", "--out", out) == 0
        assert "empty,0,0,," in out.read_text()


class TestCorrelate:
    def test_left_equals_right(self, tmp_path):
        metrics = tmp_path / "m.csv"
        metrics.write_text(
            "doc_id,n_units,n_arcs,mdd,sd\na,5,4,1.0,0.5\nb,5,4,2.0,0.5\nc,5,4,3.5,0.5\n"
        )
        out = tmp_path / "corr.csv"
        assert run("correlate", "--left", metrics, "--right", metrics, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[1] == "1.000000"

    def test_disjoint_ids_error(self, tmp_path):
        left = tmp_path / "l.csv"
        right = tmp_path / "r.csv"
        left.write_text("doc_id,n_units,n_arcs,mdd,sd\na,5,4,1.0,\n")
        right.write_text("doc_id,n_units,n_arcs,mdd,sd\nz,5,4,1.0,\n")
        assert run("correlate", "--left", left, "--right", right, "--out", tmp_path / "c.csv") == 2

    def test_repeated_doc_id_is_usage_error(self, tmp_path, capsys):
        # metrics measures a doc_id once, but a metrics file may come from elsewhere
        metrics = tmp_path / "m.csv"
        metrics.write_text("doc_id,n_units,n_arcs,mdd,sd\nwsj_0001,5,4,1.0,0.5\nwsj_0001,5,4,2.0,0.5\n")
        other = tmp_path / "r.csv"
        other.write_text("doc_id,n_units,n_arcs,mdd,sd\nwsj_0001,5,4,1.0,0.5\n")
        out = tmp_path / "c.csv"
        for left, right in ((metrics, other), (other, metrics)):
            assert run("correlate", "--left", left, "--right", right, "--out", out) == 2
            assert capsys.readouterr().err == (
                f"error: {metrics}: doc_id 'wsj_0001' appears more than once\n"
            )
        assert not out.exists()

    def test_unit_count_mismatch_warns_and_still_correlates(self, tmp_path):
        left = tmp_path / "l.csv"
        left.write_text(METRICS_HEADER + "a,5,4,1.0,0.5\nb,5,4,2.0,0.5\nc,5,4,3.5,0.5\n")
        same, differ = tmp_path / "same.csv", tmp_path / "differ.csv"
        same.write_text(METRICS_HEADER + "a,5,4,1.0,0.5\nb,5,4,2.5,0.5\nc,5,4,3.0,0.5\n")
        differ.write_text(METRICS_HEADER + "a,5,4,1.0,0.5\nb,6,5,2.5,0.5\nc,4,3,3.0,0.5\n")
        outputs = []
        for right in (same, differ):
            out = tmp_path / f"corr-{right.stem}.csv"
            outputs.append(run_process("correlate", "--left", left, "--right", right, "--out", out, log_level=None))
            assert outputs[-1].returncode == 0
        assert outputs[0].stderr == ""
        assert outputs[1].stderr == (
            "WARNING:discodep:unit counts differ for b: 5 vs 6\n"
            "WARNING:discodep:unit counts differ for c: 5 vs 4\n"
        )
        assert (tmp_path / "corr-same.csv").read_bytes() == (tmp_path / "corr-differ.csv").read_bytes()

    def test_warning_keeps_its_logging_prefix(self, tmp_path):
        # logging is configured on the first line logged, before the record
        # reaches a handler, so the line keeps basicConfig's format
        left, right = tmp_path / "l.csv", tmp_path / "r.csv"
        left.write_text(METRICS_HEADER + "a,5,4,1.0,0.5\nb,5,4,2.0,0.5\nc,5,4,3.5,0.5\nd,5,4,1.0,0.5\n")
        right.write_text(METRICS_HEADER + "a,5,4,1.0,0.5\nb,5,4,2.5,0.5\nc,5,4,3.0,0.5\n")
        result = run_process("correlate", "--left", left, "--right", right, "--out", tmp_path / "c.csv", log_level=None)
        assert (result.returncode, result.stderr) == (0, "WARNING:discodep:unpaired document: d\n")

    def test_sd_field_selected(self, tmp_path):
        left = tmp_path / "l.csv"
        right = tmp_path / "r.csv"
        left.write_text(
            "doc_id,n_units,n_arcs,mdd,sd\na,5,4,1.0,0.1\nb,5,4,1.0,0.6\nc,5,4,1.0,0.9\n"
        )
        right.write_text(
            "doc_id,n_units,n_arcs,mdd,sd\na,5,4,2.0,0.2\nb,5,4,2.0,1.2\nc,5,4,2.0,1.8\n"
        )
        out = tmp_path / "corr.csv"
        assert run("correlate", "--left", left, "--right", right, "--field", "sd", "--out", out) == 0
        assert out.read_text().splitlines()[1].split(",")[1] == "1.000000"


class TestValidateCommand:
    def test_clean_graph(self, tmp_path, pdtb_corpus, seg_file, capsys):
        dep = tmp_path / "dep"
        run("convert-pdtb", "--input", pdtb_corpus, "--edus", seg_file, "--out", dep)
        assert run("validate", "--input", dep / "wsj_0618.conll") == 0
        assert "OK" in capsys.readouterr().out

    def test_anomalous_graph_exits_one(self, tmp_path, fixtures_dir, capsys):
        assert run("validate", "--input", fixtures_dir / "fig1_local.json") == 1
        assert "multiple heads" in capsys.readouterr().out

    def test_dependent_zero_is_out_of_range(self, tmp_path, capsys):
        dep = tmp_path / "zero.csv"
        dep.write_text("dependent,head,distance,sense1,class,type\n0,3,3,Contrast,,\n")
        assert run("validate", "--input", dep) == 1
        assert capsys.readouterr().out == "[unit-out-of-range] zero: arc 0->3 references unit 0 outside 1..3\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"arcs": 5}', "arcs must be a list, got int"),
            ('{"arcs": [5]}', "arc 0: "),
            ('{"unit_count": "many"}', "bad unit_count 'many'"),
        ],
    )
    def test_malformed_json_is_usage_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run("validate", "--input", bad) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


    @pytest.mark.parametrize(
        "text, message",
        [
            (NON_STRING_LEVEL1, "arc 0: sense level1 must be a string, got 5"),
            (
                '{"arcs": [{"dependent": 1, "head": 2, "sense": {"level1": "x", "level2": 7}}]}',
                "arc 0: sense level2 must be a string, got 7",
            ),
            ("[" * 100_000 + "]" * 100_000, "json nested too deeply"),
        ],
        ids=["int-level1", "int-level2", "deep-nesting"],
    )
    def test_json_reader_faults_are_usage_errors(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run("validate", "--input", bad) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSplit:
    def _corpus(self, tmp_path, n):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i in range(n):
            (corpus / f"wsj_{i:04d}.pdtb").write_text("")
        return corpus

    def test_375_into_303_36_36(self, tmp_path):
        corpus = self._corpus(tmp_path, 375)
        out = tmp_path / "splits"
        assert run(
            "split", "--input", corpus, "--train", 303, "--dev", 36, "--test", 36,
            "--seed", 7, "--out", out,
        ) == 0
        parts = {}
        for name in ("train", "dev", "test"):
            lines = (out / f"{name}.txt").read_text().splitlines()
            assert lines[0].startswith("#")  # labeled as a seeded stand-in
            parts[name] = [l for l in lines if not l.startswith("#")]
        assert len(parts["train"]) == 303
        assert len(parts["dev"]) == 36
        assert len(parts["test"]) == 36
        union = set(parts["train"]) | set(parts["dev"]) | set(parts["test"])
        assert len(union) == 375

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = self._corpus(tmp_path, 20)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            run("split", "--input", corpus, "--train", 16, "--dev", 2, "--test", 2,
                "--seed", 3, "--out", out)
        for name in ("train", "dev", "test"):
            assert (out1 / f"{name}.txt").read_bytes() == (out2 / f"{name}.txt").read_bytes()

    def test_sizes_must_sum(self, tmp_path):
        corpus = self._corpus(tmp_path, 10)
        assert run(
            "split", "--input", corpus, "--train", 9, "--dev", 1, "--test", 1,
            "--out", tmp_path / "s",
        ) == 2


class TestWorkerDeterminism:
    def test_convert_pdtb_workers(self, tmp_path, pdtb_corpus, seg_file):
        outputs = {}
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            run(
                "convert-pdtb", "--input", pdtb_corpus, "--edus", seg_file,
                "--out", out, "--workers", workers,
            )
            outputs[workers] = (
                (out / "wsj_0618.conll").read_bytes(),
                (out / "diagnostics.txt").read_bytes(),
            )
        assert outputs[1] == outputs[2] == outputs[8]


BIG_FIELD = "x" * 200_000
METRICS_HEADER = "doc_id,n_units,n_arcs,mdd,sd\n"


class TestCsvFaults:
    def test_validate_oversized_field_is_usage_error(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text(f"dependent,head,distance,sense1,class,type\n1,2,1,{BIG_FIELD},,\n")
        assert run("validate", "--input", big) == 2
        assert capsys.readouterr().err == "error: line 2: field larger than field limit (131072)\n"

    def test_metrics_reports_oversized_field_as_format_error(self, tmp_path, fixtures_dir, capsys):
        dep = tmp_path / "dep"
        run("convert-rst", "--input", fixtures_dir / "fig1.dis", "--out", dep)
        (dep / "big.csv").write_text(f"dependent,head,distance,sense1,class,type\n1,2,1,{BIG_FIELD},,\n")
        out = tmp_path / "m.csv"
        assert run("metrics", "--input", dep, "--mode", "rooted", "--out", out) == 1
        assert out.read_text().splitlines()[1:] == ["fig1,11,11,3.100000,2.282786"]
        err = capsys.readouterr().err
        assert f"error: {dep / 'big.csv'}: FormatError: line 2: field larger than field limit" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            (f"{BIG_FIELD},5,4,1.0,0.5\n", "line 2: field larger than field limit (131072)"),
            ("a,5,4,1.0,0.5\nb,5,4,nan,0.5\nc,5,4,3.0,0.5\n", "line 3: mdd nan is not finite"),
            ("a,5,4,1e200,0.5\nb,5,4,-1e200,0.5\nc,5,4,3.0,0.5\n", ""),
        ],
        ids=["oversized-field", "nan", "overflow"],
    )
    def test_correlate_bad_metrics_is_usage_error(self, tmp_path, capsys, body, message):
        left = tmp_path / "l.csv"
        left.write_text(METRICS_HEADER + body)
        right = tmp_path / "r.csv"
        right.write_text(METRICS_HEADER + "a,5,4,1.0,0.5\nb,5,4,2.0,0.5\nc,5,4,3.0,0.5\n")
        out = tmp_path / "c.csv"
        assert run("correlate", "--left", left, "--right", right, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()


class TestFormatExtensions:
    @pytest.mark.parametrize("fmt", ["conll", "csv", "json"])
    def test_output_extension_is_format_name_and_reads_back(self, tmp_path, fixtures_dir, fmt):
        dep = tmp_path / "dep"
        assert run("convert-rst", "--input", fixtures_dir / "fig1.dis", "--out", dep, "--format", fmt) == 0
        assert sorted(p.name for p in dep.iterdir()) == ["diagnostics.txt", f"fig1.{fmt}"]
        out = tmp_path / "m.csv"
        assert run("metrics", "--input", dep, "--mode", "rooted", "--out", out) == 0
        assert out.read_text().splitlines()[1:] == ["fig1,11,11,3.100000,2.282786"]

    def test_unknown_extension_is_usage_error(self, tmp_path, capsys):
        dep = tmp_path / "fig1.txt"
        dep.write_text("")
        assert run("validate", "--input", dep) == 2
        assert capsys.readouterr().err == "error: cannot infer format from extension of fig1.txt\n"


@pytest.mark.parametrize("sizes", [(-1, 2, 2), (2, -1, 2), (2, 2, -1)])
def test_split_rejects_negative_sizes(tmp_path, capsys, sizes):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("a", "b", "c"):
        (corpus / f"{name}.pdtb").write_text("")
    train, dev, test = sizes
    out = tmp_path / "s"
    assert run(
        "split", "--input", corpus, "--train", train, "--dev", dev, "--test", test, "--out", out,
    ) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_traced_names_exist():
    # the benchmark's traced run swaps these names for timed wrappers
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [name for name in tracing.CLI_FUNCTIONS if not hasattr(cli, name)] == []
    assert callable(pdtb2dep.resolve_span_set)


# in a fresh interpreter: run main(argv), then print its exit code and the
# modules it added to sys.modules (this interpreter's site may load some first)
ROUTE_PROBE = """
import sys
before = set(sys.modules)
from discodep.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as done:
    code = done.code
print((code, sorted(set(sys.modules) - before)))
"""
START = ["discodep", "discodep.cli", "discodep.formats", "discodep.model"]
ROUTE_CASES = {
    "version": (("--version",), []),
    "validate": (("validate", "--input", "{conll}"), []),
    "convert-rst": (("convert-rst", "--input", "{fixtures}/fig1.dis", "--out", "{out}"), ["rst", "rst2dep"]),
    "convert-pdtb": (
        ("convert-pdtb", "--input", "{fixtures}/wsj_0618.pdtb", "--edus", "{fixtures}/wsj_0618.seg", "--out", "{out}"),
        ["align", "pdtb", "pdtb2dep"],
    ),
    "metrics": (("metrics", "--input", "{conll}", "--mode", "rooted", "--out", "{out}.csv"), ["metrics"]),
    "correlate": (("correlate", "--left", "{metrics}", "--right", "{metrics}", "--out", "{out}.csv"), ["metrics"]),
    "split": (("split", "--input", "{fixtures}", "--train", 0, "--dev", 0, "--test", "{n_fixtures}", "--out", "{out}"), []),
}


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_each_command_loads_only_its_route(tmp_path, fixtures_dir, case):
    argv, route = ROUTE_CASES[case]
    assert run("convert-rst", "--input", fixtures_dir / "fig1.dis", "--out", tmp_path / "dep") == 0
    metrics = tmp_path / "m.csv"
    metrics.write_text(METRICS_HEADER + "a,5,4,1.0,0.5\nb,5,4,2.0,0.5\nc,5,4,3.5,0.5\n")
    fields = {
        "fixtures": fixtures_dir, "out": tmp_path / "out", "conll": tmp_path / "dep" / "fig1.conll",
        "metrics": metrics, "n_fixtures": len({p.stem for p in fixtures_dir.iterdir() if p.is_file()}),
    }
    code, added = run_fresh(ROUTE_PROBE, *(str(a).format(**fields) for a in argv))
    assert code == 0
    assert [m for m in added if m.split(".")[0] == "discodep"] == sorted(START + [f"discodep.{m}" for m in route])
    if case == "convert-rst":
        assert "statistics" not in added and "logging" not in added


TRACER_PROBE = """
import importlib.util, sys
import discodep.cli as cli
bound = [name for name in ("read_segmentation", "parse_dis_file", "pearson") if name in vars(cli)]
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
print((bound, len(tracing.CLI_FUNCTIONS), [name for name in tracing.CLI_FUNCTIONS if not callable(getattr(cli, name))]))
"""
SWAP_PROBE = """
import sys
import discodep.cli as cli
from discodep.rst import parse_dis_file
calls = []

def recording(path):
    calls.append(path.name)
    return parse_dis_file(path)

cli.parse_dis_file = recording
print((cli.main(["convert-rst", "--input", sys.argv[1], "--out", sys.argv[2]]), calls))
"""


def test_traced_names_resolve_on_a_fresh_cli():
    # no command has run, so every route name comes from the module __getattr__
    assert run_fresh(TRACER_PROBE, TRACING) == ([], 14, [])


def test_name_set_before_main_is_the_one_called(tmp_path, fixtures_dir):
    assert run_fresh(SWAP_PROBE, fixtures_dir / "fig1.dis", tmp_path / "out") == (0, ["fig1.dis"])


def test_write_dep_runs_once_per_converted_document(tmp_path, fixtures_dir, seg_file, monkeypatch):
    calls = []

    def recording(graph, fmt):
        calls.append((graph.doc_id, fmt))
        return write_dep(graph, fmt)

    monkeypatch.setattr("discodep.cli.write_dep", recording)
    pdtb = tmp_path / "pdtb"
    pdtb.mkdir()
    for doc_id in ("wsj_0618", "wsj_9999"):  # wsj_9999 has no EDU inventory
        shutil.copy(fixtures_dir / "wsj_0618.pdtb", pdtb / f"{doc_id}.pdtb")
    assert run("convert-pdtb", "--input", pdtb, "--edus", seg_file, "--out", tmp_path / "dep", "--format", "csv") == 0
    assert "missing-segmentation" in (tmp_path / "dep" / "diagnostics.txt").read_text()
    assert calls == [("wsj_0618", "csv")]

    calls.clear()
    rst = tmp_path / "rst"
    rst.mkdir()
    shutil.copy(fixtures_dir / "fig1.dis", rst / "fig1.dis")
    (rst / "bad.dis").write_text("( Root ( Nucleus (leaf x) ) )\n")
    assert run("convert-rst", "--input", rst, "--out", tmp_path / "tree", "--format", "json") == 0
    assert "dis-parse-error" in (tmp_path / "tree" / "diagnostics.txt").read_text()
    assert calls == [("fig1", "json")]


@pytest.mark.parametrize("value", ["basic_format", "BASIC_FORMAT", "Basic_Format", "nonsense"])
def test_log_setting_that_is_no_level_name_falls_back_to_warning(tmp_path, fixtures_dir, value):
    result = run_process("--version", log_level=value)
    assert (result.returncode, result.stdout, result.stderr) == (0, f"discodep {__version__}\n", "")
    # a diagnostic is logged at INFO, so WARNING keeps stderr empty
    result = run_process("convert-pdtb", "--input", fixtures_dir / "wsj_0618.pdtb",
                         "--edus", fixtures_dir / "wsj_0618.seg", "--out", tmp_path, "--theta", 1,
                         log_level=value)
    assert (result.returncode, result.stderr) == (0, "")
    assert (tmp_path / "diagnostics.txt").read_text() != ""


def test_diagnostics_load_no_logging_when_info_lines_are_dropped(tmp_path, fixtures_dir):
    # DISCODEP_LOG is unset, so the INFO line of each diagnostic would be dropped
    code, added = run_fresh(ROUTE_PROBE, "convert-pdtb", "--input", fixtures_dir / "wsj_0618.pdtb",
                            "--edus", fixtures_dir / "wsj_0618.seg", "--out", tmp_path)
    assert code == 0
    assert (tmp_path / "diagnostics.txt").read_text().startswith("[link-group-duplicate]")
    assert "logging" not in added


def test_info_log_lines_are_the_diagnostics_lines_in_order(tmp_path, fixtures_dir):
    pdtb = tmp_path / "pdtb"
    pdtb.mkdir()
    # the parser's diagnostic for line 13 is collected before the conversion's
    # diagnostics for lines 1-11, so collection order is not the file's order
    text = (fixtures_dir / "wsj_0618.pdtb").read_text() + "Explicit|1..2|bogus\n"
    for doc_id in ("wsj_0618", "wsj_9999"):
        (pdtb / f"{doc_id}.pdtb").write_text(text)
    out = tmp_path / "out"
    result = run_process("convert-pdtb", "--input", pdtb, "--edus", fixtures_dir / "wsj_0618.seg",
                         "--out", out, "--theta", 1, log_level="info")
    assert result.returncode == 0
    report = (out / "diagnostics.txt").read_text().splitlines()
    assert len(report) == 6
    assert result.stderr.splitlines() == [f"INFO:discodep:{line}" for line in report]


BOM = b"\xef\xbb\xbf"
CONVERT_PDTB = ("convert-pdtb", "--input", "{pdtb}", "--edus", "{seg}", "--head-rules", "{head_rules}", "--out", "{out}")
CONVERT_RST = ("convert-rst", "--input", "{dis}", "--label-map", "{label_map}", "--out", "{out}")
# each input kind, and a command that reads it
BOM_CASES = [
    ("pdtb", CONVERT_PDTB),
    ("seg", CONVERT_PDTB),
    ("head_rules", CONVERT_PDTB),
    ("dis", CONVERT_RST),
    ("label_map", CONVERT_RST),
    *((fmt, ("validate", "--input", f"{{{fmt}}}")) for fmt in ("conll", "csv", "json")),
    *((fmt, ("metrics", "--input", f"{{{fmt}}}", "--mode", "rooted", "--out", "{out}/m.csv")) for fmt in ("conll", "csv", "json")),
    ("metrics", ("correlate", "--left", "{metrics}", "--right", "{metrics}", "--out", "{out}/r.csv")),
]


class TestByteOrderMark:
    """Every input is UTF-8 with a leading byte-order mark skipped: a BOM'd
    copy gives the same exit code, stdout and output bytes as the plain file."""

    @pytest.fixture
    def inputs(self, tmp_path, fixtures_dir, fig1_tree):
        plain = tmp_path / "plain"
        plain.mkdir()
        for name in ("wsj_0618.pdtb", "wsj_0618.seg", "fig1.dis", "rst_classes.tsv"):
            shutil.copy(fixtures_dir / name, plain / name)
        # the first row of each map names a class that the fixture uses
        (plain / "head_rules.tsv").write_text("Condition\tmarked-head\n")
        graph = hirao_convert(fig1_tree)
        for fmt in ("conll", "csv", "json"):
            (plain / f"fig1.{fmt}").write_bytes(write_dep(graph, fmt))
        (plain / "m.csv").write_text("doc_id,n_units,n_arcs,mdd,sd\na,5,4,1.0,0.5\nb,5,4,2.0,0.5\nc,5,4,3.5,0.5\n")
        return {
            "pdtb": plain / "wsj_0618.pdtb", "seg": plain / "wsj_0618.seg", "head_rules": plain / "head_rules.tsv",
            "dis": plain / "fig1.dis", "label_map": plain / "rst_classes.tsv",
            "conll": plain / "fig1.conll", "csv": plain / "fig1.csv", "json": plain / "fig1.json",
            "metrics": plain / "m.csv",
        }

    @pytest.mark.parametrize("kind, argv", BOM_CASES, ids=[f"{kind}-{argv[0]}" for kind, argv in BOM_CASES])
    def test_bom_copy_gives_same_bytes(self, tmp_path, inputs, capsys, kind, argv):
        bom = tmp_path / "bom" / inputs[kind].name  # same name, same doc_id
        bom.parent.mkdir()
        bom.write_bytes(BOM + inputs[kind].read_bytes())
        results = []
        for paths in (inputs, {**inputs, kind: bom}):
            out = tmp_path / f"out{len(results)}"
            out.mkdir()
            code = run(*(arg.format(out=out, **paths) for arg in argv))
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            results.append((code, capsys.readouterr().out, files))
        assert results[0][0] == 0
        assert results[1] == results[0]
