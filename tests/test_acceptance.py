"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the test results.
"""

import math
import random
import time
from collections import Counter

from discodep import (
    DependencyArc,
    DependencyGraph,
    Document,
    GraphFlavor,
    MetricsRecord,
    PdtbRelation,
    RelationKind,
    SenseTag,
    Span,
    convert_pdtb,
    hirao_convert,
    li_convert,
    mdd_local,
    mdd_rooted,
    parse_dis_file,
    parse_relation_file,
    read_dep,
    read_metrics,
    read_segmentation,
    sd_distances,
    validate_graph,
    write_dep,
    write_metrics,
)
from discodep.cli import main as cli_main
from discodep.formats import FormatError
from discodep.metrics import pearson

from test_rst2dep import all_binary_trees


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_wsj_0618_end_to_end(fixtures_dir):
    started = time.perf_counter()
    relations, diagnostics = parse_relation_file(fixtures_dir / "wsj_0618.pdtb")
    doc = read_segmentation(fixtures_dir / "wsj_0618.seg")["wsj_0618"]
    graph, _ = convert_pdtb(doc, relations)
    elapsed = time.perf_counter() - started

    assert not diagnostics
    assert len(relations) == 12 and doc.unit_count == 17
    assert len(graph.arcs) == 11
    assert sorted(Counter(graph.distances()).items()) == [(1, 9), (2, 1), (3, 1)]

    mdd = mdd_local(graph)
    assert mdd == 14 / 11
    assert abs(mdd - 1.27) <= 5e-3  # rounds to the reported 1.27

    directed = {(a.dependent, a.head) for a in graph.arcs}
    rule_consistent = {
        (10, 9),
        (9, 8),
        (17, 14),
        (15, 17),
        (5, 6),
        (6, 7),
        (3, 4),
        (13, 14),
        (11, 12),
    }
    assert rule_consistent <= directed
    purpose = [a for a in graph.arcs if a.sense.level2 == "Purpose"]
    assert len(purpose) == 1
    assert {purpose[0].dependent, purpose[0].head} == {16, 17} and purpose[0].distance == 1
    deviating_condition = [a for a in graph.arcs if {a.dependent, a.head} == {1, 2}]
    assert len(deviating_condition) == 1 and deviating_condition[0].distance == 1

    assert elapsed < 1.0
    report(
        1,
        f"WSJ_0618: 11 arcs, distances {{1x9, 2, 3}}, mdd_local={mdd:.6f}, "
        f"9 rule-consistent directions, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_fig1_local_fixture(fixtures_dir):
    graph = read_dep((fixtures_dir / "fig1_local.json").read_bytes(), "json")
    assert len(graph.arcs) == 8
    assert sorted(graph.distances(), reverse=True) == [2, 1, 1, 1, 1, 1, 1, 1]
    mdd = mdd_local(graph)
    sd = sd_distances(graph)
    assert mdd == 1.125
    assert abs(mdd - 1.13) <= 5e-3
    assert abs(sd - 0.353553) <= 1e-6
    assert abs(sd - 0.35) <= 5e-3
    report(2, f"Fig. 1 local: 8 arcs, mdd_local={mdd:.6f} (~1.13), sd={sd:.6f} (~0.35)")


def test_criterion_3_fig1_rooted_fixture(fixtures_dir):
    tree = parse_dis_file(fixtures_dir / "fig1.dis")
    graph = hirao_convert(tree)
    expected_rows = {
        1: (3, 2),
        2: (3, 1),
        3: (0, None),
        4: (3, 1),
        5: (4, 1),
        6: (3, 3),
        7: (3, 4),
        8: (3, 5),
        9: (3, 6),
        10: (3, 7),
        11: (10, 1),
    }
    assert graph.unit_count == 11 and len(graph.arcs) == 11
    for arc in graph.arcs:
        assert (arc.head, arc.distance) == expected_rows[arc.dependent]
    mdd = mdd_rooted(graph)
    sd = sd_distances(graph)
    assert mdd == 3.1
    assert abs(sd - 2.283) <= 0.005
    report(3, f"Fig. 1 rooted: 11 published rows, ROOT=3, mdd_rooted={mdd:.6f}, sd={sd:.6f} (~2.28)")


def test_criterion_4_sample_sd_disambiguation():
    distances = [2, 1, 1, 1, 3, 4, 5, 6, 7, 1]
    arcs = tuple(
        DependencyArc(i + 1, i + 1 + d, SenseTag("x")) for i, d in enumerate(distances)
    )
    graph = DependencyGraph("g", 17, arcs, GraphFlavor.LOCAL_FOREST)
    sd = sd_distances(graph)
    assert abs(sd - 2.283) <= 5e-4, "sample (k-1) SD expected"
    assert abs(sd - 2.166) > 0.05, "population SD would be 2.166"
    report(4, f"SD over the Fig. 1 distances = {sd:.6f}: sample (k-1) denominator locked in")


def _random_document(rng: random.Random, doc_id: str) -> Document:
    n = rng.randint(2, 14)
    spans = []
    cursor = 0
    for i in range(1, n + 1):
        width = rng.randint(5, 40)
        spans.append((i, Span(cursor, cursor + width)))
        cursor += width + rng.randint(0, 5)
    return Document(doc_id, tuple(spans))


_SENSES = [
    SenseTag("Expansion", "Conjunction"),
    SenseTag("Contingency", "Condition", "Arg2-as-cond"),
    SenseTag("Comparison", "Concession", "Arg1-as-denier"),
    SenseTag("Temporal", "Asynchronous", "Succession"),
    SenseTag("Contingency", "Purpose", "Arg2-as-goal"),
    SenseTag("EntRel"),
]


def _random_relations(rng: random.Random, doc: Document) -> list[PdtbRelation]:
    relations = []
    n = doc.unit_count
    for line_no in range(1, rng.randint(1, 10) + 1):
        # arguments are EDU ranges, possibly multi-unit, possibly overlapping
        a_start = rng.randint(1, n)
        a_end = min(n, a_start + rng.randint(0, 2))
        b_start = rng.randint(1, n)
        b_end = min(n, b_start + rng.randint(0, 2))
        arg1 = Span(doc.span_of(a_start).start, doc.span_of(a_end).end)
        arg2 = Span(doc.span_of(b_start).start, doc.span_of(b_end).end)
        relations.append(
            PdtbRelation(
                kind=RelationKind.IMPLICIT,
                senses=(rng.choice(_SENSES),),
                arg1_spans=(arg1,),
                arg2_spans=(arg2,),
                raw_line_no=line_no,
            )
        )
    return relations


def test_criterion_5_property_suite(fixtures_dir):
    rng = random.Random(1729)

    # distance-multiset invariance under direction flip, 1000 generated docs
    for i in range(1000):
        doc = _random_document(rng, f"gen_{i:04d}")
        relations = _random_relations(rng, doc)
        normal, _ = convert_pdtb(doc, relations)
        flipped, _ = convert_pdtb(doc, relations, flip_directions=True)
        assert Counter(normal.distances()) == Counter(flipped.distances())

    # round-trip identity for all three formats on generated graphs
    checked = 0
    for i in range(300):
        doc = _random_document(rng, f"rt_{i:03d}")
        graph, _ = convert_pdtb(doc, _random_relations(rng, doc))
        for fmt in ("conll", "csv", "json"):
            try:
                data = write_dep(graph, fmt)
            except FormatError as err:
                # conll cannot hold multi-head anomalies; other formats must
                assert fmt == "conll" and "multiple heads" in str(err)
                continue
            assert read_dep(data, fmt) == graph
            checked += 1
    assert checked > 500

    # forest/tree validation invariants
    wsj_graph, _ = convert_pdtb(
        read_segmentation(fixtures_dir / "wsj_0618.seg")["wsj_0618"],
        parse_relation_file(fixtures_dir / "wsj_0618.pdtb")[0],
    )
    assert validate_graph(wsj_graph) == []
    assert len(wsj_graph.arcs) <= wsj_graph.unit_count - 1
    for t in all_binary_trees(4):
        for convert in (hirao_convert, li_convert):
            g = convert(t)
            assert validate_graph(g) == []
            assert len(g.arcs) == g.unit_count

    # pearson scale and permutation invariance to 1e-12
    for _ in range(200):
        k = rng.randint(3, 40)
        xs = [round(rng.uniform(-50, 50), 3) for _ in range(k)]
        ys = [round(rng.uniform(-50, 50), 3) for _ in range(k)]
        if max(xs) - min(xs) < 0.5 or max(ys) - min(ys) < 0.5:
            continue
        base = pearson(xs, ys)
        a, b = round(rng.uniform(0.5, 9), 3), round(rng.uniform(-20, 20), 3)
        assert abs(pearson([a * x + b for x in xs], ys).r - base.r) < 1e-12
        order = list(range(k))
        rng.shuffle(order)
        permuted = pearson([xs[i] for i in order], [ys[i] for i in order])
        assert abs(permuted.r - base.r) < 1e-12

    # mdd/sd equality with naive-loop oracles to 1e-9
    for _ in range(200):
        k = rng.randint(2, 30)
        arcs = []
        for dep in range(1, k + 1):
            arcs.append(DependencyArc(dep, dep + rng.randint(1, 9), SenseTag("x")))
        g = DependencyGraph("o", k + 10, tuple(arcs), GraphFlavor.LOCAL_FOREST)
        distances = [abs(a.dependent - a.head) for a in g.arcs]
        naive_mean = sum(distances) / len(distances)
        assert abs(mdd_local(g) - naive_mean) < 1e-9
        naive_var = sum((d - naive_mean) ** 2 for d in distances) / (len(distances) - 1)
        assert abs(sd_distances(g) - math.sqrt(naive_var)) < 1e-9

    report(
        5,
        "direction-flip invariance (1000 docs), round-trip identity (3 formats), "
        "validation invariants, pearson invariances (1e-12), metric oracles (1e-9)",
    )


def test_criterion_6_desk_scale_substitutes(tmp_path, fixtures_dir):
    # corpus-scale correlations from licensed corpora are out of reach here;
    # a 50-document synthetic paired corpus stands in
    rng = random.Random(50)
    left_records, right_records = [], []
    for i in range(50):
        doc_id = f"syn_{i:03d}"
        base = rng.uniform(1.0, 4.0)
        left_records.append(MetricsRecord(doc_id, 10, 9, round(base, 6), None))
        right_records.append(
            MetricsRecord(doc_id, 10, 8, round(0.6 * base + rng.gauss(0, 0.3), 6), None)
        )
    left_path = tmp_path / "left.csv"
    right_path = tmp_path / "right.csv"
    left_path.write_bytes(write_metrics(left_records))
    right_path.write_bytes(write_metrics(right_records))

    out = tmp_path / "corr.csv"
    assert cli_main(
        ["correlate", "--left", str(left_path), "--right", str(right_path),
         "--field", "mdd", "--out", str(out)]
    ) == 0

    # brute-force oracle over exactly what the command consumed
    left_by_id = {r.doc_id: r.mdd for r in read_metrics(left_path.read_bytes())}
    right_by_id = {r.doc_id: r.mdd for r in read_metrics(right_path.read_bytes())}
    xs = [left_by_id[d] for d in sorted(left_by_id)]
    ys = [right_by_id[d] for d in sorted(right_by_id)]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx, syy = sum(x * x for x in xs), sum(y * y for y in ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    oracle = (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))

    assert abs(pearson(xs, ys).r - oracle) < 1e-9
    written_r = out.read_text().splitlines()[1].split(",")[1]
    assert written_r == f"{oracle:.6f}"

    # hirao vs li: distinguishable on the 4-leaf fixture, identical on all
    # binary trees up to 5 leaves under every nuclearity assignment
    four = parse_dis_file(fixtures_dir / "fourleaf.dis")
    assert hirao_convert(four).arcs != li_convert(four).arcs
    enumerated = 0
    for t in all_binary_trees(5):
        assert hirao_convert(t).arcs == li_convert(t).arcs
        enumerated += 1

    report(
        6,
        f"50-doc synthetic correlate matches brute-force oracle (r={oracle:.6f}); "
        f"hirao != li on 4-leaf fixture; identical on {enumerated} binary trees <= 5 leaves",
    )


def test_criterion_7_worker_count_determinism(tmp_path, fixtures_dir):
    # a corpus of three documents, so each command handles more than one
    corpus = tmp_path / "pdtb"
    corpus.mkdir()
    annotation = (fixtures_dir / "wsj_0618.pdtb").read_text()
    seg_rows = (fixtures_dir / "wsj_0618.seg").read_text().splitlines()
    seg_lines = []
    for doc_id in ("wsj_0618", "wsj_0700", "wsj_0800"):
        (corpus / f"{doc_id}.pdtb").write_text(annotation)
        for row in seg_rows:
            seg_lines.append(doc_id + row[len("wsj_0618"):])
    seg = tmp_path / "all.seg"
    seg.write_text("\n".join(seg_lines) + "\n")

    rst_corpus = tmp_path / "rst"
    rst_corpus.mkdir()
    for name in ("fig1.dis", "fourleaf.dis"):
        (rst_corpus / name).write_text((fixtures_dir / name).read_text())

    def run_all(workers: int) -> dict[str, bytes]:
        base = tmp_path / f"w{workers}"
        outputs = {}
        assert cli_main(
            ["convert-pdtb", "--input", str(corpus), "--edus", str(seg),
             "--out", str(base / "pdtb"), "--workers", str(workers)]
        ) == 0
        assert cli_main(
            ["convert-rst", "--input", str(rst_corpus), "--out", str(base / "rst"),
             "--algo", "li", "--workers", str(workers)]
        ) == 0
        assert cli_main(
            ["metrics", "--input", str(base / "pdtb"), "--mode", "local",
             "--out", str(base / "local.csv"), "--workers", str(workers)]
        ) == 0
        for path in sorted((base / "pdtb").iterdir()):
            outputs["pdtb/" + path.name] = path.read_bytes()
        for path in sorted((base / "rst").iterdir()):
            outputs["rst/" + path.name] = path.read_bytes()
        outputs["local.csv"] = (base / "local.csv").read_bytes()
        return outputs

    first = run_all(1)
    assert first == run_all(2) == run_all(8)
    assert len(first) >= 7
    report(7, f"convert-pdtb/convert-rst/metrics byte-identical for workers 1, 2, 8 ({len(first)} files)")
