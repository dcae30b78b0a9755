import random
from collections import Counter

import pytest

from discodep import (
    DependencyArc,
    Document,
    GraphFlavor,
    PdtbRelation,
    RelationKind,
    SenseTag,
    Span,
    convert_pdtb,
    sense_symmetry,
    validate_graph,
)
from discodep.pdtb2dep import MARKED_IS_DEPENDENT, SymmetryVerdict, _constituent_head, load_head_rules


class TestSenseSymmetry:
    def test_arg2_marked(self):
        verdict = sense_symmetry(SenseTag("Contingency", "Condition", "Arg2-as-cond"))
        assert verdict == SymmetryVerdict(marked_arg=2)

    def test_arg1_marked(self):
        verdict = sense_symmetry(SenseTag("Comparison", "Concession", "Arg1-as-denier"))
        assert verdict == SymmetryVerdict(marked_arg=1)

    def test_two_level_tag_is_symmetric(self):
        assert sense_symmetry(SenseTag("Expansion", "Conjunction")).is_symmetric

    def test_synthetic_entrel_is_symmetric(self):
        assert sense_symmetry(SenseTag("EntRel")).is_symmetric

    def test_case_insensitive(self):
        assert sense_symmetry(SenseTag("C", "C", "arg2-as-denier")).marked_arg == 2

    def test_plain_level3_is_symmetric(self):
        assert sense_symmetry(SenseTag("Temporal", "Asynchronous", "Succession")).is_symmetric


class TestHeadOfConstituent:
    # the table maps a dependent to the heads of the arcs built so far
    def test_inner_dependent_excluded(self):
        assert _constituent_head({9, 10}, {10: [9]}) == 9

    def test_singleton(self):
        assert _constituent_head({4}, {}) == 4

    def test_three_units_with_two_internal_arcs(self):
        assert _constituent_head({15, 16, 17}, {16: [17], 15: [17]}) == 17

    def test_tie_breaks_to_last(self):
        assert _constituent_head({5, 6}, {}) == 6

    def test_external_arcs_ignored(self):
        # 6's head lies outside the set, so 6 still qualifies
        assert _constituent_head({5, 6}, {6: [9]}) == 6

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            _constituent_head(set(), {})


def two_edu_doc():
    return Document("d", ((1, Span(0, 10)), (2, Span(10, 20))))


def rel(kind, sense, arg1, arg2, line_no=1, link=None):
    return PdtbRelation(
        kind=kind,
        senses=(sense,),
        arg1_spans=tuple(arg1),
        arg2_spans=tuple(arg2),
        link_group=link,
        raw_line_no=line_no,
    )


COND = SenseTag("Contingency", "Condition", "Arg2-as-cond")
CONJ = SenseTag("Expansion", "Conjunction")


class TestConvertPdtb:
    def test_wsj_0618_reproduces_published_table(self, wsj_graph):
        assert len(wsj_graph.arcs) == 11
        assert sorted(Counter(wsj_graph.distances()).items()) == [(1, 9), (2, 1), (3, 1)]
        directed = {(a.dependent, a.head) for a in wsj_graph.arcs}
        # rows whose direction follows the marked-argument rule
        assert {(10, 9), (9, 8), (17, 14), (15, 17), (5, 6), (6, 7), (3, 4), (13, 14), (11, 12)} <= directed
        # purpose and condition rows are pinned at distance level only
        purpose = [a for a in wsj_graph.arcs if a.sense.level2 == "Purpose"]
        assert len(purpose) == 1 and purpose[0].distance == 1
        assert {purpose[0].dependent, purpose[0].head} == {16, 17}
        condition_12 = [
            a for a in wsj_graph.arcs if {a.dependent, a.head} == {1, 2}
        ]
        assert len(condition_12) == 1 and condition_12[0].distance == 1

    def test_wsj_graph_is_valid_forest(self, wsj_graph):
        assert wsj_graph.flavor is GraphFlavor.LOCAL_FOREST
        assert validate_graph(wsj_graph) == []

    def test_link_group_keeps_first_listed(self, wsj_document, wsj_relations):
        graph, diagnostics = convert_pdtb(wsj_document, wsj_relations)
        dupes = [d for d in diagnostics if d.code == "link-group-duplicate"]
        assert len(dupes) == 1 and dupes[0].line_no == 11
        cause_result = [a for a in graph.arcs if a.sense.level3 == "Result"]
        assert [(a.dependent, a.head) for a in cause_result] == [(15, 17)]

    def test_arcs_biject_with_kept_relations(self, wsj_graph, wsj_relations):
        kept, seen_links = [], set()
        for r in wsj_relations:
            if r.kind is RelationKind.NOREL:
                continue
            if r.link_group is not None:
                if r.link_group in seen_links:
                    continue
                seen_links.add(r.link_group)
            kept.append(r)
        assert sorted(str(a.sense) for a in wsj_graph.arcs) == sorted(
            str(r.primary_sense) for r in kept
        )

    def test_empty_relations_give_empty_graph(self):
        graph, diagnostics = convert_pdtb(two_edu_doc(), [])
        assert graph.arcs == () and diagnostics == []

    @pytest.mark.parametrize("theta", [0.0, -0.5, 1.5, 5.0, float("nan")])
    @pytest.mark.parametrize("relations", [[], [rel(RelationKind.IMPLICIT, CONJ, [Span(0, 10)], [Span(10, 20)])]])
    def test_theta_outside_unit_interval_rejected_on_entry(self, theta, relations):
        with pytest.raises(ValueError, match=r"theta must be in \(0, 1\]"):
            convert_pdtb(two_edu_doc(), relations, theta=theta)

    def test_norel_dropped(self):
        norel = PdtbRelation(
            kind=RelationKind.NOREL,
            senses=(SenseTag("NoRel"),),
            arg1_spans=(),
            arg2_spans=(),
        )
        graph, _ = convert_pdtb(two_edu_doc(), [norel])
        assert graph.arcs == ()

    def test_same_pair_opposite_orders_gives_multi_head(self):
        doc = two_edu_doc()
        relations = [
            rel(RelationKind.IMPLICIT, CONJ, [Span(0, 10)], [Span(10, 20)], line_no=1),
            rel(RelationKind.IMPLICIT, COND, [Span(10, 20)], [Span(0, 10)], line_no=2),
        ]
        graph, diagnostics = convert_pdtb(doc, relations)
        assert len(graph.arcs) == 2
        assert not diagnostics
        diags = validate_graph(graph)
        assert any(d.code == "multiple-heads" and "unit 1" in d.message for d in diags)

    def test_intersecting_argument_sets_skip_with_diagnostic(self):
        doc = two_edu_doc()
        relations = [rel(RelationKind.IMPLICIT, CONJ, [Span(0, 10)], [Span(0, 10)])]
        graph, diagnostics = convert_pdtb(doc, relations)
        assert graph.arcs == ()
        assert any(d.code == "overlapping-arguments" for d in diagnostics)

    def test_symmetric_head_is_later_unit(self):
        graph, _ = convert_pdtb(
            two_edu_doc(), [rel(RelationKind.IMPLICIT, CONJ, [Span(0, 10)], [Span(10, 20)])]
        )
        (arc,) = graph.arcs
        assert (arc.dependent, arc.head) == (1, 2)

    def test_marked_argument_is_dependent(self):
        graph, _ = convert_pdtb(
            two_edu_doc(), [rel(RelationKind.EXPLICIT, COND, [Span(0, 10)], [Span(10, 20)])]
        )
        (arc,) = graph.arcs
        assert (arc.dependent, arc.head) == (2, 1)

    def test_conversion_is_deterministic(self, wsj_document, wsj_relations):
        first, _ = convert_pdtb(wsj_document, wsj_relations)
        second, _ = convert_pdtb(wsj_document, wsj_relations)
        assert first == second

    def test_purpose_head_rule_default_vs_plain_prefix(self, wsj_document, wsj_relations):
        # without the purpose override the goal clause becomes the dependent
        # and the enclosing constituents cascade differently
        plain, _ = convert_pdtb(
            wsj_document, wsj_relations, head_rules={"purpose": MARKED_IS_DEPENDENT}
        )
        directed = {(a.dependent, a.head) for a in plain.arcs}
        assert (17, 16) in directed
        assert (15, 17) not in directed

    def test_head_rules_file(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("condition\tmarked-head\n")
        rules = load_head_rules(path)
        assert rules["condition"] == "marked-head"
        assert rules["purpose"] == "marked-head"  # defaults kept
        graph, _ = convert_pdtb(
            two_edu_doc(),
            [rel(RelationKind.EXPLICIT, COND, [Span(0, 10)], [Span(10, 20)])],
            head_rules=rules,
        )
        (arc,) = graph.arcs
        assert (arc.dependent, arc.head) == (1, 2)

    def test_head_rules_file_errors_name_the_line(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("# class\trule\ncondition\tmarked-head\ncause\n")
        with pytest.raises(ValueError, match="head-rules line 3: expected 2 tab-separated fields"):
            load_head_rules(path)
        path.write_text("condition\tupside-down\n")
        with pytest.raises(ValueError, match="head-rules line 1: unknown rule 'upside-down'"):
            load_head_rules(path)

    def test_head_rules_file_refuses_a_repeated_class(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("purpose\tmarked-dependent\ncondition\tmarked-head\nCondition\tmarked-dependent\n")
        with pytest.raises(ValueError) as info:
            load_head_rules(path)
        assert str(info.value) == "head-rules line 3: class 'Condition' repeated (first on line 2)"
        # overriding a default is not a repeat
        path.write_text("purpose\tmarked-dependent\n")
        assert load_head_rules(path)["purpose"] == MARKED_IS_DEPENDENT


def _random_single_unit_relations(rng, doc):
    relations = []
    n = doc.unit_count
    for line_no in range(1, rng.randint(1, 8) + 1):
        u1, u2 = rng.sample(range(1, n + 1), 2)
        sense = rng.choice(
            [
                CONJ,
                COND,
                SenseTag("Comparison", "Concession", "Arg1-as-denier"),
                SenseTag("Temporal", "Asynchronous", "Succession"),
                SenseTag("EntRel"),
            ]
        )
        relations.append(
            rel(
                RelationKind.IMPLICIT,
                sense,
                [doc.span_of(u1)],
                [doc.span_of(u2)],
                line_no=line_no,
            )
        )
    return relations


def _flipped_distances(graph):
    """The distances of ``graph``'s arcs with head and dependent swapped."""
    return [DependencyArc(a.head, a.dependent, a.sense).distance for a in graph.arcs]


def test_distance_multiset_invariant_under_direction_flip(wsj_document, wsj_relations):
    normal, _ = convert_pdtb(wsj_document, wsj_relations)
    assert Counter(normal.distances()) == Counter(_flipped_distances(normal))


def test_direction_flip_invariance_on_generated_documents():
    rng = random.Random(20240617)
    for _ in range(200):
        n = rng.randint(2, 12)
        spans = tuple((i + 1, Span(i * 10, (i + 1) * 10)) for i in range(n))
        doc = Document("gen", spans)
        relations = _random_single_unit_relations(rng, doc)
        normal, _ = convert_pdtb(doc, relations)
        assert Counter(normal.distances()) == Counter(_flipped_distances(normal))
