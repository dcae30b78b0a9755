import copy
import dataclasses
import pickle
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import seed_model
from discodep import (
    DependencyArc,
    DependencyGraph,
    Document,
    GraphFlavor,
    Nuclearity,
    PdtbRelation,
    RelationKind,
    RstChild,
    RstInternal,
    RstLeaf,
    SenseTag,
    Span,
    mdd_rooted,
    read_dep,
    validate_graph,
    write_dep,
)
from discodep.formats import FORMATS
from discodep.model import ROOT, _arc_order, _by_dependent, _cycles


def arc(dep, head, l1="Expansion", l2="Conjunction"):
    return DependencyArc(dep, head, SenseTag(l1, l2))


def forest(n, arcs, doc_id="doc"):
    return DependencyGraph(doc_id, n, tuple(arcs), GraphFlavor.LOCAL_FOREST)


def rooted(n, arcs, doc_id="doc"):
    return DependencyGraph(doc_id, n, tuple(arcs), GraphFlavor.ROOTED_TREE)


class TestSpan:
    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            Span(5, 5)
        with pytest.raises(ValueError):
            Span(7, 3)
        with pytest.raises(ValueError):
            Span(-1, 4)

    def test_overlap(self):
        assert Span(0, 10).overlap(Span(5, 20)) == 5
        assert Span(0, 10).overlap(Span(10, 20)) == 0
        assert Span(3, 4).overlap(Span(0, 100)) == 1


class TestDocument:
    def test_indices_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            Document("d", ((1, Span(0, 5)), (3, Span(6, 9))))

    def test_spans_must_ascend(self):
        with pytest.raises(ValueError, match="overlaps or precedes"):
            Document("d", ((1, Span(5, 9)), (2, Span(0, 4))))

    def test_adjacent_spans_allowed(self):
        doc = Document("d", ((1, Span(0, 4)), (2, Span(4, 8))))
        assert doc.unit_count == 2
        assert doc.span_of(2) == Span(4, 8)


class TestSenseTag:
    def test_two_component_tag_has_no_level3(self):
        tag = SenseTag.parse("Expansion.Disjunction")
        assert tag == SenseTag("Expansion", "Disjunction", None)

    def test_three_component_tag(self):
        tag = SenseTag.parse("Contingency.Condition.Arg2-as-cond")
        assert (tag.level1, tag.level2, tag.level3) == (
            "Contingency",
            "Condition",
            "Arg2-as-cond",
        )

    def test_rejects_overlong_and_empty(self):
        with pytest.raises(ValueError):
            SenseTag.parse("a.b.c.d")
        with pytest.raises(ValueError):
            SenseTag.parse("")

    def test_str_round_trip(self):
        for text in ("EntRel", "Contingency.Cause", "Comparison.Concession.Arg1-as-denier"):
            assert str(SenseTag.parse(text)) == text


class TestDependencyArc:
    def test_distance_is_absolute_difference(self):
        assert arc(3, 7).distance == 4
        assert arc(7, 3).distance == 4

    def test_root_arc_has_no_distance(self):
        assert arc(3, 0).distance is None

    def test_rejects_self_loop_and_bad_distance(self):
        with pytest.raises(ValueError):
            arc(2, 2)
        with pytest.raises(TypeError):
            DependencyArc(1, 3, SenseTag("x"), distance=5)

    def test_root_arc_takes_no_distance(self):
        # an arc stores no distance, so a root arc cannot carry one that
        # mdd_rooted would add up or a writer would write
        root_sense = SenseTag("ROOT", "NONE")
        with pytest.raises(TypeError):
            DependencyArc(2, 0, root_sense, 5)
        graph = rooted(2, [arc(1, 2), DependencyArc(2, 0, root_sense)])
        assert validate_graph(graph) == []
        assert mdd_rooted(graph) == 1.0
        for fmt in FORMATS:
            assert read_dep(write_dep(graph, fmt), fmt) == graph


_CHILD = RstChild(RstLeaf(1, "a"), Nuclearity.NUCLEUS, "span")
# each slotted record, a change to one of its fields, and its field names
SLOTTED_RECORDS = {
    "RstLeaf": (RstLeaf(1, "a"), {"text": "b"}, ["edu_index", "text"]),
    "RstChild": (_CHILD, {"relation": "elaboration"}, ["node", "nuclearity", "relation"]),
    "RstInternal": (
        RstInternal((_CHILD, RstChild(RstLeaf(2), Nuclearity.SATELLITE, "x"))), {"children": (_CHILD,)}, ["children"]
    ),
    "DependencyArc": (arc(1, 2), {"head": 3}, ["dependent", "head", "sense"]),
    "Span": (Span(1, 5), {"end": 9}, ["start", "end"]),
    "PdtbRelation": (
        PdtbRelation(RelationKind.EXPLICIT, (SenseTag("Contingency", "Cause"),), (Span(0, 4),), (Span(5, 9),), "so", "LINK1", 3),
        {"connective": "since"},
        ["kind", "senses", "arg1_spans", "arg2_spans", "connective", "link_group", "raw_line_no"],
    ),
}


@pytest.mark.parametrize("name", SLOTTED_RECORDS)
def test_slotted_records_keep_the_dataclass_contract(name):
    record, change, names = SLOTTED_RECORDS[name]
    (field, value), = change.items()
    hash(record)  # an RstInternal caches its hash; the copies must not carry it over
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), dataclasses.replace(record)):
        assert twin is not record
        assert (twin, hash(twin), repr(twin)) == (record, hash(record), repr(record))
    changed = dataclasses.replace(record, **change)
    assert getattr(changed, field) == value and changed != record
    assert [f.name for f in dataclasses.fields(record)] == names
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, field)
    # the one visible change from the unslotted records: no instance dict
    with pytest.raises(TypeError):
        vars(record)


def test_replace_keeps_the_self_loop_check():
    with pytest.raises(ValueError, match="self-loop arc on unit 1"):
        dataclasses.replace(arc(1, 2), head=1)


@pytest.mark.parametrize(
    "record, change, message",
    [
        (Span(1, 5), {"end": 1}, "invalid span [1, 1)"),
        (SLOTTED_RECORDS["PdtbRelation"][0], {"senses": ()}, "relation must carry at least one sense"),
        (SLOTTED_RECORDS["PdtbRelation"][0], {"arg2_spans": ()}, "Explicit relation with empty argument spans"),
    ],
)
def test_replace_keeps_the_record_checks(record, change, message):
    with pytest.raises(ValueError) as err:
        dataclasses.replace(record, **change)
    assert str(err.value) == message


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 9)), max_size=8))
def test_spans_sort_by_start_then_end(bounds):
    spans = [Span(start, start + length) for start, length in bounds]
    assert [(s.start, s.end) for s in sorted(spans)] == sorted((s.start, s.end) for s in spans)
    for a, b in zip(spans, spans[1:]):
        x, y = (a.start, a.end), (b.start, b.end)
        assert (a < b, a == b, a > b) == (x < y, x == y, x > y)


class TestDependencyGraph:
    @pytest.mark.parametrize(
        "first, second, fmts",
        [
            (SenseTag.parse("a..c"), SenseTag("a", "c"), ("csv", "json")),
            (SenseTag("a.b"), SenseTag("a", "b"), ("csv", "json")),
            # csv writes an absent level as "", so it refuses a level ""
            (SenseTag("a", "", "c"), SenseTag("a", None, "c"), ("json",)),
        ],
    )
    def test_arcs_whose_senses_print_alike_have_one_order(self, first, second, fmts):
        assert first != second and str(first) == str(second)
        arcs = [DependencyArc(1, 2, first), DependencyArc(1, 2, second)]
        one, other = forest(2, arcs), forest(2, arcs[::-1])
        assert one == other
        for fmt in fmts:
            assert write_dep(one, fmt) == write_dep(other, fmt)


class TestValidateGraph:
    def test_wsj_graph_is_clean(self, wsj_graph):
        assert validate_graph(wsj_graph) == []
        dependents = [a.dependent for a in wsj_graph.arcs]
        assert len(dependents) == len(set(dependents))

    def test_multiple_heads_reported(self):
        diags = validate_graph(forest(3, [arc(1, 2), arc(1, 3)]))
        assert any(d.code == "multiple-heads" and "unit 1" in d.message for d in diags)

    def test_two_cycle_reported(self):
        diags = validate_graph(forest(2, [arc(1, 2), arc(2, 1)]))
        assert sum(d.code == "cycle" for d in diags) == 1

    def test_one_cycle_line_per_component_in_sorted_order(self):
        # 1 -> 3 -> 2 -> 1 and 2 -> 4 -> 2 share unit 2: one component
        arcs = [arc(1, 3), arc(3, 2), arc(2, 1), arc(2, 4), arc(4, 2), arc(6, 5), arc(5, 6)]
        cycles = [d.message for d in validate_graph(forest(6, arcs)) if d.code == "cycle"]
        assert cycles == [
            "dependency cycle through units 1, 2, 3, 4",
            "dependency cycle through units 5, 6",
        ]

    def test_long_chain_and_dense_forest_validate_fast(self):
        # a single-headed chain of 1,199 arcs, and an acyclic forest where
        # unit i has heads i+1 and i+2: simple-path enumeration is cubic on
        # the first and exponential on the second
        chain = forest(1200, [arc(i, i + 1) for i in range(1, 1200)])
        dense = forest(40, [arc(i, h) for i in range(1, 40) for h in (i + 1, i + 2) if h <= 40])
        for graph in (chain, dense):
            start = time.perf_counter()
            diags = validate_graph(graph)
            assert time.perf_counter() - start < 2
            assert not any(d.code == "cycle" for d in diags)

    def test_forest_rejects_root_arc(self):
        diags = validate_graph(forest(2, [arc(1, 0)]))
        assert any(d.code == "unexpected-root" for d in diags)

    def test_rooted_tree_happy_path(self):
        diags = validate_graph(rooted(2, [arc(1, 2), arc(2, 0)]))
        assert diags == []

    def test_rooted_tree_missing_root_and_heads(self):
        diags = validate_graph(rooted(3, [arc(1, 2)]))
        codes = {d.code for d in diags}
        assert "root-count" in codes
        assert "unattached-units" in codes

    def test_unit_out_of_range(self):
        diags = validate_graph(forest(2, [arc(1, 5)]))
        assert any(d.code == "unit-out-of-range" for d in diags)

    def test_valid_forest_has_at_most_n_minus_1_arcs(self, wsj_graph):
        assert len(wsj_graph.arcs) <= wsj_graph.unit_count - 1


def _merge_overlapping(cycles):
    """Union of the cycles that share units, transitively: the cyclic components."""
    groups: list[set[int]] = []
    for cycle in cycles:
        group = set(cycle)
        for other in [g for g in groups if g & group]:
            groups.remove(other)
            group |= other
        groups.append(group)
    return sorted(sorted(g) for g in groups)


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(1, n), st.integers(0, n)).filter(lambda t: t[0] != t[1]),
            max_size=3 * n,
        )
    )
)
def test_components_match_simple_cycle_enumeration(pairs):
    """Every unit on a simple cycle is in a reported component, and the
    components are exactly the groups of cycles that share units."""
    arcs = tuple(arc(dep, head) for dep, head in pairs)
    assert _cycles(_by_dependent(arcs)) == _merge_overlapping(seed_model.cycles(arcs))


_SENSES = st.sampled_from([SenseTag("Expansion"), SenseTag("Contrast", "x"), SenseTag("Cause", "y", "z")])


@st.composite
def anomalous_graphs(draw):
    """Graphs of either flavor over 0-8 units whose ids run from -1 to n + 2:
    root arcs, out-of-range units, multiple heads and repeated
    dependent/head pairs with different senses."""
    n = draw(st.integers(0, 8))
    ids = st.integers(-1, n + 2)
    triples = draw(st.lists(st.tuples(ids, ids, _SENSES).filter(lambda t: t[0] != t[1]), max_size=12))
    flavor = draw(st.sampled_from(GraphFlavor))
    return DependencyGraph("doc", n, tuple(DependencyArc(*t) for t in triples), flavor)


@settings(deadline=None, max_examples=500)
@given(anomalous_graphs())
def test_validate_graph_matches_seed_validator(graph):
    """The same diagnostics in the same order as the validator with its own
    side indexes, except that a dependent equal to ROOT is now out of range:
    each such arc adds its ``references unit 0`` line, and arc-count, which
    is emitted only when nothing else is, then drops out."""
    new, old = validate_graph(graph), seed_model.validate_graph(graph)
    zero_dependents = sum(a.dependent == ROOT for a in graph.arcs)
    added = [d for d in new if d.code == "unit-out-of-range" and "references unit 0 outside" in d.message]
    assert len(added) == zero_dependents
    if zero_dependents:
        old = [d for d in old if d.code != "arc-count"]
    assert [d for d in new if d not in added] == old


# absent, empty and dotted levels, so that unequal senses print alike
_LEVELS = st.sampled_from([None, "", "a", "a.", ".b"])
_ANY_SENSE = st.builds(SenseTag, _LEVELS, _LEVELS, _LEVELS)


@given(st.lists(st.tuples(st.integers(1, 2), st.integers(0, 1), _ANY_SENSE), max_size=8))
@example([(1, 0, SenseTag(*levels)) for levels in [(None, "a"), ("", "a"), ("a", None, "c"), ("a", "c")]])
@example([(1, 0, SenseTag(*levels)) for levels in [("a.b",), ("a", "b"), ("a", "", None), ("a", "", "")]])
def test_arc_order_compares_as_seed_key(triples):
    """The key with the memoized sense part orders every pair of arcs as the
    key that built the whole tuple per arc."""
    arcs = [DependencyArc(*t) for t in triples if t[0] != t[1]]
    for a in arcs:
        for b in arcs:
            new, old = (_arc_order(a), _arc_order(b)), (seed_model._arc_order(a), seed_model._arc_order(b))
            assert (new[0] < new[1], new[0] == new[1]) == (old[0] < old[1], old[0] == old[1])
    assert sorted(arcs, key=_arc_order) == sorted(arcs, key=seed_model._arc_order)


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2), _ANY_SENSE), max_size=10), st.randoms())
def test_graph_orders_arcs_by_the_seed_key(triples, random):
    """Arcs given in any order come out in the seed key's order, whether or
    not two of them share both ends."""
    arcs = [DependencyArc(*t) for t in triples if t[0] != t[1]]
    expected = tuple(sorted(arcs, key=seed_model._arc_order))
    random.shuffle(arcs)
    assert forest(3, arcs).arcs == expected
