"""Differential tests: the dependent-to-heads table against the seed attach loop."""

import random

from hypothesis import given, strategies as st

import seed_pdtb2dep
from discodep import (
    Document,
    PdtbRelation,
    RelationKind,
    SenseTag,
    Span,
    convert_pdtb,
)
from discodep.align import EmptyAlignment
from discodep.pdtb2dep import DEFAULT_HEAD_RULES, MARKED_IS_DEPENDENT, MARKED_IS_HEAD, _constituent_head

SENSES = [
    SenseTag("Expansion", "Conjunction"),
    SenseTag("Contingency", "Condition", "Arg2-as-cond"),
    SenseTag("Comparison", "Concession", "Arg1-as-denier"),
    SenseTag("Contingency", "Purpose", "Arg2-as-goal"),
    SenseTag("Contingency", "Purpose", "Arg1-as-goal"),
    SenseTag("Expansion", "Manner", "arg2-as-manner"),
    SenseTag("Temporal", "Asynchronous", "Succession"),
    SenseTag("EntRel"),
]

HEAD_RULES = st.one_of(
    st.none(),
    st.just(DEFAULT_HEAD_RULES),
    st.just({"purpose": MARKED_IS_DEPENDENT}),
    st.dictionaries(
        st.sampled_from(["purpose", "condition", "concession", "manner", "conjunction"]),
        st.sampled_from([MARKED_IS_DEPENDENT, MARKED_IS_HEAD]),
    ),
)


@st.composite
def inventories(draw):
    """Documents of 0-10 EDUs with random gaps between them."""
    edus = []
    pos = draw(st.integers(0, 3))
    for index in range(1, draw(st.integers(0, 10)) + 1):
        pos += draw(st.integers(0, 2))
        length = draw(st.integers(1, 8))
        edus.append((index, Span(pos, pos + length)))
        pos += length
    return Document("d", tuple(edus))


def _edu_range(draw, doc, first, last):
    """The span of EDUs first..last, sometimes cut short at either end."""
    start, end = doc.span_of(first).start, doc.span_of(last).end
    start += draw(st.integers(0, (end - start - 1) // 4))
    end -= draw(st.integers(0, (end - start - 1) // 4))
    return Span(start, end)


@st.composite
def argument(draw, doc):
    """1-3 spans, each over 1-4 EDUs or anywhere at all."""
    spans = []
    for _ in range(draw(st.integers(1, 3))):
        if doc.edus and draw(st.integers(0, 4)):
            first = draw(st.integers(1, doc.unit_count))
            last = draw(st.integers(first, min(first + 3, doc.unit_count)))
            spans.append(_edu_range(draw, doc, first, last))
        else:
            start = draw(st.integers(0, 80))
            spans.append(Span(start, start + draw(st.integers(1, 20))))
    return tuple(spans)


@st.composite
def argument_pair(draw, doc, pool):
    """Mostly two adjacent EDU ranges in either order, so that relations
    drawn over a few EDUs nest; else free arguments, some reused."""
    if doc.unit_count >= 2 and draw(st.integers(0, 3)):
        first = draw(st.integers(1, doc.unit_count - 1))
        last = draw(st.integers(first + 1, min(first + 5, doc.unit_count)))
        mid = draw(st.integers(first, last - 1))
        pair = [_edu_range(draw, doc, first, mid), _edu_range(draw, doc, mid + 1, last)]
        return tuple((span,) for span in (pair[::-1] if draw(st.booleans()) else pair))
    return tuple(
        draw(st.sampled_from(pool)) if pool and draw(st.booleans()) else draw(argument(doc))
        for _ in range(2)
    )


@st.composite
def relation_lists(draw, doc):
    """0-16 relations: NoRel rows, link groups, nested, overlapping and repeated arguments."""
    relations, pool = [], []
    for line_no in range(1, draw(st.integers(0, 16)) + 1):
        arg1, arg2 = draw(argument_pair(doc, pool))
        pool += [arg1, arg2]
        relations.append(
            PdtbRelation(
                kind=draw(st.sampled_from(list(RelationKind))),
                senses=(draw(st.sampled_from(SENSES)),),
                arg1_spans=arg1,
                arg2_spans=arg2,
                link_group=draw(st.sampled_from([None, None, None, "L1", "L2"])),
                raw_line_no=line_no,
            )
        )
    return relations


def _convert(fn, doc, relations, **options):
    """The graph and the diagnostics, or the EmptyAlignment message."""
    try:
        graph, diagnostics = fn(doc, relations, **options)
    except EmptyAlignment as err:
        return "EmptyAlignment", str(err)
    return graph, diagnostics


@given(
    data=st.data(),
    theta=st.sampled_from([0.5, 1.0, 1e-9]),
    head_rules=HEAD_RULES,
)
def test_head_table_matches_seed_loop(data, theta, head_rules):
    doc = data.draw(inventories())
    relations = data.draw(relation_lists(doc))
    options = dict(theta=theta, head_rules=head_rules)
    assert _convert(convert_pdtb, doc, relations, **options) == _convert(
        seed_pdtb2dep.convert_pdtb, doc, relations, **options
    )


def _table_head(units, arcs):
    """``_constituent_head`` over the dependent-to-heads table of ``arcs``."""
    heads = {}
    for dep, head in arcs:
        heads.setdefault(dep, []).append(head)
    return _constituent_head(units, heads)


def _head(fn, units, arcs):
    try:
        return fn(units, arcs)
    except ValueError as err:
        return "ValueError", str(err)


@given(
    units=st.sets(st.integers(1, 10), max_size=6),
    arcs=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=15),
)
def test_wrapper_matches_seed_head_of_constituent(units, arcs):
    assert _head(_table_head, units, arcs) == _head(
        seed_pdtb2dep.head_of_constituent, units, arcs
    )


def test_head_lookup_is_linear_in_relations(monkeypatch):
    """2,000 relations, one per EDU, over 1-3-EDU arguments: each argument
    checks its units' heads, not every arc built before it."""
    import discodep.pdtb2dep as pdtb2dep

    n = 2000
    rng = random.Random(6)
    doc = Document("d", tuple((i, Span(10 * (i - 1), 10 * i)) for i in range(1, n + 7)))
    relations = []
    for i in range(1, n + 1):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        relations.append(
            PdtbRelation(
                kind=RelationKind.IMPLICIT,
                senses=(rng.choice(SENSES),),
                arg1_spans=(Span(10 * (i - 1), 10 * (i - 1 + a)),),
                arg2_spans=(Span(10 * (i - 1 + a), 10 * (i - 1 + a + b)),),
                raw_line_no=i,
            )
        )
    checks = 0

    class CountingSet(set):
        def __contains__(self, item):
            nonlocal checks
            checks += 1
            return super().__contains__(item)

    resolve = pdtb2dep.resolve_span_set
    monkeypatch.setattr(
        pdtb2dep, "resolve_span_set", lambda *args, **kwargs: CountingSet(resolve(*args, **kwargs))
    )
    graph, diagnostics = convert_pdtb(doc, relations)
    assert len(graph.arcs) == n and diagnostics == []
    assert checks <= 20 * n
