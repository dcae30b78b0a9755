"""Differential tests: the bounded alignment sweep against the full-scan seed."""

import math

import pytest
from hypothesis import given, strategies as st

import seed_align
from discodep import Document, Span, map_span_set, resolve_span_set
from discodep.align import EmptyAlignment


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


def _resolve(fn, spans, doc, theta):
    """Resolved units and diagnostic lines, or the EmptyAlignment message."""
    diagnostics = []
    try:
        units = fn(spans, doc, theta, diagnostics, context="line 7 Arg2")
    except EmptyAlignment as err:
        return "EmptyAlignment", str(err)
    return units, [str(d) for d in diagnostics]


@given(data=st.data(), theta=_thetas, as_generator=st.booleans())
def test_sweep_matches_full_scan(data, theta, as_generator):
    doc = data.draw(inventories())
    spans = data.draw(argument(doc))

    def arg():
        return (s for s in spans) if as_generator else list(spans)

    assert map_span_set(arg(), doc, theta) == seed_align.map_span_set(spans, doc, theta)
    assert _resolve(resolve_span_set, arg(), doc, theta) == _resolve(
        seed_align.resolve_span_set, spans, doc, theta
    )


@given(data=st.data(), theta=_bad_thetas)
def test_out_of_range_theta_raises_before_empty_alignment(data, theta):
    doc = data.draw(inventories())
    spans = data.draw(argument(doc))
    for fn in (map_span_set, seed_align.map_span_set):
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
