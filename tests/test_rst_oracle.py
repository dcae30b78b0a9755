"""Differential tests: the iterative RST route against the recursive seed route."""

from itertools import pairwise

import pytest
from hypothesis import given, settings, strategies as st

import seed_rst
from discodep import (
    Nuclearity,
    RstChild,
    RstInternal,
    RstLeaf,
    RstTree,
    binarize,
    hirao_convert,
    li_convert,
    parse_dis,
    pretty_print,
)
from discodep.rst import DisParseError, _tokenize

N = Nuclearity.NUCLEUS
S = Nuclearity.SATELLITE


def _tokens(text):
    return [(kind, value) for kind, value, _ in _tokenize(text)]


_relations = st.sampled_from(["span", "elaboration", "List", "Same-Unit", "attribution", "Contrast", "_!x"])
_fragments = st.text(alphabet='ab \\"(),.\n\t', min_size=1, max_size=12).filter(
    lambda t: t.strip() == t and not t.endswith("\\")
)


@st.composite
def rst_trees(
    draw, max_leaves=60, fragments=_fragments, relations=_relations, max_children=4, loose=False
):
    """Random n-ary trees: 2 to ``max_children`` children per node, at least
    one Nucleus each.

    Nodes whose first two children are satellites give satellite-only
    groups once binarized. ``loose`` also draws single-child nodes (the
    root included) and satellite-only nodes.
    """
    with_text = draw(st.booleans())

    def build(lo, hi, wrap=loose):
        if wrap and draw(st.integers(0, 3)) == 0:
            only = RstChild(build(lo, hi, wrap=False), draw(st.sampled_from([N, S])), draw(relations))
            return RstInternal((only,))
        if lo == hi:
            return RstLeaf(lo, draw(fragments) if with_text else None)
        k = draw(st.integers(2, min(max_children, hi - lo + 1)))
        cuts = draw(st.lists(st.integers(lo + 1, hi), min_size=k - 1, max_size=k - 1, unique=True))
        nuclearity = draw(st.lists(st.sampled_from([N, S]), min_size=k, max_size=k))
        if N not in nuclearity:
            at = draw(st.integers(0, k if loose else k - 1))
            if at < k:  # a loose tree keeps a satellite-only node at k
                nuclearity[at] = N
        bounds = pairwise([lo, *sorted(cuts), hi + 1])
        return RstInternal(
            tuple(
                RstChild(build(a, b - 1), nuc, draw(relations))
                for (a, b), nuc in zip(bounds, nuclearity)
            )
        )

    return RstTree(build(1, draw(st.integers(1, max_leaves))), doc_id="h")


@settings(max_examples=100, deadline=None)
@given(tree=rst_trees())
def test_converters_and_binarization_match_seed(tree):
    assert hirao_convert(tree) == seed_rst.percolate(tree)
    assert binarize(tree) == seed_rst.binarize(tree)
    assert li_convert(tree) == seed_rst.percolate(seed_rst.binarize(tree))


@settings(max_examples=100, deadline=None)
@given(tree=rst_trees())
def test_printer_tokens_and_parser_match_seed(tree):
    text = pretty_print(tree)
    assert text == seed_rst.pretty_print(tree)
    assert _tokens(text) == seed_rst.tokenize(text)
    assert parse_dis(text, "h") == seed_rst.parse_dis(text, "h") == tree


@settings(max_examples=200, deadline=None)
@given(tree=rst_trees(max_leaves=40, max_children=7, loose=True))
def test_li_equals_percolating_the_binarized_tree(tree):
    # li never builds the binarization; binarize stays its oracle
    assert li_convert(tree) == hirao_convert(binarize(tree)) == li_convert(binarize(tree))


@settings(max_examples=300, deadline=None)
@given(tree=rst_trees(max_leaves=4, fragments=st.text(), relations=st.text(), loose=True))
def test_printer_refuses_what_the_parser_reads_back_differently(tree):
    try:
        text = pretty_print(tree)
    except ValueError:
        return
    assert parse_dis(text, "h") == tree


@pytest.mark.parametrize("relation", ["", "same  unit", "a\tb", " x", "a(b", "b)"])
def test_printer_refuses_a_relation_the_parser_reads_differently(relation):
    tree = RstTree(RstInternal((RstChild(RstLeaf(1), N, relation), RstChild(RstLeaf(2), S, "x"))))
    with pytest.raises(ValueError, match="relation"):
        pretty_print(tree)


@pytest.mark.parametrize("relation", ["_!x", "a _!b"])
def test_a_relation_with_a_text_delimiter_word_round_trips(relation):
    # _! opens a text fragment only as the argument of a text key
    tree = RstTree(RstInternal((RstChild(RstLeaf(1, "a"), N, relation), RstChild(RstLeaf(2, "b"), S, "x"))))
    assert parse_dis(pretty_print(tree)) == seed_rst.parse_dis(pretty_print(tree)) == tree


# binarize groups the leading satellites of S,S,N into a satellite-only node
_SSN = RstTree(RstInternal(tuple(RstChild(RstLeaf(i), nuc, "x") for i, nuc in enumerate((S, S, N), 1))))


@pytest.mark.parametrize(
    "root, message",
    [
        (binarize(_SSN).root, "^node over leaves 1..2 has no Nucleus child$"),
        (RstInternal((RstChild(RstLeaf(1), N, "span"),)), "^root over leaves 1..1 has a single leaf child$"),
    ],
    ids=["satellite-only", "root-over-one-leaf"],
)
def test_printer_refuses_a_node_the_parser_reads_back_differently(root, message):
    with pytest.raises(ValueError, match=message):
        pretty_print(RstTree(root))


def test_printer_refuses_a_fragment_holding_the_text_delimiter():
    tree = RstTree(RstInternal((RstChild(RstLeaf(1, "a_!"), N, "span"), RstChild(RstLeaf(2), S, "x"))))
    with pytest.raises(ValueError, match="leaf 1"):
        pretty_print(tree)


@given(text=st.lists(st.sampled_from([*"()_! ab\n\t\u00a0\u2003\\", "text"])).map("".join))
def test_tokens_match_seed_on_arbitrary_text(text):
    assert _tokens(text) == seed_rst.tokenize(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except DisParseError as err:
        return type(err), str(err)


# each input holds exactly one defect
SINGLE_DEFECTS = [
    "",
    "   \n",
    "Root",
    "(",
    "( )",
    "( Root",
    "( Root (span 1 2)",
    "( Nucleus (leaf 1) )",
    "( Root ( Nucleus (leaf 1) ) ) )",
    "( Root ( Nucleus (leaf 1) ) ) ( Root )",
    "( Root ( Nucleus (leaf 1) ) junk )",
    "( Root ( Nucleus (leaf 1) ) _!text_! )",
    "( Root ( Nucleus (leaf 1) ) ( ( x ) ) )",
    "( Root ( Nucleus (leaf 1) ) ( )",
    "( Root ( Nucleus (leaf 1) (rel2par span )",
    "( Root ( Nucleus (leaf 1) ) ( Satellite ) )",
    "( Root ( Satellite (leaf 1) ) ( Satellite (leaf 2) ) )",
    "( Root ( Nucleus (leaf 1) ) ( Root (leaf 2) ) )",
    "( Root ( Nucleus (leaf 1) ) ( Nucleus (leaf 3) ) )",
    "( Root ( Nucleus (leaf 2) ) ( Nucleus (leaf 1) ) )",
    "( Root (span 1 3) ( Nucleus (leaf 1) ) ( Nucleus (leaf 2) ) )",
    "( Root (span 2 2) ( Nucleus (leaf 1) ) )",
    "( Root (span 1 3) ( Nucleus (leaf 1) ) ( Satellite (span 2 3)"
    " ( Satellite (leaf 2) ) ( Satellite (leaf 3) ) ) )",
    # the leaves under a leaf node are dropped, so the tree's leaves are not 1..n
    "( Root ( Nucleus (leaf 2) ( Nucleus (leaf 1) ) ) ( Satellite (leaf 3) ) )",
    "( Root ( Nucleus (leaf 1) ) ( Satellite (leaf 3) ( Nucleus (leaf 2) ) ) )",
]

# these still parse: a lone Satellite leaf under Root, or a Root-labelled
# one, is unwrapped; the children of a leaf node are ignored
ACCEPTED_ODDITIES = [
    "( Root (span 1 1) ( Satellite (leaf 1) (rel2par elaboration) ) )",
    "( Root ( Root (leaf 1) ) )",
    "( Root (leaf 1) )",
    "( Root ( Nucleus (leaf 1) ( Nucleus (leaf 7) ) ) ( Satellite (leaf 2) ) )",
    "( Root ( Nucleus (leaf 1) ( Nucleus (leaf 1) ) ) ( Satellite (leaf 2) ) )",
    "( Root ( Nucleus (leaf 1) (rel2par) (Promotion 1 (x y)) ) ( Satellite (leaf 2) ) )",
]


@pytest.mark.parametrize("text", SINGLE_DEFECTS + ACCEPTED_ODDITIES)
def test_single_defect_outcomes_match_seed(text):
    assert _outcome(parse_dis, text) == _outcome(seed_rst.parse_dis, text)


@pytest.mark.parametrize(
    "attribute", ["(leaf x)", "(leaf)", "(leaf 1 2)", "(span 1)", "(span 1 x)", "(text)"]
)
def test_malformed_attribute_is_a_parse_error(attribute):
    text = f"( Root ( Nucleus (leaf 1) {attribute} ) ( Satellite (leaf 2) ) )"
    with pytest.raises(DisParseError, match="malformed"):
        parse_dis(text)


@pytest.mark.parametrize("text", SINGLE_DEFECTS + ACCEPTED_ODDITIES)
def test_single_defect_outcomes_match_token_parser(text):
    assert _outcome(parse_dis, text) == _outcome(seed_rst.token_parse_dis, text)


# attribute lists that the scanner must leave to the token path, and
# inputs where a whole-list match would read different tokens than _TOKEN
TOKEN_PATH_CASES = [
    "( Root ( Nucleus (leaf 1) (text_!x_!) ) )",
    "( Root ( Nucleus (leaf 1) (text _!a_! b) ) )",
    "( Root ( Nucleus (leaf 1) (text _!a_! b _!) ) ( Satellite (leaf 2) ) )",
    "( Root ( Nucleus (leaf 1) (text _!a_!_!) ) ( Satellite (leaf 2) (text _!b_!) ) )",
    "( Root ( Nucleus (leaf 1) (text _!a_!) _!b_! ) )",
    "( Root ( Nucleus (leaf 1) (text _!a_!)_!) ) )",
    "( Root ( Nucleus (leaf 1) (text _!a) ( Satellite (leaf 2) ) _!) ) )",
    "( Root ( Nucleus (leaf 1) (rel2par _!x_! y) ) ( Satellite (leaf 2) ) )",
    "( Root ( Nucleus (leaf 1) (rel2par _!x) ) ( Satellite (leaf 2) ) )",
    "( Root ( Nucleus (leaf 1) (rel2par a_!b) ) ( Satellite (leaf 2) ) )",
    "( Root ( Nucleus (leaf +1) ) ( Satellite (leaf 2) ) )",
    "( Root ( Nucleus (leaf ١) ) ( Satellite (leaf 2) ) )",
    "( Root (span 1 ٢) ( Nucleus (leaf 1) ) ( Satellite (leaf 2) ) )",
    "( Root ( Nucleus (leaf 1x) ) ( Satellite (leaf 2) ) )",
    "( Root ( Nucleus (leaf 1_0) ) ( Satellite (leaf 2) ) )",
    "( Root (span 1 2 ) ( Nucleus (leaf 1) ) ( Satellite (leaf 2) ) )",
    "( Root ( Nucleus (leaf 1 ) (Promotion 1) ) ( Satellite (leaf 2) (rel2par (a b) c) ) )",
    "( Root ( Nucleusx (leaf 1) ) )",
    "( Root ( Nucleus_!x_! (leaf 1) ) )",
    "( Root (Root_!x_!) ( Nucleus (leaf 1) ) )",
    "(Root(Nucleus(leaf 1)(text _!a_!))(Satellite(leaf 2)(rel2par x)))",
    " ( Root ( Nucleus (leaf 1) ) ( Satellite (leaf 2) ) ) ",
    "( Root ( Nucleus (leaf 1) ) ( Satellite (leaf 2) ) ) x",
    "( Root ( Nucleus (leaf 1) ) ( Satellite (leaf 2) ) ) _!x",
    "( Rootx ( Nucleus (leaf 1) ) )",
    "_!( Root_! ( Nucleus (leaf 1) ) )",
]


@pytest.mark.parametrize("text", TOKEN_PATH_CASES)
def test_token_path_outcomes_match_token_parser(text):
    assert _outcome(parse_dis, text) == _outcome(seed_rst.token_parse_dis, text)


def _two_leaves(first: str, second: str = "( Satellite (leaf 2) )") -> str:
    return f"( Root (span 1 2) {first} {second} )"


# whole leaf nodes and node headers that one match reads, next to their
# near misses, which the single-list alternatives or the token path read
WHOLE_UNIT_CASES = [
    _two_leaves("( Nucleus (leaf 1) )"),
    _two_leaves("( Nucleus (leaf 1) (rel2par x) )"),
    _two_leaves("( Nucleus (leaf 1) (text _!a_!) )"),
    _two_leaves("( Nucleus (leaf 1) (rel2par x) (text _!a_!) )", "( Satellite (leaf 2) (rel2par y) (text _!b_!) )"),
    _two_leaves("( Nucleus (leaf 1) (rel2par) )", "( Satellite (leaf 2) (rel2par ) (text _!b_!) )"),
    _two_leaves("( Nucleus (leaf 1) (rel2par  same-unit   x\ty ) )"),
    _two_leaves("( Nucleus (leaf 1) (text _!a_b (c) _ !\nd\\e_!) )"),
    _two_leaves("( Nucleus (leaf 1) (text _!_!) )", "( Satellite (leaf 2) (text _!_ _!) )"),
    _two_leaves("(\tNucleus\n(leaf\t1)\n\t(rel2par\nx)\n(text\t_!a_!\n)\n)"),
    _two_leaves("(Nucleus(leaf 1)(rel2par x)(text _!a_!))", "(Satellite(leaf 2))"),
    _two_leaves("( Nucleus (leaf 1) (text _!a_!) (rel2par x) )"),
    _two_leaves("( Nucleus (rel2par x) (leaf 1) )"),
    _two_leaves("( Nucleus (leaf 1) (rel2par x) (rel2par y) )"),
    _two_leaves("( Nucleus (leaf 1) (leaf 1) )"),
    _two_leaves("( Nucleus (leaf 1) (Promotion 1) )"),
    _two_leaves("( Nucleus (leaf 1) (rel2par x) (Promotion 1) )"),
    _two_leaves("( Nucleus (leaf 1) (rel2par x) (text _!a_!) (Promotion 1) )"),
    _two_leaves("( Nucleus (leaf 1) (rel2par x (y)) )"),
    _two_leaves("( Nucleus (leaf 1) (text _!a_! b) )"),
    _two_leaves("( Nucleus (leaf 1) ( Satellite (leaf 7) ) )"),
    _two_leaves("( Satellite (leaf 1) )"),
    _two_leaves("( Satellite (leaf 1) )", "( Root (leaf 2) )"),
    _two_leaves("( Nucleus (leaf 1) (rel2par x) )", "( Satellite (leaf 3) )"),
    "( Root ( Satellite (leaf 1) (rel2par x) (text _!a_!) ) )",
    "( Root ( Nucleus (leaf 1) (rel2par x) ) )",
    "( Root ( Nucleus (span 1 2) (rel2par x) ( Nucleus (leaf 1) ) ( Satellite (leaf 2) ) ) )",
    "( Root ( Nucleus (span 1 2) ( Nucleus (leaf 1) ) ( Satellite (leaf 2) ) ) )",
    "( Root ( Nucleus\n(span\t1 2)\n(rel2par\tx  y) ( Nucleus (leaf 1) ) ( Satellite (leaf 2) ) ) )",
    "( Root ( Nucleus (span 1 2) (rel2par x) (text _!a_!) ( Nucleus (leaf 1) ) ( Satellite (leaf 2) ) ) )",
    "( Root ( Nucleus (rel2par x) (span 1 2) ( Nucleus (leaf 1) ) ( Satellite (leaf 2) ) ) )",
    "( Root ( Nucleus (span 1 2) (rel2par x) (leaf 1) ) ( Satellite (leaf 2) ) )",
    "( Root ( Nucleus (span 1 2) (rel2par x (y)) ( Nucleus (leaf 1) ) ( Satellite (leaf 2) ) ) )",
    "( Root ( Satellite (span 1 2) (rel2par x) ( Satellite (leaf 1) ) ( Satellite (leaf 2) ) ) )",
    "( Root ( Satellite (span 1 2) ( Nucleus (leaf 1) ) ( Root (leaf 2) ) ) )",
    "( Root ( Nucleus (span 1 2) ) )",
    "( Root ( Nucleus (span 1 2) (rel2par x)",
    "( Root ( Nucleus (leaf 1) (rel2par x)",
    "( Root ( Nucleus (leaf 1) (rel2par x) (text _!a",
]


@pytest.mark.parametrize("text", WHOLE_UNIT_CASES)
def test_whole_unit_outcomes_match_token_parser(text):
    assert _outcome(parse_dis, text) == _outcome(seed_rst.token_parse_dis, text)


_DIS_FRAGMENTS = st.sampled_from(
    ["(", ")", "Root", "Nucleus", "Satellite", "leaf", "span", "rel2par", "text", "Promotion"]
    + ["_!", "1", "2", "+1", "\u0661", "x", "\\", " ", "\n", "\u00a0"]
)
# whole units and list openers, so that fragments also land within and
# between well-formed lists
_DIS_UNITS = st.sampled_from(
    ["( Nucleus", "( Satellite", "(leaf 1)", "(leaf 2)", "(span 1 2)", "(rel2par x y)", "(text _!a_!)", " )"]
    + ["(leaf ", "(span ", "(rel2par ", "(text _!"]
)


@settings(max_examples=1000, deadline=None)
@given(opened=st.booleans(), parts=st.lists(_DIS_FRAGMENTS | _DIS_UNITS, max_size=60))
def test_scanner_matches_token_parser_on_fragments(opened, parts):
    text = "( Root " * opened + "".join(parts)
    assert _outcome(parse_dis, text) == _outcome(seed_rst.token_parse_dis, text)


@settings(max_examples=500, deadline=None)
@given(
    tree=rst_trees(max_leaves=8),
    edits=st.lists(st.tuples(st.integers(0, 10**4), st.none() | _DIS_FRAGMENTS), max_size=4),
)
def test_scanner_matches_token_parser_on_edited_trees(tree, edits):
    # each edit deletes the character at an offset (None) or inserts a fragment
    text = pretty_print(tree)
    for at, fragment in edits:
        at %= len(text) + 1
        text = text[:at] + (fragment or "") + text[at + (fragment is None) :]
    assert _outcome(parse_dis, text) == _outcome(seed_rst.token_parse_dis, text)


_SIDES = st.sampled_from(["Nucleus", "Nucleus", "Satellite"])


@st.composite
def dis_texts(draw):
    """.dis text of a small tree. Leaves mostly take the next index, else any
    of 1..4, and a leaf node sometimes holds nodes of its own, whose leaves
    take indices too, before or after the leaf node's own, but are dropped:
    the scanner's leaf count must not see them."""
    count = 0

    def node(label, depth):
        nonlocal count
        if depth == 3 or draw(st.integers(0, 2)) == 0:
            inner_first = draw(st.booleans())
            inner = [node(draw(_SIDES), depth + 1) for _ in range(draw(st.integers(0, 2)) * (depth < 3) * inner_first)]
            count += 1
            index = count if draw(st.integers(0, 3)) else draw(st.integers(1, 4))
            inner += [node(draw(_SIDES), depth + 1) for _ in range(draw(st.integers(0, 2)) * (depth < 3) * (not inner_first))]
            # a relation before the leaf list leaves the node to the token path
            head = draw(st.sampled_from([f"(leaf {index})", f"(leaf {index}) (rel2par x)", f"(rel2par x) (leaf {index})"]))
            return f"( {label} {head} {' '.join(inner)} )"
        children = [node(draw(_SIDES), depth + 1) for _ in range(draw(st.integers(1, 3)))]
        return f"( {label} {' '.join(children)} )"

    return node("Root", 0)


@settings(max_examples=500, deadline=None)
@given(text=dis_texts())
def test_a_parsed_tree_is_the_tree_of_its_root(text):
    outcome = _outcome(parse_dis, text)
    assert outcome == _outcome(seed_rst.token_parse_dis, text)
    if isinstance(outcome, RstTree):
        checked = RstTree(outcome.root, outcome.doc_id)
        assert outcome == checked and outcome.leaf_count == checked.leaf_count
