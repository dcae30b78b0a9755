import pytest

from discodep import Nuclearity, RstChild, RstInternal, RstLeaf, edu_inventory_of, parse_dis, pretty_print
from discodep import rst
from discodep.rst import (
    FragmentNotFound,
    MissingNuclearity,
    NonContiguousLeaves,
    UnbalancedParens,
)

MINIMAL = """
( Root (span 1 2)
  ( Satellite (leaf 1) (rel2par condition) (text _!if it rains,_!) )
  ( Nucleus (leaf 2) (rel2par span) (text _!we stay home._!) )
)
"""

MULTINUCLEAR = """
( Root (span 1 3)
  ( Nucleus (leaf 1) (rel2par span) (text _!one_!) )
  ( Nucleus (span 2 3) (rel2par List)
    ( Nucleus (leaf 2) (rel2par List) (text _!two_!) )
    ( Nucleus (leaf 3) (rel2par List) (text _!three_!) )
  )
)
"""


def test_minimal_mono_nuclear_tree():
    tree = parse_dis(MINIMAL)
    assert tree.leaf_count == 2
    root = tree.root
    assert isinstance(root, RstInternal)
    first, second = root.children
    assert first.nuclearity is Nuclearity.SATELLITE
    assert first.relation == "condition"
    assert isinstance(first.node, RstLeaf) and first.node.edu_index == 1
    assert second.nuclearity is Nuclearity.NUCLEUS
    assert second.relation == "span"


def test_multi_nuclear_children_both_nucleus():
    tree = parse_dis(MULTINUCLEAR)
    inner = tree.root.children[1].node
    assert all(c.nuclearity is Nuclearity.NUCLEUS for c in inner.children)


def test_fig1_fixture_parses(fig1_tree):
    assert fig1_tree.leaf_count == 11


def test_round_trip_pretty_print(fig1_tree):
    assert parse_dis(pretty_print(fig1_tree)).root == fig1_tree.root
    minimal = parse_dis(MINIMAL)
    assert parse_dis(pretty_print(minimal)).root == minimal.root


def test_deep_tree_round_trip(deep_dis_text):
    tree = parse_dis(deep_dis_text)
    assert tree.leaf_count == 1200
    # compare printed text: dataclass == recurses on a tree this deep
    text = pretty_print(tree)
    assert pretty_print(parse_dis(text)) == text
    assert text.count("(leaf ") == 1200


def test_unbalanced_parens():
    with pytest.raises(UnbalancedParens):
        parse_dis("( Root (span 1 2) ( Nucleus (leaf 1) (rel2par span) )")


def test_missing_nuclearity():
    text = """
    ( Root (span 1 2)
      ( Satellite (leaf 1) (rel2par condition) )
      ( Satellite (leaf 2) (rel2par result) )
    )
    """
    with pytest.raises(MissingNuclearity):
        parse_dis(text)


def test_non_contiguous_leaves():
    text = """
    ( Root (span 1 2)
      ( Satellite (leaf 1) (rel2par condition) )
      ( Nucleus (leaf 3) (rel2par span) )
    )
    """
    with pytest.raises(NonContiguousLeaves):
        parse_dis(text)


def test_root_span_must_match_leaf_count():
    text = """
    ( Root (span 1 5)
      ( Satellite (leaf 1) (rel2par condition) )
      ( Nucleus (leaf 2) (rel2par span) )
    )
    """
    with pytest.raises(NonContiguousLeaves):
        parse_dis(text)


def test_single_leaf_root_wrapper():
    tree = parse_dis("( Root (span 1 1) ( Nucleus (leaf 1) (rel2par span) (text _!all of it_!) ) )")
    assert tree.leaf_count == 1
    assert isinstance(tree.root, RstLeaf)


def test_text_delimiter_outside_a_text_list_is_an_ordinary_character():
    # _! opens a fragment only as the argument of a text key, so this file
    # has two leaves, and leaf 1's relation is the word _!x
    tree = parse_dis("( Root ( Nucleus (leaf 1) (rel2par _!x) ) ( Satellite (leaf 2) (text _!b_!) ) )")
    assert tree.root == RstInternal(
        (
            RstChild(RstLeaf(1), Nuclearity.NUCLEUS, "_!x"),
            RstChild(RstLeaf(2, "b"), Nuclearity.SATELLITE, "span"),
        )
    )


def test_a_text_fragment_may_hold_parentheses():
    tree = parse_dis("( Root ( Nucleus (leaf 1) ( text _!a (b)_!) ) ( Satellite (leaf 2) ) )")
    assert tree.root.children[0].node == RstLeaf(1, "a (b)")


def test_byte_order_mark_is_skipped(tmp_path):
    assert parse_dis("\ufeff" + MINIMAL, "d") == parse_dis(MINIMAL, "d")
    # decoding a file skips its mark, so a second one is text
    path = tmp_path / "d.dis"
    path.write_text("\ufeff\ufeff" + MINIMAL, encoding="utf-8")
    with pytest.raises(UnbalancedParens, match="at token 0"):
        rst.parse_dis_file(path)


@pytest.fixture
def token_path_calls(monkeypatch):
    """Count the attribute lists that the scanner leaves to the token path."""
    calls = []
    read_attr = rst._read_attr

    def counting(text, pos, attrs):
        calls.append(pos)
        return read_attr(text, pos, attrs)

    monkeypatch.setattr(rst, "_read_attr", counting)
    return calls


def test_well_formed_files_take_no_token_path(fixtures_dir, deep_dis_text, token_path_calls):
    for name in ("fig1.dis", "fourleaf.dis"):
        rst.parse_dis_file(fixtures_dir / name)
    assert parse_dis(deep_dis_text).leaf_count == 1200
    assert token_path_calls == []


def test_a_promotion_set_takes_the_token_path(token_path_calls):
    tree = parse_dis("( Root ( Nucleus (leaf 1) (Promotion 1) ) ( Satellite (leaf 2) (rel2par x) ) )")
    assert tree.leaf_count == 2
    # the (leaf 1) and the (Promotion 1) after it
    assert token_path_calls == [16, 25]


class TestEduInventory:
    def test_fragments_partition_text(self):
        tree = parse_dis(MINIMAL)
        text = "if it rains, we stay home."
        doc = edu_inventory_of(tree, text, doc_id="d")
        assert doc.unit_count == 2
        assert text[doc.span_of(1).start : doc.span_of(1).end] == "if it rains,"
        assert text[doc.span_of(2).start : doc.span_of(2).end] == "we stay home."

    def test_escaped_characters_located_after_unescaping(self):
        dis = (
            '( Root (span 1 2)'
            ' ( Satellite (leaf 1) (rel2par attribution) (text _!He said \\"go home\\"_!) )'
            ' ( Nucleus (leaf 2) (rel2par span) (text _!and left._!) ) )'
        )
        tree = parse_dis(dis)
        text = 'He said "go home" and left.'
        doc = edu_inventory_of(tree, text, doc_id="d")
        assert text[doc.span_of(1).start : doc.span_of(1).end] == 'He said "go home"'

    def test_fragment_not_found(self):
        tree = parse_dis(MINIMAL)
        with pytest.raises(FragmentNotFound):
            edu_inventory_of(tree, "completely different text", doc_id="d")

    def test_missing_fragment_rejected(self):
        tree = parse_dis("( Root (span 1 1) ( Nucleus (leaf 1) (rel2par span) ) )")
        with pytest.raises(FragmentNotFound):
            edu_inventory_of(tree, "anything", doc_id="d")

    def test_blank_fragment_rejected(self):
        tree = parse_dis("( Root (span 1 1) ( Nucleus (leaf 1) (rel2par span) (text _!   _!) ) )")
        with pytest.raises(FragmentNotFound, match="leaf 1"):
            edu_inventory_of(tree, "anything", doc_id="d")
