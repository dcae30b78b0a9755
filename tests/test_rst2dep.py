import itertools
import pickle
import sys

import pytest

import discodep.model
import discodep.rst2dep
from discodep import (
    GraphFlavor,
    Nuclearity,
    RstChild,
    RstInternal,
    RstLeaf,
    RstTree,
    binarize,
    hirao_convert,
    li_convert,
    parse_dis,
    parse_dis_file,
    tree_heads,
    validate_graph,
    write_dep,
)
from discodep.rst2dep import apply_label_map, load_label_map

N = Nuclearity.NUCLEUS
S = Nuclearity.SATELLITE


def leaf(i):
    return RstLeaf(i)


def node(*children):
    return RstInternal(tuple(RstChild(n, nuc, rel) for n, nuc, rel in children))


def tree(root):
    return RstTree(root, doc_id="t")


def _nodes(root):
    """Every node under ``root``, without recursion."""
    stack = [root]
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, RstInternal):
            stack.extend(c.node for c in n.children)


TWO_LEAF = tree(node((leaf(1), S, "condition"), (leaf(2), N, "span")))


class TestTreeHeads:
    def test_single_nucleus(self):
        heads = tree_heads(TWO_LEAF)
        assert heads[TWO_LEAF.root] == 2

    def test_multinuclear_leftmost_wins(self):
        t = tree(node((leaf(1), N, "List"), (node((leaf(2), N, "List"), (leaf(3), N, "List")), N, "List")))
        inner = t.root.children[1].node
        heads = tree_heads(t)
        assert heads[inner] == 2
        assert heads[t.root] == 1

    def test_multinuclear_node_over_leaves_three_four(self):
        pair = node((leaf(3), N, "List"), (leaf(4), N, "List"))
        t = tree(node((leaf(1), N, "span"), (leaf(2), S, "elaboration"), (pair, S, "elaboration")))
        assert tree_heads(t)[pair] == 3

    def test_fig1_root_head(self, fig1_tree):
        assert tree_heads(fig1_tree)[fig1_tree.root] == 3

    def test_deep_tree(self, deep_dis_text):
        t = parse_dis(deep_dis_text)
        heads = tree_heads(t)
        assert len(heads) == 2 * 1200 - 1
        assert heads[t.root] == 1200
        assert sorted(h for n, h in heads.items() if isinstance(n, RstLeaf)) == list(range(1, 1201))

    def test_unpickled_node_rehashes(self):
        # a cached hash must not travel: str hashes differ between processes
        children = ((leaf(1), N, "span"), (leaf(2), S, "elaboration"))
        pair = node(*children)
        object.__setattr__(pair, "_hash", 0)
        assert hash(pickle.loads(pickle.dumps(pair))) == hash(node(*children))

    def test_the_document_path_hashes_no_node(self, fixtures_dir, deep_dis_text):
        for parse in (lambda: parse_dis_file(fixtures_dir / "fig1.dis"), lambda: parse_dis(deep_dis_text)):
            t = parse()
            for convert in (hirao_convert, li_convert):
                write_dep(convert(t), "conll")
            internal = [n for n in _nodes(t.root) if isinstance(n, RstInternal)]
            assert len(internal) > 1
            assert not [n for n in internal if hasattr(n, "_hash")]

    def test_hash_and_heads_of_a_deep_chain_need_no_recursion(self):
        depth = 5000
        assert sys.getrecursionlimit() < depth

        def chain(hash_each):
            # leaf k hangs off level k; the innermost level holds the last two leaves
            root = node((leaf(depth), N, "span"), (leaf(depth + 1), S, "elaboration"))
            for k in range(depth - 1, 0, -1):
                if hash_each:
                    hash(root)  # as a hash computed at construction was
                root = node((leaf(k), S, "elaboration"), (root, N, "span"))
            return root

        lazy, eager = chain(False), chain(True)
        assert not hasattr(lazy, "_hash")
        # compare hashes only: == still recurses on depth
        assert hash(lazy) == hash(eager)
        assert all(hasattr(n, "_hash") for n in _nodes(lazy) if isinstance(n, RstInternal))
        t = RstTree(chain(False))
        heads = tree_heads(t)
        assert len(heads) == 2 * depth + 1
        assert heads[t.root] == depth


class TestHiraoConvert:
    def test_two_leaf(self):
        graph = hirao_convert(TWO_LEAF)
        arcs = {(a.dependent, a.head): a for a in graph.arcs}
        assert set(arcs) == {(1, 2), (2, 0)}
        assert arcs[(1, 2)].sense.level1 == "condition"
        assert arcs[(2, 0)].sense.level1 == "ROOT"
        assert arcs[(2, 0)].sense.level2 == "NONE"

    def test_three_leaf_hand_trace(self):
        left = node((leaf(1), N, "span"), (leaf(2), S, "elab"))
        t = tree(node((left, N, "span"), (leaf(3), S, "result")))
        graph = hirao_convert(t)
        arcs = {(a.dependent, a.head): a.sense.level1 for a in graph.arcs}
        assert arcs == {(2, 1): "elab", (3, 1): "result", (1, 0): "ROOT"}

    def test_single_leaf(self):
        graph = hirao_convert(RstTree(leaf(1)))
        assert [(a.dependent, a.head) for a in graph.arcs] == [(1, 0)]

    def test_fig1_reproduces_published_rows(self, fig1_tree):
        graph = hirao_convert(fig1_tree)
        expected = {
            1: (3, 2, "preparation"),
            2: (3, 1, "circumstance"),
            3: (0, None, "ROOT"),
            4: (3, 1, "background"),
            5: (4, 1, "result"),
            6: (3, 3, "background"),
            7: (3, 4, "background"),
            8: (3, 5, "background"),
            9: (3, 6, "background"),
            10: (3, 7, "background"),
            11: (10, 1, "concession"),
        }
        assert graph.unit_count == 11
        for arc in graph.arcs:
            head, distance, relation = expected[arc.dependent]
            assert arc.head == head
            assert arc.distance == distance
            assert arc.sense.level1 == relation

    def test_output_is_valid_rooted_tree(self, fig1_tree):
        graph = hirao_convert(fig1_tree)
        assert graph.flavor is GraphFlavor.ROOTED_TREE
        assert validate_graph(graph) == []
        assert len(graph.arcs) == graph.unit_count


class TestLiConvert:
    def test_binary_tree_identical_to_hirao(self):
        assert li_convert(TWO_LEAF).arcs == hirao_convert(TWO_LEAF).arcs

    def test_three_child_multinuclear_list_same_as_hirao(self):
        t = tree(node((leaf(1), N, "List"), (leaf(2), N, "List"), (leaf(3), N, "List")))
        expected = {(1, 0), (2, 1), (3, 1)}
        assert {(a.dependent, a.head) for a in hirao_convert(t).arcs} == expected
        assert {(a.dependent, a.head) for a in li_convert(t).arcs} == expected

    def test_four_leaf_distinguishing_fixture(self, fixtures_dir):
        t = parse_dis((fixtures_dir / "fourleaf.dis").read_text(encoding="utf-8"))
        hirao = {(a.dependent, a.head) for a in hirao_convert(t).arcs}
        li = {(a.dependent, a.head) for a in li_convert(t).arcs}
        assert hirao != li
        assert (2, 3) in hirao and (2, 1) in li

    def test_single_leaf(self):
        graph = li_convert(RstTree(leaf(1)))
        assert [(a.dependent, a.head) for a in graph.arcs] == [(1, 0)]

    def test_binarize_preserves_leaf_order(self, fig1_tree):
        assert binarize(fig1_tree).root.leaf_indices == fig1_tree.root.leaf_indices


def _binary_shapes(indices):
    if len(indices) == 1:
        yield leaf(indices[0])
        return
    for split in range(1, len(indices)):
        for left in _binary_shapes(indices[:split]):
            for right in _binary_shapes(indices[split:]):
                yield (left, right)


def _assign(shape, assignment, it):
    if isinstance(shape, RstLeaf):
        return shape
    pair = assignment[next(it)]
    left = _assign(shape[0], assignment, it)
    right = _assign(shape[1], assignment, it)
    return node((left, pair[0], "rel_l"), (right, pair[1], "rel_r"))


def _internal_count(shape):
    return 0 if isinstance(shape, RstLeaf) else 1 + _internal_count(shape[0]) + _internal_count(shape[1])


def all_binary_trees(max_leaves):
    """Every binary tree shape up to max_leaves with every nuclearity assignment."""
    options = ((N, S), (S, N), (N, N))
    for n in range(1, max_leaves + 1):
        for shape in _binary_shapes(tuple(range(1, n + 1))):
            k = _internal_count(shape)
            if k == 0:
                yield RstTree(shape)
                continue
            for assignment in itertools.product(options, repeat=k):
                counter = iter(range(k))
                yield tree(_assign(shape, assignment, counter))


def test_li_equals_hirao_on_all_binary_trees_up_to_five_leaves():
    count = 0
    for t in all_binary_trees(5):
        assert li_convert(t).arcs == hirao_convert(t).arcs
        count += 1
    assert count > 500  # exhaustive enumeration really ran


def _ancestor_heads(t):
    """For each EDU, the heads of all subtrees containing it."""
    heads = tree_heads(t)
    table = {e: set() for e in range(1, t.leaf_count + 1)}

    def walk(n):
        for e in n.leaf_indices:
            table[e].add(heads[n])
        if isinstance(n, RstInternal):
            for child in n.children:
                walk(child.node)

    walk(t.root)
    return table


def test_head_percolation_soundness_brute_force():
    # every non-root arc must point at the head of an ancestor subtree
    for t in all_binary_trees(5):
        ancestors = _ancestor_heads(t)
        for convert in (hirao_convert, li_convert):
            for arc in convert(t).arcs:
                if not arc.is_root:
                    assert arc.head in ancestors[arc.dependent]


def test_all_conversions_are_valid_rooted_trees():
    for t in all_binary_trees(4):
        for convert in (hirao_convert, li_convert):
            graph = convert(t)
            assert validate_graph(graph) == []
            root_arcs = [a for a in graph.arcs if a.is_root]
            assert len(root_arcs) == 1
            assert root_arcs[0].dependent == tree_heads(t)[t.root]


def test_apply_label_map(fig1_tree):
    graph = hirao_convert(fig1_tree)
    mapped = apply_label_map(graph, {"preparation": "ELABORATION", "result": "CAUSE"})
    by_dep = {a.dependent: a for a in mapped.arcs}
    assert by_dep[1].sense.level2 == "ELABORATION"
    assert by_dep[5].sense.level2 == "CAUSE"
    assert by_dep[6].sense.level2 is None  # unmapped keeps empty class
    assert by_dep[3].sense.level2 == "NONE"  # root untouched


def test_load_label_map(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("# relation\tclass\n\n Elaboration \tELABORATION\nresult\tCAUSE\n")
    assert load_label_map(path) == {"Elaboration": "ELABORATION", "result": "CAUSE"}
    path.write_text("elaboration\tELABORATION\nresult\n")
    with pytest.raises(ValueError, match="label-map line 2: expected 2 tab-separated fields"):
        load_label_map(path)
    path.write_text("elaboration\tELABORATION\npreparation\t \n")
    with pytest.raises(ValueError, match="^label-map line 2: empty class for relation 'preparation'$"):
        load_label_map(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("\tCAUSE\nresult\tA\nresult\tB\n", "label-map line 3: relation 'result' repeated (first on line 2)"),
        ("Result\tA\n# comment\nresult\tA\n", "label-map line 3: relation 'result' repeated (first on line 1)"),
        ("result\tA\n \tCAUSE\n", "label-map line 2: empty relation"),
    ],
    ids=["repeated", "repeated-ignoring-case", "empty"],
)
def test_load_label_map_refuses_repeated_or_empty_relation(tmp_path, text, message):
    # apply_label_map looks relations up ignoring case, so Result and result collide
    path = tmp_path / "map.tsv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_label_map(path)
    assert str(info.value) == message


def test_parse_walks_no_leaves_again_and_li_builds_no_second_tree(monkeypatch, fixtures_dir):
    counts = {"walks": 0, "nodes": 0}
    iter_leaves, internal = discodep.model.iter_leaves, discodep.rst2dep.RstInternal

    def counting_iter_leaves(node):
        counts["walks"] += 1
        return iter_leaves(node)

    def counting_internal(*args):
        counts["nodes"] += 1
        return internal(*args)

    monkeypatch.setattr(discodep.model, "iter_leaves", counting_iter_leaves)
    monkeypatch.setattr(discodep.rst2dep, "RstInternal", counting_internal)

    def cost(convert, arg):
        counts.update(walks=0, nodes=0)
        convert(arg)
        return dict(counts)

    tree = parse_dis_file(fixtures_dir / "fig1.dis")
    assert cost(parse_dis_file, fixtures_dir / "fig1.dis")["walks"] == 0
    assert cost(hirao_convert, tree)["walks"] == 0
    assert cost(li_convert, tree) == {"walks": 0, "nodes": 0}
    # the counters are live: the binarization li leaves unbuilt costs both
    assert cost(binarize, tree) == {"walks": 1, "nodes": 10}
