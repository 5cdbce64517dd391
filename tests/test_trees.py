import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from towertrees import lie, trees
from towertrees.cli import run
from towertrees.groups import _rewritten, ihx_triples, is_zero
from towertrees.lie import eta
from towertrees.sums import TreeSum
from towertrees.towers import TowerError, certificate_from_json, load_tower, parse_bracket
from towertrees.trees import (
    BoundsError,
    CanonicalTree,
    DecoratedTree,
    Leaf,
    Node,
    ParseError,
    SignedTree,
    all_trees,
    block_trees,
    canonicalize,
    canonicalize_rewrite,
    canonicalize_rooted,
    cell_multisets,
    ihx_at,
    interior_edge_paths,
    is_simple,
    labels_of,
    order_of,
    parse_signed,
    parse_tree,
    representative_blocks,
    to_text,
)

from oracles import (
    all_planar_trees,
    brute_canonical,
    count_classes,
    decode,
    edge_paths,
    flip_at,
    graph_canonicalize,
    graph_leaf_views,
    internal_paths,
    is_simple_by_graph,
    layout_ihx_at,
    range_trees,
)


# ------------------------------------------------------------------ grammar

def test_parse_smallest_bracket():
    t = parse_tree("(1,2)")
    assert t == Node(Leaf(1), Leaf(2))
    assert order_of(t) == 1


def test_parse_order_four():
    t = parse_tree("((1,2),(3,(4,5)))")
    assert order_of(t) == 4
    assert labels_of(t) == [1, 2, 3, 4, 5]


def test_parse_unbalanced():
    with pytest.raises(ParseError) as exc:
        parse_tree("((1,2)")
    assert exc.value.position == 6


@pytest.mark.parametrize("text", [
    "(1,2)",
    "((1,2),(3,(4,5)))",
    "inner((1,2),(3,4),ab)",
    "inner(1,2:g,)",
    "inner(1:a,(2:b,3:c),)",
    "12:abC",
])
def test_print_parse_roundtrip(text):
    assert to_text(parse_tree(text)) == text


def test_parse_print_roundtrip_on_trees():
    for t in all_trees(2, 3):
        layout = decode(t)
        assert parse_tree(to_text(layout)) == layout


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_tree("(0,1)")  # labels start at 1
    with pytest.raises(ParseError):
        parse_tree("(1,2) junk")
    with pytest.raises(ParseError):
        parse_tree("inner(1,2)")  # missing word slot
    with pytest.raises(ParseError):
        parse_tree("(1:aA,2)")  # unreduced word


def test_parse_labels_are_ascii_digits_of_bounded_length():
    # '²' is a digit to str.isdigit but not to int()
    with pytest.raises(ParseError, match="expected a label"):
        parse_tree("(1,²)")
    with pytest.raises(ParseError, match="label of 5000 digits is too long"):
        parse_tree("(1," + "7" * 5000 + ")")


def test_parse_signed():
    assert parse_signed("-(2,1)") == (-1, (1, (0, 2, ""), (0, 1, "")))
    assert parse_signed("+(1,2)")[0] == 1
    assert parse_signed(" (1,2)")[0] == 1


def test_whitespace_insignificant():
    assert parse_tree(" ( 1 , ( 2 , 3 ) ) ") == parse_tree("(1,(2,3))")


# ----------------------------------------------------------------- products

def test_rooted_product():
    t1, t2 = Leaf(1), Leaf(2)
    assert to_text(Node(t1, t2)) == "(1,2)"
    a, b = parse_tree("(1,2)"), parse_tree("(3,(4,5))")
    assert to_text(Node(a, b)) == "((1,2),(3,(4,5)))"
    assert order_of(Node(parse_tree("(1,2)"), Leaf(3))) == 2


def test_inner_product_orders():
    assert order_of(DecoratedTree(Leaf(1), Leaf(2), "a")) == 0
    t = DecoratedTree(parse_tree("(1,2)"), parse_tree("(3,4)"), "g")
    assert order_of(t) == 2


def test_inner_product_swap_inverts_word():
    # canonical equality of inner(a,b,g) and inner(b,a,g^-1)
    a, b = parse_tree("(1,2)"), parse_tree("(3,4)")
    lhs = canonicalize(SignedTree(1, DecoratedTree(a, b, "ab")))
    rhs = canonicalize(SignedTree(1, DecoratedTree(b, a, "BA")))
    assert lhs == rhs


# ------------------------------------------------------------ hol normalize
# The canonical form pushes every decoration onto the leaf edges: the
# root edge and every interior edge carry the identity, and each other
# leaf edge the holonomy from the root, oriented toward its leaf.

def test_hol_normalize_y_example():
    # edges toward the leaves decorated (a, b, c): pushing the root edge
    # decoration through the vertex leaves (1, a^-1 b, a^-1 c)
    t = parse_tree("inner(1:a,(2:b,3:c),)")
    assert canonicalize(SignedTree(1, t))[0].text() == "inner(1,(2:Ab,3:Ac),)"


def test_hol_normalize_trivial_unchanged():
    t = parse_tree("inner(1,(2,3),)")
    assert decode(canonicalize(SignedTree(1, t))[0]) == t


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_hol_normalize_idempotent(seed):
    # the decoded canonical layout is its own canonical form
    ct, _ = canonicalize(SignedTree(1, _random_decorated(random.Random(seed))))
    assert canonicalize(SignedTree(1, decode(ct))) == (ct, 1)


# ------------------------------------------------------------- canonicalize

def _random_decorated(rng, max_order=3, m=4, alphabet="ab"):
    def word():
        w = ""
        for _ in range(rng.randint(0, 2)):
            ch = rng.choice(alphabet)
            w += ch if rng.random() < 0.5 else ch.upper()
        from towertrees.words import wreduce
        return wreduce(w)

    def rooted(order):
        if order == 0:
            return Leaf(rng.randint(1, m), word())
        k = rng.randint(0, order - 1)
        return Node(rooted(k), rooted(order - 1 - k), word())

    n = rng.randint(0, max_order)
    k = rng.randint(0, n)
    return DecoratedTree(rooted(k), rooted(n - k), word())


def test_canonical_y_as_swap():
    c1 = canonicalize(SignedTree(1, parse_tree("inner(1,(2,3),)")))
    c2 = canonicalize(SignedTree(1, parse_tree("inner(1,(3,2),)")))
    assert c1[0] == c2[0] and c1[1] == -c2[1]


def test_canonical_or_move():
    c1 = canonicalize(SignedTree(1, parse_tree("inner((1,2),(3,4),g)")))
    c2 = canonicalize(SignedTree(1, parse_tree("inner((3,4),(1,2),G)")))
    assert c1 == c2


def test_two_torsion_y111():
    ct, _ = canonicalize(SignedTree(1, parse_tree("inner(1,(1,1),)")))
    assert ct.two_torsion


def test_two_torsion_examples():
    cases = {
        "inner(1,1,)": False,
        "inner(1,2,)": False,
        "inner((1,1),(2,2),)": True,
        "inner((1,2),(1,2),)": False,
        "inner((1,2),(3,4),)": False,
        "inner(1,(1,2),)": True,
    }
    for text, expect in cases.items():
        ct, _ = canonicalize(SignedTree(1, parse_tree(text)))
        assert ct.two_torsion == expect, text


@given(st.integers(0, 2 ** 30))
@settings(max_examples=120, deadline=None)
def test_canonicalize_matches_brute_force(seed):
    t = _random_decorated(random.Random(seed))
    ct, sign = canonicalize(SignedTree(1, t))
    code, bsign, btorsion = brute_canonical(decode(ct))
    assert code == ct.code
    assert btorsion == ct.two_torsion
    # the canonical layout itself re-canonicalizes with sign +1
    assert canonicalize(SignedTree(1, decode(ct))) == (ct, 1)
    assert bsign == 1 or btorsion


@given(st.integers(0, 2 ** 30))
@settings(max_examples=120, deadline=None)
def test_gauge_moves(seed):
    rng = random.Random(seed)
    t = _random_decorated(rng)
    ct, sign = canonicalize(SignedTree(1, t))
    # single AS flip on the layout predicts a sign change
    layout = decode(ct)
    for path in internal_paths(layout):
        ct2, sign2 = canonicalize(SignedTree(1, flip_at(layout, path)))
        assert ct2 == ct
        if not ct.two_torsion:
            assert sign2 == -1
    # re-presenting with the sides swapped and the word inverted (OR)
    from towertrees.words import winv
    swapped = DecoratedTree(t.right, t.left, winv(t.word))
    assert canonicalize(SignedTree(1, swapped)) == (ct, sign)


def test_single_hol_move_invisible():
    # a whisker move at one trivalent vertex: the three edges oriented
    # away from it are left-multiplied by h; in layout orientation the
    # parent edge (pointing into the vertex) picks up h^-1 on the right
    from towertrees.words import wmul, winv

    def hol_at(tree, path, h):
        rest = tree.right

        def go(sub, at):
            if not at:
                assert isinstance(sub, Node)
                return Node(
                    _push(sub.left, h), _push(sub.right, h), wmul(sub.word, winv(h)))
            head, tail = at[0], at[1:]
            if head == "L":
                return Node(go(sub.left, tail), sub.right, sub.word)
            return Node(sub.left, go(sub.right, tail), sub.word)

        def _push(sub, h):
            if isinstance(sub, Leaf):
                return Leaf(sub.label, wmul(h, sub.word))
            return Node(sub.left, sub.right, wmul(h, sub.word))

        return DecoratedTree(tree.left, go(rest, path), tree.word)

    for text in ["inner(1,(2:ab,3),)", "inner(1,(2,(3:b,4)),)"]:
        t = parse_tree(text)
        ct, sign = canonicalize(SignedTree(1, t))
        layout = decode(ct)
        for path in internal_paths(layout):
            moved = hol_at(layout, path, "a")
            assert canonicalize(SignedTree(1, moved)) == (ct, 1), (text, path)


def _strip(sub):
    """The same shape and labels with every edge word removed."""
    if isinstance(sub, Leaf):
        return Leaf(sub.label)
    if isinstance(sub, Node):
        return Node(_strip(sub.left), _strip(sub.right))
    return DecoratedTree(_strip(sub.left), _strip(sub.right), "")


def _view_is_trivial(view):
    if view[0] == 0:
        return not view[2]
    return _view_is_trivial(view[1]) and _view_is_trivial(view[2])


def _combine(*pairs):
    """The sum of k * poly over (k, poly) pairs, zero terms dropped."""
    out = {}
    for k, poly in pairs:
        for w, c in poly.items():
            out[w] = out.get(w, 0) + k * c
    return {w: c for w, c in out.items() if c}


def _graph_eta(views):
    out = {}
    for label, view in views:
        out.setdefault(label, []).append((1, lie._view_poly(view, {})))
    out = {label: _combine(*pairs) for label, pairs in out.items()}
    return {label: poly for label, poly in out.items() if poly}


def test_leaf_views_match_graph_oracle():
    # the nested-code re-rooting against the adjacency-graph walk on
    # 5,000 seeded random trees of orders 0-5 on 4 labels, decorated
    # over ab, every third one stripped to trivial decorations
    rng = random.Random(20260)
    for k in range(5000):
        t = _random_decorated(rng, max_order=5)
        if k % 3 == 0:
            t = _strip(t)
        views = graph_leaf_views(t)
        assert sorted(trees.leaf_views(t)) == sorted(views)
        sign = rng.choice((1, -1))
        ct, s = canonicalize(SignedTree(sign, t))
        code, gsign, torsion = graph_canonicalize(t)
        assert (ct.code, ct.two_torsion, ct.order) == (code, torsion, order_of(t))
        assert s == (1 if torsion else sign * gsign)
        if all(_view_is_trivial(view) for _, view in views):
            assert eta(t) == _graph_eta(views)
        else:
            with pytest.raises(ValueError, match="decorated trees have no Lie image"):
                eta(t)


def test_edge_paths_count():
    for n, m in [(0, 2), (1, 3), (2, 4), (3, 4)]:
        for ct in all_trees(n, m)[:5]:
            assert len(edge_paths(decode(ct))) == 2 * n + 1


def _check_ihx_against_layout(ct):
    """The code-level IHX move against the layout reference at every
    edge: equal H and X layouts and canonical forms with equal signs at
    interior edges, the same refusals at the others."""
    interior = interior_edge_paths(ct)
    assert interior == [p for p in internal_paths(decode(ct)) if p]
    for edge in edge_paths(decode(ct)):
        if edge not in interior:
            with pytest.raises(ValueError) as kernel:
                ihx_at(ct, edge)
            with pytest.raises(ValueError) as reference:
                layout_ihx_at(ct, edge)
            assert str(kernel.value) == str(reference.value)
            continue
        h, x = ihx_at(ct, edge)
        ref_h, ref_x = layout_ihx_at(ct, edge)
        assert (decode(h), decode(x)) == (ref_h, ref_x)
        assert canonicalize(SignedTree(1, h)) == canonicalize(SignedTree(1, ref_h))
        assert canonicalize(SignedTree(-1, x)) == canonicalize(SignedTree(-1, ref_x))


def test_ihx_at_matches_layout_reference_on_all_small_cells():
    for n in range(5):
        for m in range(1, 5):
            for ct in all_trees(n, m):
                _check_ihx_against_layout(ct)


def test_ihx_at_matches_layout_reference_on_decorated_trees():
    # 1,000 seeded canonical forms of random decorated trees of orders
    # 2-5 on 4 labels, decorated over ab
    rng = random.Random(4242)
    for _ in range(1000):
        t = _random_decorated(rng, max_order=5)
        while order_of(t) < 2:
            t = _random_decorated(rng, max_order=5)
        _check_ihx_against_layout(canonicalize(SignedTree(1, t))[0])


def test_ihx_at_refuses_non_interior_edges():
    ct = canonicalize(SignedTree(1, parse_tree("inner((1,2),(3,4),)")))[0]
    with pytest.raises(ValueError, match="^the root-leaf edge is not interior$"):
        ihx_at(ct, "")
    for edge in ("L", "RR", "RRL", "Q"):
        with pytest.raises(ValueError, match=f"^edge '{edge}' is not interior$"):
            ihx_at(ct, edge)


# ---------------------------------------------------- canonicalize_rewrite

def _check_rewrite(ct, code, seen):
    """``canonicalize_rewrite`` of a layout code rewriting ``ct``, and the
    CanonicalTree that groups builds from it with ``ct``'s order and
    labels, against ``canonicalize``; ``seen`` counts the cases by
    (one rooting, two_torsion)."""
    ref, sign = canonicalize(SignedTree(1, code))
    assert canonicalize_rewrite(code, ct.labels) == (ref.code, sign, ref.two_torsion)
    built, built_sign = _rewritten(ct, code)
    assert (built, built_sign, built.order, built.labels) == (ref, sign, ref.order, ref.labels)
    seen[ct.labels[0] < ct.labels[1], ref.two_torsion] += 1


def test_canonicalize_rewrite_agrees_on_every_ihx_companion():
    # both companions of every IHX triple on every cell n <= 5, m <= 4,
    # plus (6,3): both paths, with and without 2-torsion
    seen = Counter()
    for n, m in [(n, m) for n in range(1, 6) for m in range(1, 5)] + [(6, 3)]:
        for ct in all_trees(n, m):
            for edge in interior_edge_paths(ct):
                for code in ihx_at(ct, edge):
                    _check_rewrite(ct, code, seen)
    assert sorted(seen) == [(False, False), (False, True), (True, False), (True, True)]


def test_canonicalize_rewrite_agrees_on_decorated_layouts():
    # 1,000 seeded random trees of orders 1-5 on 4 labels, decorated over
    # ab: the layout codes rooted at each least-label leaf, whose root
    # view has a trivial holonomy, and both companions at every interior
    # edge of the canonical form
    rng = random.Random(2323)
    seen = Counter()
    for k in range(1000):
        t = _random_decorated(rng, max_order=5)
        while order_of(t) < 1:
            t = _random_decorated(rng, max_order=5)
        if k % 4 == 0:
            t = _strip(t)
        ct = canonicalize(SignedTree(1, t))[0]
        for label, view in trees.leaf_views(t):
            if label == ct.labels[0]:
                _check_rewrite(ct, (label, view), seen)
        for edge in interior_edge_paths(ct):
            for code in ihx_at(ct, edge):
                _check_rewrite(ct, code, seen)
    assert sorted(seen) == [(False, False), (False, True), (True, False), (True, True)]
    assert min(seen.values()) >= 20


def test_canonicalize_rewrite_takes_one_rooting_iff_the_least_label_is_unique(monkeypatch):
    # the rootings tried are the views the least-label walk hands to
    # _least_rooting: none when the least label occurs once, else one per
    # leaf carrying it; leaf_views, which roots every leaf, is not called
    unique = canonicalize(SignedTree(1, parse_tree("inner(1,(3,(2,3)),)")))[0]
    repeated = canonicalize(SignedTree(1, parse_tree("inner(1,((1,3),(2,3)),)")))[0]
    walks, rootings = [], []
    real_walk, real_least = trees._collect_views, trees._least_rooting

    def walk(code, outside, out, low=None):
        walks.append(low)
        return real_walk(code, outside, out, low)

    def least(views, low):
        rootings.append([label for label, _ in views])
        return real_least(views, low)

    monkeypatch.setattr(trees, "_collect_views", walk)
    monkeypatch.setattr(trees, "_least_rooting", least)
    monkeypatch.setattr(trees, "leaf_views", None)
    h, x = ihx_at(unique, "R")
    assert canonicalize_rewrite(h, unique.labels) == ((1, (1, (0, 2, ""), (1, (0, 3, ""), (0, 3, "")))),
                                                      1, True)
    assert canonicalize_rewrite(x, unique.labels)[2] is False
    assert walks == [] and rootings == []
    for edge in interior_edge_paths(repeated):
        for code in ihx_at(repeated, edge):
            canonicalize_rewrite(code, repeated.labels)
            assert rootings.pop() == [1, 1]
    assert walks and set(walks) == {1}


@pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 6) for m in range(1, 4)])
def test_sort_path_agrees_with_canon_rec(n, m):
    # both companions of every triple differ from their tree only at the
    # rewritten vertex and above it, so the path that _ihx sorts on its
    # climb gives _canon_rec's code and sign of ihx_at's written code
    for ct in all_trees(n, m):
        for edge in interior_edge_paths(ct):
            for (root, rest), reading in zip(ihx_at(ct, edge), trees._ihx(ct, edge)):
                code, sign, _ = trees._canon_rec(rest)
                assert reading == ((root, code), sign)


def test_canonicalize_rooted():
    body, sign, torsion = canonicalize_rooted(-1, trees.parse_code("(2,1)"))
    assert body == (1, (0, 1, ""), (0, 2, "")) and sign == 1 and not torsion
    assert to_text(body) == "(1,2)"
    body, sign, torsion = canonicalize_rooted(1, trees.parse_code("(1,2)"))
    assert to_text(body) == "(1,2)" and sign == 1


# ---------------------------------------------------------------- is_simple

def test_low_order_trees_simple():
    for n in range(4):
        for ct in all_trees(n, 4):
            assert is_simple(ct)


def test_symmetric_order4_not_simple():
    star = parse_tree("inner((1,2),((3,4),(5,6)),)")
    assert not is_simple(canonicalize(SignedTree(1, star))[0])


def test_order5_caterpillar_simple():
    cat = parse_tree("inner(1,(2,(3,(4,(5,(6,7))))),)")
    assert order_of(cat) == 5
    assert is_simple(cat)


def test_is_simple_refuses_rooted_trees():
    # a rooted tree is simple or not only once it is closed up: read as
    # inner(((1,2),(3,4)),5) it is, closed with a sixth leaf it is not
    assert not is_simple(parse_tree("inner(6,(((1,2),(3,4)),5),)"))
    for text in ["(((1,2),(3,4)),5)", "1"]:
        with pytest.raises(TypeError, match="^expected an unrooted tree"):
            is_simple(parse_tree(text))
        with pytest.raises(TypeError, match="^not an unrooted code"):
            is_simple(trees.parse_code(text))


def _internal_words_dropped(sub):
    """The same tree with the words of its Node edges removed, so that
    the grammar can print it."""
    if isinstance(sub, Node):
        return Node(_internal_words_dropped(sub.left), _internal_words_dropped(sub.right))
    if isinstance(sub, DecoratedTree):
        return DecoratedTree(_internal_words_dropped(sub.left),
                             _internal_words_dropped(sub.right), sub.word)
    return sub


def test_unrooted_codes_read_as_their_trees():
    # the loaders' codes against the parsed trees on 3,000 seeded random
    # decorated trees: the same views, canonical form and sign, and the
    # same text when printed; each side, read as a rooted text, gives a
    # rooted code printed as parse_tree's tree is
    rng = random.Random(20261)
    layouts = 0
    for _ in range(3000):
        t = _internal_words_dropped(_random_decorated(rng, max_order=4))
        text = to_text(t)
        code = trees.parse_code(text)
        layouts += len(code) == 2
        assert not trees.is_rooted(code)
        assert to_text(code) == text
        assert sorted(trees.leaf_views(code)) == sorted(trees.leaf_views(t))
        sign = rng.choice((1, -1))
        assert canonicalize(SignedTree(sign, code)) == canonicalize(SignedTree(sign, t))
        for side in (t.left, t.right):
            rooted = trees.parse_code(to_text(side))
            assert trees.is_rooted(rooted)
            assert to_text(rooted) == to_text(parse_tree(to_text(side))) == to_text(side)
    assert layouts > 100
    # layout text gives the layout code that ihx_at and CanonicalTree use
    ct, _ = canonicalize(SignedTree(1, parse_tree("inner((1,2),(3,4:a),)")))
    assert trees.parse_code(ct.text()) == ct.code
    assert trees.parse_code(" inner( 1 , 2:ab ,) ") == (1, (0, 2, "ab"))
    assert trees.parse_code("inner(1:a,2,)") == ((0, 1, "a"), (0, 2, ""), "")
    assert trees.parse_code("1") == (0, 1, "")
    assert trees.parse_code("(1,2)") == (1, (0, 1, ""), (0, 2, ""))
    assert trees.parse_code("((1,2),3:b)") == (1, (1, (0, 1, ""), (0, 2, "")), (0, 3, "b"))
    for bad in ["inner(1,2,", "inner(1,2,aA)", "(1,"]:
        with pytest.raises(ParseError):
            trees.parse_code(bad)
    # the loaders refuse a rooted tree where an unrooted one belongs, and
    # parse_bracket an unrooted or decorated bracket
    model = {"m": 3, "order": 1, "points": [{"sign": 1, "tree": "(1,(2,3))"}]}
    with pytest.raises(TowerError, match=r"^model point 0: 'tree' is '\(1,\(2,3\)\)', "
                                         "not an unrooted tree$"):
        load_tower(json.dumps(model))
    ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.nonrepeating)
    h, x = ihx_at(ct, edge)
    move = {"move": "ihx_insert", "i": ct.text(), "h": to_text(h), "x": to_text(x),
            "edge": edge, "sign": 1}
    for key in "ihx":
        text = to_text(trees.parse_code(move[key])[1])
        with pytest.raises(TowerError, match=rf"^certificate move 0 \(ihx_insert\): '{key}' is "
                                             rf"'{re.escape(text)}', not an unrooted tree$"):
            certificate_from_json(json.dumps([{**move, key: text}]))
    with pytest.raises(TowerError, match=r"^'inner\(1,2,\)' is not a bracket$"):
        parse_bracket("inner(1,2,)")
    with pytest.raises(TowerError, match=r"^bracket '\(1:a,2\)' must not carry decorations$"):
        parse_bracket("(1:a,2)")


def test_two_torsion_sign_is_reduced_mod_2():
    # t = -t, so a 2-torsion tree's coefficient lives in Z/2: +-1 gives
    # 1, and 0 or +-2 give 0
    tree = parse_tree("inner(1,(1,1),)")
    ct, _ = canonicalize(SignedTree(1, tree))
    for sign in (0, 1, -1, 2, -2, 3, 5):
        assert canonicalize(SignedTree(sign, tree)) == (ct, sign % 2)
    assert is_zero(TreeSum([canonicalize(SignedTree(2, tree))]), 1, 1)
    assert not is_zero(TreeSum([canonicalize(SignedTree(3, tree))]), 1, 1)


def test_rooted_trees_are_not_read_as_unrooted_ones():
    # ((1,2),(3,4)) has no leaf at its root: read as an unrooted tree it
    # would be inner(1,(2,(3,4)),), a different order-2 tree
    for tree in [parse_tree("((1,2),(3,4))"), Leaf(1)]:
        name = type(tree).__name__
        for read in (trees.leaf_views, lambda t: canonicalize(SignedTree(1, t)), eta):
            with pytest.raises(TypeError, match=f"not {name}$"):
                read(tree)


def test_order_and_simplicity_read_off_the_code():
    # the stored order and the code-level simplicity test agree with the
    # decoded layout on every tree of every cell n <= 4, m <= 3, and (5,2)
    cells = [(n, m) for n in range(5) for m in range(1, 4)] + [(5, 2)]
    simple = 0
    for n, m in cells:
        for ct in all_trees(n, m):
            layout = decode(ct)
            assert ct.order == order_of(layout) == n
            assert is_simple(ct) == is_simple_by_graph(layout) == is_simple(layout)
            simple += is_simple(ct)
    assert 0 < simple < sum(len(all_trees(n, m)) for n, m in cells)


def test_order_takes_no_part_in_equality_hash_or_repr():
    ct = canonicalize(SignedTree(1, parse_tree("inner((1,2),(3,4),)")))[0]
    assert ct.labels == (1, 2, 3, 4)
    other = CanonicalTree(ct.code, ct.two_torsion, ct.order + 1, (9,))
    assert other == ct and hash(other) == hash(ct) and repr(other) == repr(ct)
    assert repr(ct) == "CanonicalTree('inner(1,(2,(3,4)),)')"


# -------------------------------------------------------------- enumeration

def test_all_trees_smallest():
    assert [ct.text() for ct in all_trees(0, 1)] == ["inner(1,1,)"]
    assert [ct.text() for ct in all_trees(0, 2)] == [
        "inner(1,1,)", "inner(1,2,)", "inner(2,2,)"]


def test_all_trees_counts_against_union_find():
    for n, m in [(0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]:
        expected = count_classes(all_planar_trees(n, m))
        assert len(all_trees(n, m)) == expected, (n, m)


def test_all_trees_match_full_planar_enumeration():
    # all_trees canonicalizes only sorted codes rooted at a least label;
    # every planar rooting must canonicalize into the same set
    for n, m in [(3, 3), (4, 2), (3, 4), (4, 3), (2, 5)]:
        seen = {}
        for t in all_planar_trees(n, m):
            ct, _ = canonicalize(SignedTree(1, t))
            seen[ct.code] = (ct.two_torsion, ct.order)
        assert [(ct.code, (ct.two_torsion, ct.order)) for ct in all_trees(n, m)] \
            == sorted(seen.items()), (n, m)


def test_all_trees_canonicalizes_few_candidates(monkeypatch):
    # canonical augmentation tries 1,650 candidates for the 1,040 trees
    # at (4, 4); a planar enumeration would canonicalize 18,200 rootings
    calls = []
    original = trees.canonicalize_rewrite

    def counting(code, labels):
        calls.append(code)
        return original(code, labels)

    monkeypatch.setattr(trees, "canonicalize_rewrite", counting)
    found = [ct for mu in cell_multisets(4, 4) for ct in trees.block_trees.__wrapped__(mu)]
    assert (len(found), len(calls)) == (1040, 1650)


def test_all_trees_sorted_unique():
    trees = all_trees(2, 3)
    codes = [ct.code for ct in trees]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)


@pytest.mark.parametrize("n, m", [(n, m) for n in range(6) for m in range(1, 6)]
                         + [(6, 3), (7, 3), (6, 4)])
def test_all_trees_match_the_range_enumeration(n, m):
    # the union of the blocks, each enumerated by splitting its label
    # multiset, against the whole-cell enumeration by order over a range
    # of labels: tree for tree, with the same flags, orders and labels
    def fields(cell):
        return [(ct.code, ct.two_torsion, ct.order, ct.labels) for ct in cell]

    assert fields(all_trees(n, m)) == fields(range_trees(n, m))


@pytest.mark.parametrize("n, m", [(n, m) for n in range(5) for m in range(1, 5)] + [(5, 3)])
def test_representative_blocks_cover_the_cell(n, m):
    # every label-multiset block is as large as the block of its sorted
    # multiplicity vector, a representative counts the blocks it stands
    # for, and the counted blocks hold every tree of the cell
    blocks = {mu: block_trees(mu) for mu in cell_multisets(n, m)}
    assert [ct for mu in sorted(blocks) for ct in blocks[mu]] == sorted(
        all_trees(n, m), key=lambda ct: ct.labels)
    copies = {}
    for mu, block in blocks.items():
        assert all(tuple(ct.labels) == mu for ct in block)
        # used labels in non-decreasing multiplicity, the unused ones last
        mult = sorted(k for k in (mu.count(i) for i in range(1, m + 1)) if k)
        rep = tuple(i + 1 for i, k in enumerate(mult) for _ in range(k))
        assert len(block) == len(blocks[rep]), (mu, rep)
        copies[rep] = copies.get(rep, 0) + 1
    reps = representative_blocks(n, m)
    assert [(tuple(trees[0].labels), count) for count, trees in reps] == sorted(copies.items())
    assert sum(count * len(trees) for count, trees in reps) == len(all_trees(n, m))


@pytest.mark.parametrize("n, m, unique, total", [(4, 4, 261, 378), (5, 3, 464, 876),
                                                 (6, 3, 1590, 4730)])
def test_representative_blocks_put_triples_on_the_one_rooting_path(n, m, unique, total):
    # the IHX triples of the representative blocks whose least label, the
    # root of every code, occurs once: their tree has its code as its only
    # reading in the block's reading table, and a companion of theirs is
    # canonicalized from one rooting.  Representatives with label 1 the
    # most frequent label would put none of them there.
    counts = Counter()
    for _, block in representative_blocks(n, m):
        for ct in block:
            counts[ct.labels[0] < ct.labels[1]] += len(interior_edge_paths(ct))
    assert (counts[True], sum(counts.values())) == (unique, total)


def test_bounds(capsys):
    # the caps are the CLI's policy: the library enumerates an order above
    # 4 and a label count above 6 like any other, and the CLI refuses them
    # until --max-order / --max-labels are raised
    assert len(all_trees(5, 2)) == 78
    assert len(all_trees(2, 7)) == 406
    assert run(["groups", "--order", "5", "--labels", "2"]) == 1
    assert run(["groups", "--order", "2", "--labels", "7"]) == 1
    assert run(["groups", "--order", "2", "--labels", "7", "--max-labels", "8"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("order, labels, message", [
    (-1, 2, "order must be at least 0, not -1"),
    (5, 2, "order 5 exceeds bound 4"),
    (2, 0, "label count must be at least 1, not 0"),
    (2, 7, "label count 7 exceeds bound 6"),
])
def test_bounds_name_the_problem(order, labels, message, capsys):
    # the CLI names every bound it refuses; the library refuses only the
    # lower ones, with the same message
    assert run(["groups", "--order", str(order), "--labels", str(labels)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    if order < 0 or labels < 1:
        with pytest.raises(BoundsError, match=f"^{message}$"):
            all_trees(order, labels)


def test_two_torsion_flags_match_brute_force():
    for ct in all_trees(2, 2):
        assert brute_canonical(decode(ct))[2] == ct.two_torsion
