import random

import pytest
from hypothesis import given, settings, strategies as st

from towertrees import lie, trees
from towertrees.lie import LieElement, eta
from towertrees.trees import (
    BoundsError,
    Bounds,
    CanonicalTree,
    DecoratedTree,
    Leaf,
    Node,
    ParseError,
    SignedTree,
    all_trees,
    canonicalize,
    canonicalize_rooted,
    decode_code,
    hol_normalize,
    ihx_at,
    inner_product,
    interior_edge_paths,
    is_simple,
    labels_of,
    order_of,
    parse_signed,
    parse_tree,
    rooted_product,
    to_text,
)

from oracles import (
    all_planar_trees,
    brute_canonical,
    count_classes,
    edge_paths,
    flip_at,
    graph_canonicalize,
    graph_explicit_code,
    graph_leaf_views,
    internal_paths,
    is_simple_by_graph,
    layout_ihx_at,
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
        layout = t.decode()
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
    with pytest.raises(ParseError):
        parse_tree("(1:c,2)", alphabet="ab")  # unknown letter


def test_parse_labels_are_ascii_digits_of_bounded_length():
    # '²' is a digit to str.isdigit but not to int()
    with pytest.raises(ParseError, match="expected a label"):
        parse_tree("(1,²)")
    with pytest.raises(ParseError, match="label of 5000 digits is too long"):
        parse_tree("(1," + "7" * 5000 + ")")


def test_parse_signed():
    assert parse_signed("-(2,1)") == (-1, Node(Leaf(2), Leaf(1)))
    assert parse_signed("+(1,2)")[0] == 1
    assert parse_signed(" (1,2)")[0] == 1


def test_whitespace_insignificant():
    assert parse_tree(" ( 1 , ( 2 , 3 ) ) ") == parse_tree("(1,(2,3))")


# ----------------------------------------------------------------- products

def test_rooted_product():
    t1, t2 = Leaf(1), Leaf(2)
    assert to_text(rooted_product(t1, t2)) == "(1,2)"
    a, b = parse_tree("(1,2)"), parse_tree("(3,(4,5))")
    assert to_text(rooted_product(a, b)) == "((1,2),(3,(4,5)))"
    assert order_of(rooted_product(parse_tree("(1,2)"), Leaf(3))) == 2


def test_inner_product_orders():
    assert order_of(inner_product(Leaf(1), Leaf(2), "a")) == 0
    t = inner_product(parse_tree("(1,2)"), parse_tree("(3,4)"), "g")
    assert order_of(t) == 2


def test_inner_product_swap_inverts_word():
    # canonical equality of inner(a,b,g) and inner(b,a,g^-1)
    a, b = parse_tree("(1,2)"), parse_tree("(3,4)")
    lhs = canonicalize(SignedTree(1, inner_product(a, b, "ab")))
    rhs = canonicalize(SignedTree(1, inner_product(b, a, "BA")))
    assert lhs == rhs


# ------------------------------------------------------------ hol normalize

def test_hol_normalize_y_example():
    # edges toward the leaves decorated (a, b, c): pushing the root edge
    # decoration through the vertex leaves (1, a^-1 b, a^-1 c)
    t = parse_tree("inner(1:a,(2:b,3:c),)")
    assert to_text(hol_normalize(t)) == "inner(1,(2:Ab,3:Ac),)"


def test_hol_normalize_trivial_unchanged():
    t = parse_tree("inner(1,(2,3),)")
    assert hol_normalize(t) == t


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_hol_normalize_idempotent(seed):
    t = _random_decorated(random.Random(seed))
    h = hol_normalize(t)
    assert hol_normalize(h) == h
    # same gauge class
    assert canonicalize(SignedTree(1, t)) == canonicalize(SignedTree(1, h))


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
    code, bsign, btorsion = brute_canonical(ct.decode())
    assert code == ct.code
    assert btorsion == ct.two_torsion
    # the canonical layout itself re-canonicalizes with sign +1
    assert canonicalize(SignedTree(1, ct.decode())) == (ct, 1)
    assert bsign == 1 or btorsion


@given(st.integers(0, 2 ** 30))
@settings(max_examples=120, deadline=None)
def test_gauge_moves(seed):
    rng = random.Random(seed)
    t = _random_decorated(rng)
    ct, sign = canonicalize(SignedTree(1, t))
    # single AS flip on the layout predicts a sign change
    layout = ct.decode()
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
        layout = ct.decode()
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


def _graph_eta(views):
    out = {}
    for label, view in views:
        out[label] = out.get(label, LieElement()) + LieElement(lie._view_poly(view, {}))
    return {label: el for label, el in out.items() if el}


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
        assert trees.explicit_code(t) == graph_explicit_code(t)
        if all(_view_is_trivial(view) for _, view in views):
            assert eta(t) == _graph_eta(views)
        else:
            with pytest.raises(ValueError, match="decorated trees have no Lie image"):
                eta(t)


def test_edge_paths_count():
    for n, m in [(0, 2), (1, 3), (2, 4), (3, 4)]:
        for ct in all_trees(n, m)[:5]:
            assert len(edge_paths(ct.decode())) == 2 * n + 1


def _check_ihx_against_layout(ct):
    """The code-level IHX move against the layout reference at every
    edge: equal H and X layouts and canonical forms with equal signs at
    interior edges, the same refusals at the others."""
    interior = interior_edge_paths(ct)
    assert interior == [p for p in internal_paths(ct.decode()) if p]
    for edge in edge_paths(ct.decode()):
        if edge not in interior:
            with pytest.raises(ValueError) as kernel:
                ihx_at(ct, edge)
            with pytest.raises(ValueError) as reference:
                layout_ihx_at(ct, edge)
            assert str(kernel.value) == str(reference.value)
            continue
        h, x = ihx_at(ct, edge)
        ref_h, ref_x = layout_ihx_at(ct, edge)
        assert (decode_code(h), decode_code(x)) == (ref_h, ref_x)
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


def test_canonicalize_rooted():
    body, sign, torsion = canonicalize_rooted(-1, parse_tree("(2,1)"))
    assert to_text(body) == "(1,2)" and sign == 1 and not torsion
    body, sign, torsion = canonicalize_rooted(1, parse_tree("(1,2)"))
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
        with pytest.raises(TypeError, match="is_simple expects an unrooted tree"):
            is_simple(parse_tree(text))


def test_order_and_simplicity_read_off_the_code():
    # the stored order and the code-level simplicity test agree with the
    # decoded layout on every tree of every cell n <= 4, m <= 3, and (5,2)
    cells = [(n, m) for n in range(5) for m in range(1, 4)] + [(5, 2)]
    simple = 0
    for n, m in cells:
        for ct in all_trees(n, m, Bounds(max_order=5)):
            layout = ct.decode()
            assert ct.order == order_of(layout) == n
            assert is_simple(ct) == is_simple_by_graph(layout) == is_simple(layout)
            simple += is_simple(ct)
    assert 0 < simple < sum(len(all_trees(n, m, Bounds(max_order=5))) for n, m in cells)


def test_order_takes_no_part_in_equality_hash_or_repr():
    ct = canonicalize(SignedTree(1, parse_tree("inner((1,2),(3,4),)")))[0]
    assert ct.labels == [1, 2, 3, 4]
    other = CanonicalTree(ct.code, ct.two_torsion, ct.order + 1, [9])
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
    original = trees.canonicalize

    def counting(signed):
        calls.append(signed)
        return original(signed)

    monkeypatch.setattr(trees, "canonicalize", counting)
    found = trees._all_trees_cached.__wrapped__(4, 4)
    assert len(found) == 1040
    assert len(calls) <= 2 * len(found)


def test_all_trees_sorted_unique():
    trees = all_trees(2, 3)
    codes = [ct.code for ct in trees]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)


def test_bounds():
    with pytest.raises(BoundsError):
        all_trees(5, 2)
    with pytest.raises(BoundsError):
        all_trees(2, 7)
    assert all_trees(2, 7, bounds=Bounds(4, 8))


@pytest.mark.parametrize("order, labels, message", [
    (-1, 2, "order must be at least 0, not -1"),
    (5, 2, "order 5 exceeds bound 4"),
    (2, 0, "label count must be at least 1, not 0"),
    (2, 7, "label count 7 exceeds bound 6"),
])
def test_bounds_name_the_problem(order, labels, message):
    with pytest.raises(BoundsError, match=f"^{message}$"):
        all_trees(order, labels)


def test_two_torsion_flags_match_brute_force():
    for ct in all_trees(2, 2):
        assert brute_canonical(ct.decode())[2] == ct.two_torsion
