import random

import pytest
from hypothesis import given, settings, strategies as st

from towertrees import lie
from towertrees.groups import group_structure, ihx_relators
from towertrees.intlinalg import integer_rank
from towertrees.lie import (
    LieElement,
    eta,
    eta_sum,
    hall_basis,
    lie_bracket,
    lie_dimension_oracle,
    lyndon_words,
    rational_rank_bound,
    rooted_tree_to_lie,
)
from towertrees.trees import (
    Bounds,
    DecoratedTree,
    Leaf,
    Node,
    SignedTree,
    all_trees,
    canonicalize,
    leaf_views,
    parse_tree,
    rooted_product,
    to_text,
)
from towertrees.words import wreduce

from oracles import (
    bracket_eta,
    bracket_eta_sum,
    bracket_eta_vector,
    flip_at,
    internal_paths,
    lie_dim_by_rank,
)

X = {i: LieElement.generator(i) for i in range(1, 6)}


def _random_element(rng, degree, m=3):
    el = LieElement()
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.randint(1, m) for _ in range(degree))
        el = el + LieElement({word: rng.randint(-2, 2)})
    return el


def test_bracket_basics():
    assert lie_bracket(X[1], X[2]).terms == {(1, 2): 1, (2, 1): -1}
    assert lie_bracket(X[1], X[1]).is_zero()


@given(st.integers(0, 2 ** 30))
@settings(max_examples=50, deadline=None)
def test_jacobi(seed):
    rng = random.Random(seed)
    a = _random_element(rng, rng.randint(1, 2))
    b = _random_element(rng, rng.randint(1, 2))
    c = _random_element(rng, rng.randint(1, 2))
    total = (lie_bracket(a, lie_bracket(b, c))
             + lie_bracket(b, lie_bracket(c, a))
             + lie_bracket(c, lie_bracket(a, b)))
    assert total.is_zero()


def test_rooted_tree_images():
    assert rooted_tree_to_lie(parse_tree("(1,2)")) == lie_bracket(X[1], X[2])
    assert rooted_tree_to_lie(parse_tree("((1,2),3)")) == \
        lie_bracket(lie_bracket(X[1], X[2]), X[3])


def test_rooted_product_is_bracket():
    a, b = parse_tree("(1,2)"), parse_tree("(3,(4,5))")
    assert rooted_tree_to_lie(rooted_product(a, b)) == \
        lie_bracket(rooted_tree_to_lie(a), rooted_tree_to_lie(b))


def test_rooted_tree_rejects_decorations():
    with pytest.raises(ValueError):
        rooted_tree_to_lie(parse_tree("(1:a,2)"))


def test_ihx_rooted_images_sum_to_zero():
    # the three trees of an IHX triple, all rooted at the same leaf
    i = rooted_tree_to_lie(parse_tree("(2,(3,4))"))
    h = rooted_tree_to_lie(parse_tree("((4,2),3)"))
    x = rooted_tree_to_lie(parse_tree("((3,2),4)"))
    assert (i - h + x).is_zero()


# ---------------------------------------------------------------------- eta

def test_eta_edge():
    assert eta(parse_tree("inner(1,2,)")) == {1: X[2], 2: X[1]}


def test_eta_kills_relators_small():
    for n in range(1, 4):
        for m in range(1, 5):
            for r in ihx_relators(n, m):
                assert eta_sum(r) == {}, (n, m, r.text())


def test_eta_antisymmetry():
    for ct in all_trees(2, 3):
        layout = ct.decode()
        for path in internal_paths(layout):
            flipped = flip_at(layout, path)
            total = {}
            for lab, el in eta(layout).items():
                total[lab] = total.get(lab, LieElement()) + el
            for lab, el in eta(flipped).items():
                total[lab] = total.get(lab, LieElement()) + el
            assert all(el.is_zero() for el in total.values())


def test_eta_torsion_tree_vanishes():
    y, _ = canonicalize(SignedTree(1, parse_tree("inner(1,(1,1),)")))
    assert eta(y) == {}


# --------------------------------------------------------------- Hall bases

def test_lyndon_words():
    assert lyndon_words(2, 1) == [(1,), (2,)]
    assert lyndon_words(2, 2) == [(1, 2)]
    assert set(lyndon_words(2, 3)) == {(1, 1, 2), (1, 2, 2)}


def test_hall_smallest():
    hb = hall_basis(2, 2)
    assert hb == [lie_bracket(X[1], X[2])]
    assert len(hall_basis(2, 3)) == 2


def test_hall_sizes_match_necklace_oracle():
    for m, length in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 3)]:
        assert len(hall_basis(m, length)) == lie_dimension_oracle(m, length)


def test_dimension_oracle_refuses_lengths_below_one():
    for length in (0, -1):
        with pytest.raises(ValueError, match=f"length {length} out of bounds"):
            lie_dimension_oracle(3, length)


def test_hall_dimension_matches_bracketing_rank_oracle():
    for m, length in [(2, 3), (2, 4), (3, 3)]:
        assert lie_dimension_oracle(m, length) == lie_dim_by_rank(m, length)


def test_hall_independence():
    for m, length in [(2, 4), (3, 3)]:
        index = {}
        rows = []
        for el in hall_basis(m, length):
            rows.append({index.setdefault(w, len(index)): c for w, c in el.terms.items()})
        assert integer_rank(rows) == len(rows)


# -------------------------------------------------------------- rank bounds

def test_rank_arf_class_invisible():
    assert rational_rank_bound(1, 1) == 0


def test_rank_order0():
    # the three order-0 trees on two labels have independent images
    assert rational_rank_bound(0, 2) == 3


def test_rank_bound_inequality():
    for n in range(3):
        for m in range(1, 4):
            assert rational_rank_bound(n, m) <= group_structure(n, m).free_rank


@pytest.mark.parametrize("n, m", [(n, m) for n in range(5) for m in range(1, 5)]
                         + [(5, 2), (5, 3), (5, 4), (6, 3)])
def test_rank_matches_closed_form(n, m):
    # the rank of eta's image is the free rank m L_{n+1} - L_{n+2} of the
    # order-n group, the rank of D_n(m) (Conant-Schneiderman-Teichner)
    L = lie_dimension_oracle
    assert rational_rank_bound(n, m, Bounds(max_order=6)) == m * L(m, n + 1) - L(m, n + 2)


# ------------------------------------------- the bracket-by-bracket oracle

def _random_tree(rng, word=lambda: "", max_order=5, m=4):
    def rooted(order):
        if order == 0:
            return Leaf(rng.randint(1, m), word())
        k = rng.randint(0, order - 1)
        return Node(rooted(k), rooted(order - 1 - k), word())

    n = rng.randint(0, max_order)
    k = rng.randint(0, n)
    return DecoratedTree(rooted(k), rooted(n - k), word())


def _random_word(rng):
    return wreduce("".join(rng.choice("aAbB") for _ in range(rng.randint(0, 2))))


@pytest.mark.parametrize("n", range(5))
def test_eta_matches_bracket_oracle_on_canonical_trees(n):
    # every canonical tree with n <= 4, m <= 4; the rank rows share one
    # memo across the cell, as rational_rank_bound does
    rng = random.Random(n)
    for m in range(1, 5):
        cell = all_trees(n, m)
        memo = {}
        for ct in cell:
            assert eta(ct) == bracket_eta(ct), ct.text()
            assert lie._eta_terms([(ct, 1)], memo) == bracket_eta_vector(ct), ct.text()
        for _ in range(5):
            ts = {ct: rng.choice((-3, -2, -1, 1, 2, 3)) for ct in rng.sample(cell, min(len(cell), 8))}
            assert eta_sum(ts) == bracket_eta_sum(ts.items())
        assert rational_rank_bound(n, m) == integer_rank([bracket_eta_vector(ct) for ct in cell])


def test_eta_matches_bracket_oracle_on_random_trees():
    # 2,500 seeded random trivially decorated layouts of orders 0-5 on 4
    # labels, and 300 random sums of them
    rng = random.Random(1907)
    ts = [_random_tree(rng) for _ in range(2500)]
    memo = {}
    for t in ts:
        assert eta(t) == bracket_eta(t), to_text(t)
        assert lie._eta_terms([(t, 1)], memo) == bracket_eta_vector(t), to_text(t)
    for _ in range(300):
        pairs = {t: rng.choice((-2, -1, 1, 2)) for t in rng.sample(ts, 4)}
        assert eta_sum(pairs) == bracket_eta_sum(pairs.items())


def test_decorated_trees_have_no_lie_image():
    # a tree whose holonomies are all trivial after the gauge moves still
    # has an image, equal to the oracle's; any other raises the same error
    rng = random.Random(77)
    message = "decorated trees have no Lie image"
    raised = 0
    for _ in range(800):
        t = _random_tree(rng, lambda: _random_word(rng), max_order=4)
        ct, _ = canonicalize(SignedTree(1, t))
        try:
            expected = bracket_eta(t)
        except ValueError as exc:
            assert str(exc) == message
            raised += 1
            for tree in (t, ct):
                with pytest.raises(ValueError, match=message):
                    eta(tree)
            with pytest.raises(ValueError, match=message):
                eta_sum({t: 1, ct: 2})
            continue
        assert eta(t) == eta(ct) == expected
    assert raised > 600
    with pytest.raises(ValueError, match=message):
        rooted_tree_to_lie(parse_tree("(1:a,2)"))
    with pytest.raises(ValueError, match=message):
        rooted_tree_to_lie(Node(Leaf(1), Leaf(2), "a"))


def test_leaf_views_read_from_the_code():
    # a CanonicalTree's views are those of its decoded layout, in the
    # same order (so also as a multiset), decorated trees included
    for n, m in [(0, 3), (1, 3), (2, 4), (3, 3), (4, 2)]:
        for ct in all_trees(n, m):
            assert leaf_views(ct) == leaf_views(ct.decode())
    rng = random.Random(31)
    for _ in range(1500):
        ct, _ = canonicalize(SignedTree(1, _random_tree(rng, lambda: _random_word(rng))))
        assert leaf_views(ct) == leaf_views(ct.decode())
