import random

import pytest
from hypothesis import given, settings, strategies as st

from towertrees import lie
from towertrees.groups import group_structure, ihx_triples, relator_sum
from towertrees.intlinalg import integer_rank
from towertrees.lie import eta, eta_sum, lie_bracket, rational_rank_bound
from towertrees.trees import (
    DecoratedTree,
    Leaf,
    Node,
    SignedTree,
    all_trees,
    canonicalize,
    leaf_views,
    parse_tree,
    representative_blocks,
    to_text,
)
from towertrees.words import wreduce

from oracles import (
    bracket_eta,
    bracket_eta_sum,
    bracket_eta_vector,
    decode,
    flip_at,
    hall_basis,
    internal_paths,
    lie_dim_by_rank,
    lie_dimension_oracle,
    lyndon_words,
)

X = {i: {(i,): 1} for i in range(1, 6)}


def _combine(*pairs):
    """The sum of k * poly over (k, poly) pairs, zero terms dropped."""
    out = {}
    for k, poly in pairs:
        for w, c in poly.items():
            out[w] = out.get(w, 0) + k * c
    return {w: c for w, c in out.items() if c}


def _random_element(rng, degree, m=3):
    terms = []
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.randint(1, m) for _ in range(degree))
        terms.append((rng.randint(-2, 2), {word: 1}))
    return _combine(*terms)


def test_bracket_basics():
    assert lie_bracket(X[1], X[2]) == {(1, 2): 1, (2, 1): -1}
    assert lie_bracket(X[1], X[1]) == {}


@given(st.integers(0, 2 ** 30))
@settings(max_examples=50, deadline=None)
def test_jacobi(seed):
    rng = random.Random(seed)
    a = _random_element(rng, rng.randint(1, 2))
    b = _random_element(rng, rng.randint(1, 2))
    c = _random_element(rng, rng.randint(1, 2))
    total = _combine((1, lie_bracket(a, lie_bracket(b, c))),
                     (1, lie_bracket(b, lie_bracket(c, a))),
                     (1, lie_bracket(c, lie_bracket(a, b))))
    assert total == {}


def test_ihx_rooted_images_sum_to_zero():
    # the three trees of an IHX triple, all rooted at the same leaf:
    # eta's component at that leaf's label is the bracket of the rest
    i = eta(parse_tree("inner(1,(2,(3,4)),)"))[1]
    h = eta(parse_tree("inner(1,((4,2),3),)"))[1]
    x = eta(parse_tree("inner(1,((3,2),4),)"))[1]
    assert i == lie_bracket(X[2], lie_bracket(X[3], X[4]))
    assert _combine((1, i), (-1, h), (1, x)) == {}


# ---------------------------------------------------------------------- eta

def test_eta_edge():
    assert eta(parse_tree("inner(1,2,)")) == {1: X[2], 2: X[1]}


def test_eta_kills_relators_small():
    for n in range(1, 4):
        for m in range(1, 5):
            for ct, e in ihx_triples(n, m):
                r = relator_sum(ct, e)
                assert eta_sum(r) == {}, (n, m, r.text())


def test_eta_antisymmetry():
    for ct in all_trees(2, 3):
        layout = decode(ct)
        for path in internal_paths(layout):
            flipped = flip_at(layout, path)
            images = eta(layout), eta(flipped)
            for lab in images[0].keys() | images[1].keys():
                assert _combine((1, images[0].get(lab, {})), (1, images[1].get(lab, {}))) == {}


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


def test_hall_basis_refuses_lengths_below_one_and_computes_length_nine():
    for length in (0, -1):
        with pytest.raises(ValueError, match=rf"length {length} out of bounds \(at least 1\)"):
            hall_basis(2, length)
    assert len(hall_basis(2, 9)) == lie_dimension_oracle(2, 9) == 56


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
            rows.append({index.setdefault(w, len(index)): c for w, c in el.items()})
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
    assert rational_rank_bound(n, m) == m * L(m, n + 1) - L(m, n + 2)


# ------------------------------------------------- rows on Lyndon columns

_ROW_CELLS = [(n, m) for n in range(6) for m in range(1, 5)] + [(6, 3)]


def _keyed_rows(trees, lyndon):
    """``lie._eta_rows`` of a block, each row keyed by (label, *word);
    the words numbered -1 are exactly those not in ``lyndon``."""
    rows, columns = lie._eta_rows(trees)
    assert all((j >= 0) == (w in lyndon) for (_, w), j in columns.items())
    key = {j: (label,) + w for (label, w), j in columns.items() if j >= 0}
    return [{key[j]: c for j, c in row.items()} for row in rows]


def _lyndon_part(vector, lyndon, skip):
    """The (label, Lyndon word) terms of a full word row, leaving out
    the label ``skip`` above order 0, as ``lie._eta_rows`` does."""
    return {key: c for key, c in vector.items()
            if key[1:] in lyndon and (key[0] != skip or len(key) == 2)}


@pytest.mark.parametrize("n, m", _ROW_CELLS)
def test_lyndon_rows_span_the_rank_of_the_full_word_rows(n, m):
    # each block's rows on (label, Lyndon word) columns have the rank of
    # its full word rows, so rational_rank_bound is the full words' rank
    total = 0
    for count, trees in representative_blocks(n, m):
        rank = integer_rank(lie._eta_rows(trees)[0])
        assert rank == integer_rank([bracket_eta_vector(ct) for ct in trees]), trees[0].labels
        total += count * rank
    assert rational_rank_bound(n, m) == total


@pytest.mark.parametrize("n, m", [(n, m) for n in range(5) for m in range(1, 5)])
def test_eta_lands_in_the_kernel_of_the_bracket(n, m):
    # the sum over labels l of [x_l, eta_l] vanishes on every tree, which
    # lets the rank rows leave out one label's component
    for ct in all_trees(n, m):
        image = bracket_eta(ct)
        assert _combine(*((1, lie_bracket(X[l], p)) for l, p in image.items())) == {}, ct.text()


@pytest.mark.parametrize("n, m", [(n, m) for n in range(5) for m in range(1, 5)])
def test_lyndon_rows_are_the_lyndon_part_of_eta(n, m):
    # every key of a row is (label, Lyndon word), and a row holds every
    # Lyndon coefficient of the tree's full word image but those of the
    # block's last label above order 0, and only those
    lyndon = set(lyndon_words(m, n + 1))
    seen = 0
    for _, trees in representative_blocks(n, m):
        mu = trees[0].labels
        for ct, row in zip(trees, _keyed_rows(trees, lyndon)):
            assert all(key[1:] in lyndon for key in row), ct.text()
            assert row == _lyndon_part(bracket_eta_vector(ct), lyndon, mu[-1]), ct.text()
            if n and mu.count(mu[0]) == 1:
                seen += sum(key[0] == mu[0] for key in row)
    # where the least label occurs once, the top brackets seen from its
    # leaf are led by the next letter, not by it; from m = 3 on such a
    # block has a nonzero image at that label, which catches a wrong x
    assert bool(seen) == (n > 0 and m >= 3)


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
    # every canonical tree with n <= 4, m <= 4; _eta_terms shares one
    # memo across the cell, so every view reused between trees is checked
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


def test_leaf_views_read_from_the_code():
    # a CanonicalTree's views are those of its decoded layout, in the
    # same order (so also as a multiset), decorated trees included
    for n, m in [(0, 3), (1, 3), (2, 4), (3, 3), (4, 2)]:
        for ct in all_trees(n, m):
            assert leaf_views(ct) == leaf_views(decode(ct))
    rng = random.Random(31)
    for _ in range(1500):
        ct, _ = canonicalize(SignedTree(1, _random_tree(rng, lambda: _random_word(rng))))
        assert leaf_views(ct) == leaf_views(decode(ct))
