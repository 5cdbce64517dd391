import random

import pytest
from hypothesis import given, settings, strategies as st

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
    SignedTree,
    all_trees,
    canonicalize,
    parse_tree,
    rooted_product,
)

from oracles import flip_at, internal_paths, lie_dim_by_rank

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
