"""The map eta from trees to the free Lie algebra over the integers.

Everything is verified by expansion in the free associative algebra
(noncommutative words with integer coefficients), never by basis
rewriting.  The image of eta bounds the free rank of the tree groups
from below, so the module shares with them only the tree types,
``trees.leaf_views`` (a tree read from each of its leaves) and
``intlinalg.integer_rank``.

A Lie polynomial is a plain dict, a word (tuple of labels) mapped to a
nonzero integer coefficient; zero is the empty dict, so two polynomials
are equal exactly when their dicts are.  Every bracket goes through one
kernel, ``lie_bracket``, which drops the terms that cancel.

The bridge map ``eta`` sends a trivially decorated tree to one
polynomial per label: rooting the tree at each leaf in turn reads off a
bracket, which is added to the component of that leaf's label.
Antisymmetry of the bracket kills AS relators and the Jacobi identity
kills IHX relators, which is checked, not assumed.

Within one call of ``eta`` or ``eta_sum``, and within one block of
``rational_rank_bound``, each distinct sub-view is expanded once, since
the views of a tree, and the trees of a block, share subtrees.
``tests/oracles.py`` keeps the bracket-by-bracket expansion as the
reference, and the Hall (Lyndon) basis and the Witt necklace count that
check the bracket's dimensions.

eta keeps a tree's label multiset (the letters of each word with its
label), so the images of distinct label-multiset blocks are supported on
disjoint words, and a label permutation carries one block's image onto
another's.  ``rational_rank_bound`` therefore sums the ranks of the
representative blocks of ``trees.representative_blocks``, each counted
once per arrangement of its multiplicities.
"""

from __future__ import annotations

from .intlinalg import integer_rank
from .trees import CanonicalTree, DecoratedTree, leaf_views, representative_blocks


def lie_bracket(a, b):
    """ab - ba of two polynomials (dicts word -> coefficient), zero
    terms dropped: the one bracket kernel of this module."""
    out: dict[tuple, int] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            c = ca * cb
            w = wa + wb
            out[w] = out.get(w, 0) + c
            w = wb + wa
            out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}


def _view_poly(view, memo):
    """Expanded bracket of a leaf view; ``memo`` maps each view already
    expanded in the current call to its polynomial."""
    poly = memo.get(view)
    if poly is None:
        if view[0] == 0:
            if view[2]:
                raise ValueError("decorated trees have no Lie image")
            poly = {(view[1],): 1}
        else:
            poly = lie_bracket(_view_poly(view[1], memo), _view_poly(view[2], memo))
        memo[view] = poly
    return poly


def _eta_terms(terms, memo):
    """eta of a tree sum, given as (tree, coefficient) pairs, as one
    dict (label, *word) -> coefficient, zero terms dropped."""
    out: dict[tuple, int] = {}
    for tree, k in terms:
        if not isinstance(tree, (CanonicalTree, DecoratedTree)):
            raise TypeError("eta expects an unrooted tree")
        for label, view in leaf_views(tree):
            for w, c in _view_poly(view, memo).items():
                key = (label,) + w
                out[key] = out.get(key, 0) + k * c
    return {key: c for key, c in out.items() if c}


def _by_label(terms):
    out: dict[int, dict] = {}
    for key, c in terms.items():
        out.setdefault(key[0], {})[key[1:]] = c
    return out


def eta(tree):
    """Label -> Lie polynomial of a tree, summed over its rootings;
    labels whose component is zero are left out."""
    return _by_label(_eta_terms([(tree, 1)], {}))


def eta_sum(ts):
    """Linear extension of eta to tree sums."""
    return _by_label(_eta_terms(ts.items(), {}))


def rational_rank_bound(order, labels):
    """Rank of the eta images of all canonical order-n trees.

    Since eta kills every AS and IHX relator, this rank is a lower
    bound certificate: it never exceeds the free rank of the order-n
    tree group.  Summed over the representative blocks, with one memo
    per block.
    """
    total = 0
    for count, trees in representative_blocks(order, labels):
        memo: dict = {}
        total += count * integer_rank([_eta_terms([(ct, 1)], memo) for ct in trees])
    return total
