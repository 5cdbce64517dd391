"""The map eta from trees to the free Lie algebra over the integers.

Everything is verified by expansion in the free associative algebra
(noncommutative words with integer coefficients), never by basis
rewriting.  The image of eta bounds the free rank of the tree groups
from below, so the module shares with them only
``trees.leaf_views`` (a tree read from each of its leaves, which
refuses a rooted one), the representative blocks and
``intlinalg.integer_rank``.

A Lie polynomial is a plain dict, a word (tuple of labels) mapped to a
nonzero integer coefficient; zero is the empty dict, so two polynomials
are equal exactly when their dicts are.  Every bracket goes through one
kernel, ``lie_bracket``, which drops the terms that cancel; only the
rank rows take part of a bracket, through ``_led_bracket``.

The bridge map ``eta`` sends a trivially decorated tree to one
polynomial per label: rooting the tree at each leaf in turn reads off a
bracket, which is added to the component of that leaf's label.
Antisymmetry of the bracket kills AS relators and the Jacobi identity
kills IHX relators, which is checked, not assumed.

Within one call of ``eta`` or ``eta_sum``, each distinct sub-view is
expanded once, since the views of a tree share subtrees.
``rational_rank_bound`` keeps one memo per tree and reads its rows on
(label, Lyndon word) columns only: over Z a Lie polynomial is fixed by
its coefficients on Lyndon words, since the standard bracketing of a
Lyndon word w is w plus larger words (Chen-Fox-Lyndon, Ann. of Math.
68, 1958).  Every Lyndon word begins with its least letter, so of the
bracket [A, B] at the top of a view it forms only the words led by that
letter.  Above order 0 it also leaves out one label's views: eta lands
in the kernel of the bracket x_l (x) P -> [x_l, P], which fixes any one
component from the others.  ``tests/oracles.py`` keeps the bracket-by-bracket expansion as
the reference, and the Hall (Lyndon) basis and the Witt necklace count
that check the bracket's dimensions.

eta keeps a tree's label multiset (the letters of each word with its
label), so the images of distinct label-multiset blocks are supported on
disjoint words, and a label permutation carries one block's image onto
another's.  ``rational_rank_bound`` therefore sums the ranks of the
representative blocks of ``trees.representative_blocks``, each counted
once per arrangement of its multiplicities.
"""

from __future__ import annotations

from .intlinalg import integer_rank
from .trees import leaf_views, representative_blocks


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
    expanded in the current call, or for the current tree, to its
    polynomial."""
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


class _Columns(dict):
    """(label, word) -> column of one block's rows, numbered on first
    use, or -1 when the word is not Lyndon."""

    def __missing__(self, key):
        j = self[key] = len(self) if _is_lyndon(key[1]) else -1
        return j


def _is_lyndon(word):
    """True iff the word is strictly less than each of its proper suffixes."""
    return all(word < word[i:] for i in range(1, len(word)))


def _led_bracket(row, columns, label, a, b, x):
    """Add to ``row`` the terms of [a, b] whose word begins with the
    letter x, a_x b - b_x a, p_x keeping the words of p that begin with
    x, each at its column of ``label`` if it has one."""
    for p, q, sign in ((a, b, 1), (b, a, -1)):
        for wp, cp in p.items():
            if wp[0] == x:
                cp *= sign
                for wq, cq in q.items():
                    j = columns[label, wp + wq]
                    if j >= 0:
                        row[j] = row.get(j, 0) + cp * cq


def _eta_rows(trees):
    """eta of each tree of one label-multiset block as a row on the
    (label, Lyndon word) columns, one label left out above order 0: the
    rows have the rank of eta's image, which is all they are for.
    Returns (rows, columns), a row a dict column -> nonzero coefficient
    and ``columns`` a ``_Columns``.

    The sub-views of a tree are expanded once, through one memo per
    tree.  A top-level bracket [A, B], seen from a leaf labelled l, is
    not: every Lyndon word begins with its least letter, so only the
    words led by x, the least letter of the block's multiset with one l
    removed, are formed, by ``_led_bracket``."""
    mu = trees[0].labels
    # eta lands in the kernel of the bracket x_l (x) P -> [x_l, P], and
    # above order 0 a view has degree at least 2, where [x_l, .] is
    # injective; so the other components fix any one label's, and the
    # last label, a representative block's most frequent, is left out
    skip = mu[-1] if len(mu) > 2 else None
    columns = _Columns()
    rows = []
    for ct in trees:
        memo: dict = {}
        row: dict[int, int] = {}
        for label, view in leaf_views(ct):
            if label == skip:
                continue
            if view[0]:
                x = mu[1] if label == mu[0] else mu[0]
                _led_bracket(row, columns, label, _view_poly(view[1], memo),
                             _view_poly(view[2], memo), x)
            else:  # order 0: the view is the other leaf, a Lyndon letter
                j = columns[label, (view[1],)]
                row[j] = row.get(j, 0) + 1
        rows.append({j: c for j, c in row.items() if c})
    return rows, columns


def rational_rank_bound(order, labels):
    """Rank of the eta images of all canonical order-n trees.

    Since eta kills every AS and IHX relator, this rank is a lower
    bound certificate: it never exceeds the free rank of the order-n
    tree group.  Summed over the representative blocks, each block's
    rows on (label, Lyndon word) columns, x-led top brackets and a memo
    per tree (``_eta_rows``): these columns give the rank of the full
    word rows, since the standard bracketing of a Lyndon word w is w
    plus larger words (Chen-Fox-Lyndon, Ann. of Math. 68, 1958), and so
    do the columns of all labels but one above order 0.
    """
    return sum(count * integer_rank(_eta_rows(trees)[0])
               for count, trees in representative_blocks(order, labels))
