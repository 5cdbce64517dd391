"""Free Lie algebra oracle over the integers.

Everything is verified by expansion in the free associative algebra
(noncommutative words with integer coefficients), never by basis
rewriting: this module exists to cross-check the tree groups, so it
shares with them only the tree types, ``trees.leaf_views`` (a tree
read from each of its leaves) and ``intlinalg.integer_rank``.

The bridge map ``eta`` sends a trivially decorated tree to a tuple of
Lie elements, one per label: rooting the tree at each leaf in turn
reads off a bracket, which is added to the component of that leaf's
label.  Antisymmetry of the bracket kills AS relators and the Jacobi
identity kills IHX relators, which is checked, not assumed.

Brackets are expanded by one kernel on plain dicts word -> coefficient;
``LieElement`` wraps only finished results.  Within one call of
``eta``, ``eta_sum`` or ``rational_rank_bound`` each distinct sub-view
is expanded once, since the views of a tree, and the trees of a cell,
share subtrees.  ``tests/oracles.py`` keeps the bracket-by-bracket
expansion as the reference.
"""

from __future__ import annotations

from .intlinalg import integer_rank
from .trees import CanonicalTree, DecoratedTree, Leaf, all_trees, leaf_views


class LieElement:
    """Integer combination of noncommutative words, stored expanded."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc: dict[tuple, int] = {}
        for word, coeff in terms.items() if isinstance(terms, dict) else terms:
            acc[word] = acc.get(word, 0) + coeff
        self.terms = {w: c for w, c in acc.items() if c}

    @classmethod
    def generator(cls, i):
        return cls({(i,): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LieElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return LieElement(list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LieElement({w: -c for w, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "LieElement(0)"
        bits = [f"{c:+d}*X{''.join(map(str, w))}" for w, c in sorted(self.terms.items())]
        return "LieElement(" + " ".join(bits) + ")"


def _bracket(a, b):
    """ab - ba of two expanded polynomials (dicts word -> coefficient),
    zero terms dropped: the one bracket kernel of this module."""
    out: dict[tuple, int] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            c = ca * cb
            w = wa + wb
            out[w] = out.get(w, 0) + c
            w = wb + wa
            out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}


def lie_bracket(a: LieElement, b: LieElement) -> LieElement:
    """ab - ba in the associative expansion."""
    return LieElement(_bracket(a.terms, b.terms))


def rooted_tree_to_lie(t) -> LieElement:
    """Leaf i -> X_i, node -> bracket of the children's images."""
    def poly(t):
        if t.word:
            raise ValueError("decorated trees have no Lie image")
        if isinstance(t, Leaf):
            return {(t.label,): 1}
        return _bracket(poly(t.left), poly(t.right))
    return LieElement(poly(t))


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
            poly = _bracket(_view_poly(view[1], memo), _view_poly(view[2], memo))
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
    return {lab: LieElement(poly) for lab, poly in out.items()}


def eta(tree):
    """Label-indexed Lie images of a tree, summed over its rootings."""
    return _by_label(_eta_terms([(tree, 1)], {}))


def eta_sum(ts) -> dict[int, LieElement]:
    """Linear extension of eta to tree sums."""
    return _by_label(_eta_terms(ts.items(), {}))


# ------------------------------------------------------------- Hall bases

def lyndon_words(m, length):
    """Lyndon words of the given length over 1..m (Duval iteration)."""
    out = []
    w = [1]
    while True:
        if len(w) == length:
            out.append(tuple(w))
        k = len(w)
        while len(w) < length:
            w.append(w[len(w) - k])
        while w and w[-1] == m:
            w.pop()
        if not w:
            return out
        w[-1] += 1


def _standard_bracketing(word):
    if len(word) == 1:
        return {word: 1}
    # standard factorization: the longest proper Lyndon suffix (a
    # single letter is one, so the search always ends)
    for i in range(1, len(word)):
        suffix = word[i:]
        if all(suffix < suffix[j:] + suffix[:j] for j in range(1, len(suffix))):
            return _bracket(_standard_bracketing(word[:i]), _standard_bracketing(suffix))


def hall_basis(m, length, max_length=8):
    """A Hall family (Lyndon basis) of the degree-``length`` part of the
    free Lie algebra on m generators, expanded."""
    if length > max_length or length < 1:
        raise ValueError(f"length {length} out of bounds (1..{max_length})")
    return [LieElement(_standard_bracketing(w)) for w in lyndon_words(m, length)]


def lie_dimension_oracle(m, length):
    """Necklace-count dimension of the degree-``length`` part (Witt)."""
    if length < 1:
        raise ValueError(f"length {length} out of bounds (at least 1)")
    def mobius(n):
        result, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if n > 1 else result

    return sum(mobius(d) * m ** (length // d)
               for d in range(1, length + 1) if length % d == 0) // length


def rational_rank_bound(order, labels, bounds=None):
    """Rank of the eta images of all canonical order-n trees.

    Since eta kills every AS and IHX relator, this rank is a lower
    bound certificate: it never exceeds the free rank of the order-n
    tree group.
    """
    memo: dict = {}
    return integer_rank([_eta_terms([(ct, 1)], memo) for ct in all_trees(order, labels, bounds)])
