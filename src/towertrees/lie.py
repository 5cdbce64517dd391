"""Free Lie algebra oracle over the integers.

Everything is verified by expansion in the free associative algebra
(noncommutative words with integer coefficients), never by basis
rewriting: this module exists to cross-check the tree groups, so it
shares no machinery with them beyond the tree types.

The bridge map ``eta`` sends a trivially decorated tree to a tuple of
Lie elements, one per label: rooting the tree at each leaf in turn
reads off a bracket, which is added to the component of that leaf's
label.  Antisymmetry of the bracket kills AS relators and the Jacobi
identity kills IHX relators, which is checked, not assumed.
"""

from __future__ import annotations

from .intlinalg import integer_rank
from .trees import CanonicalTree, DecoratedTree, Leaf, all_trees, leaf_views


class LieElement:
    """Integer combination of noncommutative words, stored expanded."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc: dict[tuple, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for word, coeff in items:
            if coeff:
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

    def scale(self, k):
        return LieElement({w: k * c for w, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "LieElement(0)"
        bits = [f"{c:+d}*X{''.join(map(str, w))}" for w, c in sorted(self.terms.items())]
        return "LieElement(" + " ".join(bits) + ")"


def lie_bracket(a: LieElement, b: LieElement) -> LieElement:
    """ab - ba in the associative expansion."""
    out: dict[tuple, int] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            w = wa + wb
            out[w] = out.get(w, 0) + ca * cb
            w = wb + wa
            out[w] = out.get(w, 0) - ca * cb
    return LieElement(out)


def rooted_tree_to_lie(t) -> LieElement:
    """Leaf i -> X_i, node -> bracket of the children's images."""
    if isinstance(t, Leaf):
        if t.word:
            raise ValueError("decorated trees have no Lie image")
        return LieElement.generator(t.label)
    if t.word:
        raise ValueError("decorated trees have no Lie image")
    return lie_bracket(rooted_tree_to_lie(t.left), rooted_tree_to_lie(t.right))


def _view_to_lie(view):
    if view[0] == 0:
        if view[2]:
            raise ValueError("decorated trees have no Lie image")
        return LieElement.generator(view[1])
    return lie_bracket(_view_to_lie(view[1]), _view_to_lie(view[2]))


def eta(tree):
    """Label-indexed Lie images of a tree, summed over its rootings."""
    if isinstance(tree, CanonicalTree):
        tree = tree.decode()
    if not isinstance(tree, DecoratedTree):
        raise TypeError("eta expects an unrooted tree")
    out: dict[int, LieElement] = {}
    for label, view in leaf_views(tree):
        img = _view_to_lie(view)
        out[label] = out.get(label, LieElement()) + img
    return {lab: el for lab, el in out.items() if el}


def eta_sum(ts) -> dict[int, LieElement]:
    """Linear extension of eta to tree sums."""
    out: dict[int, LieElement] = {}
    for t, c in ts.items():
        for lab, el in eta(t).items():
            out[lab] = out.get(lab, LieElement()) + el.scale(c)
    return {lab: el for lab, el in out.items() if el}


def _eta_vector(tree):
    vec = {}
    for lab, el in eta(tree).items():
        for word, coeff in el.terms.items():
            vec[(lab,) + word] = coeff
    return vec


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
        return LieElement.generator(word[0])
    # standard factorization: the longest proper Lyndon suffix
    for i in range(1, len(word)):
        suffix = word[i:]
        if _is_lyndon(suffix):
            return lie_bracket(_standard_bracketing(word[:i]), _standard_bracketing(suffix))
    raise ValueError(f"{word} is not a Lyndon word")


def _is_lyndon(w):
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def hall_basis(m, length, max_length=8):
    """A Hall family (Lyndon basis) of the degree-``length`` part of the
    free Lie algebra on m generators, expanded."""
    if length > max_length or length < 1:
        raise ValueError(f"length {length} out of bounds (1..{max_length})")
    return [_standard_bracketing(w) for w in lyndon_words(m, length)]


def lie_dimension_oracle(m, length):
    """Necklace-count dimension of the degree-``length`` part (Witt)."""
    def mobius(n):
        if n == 1:
            return 1
        result, p, left = 1, 2, n
        while p * p <= left:
            if left % p == 0:
                left //= p
                if left % p == 0:
                    return 0
                result = -result
            p += 1
        if left > 1:
            result = -result
        return result

    total = 0
    for d in range(1, length + 1):
        if length % d == 0:
            total += mobius(d) * m ** (length // d)
    return total // length


def rational_rank_bound(order, labels, bounds=None):
    """Rank of the eta images of all canonical order-n trees.

    Since eta kills every AS and IHX relator, this rank is a lower
    bound certificate: it never exceeds the free rank of the order-n
    tree group.
    """
    rows = [_eta_vector(ct) for ct in all_trees(order, labels, bounds)]
    keyed = []
    index: dict = {}
    for row in rows:
        out = {}
        for key, coeff in row.items():
            out[index.setdefault(key, len(index))] = coeff
        keyed.append(out)
    return integer_rank(keyed)
